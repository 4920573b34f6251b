"""Vector spherical wave machinery in a unified orbital basis.

Every vector multipole field is decomposed into scalar Helmholtz solutions
times fixed spherical unit vectors e_q (q = -1, 0, +1):

    M_lm      = z_l(kr) Yv[l,l,m]
    N_lm      = i sqrt((l+1)/(2l+1)) z_{l-1} Yv[l,l-1,m]
                - i sqrt(l/(2l+1))   z_{l+1} Yv[l,l+1,m]
    grad wave = sqrt(l/(2l+1)) z_{l-1} Yv[l,l-1,m]
                + sqrt((l+1)/(2l+1)) z_{l+1} Yv[l,l+1,m]

with Yv[l,j,m] = sum_q <j,m-q;1,q|l,m> Y_{j,m-q} e_q (so Yv[l,l,m] = X_lm).
Because the e_q are position independent, scalar identities (plane-wave
expansion, translation theorem, lattice sums) lift to the vector case by
plain linear algebra.  All decompositions above were pinned against direct
numerical differentiation.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import specfun as sf

# Cartesian components of the spherical unit vectors e_{+1}, e_0, e_{-1}
E_SPH = {
    +1: np.array([-1.0, -1.0j, 0.0]) / math.sqrt(2.0),
    0: np.array([0.0, 0.0, 1.0], dtype=complex),
    -1: np.array([1.0, -1.0j, 0.0]) / math.sqrt(2.0),
}


def nlm(lmax: int) -> int:
    """Number of (l, m) channels with 1 <= l <= lmax."""
    return (lmax + 1) ** 2 - 1


def lm_index(l: int, m: int) -> int:
    """Flat index of channel (l, m), l >= 1."""
    return l * l - 1 + (m + l)


def lm_list(lmax: int):
    return [(l, m) for l in range(1, lmax + 1) for m in range(-l, l + 1)]


def sidx(lam: int, nu: int) -> int:
    """Flat index for scalar channels (lam, nu), lam >= 0."""
    return lam * lam + nu + lam


def n_scalar(lam_max: int) -> int:
    return (lam_max + 1) ** 2


@lru_cache(maxsize=8)
def _scalar_index_arrays(lam_max: int):
    """(l, m) of every scalar channel, aligned with sidx ordering."""
    lidx = np.array([lam for lam in range(lam_max + 1) for _ in range(2 * lam + 1)])
    midx = np.array([nu for lam in range(lam_max + 1) for nu in range(-lam, lam + 1)])
    return lidx, midx


def ylm_flat(lmax: int, ct, st, phi) -> np.ndarray:
    """Y_lm values as a flat array over sidx(l, m), l <= lmax, from legendre_normalized.

    The direction arguments may be arrays; the leading axes of the result are
    their broadcast shape.
    """
    lidx, midx = _scalar_index_arrays(lmax)
    m = np.abs(midx)
    pt = sf.legendre_normalized(lmax, ct, st)[..., lidx, m]
    eimp = np.exp(1j * np.arange(lmax + 1) * np.asarray(phi)[..., None])[..., m]
    return np.where(midx < 0, (-1.0) ** m * pt / eimp, pt * eimp)


def plane_wave_coeffs(lmax: int, ct, st, phi, evec) -> tuple[np.ndarray, np.ndarray]:
    """Regular VSWF coefficients (aM, aE) of E = evec * exp(i K.r).

    (ct, st, phi) describe the propagation direction K/k (possibly complex
    for evanescent beams); evec is the cartesian polarization vector with
    evec . K = 0.  Expansion: E = sum aM_lm M^(1)_lm + aE_lm N^(1)_lm.
    """
    a = incident_coeffs(lmax, ylm_flat(lmax + 1, ct, st, phi), np.asarray(evec, dtype=complex))
    nv = nlm(lmax)
    return a[..., :nv], a[..., nv:]


def incident_coeffs(lmax: int, yflat: np.ndarray, evec: np.ndarray) -> np.ndarray:
    """evec . (_in_tensor(lmax) @ yflat): (aM; aE) of plane_wave_coeffs, batched.

    yflat = ylm_flat(lmax + 1, ct, st, phi) has shape D + (n_scalar,) over
    directions; evec has shape P + (3,) with P broadcastable against D.
    Returns shape broadcast(D, P) + (2 nlm,).
    """
    return _project(_in_tensor(lmax), yflat, evec)


def outgoing_coeffs(lmax: int, yflat: np.ndarray, evec: np.ndarray) -> np.ndarray:
    """evec . (out_tensor(lmax) @ yflat) for many directions and polarizations.

    The scalar identity
        sum_R e^{i kpar.R} h_l(k|r-R|) Y_lm = sum_g c_pref (-i)^l Y_lm(Kg^pm) e^{i Kg.r}
    with c_pref = 2 pi / (A k gamma_g) lifts channel-wise: c_pref times this
    row dotted with (bM; bE) is the evec component of the plane wave that a
    lattice of multipoles (bM; bE) sends along the direction of yflat.
    Shapes as in incident_coeffs.
    """
    return _project(out_tensor(lmax), yflat, evec)


def _project(tensor: np.ndarray, yflat: np.ndarray, evec: np.ndarray) -> np.ndarray:
    """evec . (tensor @ yflat), the scalar axis contracted as one matrix product."""
    ns = tensor.shape[-1]
    flat = yflat.reshape(-1, ns) @ tensor.reshape(-1, ns).T
    t = flat.reshape(yflat.shape[:-1] + tensor.shape[:-1])
    return (evec[..., None, :] @ t)[..., 0, :]


# <j, m-q; 1, q | l, m> for j = l + dj, keyed (dj, q): the spin-1 table of
# Condon & Shortley (Edmonds, Angular Momentum in QM, Table 2)
_CG1 = {
    (-1, 1): lambda l, m: math.sqrt((l + m - 1) * (l + m) / ((2 * l - 1) * 2 * l)),
    (-1, 0): lambda l, m: math.sqrt((l - m) * (l + m) / ((2 * l - 1) * l)),
    (-1, -1): lambda l, m: math.sqrt((l - m - 1) * (l - m) / ((2 * l - 1) * 2 * l)),
    (0, 1): lambda l, m: -math.sqrt((l + m) * (l - m + 1) / (2 * l * (l + 1))),
    (0, 0): lambda l, m: m / math.sqrt(l * (l + 1)),
    (0, -1): lambda l, m: math.sqrt((l - m) * (l + m + 1) / (2 * l * (l + 1))),
    (1, 1): lambda l, m: math.sqrt((l - m + 1) * (l - m + 2) / (2 * (l + 1) * (2 * l + 3))),
    (1, 0): lambda l, m: -math.sqrt((l - m + 1) * (l + m + 1) / ((l + 1) * (2 * l + 3))),
    (1, -1): lambda l, m: math.sqrt((l + m + 1) * (l + m + 2) / (2 * (l + 1) * (2 * l + 3))),
}


@lru_cache(maxsize=8)
def _coupling(lmax: int):
    """Clebsch-Gordan table and radial mixing factors of the vector channels.

    Returns (U, emb, rec), all indexed [..., channel, scalar] over the 2 nlm
    channels (magnetic, then electric) and the scalar channels (lam, nu),
    lam <= lmax + 1:

    * U[q + 1, (l, m), (j, m - q)] = <j, m-q; 1, q | l, m> for j = l, l +- 1
      (closed forms, _CG1), the same for the M and the E row of (l, m);
    * emb, the factor of Yv[l,lam,m] in (M_lm; N_lm): 1 at lam = l in M rows,
      i d_l at lam = l - 1 and -i c_l at lam = l + 1 in E rows, 0 elsewhere,
      with c_l = sqrt(l/(2l+1)) and d_l = sqrt((l+1)/(2l+1)) (module doc);
    * rec, the same for the inverse map (M; N, grad) -> (aM; aE): 1 at
      lam = l, -i d_l at lam = l - 1, i c_l at lam = l + 1.
    """
    nv = nlm(lmax)
    u = np.zeros((3, nv, n_scalar(lmax + 1)))
    fac = np.zeros((2, 2, lmax + 1, lmax + 2), dtype=complex)  # [emb/rec, M/E, l, lam]
    for l in range(1, lmax + 1):
        cl = math.sqrt(l / (2.0 * l + 1.0))
        dl = math.sqrt((l + 1) / (2.0 * l + 1.0))
        fac[:, 0, l, l] = 1.0
        fac[0, 1, l, l - 1], fac[0, 1, l, l + 1] = 1j * dl, -1j * cl
        fac[1, 1, l, l - 1], fac[1, 1, l, l + 1] = -1j * dl, 1j * cl
        for m in range(-l, l + 1):
            for q in (-1, 0, 1):
                for j in (l - 1, l, l + 1):
                    if abs(m - q) <= j:
                        u[q + 1, lm_index(l, m), sidx(j, m - q)] = _CG1[j - l, q](l, m)
    lch = np.array([l for l, _ in lm_list(lmax)])
    lam = _scalar_index_arrays(lmax + 1)[0]
    emb, rec = fac[:, :, lch][..., lam].reshape(2, 2 * nv, lam.size)
    return np.concatenate([u, u], axis=1), emb, rec


def _ipow(lam: np.ndarray, base: complex) -> np.ndarray:
    """base**lam elementwise, each power taken as Python's complex power."""
    return np.array([base**n for n in range(lam.max() + 1)])[lam]


def _spherical_maps(lmax: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, Q), each stacked (3, 2 nlm, n_scalar) with component q at q + 1.

    P_q: (aM; aE) = sum_q v^q P_q Ybar for a plane wave of polarization
    v = sum_q v^q e_q, from e^{iK.r} = 4 pi sum i^lam Ybar j_lam Y and the
    Clebsch-Gordan table; the electric rows already invert the 2x2 (N, grad)
    block, whose determinant is exactly i.
    Q_q: component q of the outgoing plane wave per unit multipole amplitude,
    amplitude = c_pref * sum_q e_q (Q_q @ yflat) @ (bM; bE) (outgoing_coeffs).
    """
    u, emb, rec = _coupling(lmax)
    lam = _scalar_index_arrays(lmax + 1)[0]
    return rec * 4.0 * math.pi * _ipow(lam, 1j) * u, _ipow(lam, -1j) * emb * u


def _cartesian(t: np.ndarray, vectors: dict) -> np.ndarray:
    """sum_q vectors[q] (x) t[q + 1]: spherical components on cartesian axes."""
    return sum(np.multiply.outer(vectors[q], t[q + 1]) for q in (-1, 0, 1))


@lru_cache(maxsize=8)
def _in_tensor(lmax: int) -> np.ndarray:
    """Cartesian form of P: (aM; aE) = evec . (_in_tensor @ yflat).

    v^q = conj(e_q) . v, and Ybar_lm = (-1)^m Y_{l,-m} folds into the columns.
    """
    lidx, midx = _scalar_index_arrays(lmax + 1)
    p = (-1.0) ** midx * _spherical_maps(lmax)[0][..., lidx * lidx + lidx - midx]
    return _cartesian(p, {q: e.conj() for q, e in E_SPH.items()})


@lru_cache(maxsize=8)
def out_tensor(lmax: int) -> np.ndarray:
    """Cartesian plane-wave amplitude per unit multipole amplitude.

    Q[axis, channel, scalar] with amplitude = c_pref * (Q @ yflat) @ (bM; bE),
    where yflat = ylm_flat(lmax + 1, ...) for the outgoing direction.
    """
    return _cartesian(_spherical_maps(lmax)[1], E_SPH)


@lru_cache(maxsize=8)
def _translation_recipe(lmax: int):
    """Sparse recipe turning in-plane lattice sums S_{p,sigma} into W.

    W = sum_q (rec u_q) Omega (emb u_q)^T (_coupling) lifts the scalar
    translation Omega[(lam,nu),(lam',nu')] = 4 pi sum_p i^{lam+p-lam'} (-1)^p
    G S_{p,nu'-nu}, with the Gaunt integral G = int Y_{lam nu} Y_{p sigma}
    conj(Y_{lam' nu'}) = 2 pi sum_i w_i Y_{lam nu} Y_{p sigma} Y_{lam' nu'} at
    (theta_i, 0).  P and Q of _spherical_maps carry the 4 pi i^lam and the
    (-i)^lam', so summing over the scalar channels first, entry (a, b) takes
    sigma = m_b - m_a and

        coefficient of S_{p,sigma} = 2 pi (-i)^p sum_i w_i Y_{p sigma}(theta_i)
                                     sum_q (P_q Y)[i, a] (Q_q Y)[i, b],

    Y = Y(theta_i, 0).  The integrand is a polynomial of degree <= 4 lmax + 4
    in cos(theta), which Gauss-Legendre with 2 lmax + 3 nodes integrates
    exactly.  p + sigma odd is left out: the in-plane sums vanish there.
    |coefficient| <= 1e-12 is an exact zero: against the exact two-stage form
    (tests/oracles.py), the terms quadrature leaves at exact zeros stay below
    2.2e-14 at lmax 7 and 2.1e-13 at lmax 14, while the smallest kept term is
    4.4e-4 at lmax 7 and 6.7e-8 at lmax 14.

    Returns (keys, flat, coefs, key): term t adds coefs[t] times the sum
    keys[key[t]] = (p, sigma) at the flat index flat[t] of W.  Keys run over
    sigma, then p, ascending; the terms of a key are in ascending flat index.
    """
    pmax = 2 * lmax + 2
    x, wts = np.polynomial.legendre.leggauss(pmax + 1)
    y = ylm_flat(pmax, x, np.sqrt(1.0 - x * x), 0.0).real
    ns = n_scalar(lmax + 1)
    # [q + 1, node, channel]
    r, e = (y[:, :ns] @ t.transpose(0, 2, 1) for t in _spherical_maps(lmax))
    m = np.array([mu for _, mu in lm_list(lmax)] * 2)
    keys, flat, coefs = [], [], []
    for s in range(-2 * lmax, 2 * lmax + 1):
        a, b = np.nonzero(m[None, :] - m[:, None] == s)
        ps = np.arange(abs(s), pmax + 1, 2)
        wy = wts[:, None] * y[:, sidx(ps, s)] * (2.0 * math.pi * _ipow(ps, -1j))
        c = wy.T @ sum(r[q][:, a] * e[q][:, b] for q in range(3))
        for p, row in zip(ps.tolist(), c):
            at = np.flatnonzero(np.abs(row) > 1e-12)
            if at.size:
                keys.append((p, s))
                flat.append(a[at] * m.size + b[at])
                coefs.append(row[at])
    key = np.repeat(np.arange(len(keys)), [f.size for f in flat])
    return keys, np.concatenate(flat), np.concatenate(coefs), key


def translation_matrix(lmax: int, s_table: dict) -> np.ndarray:
    """Lattice-summed VSWF translation operator W, shape (2 nlm, 2 nlm).

    Ordering: magnetic channels first, electric channels second, each over
    lm_list(lmax).  W maps outgoing multipole amplitudes on every other
    lattice site to the regular incident expansion at the origin site.
    s_table maps (p, sigma) -> sum_{R != 0} e^{i kpar.R} h_p(k R) Y_{p,sigma}(Rhat).
    """
    keys, flat, coefs, key = _translation_recipe(lmax)
    terms = coefs * np.array([s_table.get(k, 0.0) for k in keys], dtype=complex)[key]
    n = (2 * nlm(lmax)) ** 2
    # bincount adds the terms of an entry in their order
    w = np.empty(n, dtype=complex)
    w.real = np.bincount(flat, terms.real, n)
    w.imag = np.bincount(flat, terms.imag, n)
    return w.reshape(2 * nlm(lmax), -1)

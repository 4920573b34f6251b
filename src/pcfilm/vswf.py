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


def spherical_components(v: np.ndarray) -> dict:
    """Components v^q such that v = sum_q v^q e_q."""
    vx, vy, vz = v
    return {
        +1: -(vx - 1j * vy) / math.sqrt(2.0),
        0: vz,
        -1: (vx + 1j * vy) / math.sqrt(2.0),
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
    """(aM; aE) of plane_wave_coeffs for many directions and polarizations at once.

    yflat = ylm_flat(lmax + 1, ct, st, phi) has shape D + (n_scalar,) over
    directions; evec has shape P + (3,) with P broadcastable against D.
    Returns shape broadcast(D, P) + (2 nlm,).
    """
    lam_max = lmax + 1
    lidx, midx = _scalar_index_arrays(lam_max)
    # Ybar_lm = (-1)^m Y_{l,-m}, the analytic conjugate
    ybar = (-1.0) ** midx * yflat[..., lidx * lidx + lidx - midx]
    proj = _contract(ybar, _pw_matrices(lmax))
    e = spherical_components(np.moveaxis(evec, -1, 0))
    return sum(e[q][..., None] * proj[..., q + 1, :] for q in (-1, 0, 1))


def outgoing_coeffs(lmax: int, yflat: np.ndarray, evec: np.ndarray) -> np.ndarray:
    """evec . (out_tensor(lmax) @ yflat) for many directions and polarizations.

    The scalar identity
        sum_R e^{i kpar.R} h_l(k|r-R|) Y_lm = sum_g c_pref (-i)^l Y_lm(Kg^pm) e^{i Kg.r}
    with c_pref = 2 pi / (A k gamma_g) lifts channel-wise: c_pref times this
    row dotted with (bM; bE) is the evec component of the plane wave that a
    lattice of multipoles (bM; bE) sends along the direction of yflat.
    Shapes as in incident_coeffs.
    """
    return (evec[..., None, :] @ _contract(yflat, out_tensor(lmax)))[..., 0, :]


def _contract(yflat: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """mats @ yflat over the trailing scalar axis, as one matrix product."""
    ns = mats.shape[-1]
    flat = yflat.reshape(-1, ns) @ mats.reshape(-1, ns).T
    return flat.reshape(yflat.shape[:-1] + mats.shape[:-1])


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


@lru_cache(maxsize=8)
def _pw_matrices(lmax: int) -> np.ndarray:
    """Per-component matrices P_q with (aM; aE) = sum_q e^q P_q Ybar.

    The plane-wave expansion e^{iK.r} = 4 pi sum i^lam Ybar j_lam Y contracted
    with the Clebsch-Gordan table; the electric rows already invert the 2x2
    (N, grad) block, whose determinant is exactly i.  Stacked as
    (3, 2 nlm, n_scalar), P_q at q + 1.
    """
    u, _, rec = _coupling(lmax)
    lam = _scalar_index_arrays(lmax + 1)[0]
    return rec * 4.0 * math.pi * _ipow(lam, 1j) * u


@lru_cache(maxsize=8)
def out_tensor(lmax: int):
    """Cartesian plane-wave amplitude per unit multipole amplitude.

    Q[axis, channel, scalar] with amplitude = c_pref * (Q @ yflat) @ (bM; bE),
    where yflat = ylm_flat(lmax + 1, ...) for the outgoing direction.
    """
    u, emb, _ = _coupling(lmax)
    lam = _scalar_index_arrays(lmax + 1)[0]
    t = _ipow(lam, -1j) * emb * u
    q3 = np.zeros((3,) + t.shape[1:], dtype=complex)
    for q in (-1, 0, 1):
        q3 += np.multiply.outer(E_SPH[q], t[q + 1])
    return q3


@lru_cache(maxsize=8)
def _scalar_contraction(lam_max: int):
    """Sparse recipe turning lattice sums S_{p,sigma} into Omega_scalar.

    Omega[(lam,nu),(lam',nu')] = 4 pi sum_p i^{lam+p-lam'} (-1)^p
                                 G(lam,nu; p,nu'-nu; lam',nu') S_{p,nu'-nu}
    with the Gaunt integral G = int Y_{lam nu} Y_{p sigma} conj(Y_{lam' nu'})
    = 2 pi sum_i w_i Y_{lam nu} Y_{p sigma} Y_{lam' nu'} at (theta_i, 0): the
    integrand is a polynomial of degree lam + p + lam' <= 4 lam_max in
    cos(theta), which the Gauss-Legendre rule of 2 lam_max + 1 nodes
    integrates exactly.  Terms outside the selection rules are not formed,
    and within them |G| <= 1e-12 is an exact zero: quadrature leaves those
    below 1e-14, while the smallest nonzero G up to lam_max 15 is 1.5e-9.

    Returns (keys, flat, coefs, key): term t adds the real coefs[t] times
    the sum keys[key[t]] = (p, sigma) at the flat index flat[t] of the
    (n_scalar x n_scalar) matrix.  Keys run over p, then sigma, ascending;
    the terms of a key are in ascending flat index.
    """
    pmax = 2 * lam_max
    x, wts = np.polynomial.legendre.leggauss(pmax + 1)
    y = ylm_flat(pmax, x, np.sqrt(1.0 - x * x), 0.0).real
    ns = n_scalar(lam_max)
    lam, nu = _scalar_index_arrays(lam_max)
    lsum, ldiff, sigma = lam[:, None] + lam, abs(lam[:, None] - lam), nu - nu[:, None]
    yl = y[:, :ns]
    keys, flat, coefs = [], [], []
    for p in range(pmax + 1):
        allowed = (ldiff <= p) & (p <= lsum) & ((lsum + p) % 2 == 0)
        # p + sigma odd is left out: the in-plane lattice sums vanish there
        for s in range(-p, p + 1, 2):
            g = 2.0 * math.pi * (yl.T * (wts * y[:, sidx(p, s)])) @ yl
            at = np.flatnonzero(allowed & (sigma == s) & (np.abs(g) > 1e-12))
            if at.size:
                # i^{lam+p-lam'} (-1)^p with lam + p - lam' even
                half = (lam[at // ns] - lam[at % ns] + 3 * p) // 2
                keys.append((p, s))
                flat.append(at)
                coefs.append(4.0 * math.pi * (1 - 2 * (half % 2)) * g.ravel()[at])
    key = np.repeat(np.arange(len(keys)), [a.size for a in flat])
    return keys, np.concatenate(flat), np.concatenate(coefs), key


@lru_cache(maxsize=8)
def _vector_maps(lmax: int):
    """Embed/reconstruct maps between VSWF channels and scalar channels.

    embed[q + 1]: (n_scalar x 2 nlm) embedding of outgoing VSWFs into scalar
    channels; recon[q + 1]: reconstruction of regular VSWF amplitudes.
    """
    u, emb, rec = _coupling(lmax)
    embed = np.ascontiguousarray((emb * u).transpose(0, 2, 1))
    return embed, rec * u


def translation_matrix(lmax: int, s_table: dict) -> np.ndarray:
    """Lattice-summed VSWF translation operator W, shape (2 nlm, 2 nlm).

    Ordering: magnetic channels first, electric channels second, each over
    lm_list(lmax).  W maps outgoing multipole amplitudes on every other
    lattice site to the regular incident expansion at the origin site.
    s_table maps (p, sigma) -> sum_{R != 0} e^{i kpar.R} h_p(k R) Y_{p,sigma}(Rhat).
    """
    keys, flat, coefs, key = _scalar_contraction(lmax + 1)
    terms = coefs * np.array([s_table.get(k, 0.0) for k in keys], dtype=complex)[key]
    ns = n_scalar(lmax + 1)
    # the scalar Omega; bincount adds the terms of an entry in their order
    omega = np.empty(ns * ns, dtype=complex)
    omega.real = np.bincount(flat, terms.real, ns * ns)
    omega.imag = np.bincount(flat, terms.imag, ns * ns)
    omega = omega.reshape(ns, ns)
    embed, recon = _vector_maps(lmax)
    nv2 = 2 * nlm(lmax)
    w = np.zeros((nv2, nv2), dtype=complex)
    for q in range(3):
        w += recon[q] @ omega @ embed[q]
    return w

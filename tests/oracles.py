"""Independent reference implementations used only by the test suite.

Everything here deliberately avoids the package's own special-function and
summation code: radial functions come from mpmath (half-integer Bessel),
spherical harmonics from scipy.special, coupling coefficients from the exact
Racah formula in integer arithmetic, and the Mie channels from a direct
boundary-condition solve instead of the ratio formulas.  The exceptions: the
two-stage translation reference lifts exact Gaunt integrals with
``vswf._coupling``'s radial factors (1 and i sqrt(l/(2l+1)) or
i sqrt((l+1)/(2l+1))), and at the end of the file ``sph_neumann`` combines
the package's h and j so a Wronskian can test them, and ``assoc_legendre`` is
a plain recursion whose tests pin it against an explicit polynomial
expansion.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import mpmath as mp
import numpy as np

from pcfilm.errors import InvalidArgumentError
from pcfilm.specfun import sph_bessel, sph_hankel1
from pcfilm.vswf import _coupling, lm_index, lm_list, n_scalar, nlm, sidx

try:
    from scipy.special import sph_harm_y as _sph_harm_y

    def _ylm(m, l, phi, theta):
        return _sph_harm_y(l, m, theta, phi)

except ImportError:  # older scipy
    from scipy.special import sph_harm as _sph_harm

    def _ylm(m, l, phi, theta):
        return _sph_harm(m, l, phi, theta)


mp.mp.dps = 30


# sqrt(pi/2) C_{l+1/2}(z) / sqrt(z) with principal branches throughout: the
# z^(l+1/2) branch of C cancels against sqrt(z), also on the negative real
# axis, where sqrt(pi / (2 z)) would take the other sign of 1 / sqrt(z).
def mp_sph_jn(l: int, z: complex) -> complex:
    if z == 0:
        return 1.0 + 0.0j if l == 0 else 0.0j
    z = mp.mpc(z)
    return complex(mp.sqrt(mp.pi / 2) * mp.besselj(l + mp.mpf(1) / 2, z) / mp.sqrt(z))


def mp_sph_yn(l: int, z: complex) -> complex:
    z = mp.mpc(z)
    return complex(mp.sqrt(mp.pi / 2) * mp.bessely(l + mp.mpf(1) / 2, z) / mp.sqrt(z))


def mp_sph_h1(l: int, z: complex) -> complex:
    return mp_sph_jn(l, z) + 1j * mp_sph_yn(l, z)


def _ricatti(kind, l, z):
    """Ricatti-Bessel value and derivative at full mpmath precision."""
    half = mp.mpf(1) / 2

    def g(w):
        cyl = mp.besselj(l + half, w)
        if kind == "h":
            cyl = cyl + 1j * mp.bessely(l + half, w)
        return mp.sqrt(mp.pi / 2) * mp.sqrt(w) * cyl

    zz = mp.mpc(z)
    return complex(g(zz)), complex(mp.diff(g, zz))


def mie_oracle(radius: float, eps_in: complex, eps_host: complex, omega: float, lmax: int):
    """(t_e, t_m) from the textbook Mie coefficients a_l, b_l.

    Evaluated entirely with mpmath half-integer Bessel functions and
    numerical Ricatti derivatives (no recurrences shared with the package):
    t_e = -a_l, t_m = -b_l.
    """
    k_h = cmath.sqrt(eps_host) * omega
    if k_h.imag < 0:
        k_h = -k_h
    k_i = cmath.sqrt(eps_in) * omega
    if k_i.imag < 0:
        k_i = -k_i
    x, y = k_h * radius, k_i * radius
    m = k_i / k_h
    t_e = np.zeros(lmax, dtype=complex)
    t_m = np.zeros(lmax, dtype=complex)
    for l in range(1, lmax + 1):
        psi_x, dpsi_x = _ricatti("j", l, x)
        psi_y, dpsi_y = _ricatti("j", l, y)
        xi_x, dxi_x = _ricatti("h", l, x)
        a = (m * psi_y * dpsi_x - psi_x * dpsi_y) / (m * psi_y * dxi_x - xi_x * dpsi_y)
        b = (psi_y * dpsi_x - m * psi_x * dpsi_y) / (psi_y * dxi_x - m * xi_x * dpsi_y)
        t_e[l - 1] = -a
        t_m[l - 1] = -b
    return t_e, t_m


def mie_efficiencies(radius: float, eps_in: complex, eps_host: float, omega: float):
    """(q_ext, q_sca) from the oracle channels, lossless host only."""
    x = math.sqrt(eps_host) * omega * radius
    lmax = max(4, int(math.ceil(x + 4.05 * x ** (1 / 3) + 2)))
    t_e, t_m = mie_oracle(radius, eps_in, eps_host, omega, lmax)
    ls = np.arange(1, lmax + 1)
    w = 2 * ls + 1
    q_ext = -(2.0 / x**2) * float(np.sum(w * (t_e.real + t_m.real)))
    q_sca = (2.0 / x**2) * float(np.sum(w * (np.abs(t_e) ** 2 + np.abs(t_m) ** 2)))
    return q_ext, q_sca


@lru_cache(maxsize=None)
def wigner3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """Exact Wigner 3j symbol via the Racah formula, rounded once.

    The Racah sum sum_k (-1)^k / [k! (a-k)! (b-k)! (c-k)! (j3-j2+m1+k)!
    (j3-j1-m2+k)!], a = j1+j2-j3, b = j1-m1, c = j2+m2, is the integer
    sum_k (-1)^k C(a, k) C(j3+m3, b-k) C(j3-m3, c-k) over a! (j3+m3)! (j3-m3)!;
    Python's int / int rounds each ratio correctly.
    """
    if m1 + m2 + m3 != 0:
        return 0.0
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    if m1 < 0 or (m1 == 0 and m2 < 0):
        return (-1) ** (j1 + j2 + j3) * wigner3j(j1, j2, j3, -m1, -m2, -m3)
    f = math.factorial
    a, b, c = j1 + j2 - j3, j1 - m1, j2 + m2
    kmin = max(0, j2 - j3 - m1, j1 - j3 + m2)
    total = sum(
        (-1) ** k * math.comb(a, k) * math.comb(j3 + m3, b - k) * math.comb(j3 - m3, c - k)
        for k in range(kmin, min(a, b, c) + 1)
    )
    if total == 0:
        return 0.0
    norm = (
        f(a) * f(j1 - j2 + j3) * f(-j1 + j2 + j3)
        * f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2) * f(j3 + m3) * f(j3 - m3)
    ) / f(j1 + j2 + j3 + 1)
    sign = (-1) ** (j1 - j2 - m3)
    return sign * (total / (f(a) * f(j3 + m3) * f(j3 - m3))) * math.sqrt(norm)


def clebsch_gordan(j1: int, m1: int, j2: int, m2: int, J: int, M: int) -> float:
    """<j1 m1; j2 m2 | J M> from the exact 3j symbol."""
    if m1 + m2 != M:
        return 0.0
    return (-1) ** (j1 - j2 + M) * math.sqrt(2 * J + 1) * wigner3j(j1, j2, J, m1, m2, -M)


def gaunt_exact(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> float:
    """Gaunt integral int Y_{l1 m1} Y_{l2 m2} conj(Y_{l3 m3}) dOmega from exact 3j symbols.

    Exactly 0.0 under any selection-rule violation and at every accidental
    zero of the 3j symbols.
    """
    pref = math.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) / (4.0 * math.pi))
    return (-1) ** m3 * pref * wigner3j(l1, l2, l3, 0, 0, 0) * wigner3j(l1, l2, l3, m1, m2, -m3)


@lru_cache(maxsize=None)
def exact_cg_table(lmax: int) -> np.ndarray:
    """U[q + 1, channel, scalar] = <j, m-q; 1, q | l, m>, j = l, l +- 1, from the exact 3j.

    The layout of ``vswf._coupling``'s table: the magnetic and the electric
    row of every (l, m), over the scalar channels sidx(j, m - q).
    """
    nv = nlm(lmax)
    u = np.zeros((3, 2 * nv, n_scalar(lmax + 1)))
    for l in range(1, lmax + 1):
        for m in range(-l, l + 1):
            for q in (-1, 0, 1):
                for j in (l - 1, l, l + 1):
                    if abs(m - q) <= j:
                        cg = clebsch_gordan(j, m - q, 1, q, l, m)
                        u[q + 1, [lm_index(l, m), nv + lm_index(l, m)], sidx(j, m - q)] = cg
    return u


@lru_cache(maxsize=None)
def exact_scalar_recipe(lam_max: int) -> dict:
    """The scalar translation of in-plane lattice sums from exact Gaunt integrals.

    Omega[(lam,nu),(lam',nu')] = 4 pi sum_p i^{lam+p-lam'} (-1)^p
    G(lam,nu; p,sigma; lam',nu') S_{p,sigma}, sigma = nu' - nu, as
    {(p, sigma): (rows, cols, coefs)} over the sidx channels: every term the
    selection rules allow with p + sigma even (the in-plane sums vanish at
    p + sigma odd) and G nonzero.
    """
    terms = {}
    for lam in range(lam_max + 1):
        for nu in range(-lam, lam + 1):
            for lamp in range(lam_max + 1):
                for nup in range(-lamp, lamp + 1):
                    sigma = nup - nu
                    # G vanishes at lam + p + lam' odd
                    for p in range(abs(lam - lamp), lam + lamp + 1, 2):
                        if abs(sigma) > p or (p + sigma) % 2:
                            continue
                        g = gaunt_exact(lam, nu, p, sigma, lamp, nup)
                        if g != 0.0:
                            coef = 4.0 * math.pi * (1j) ** (lam + p - lamp) * (-1) ** p * g
                            term = (sidx(lam, nu), sidx(lamp, nup), coef)
                            terms.setdefault((p, sigma), []).append(term)
    return {key: tuple(np.array(col) for col in zip(*t)) for key, t in terms.items()}


def _exact_lift(lmax: int, omega: np.ndarray) -> np.ndarray:
    """sum_q (rec u_q) omega (emb u_q)^T: a scalar translation in the vector channels.

    The Clebsch-Gordan table is the exact one; the radial mixing factors
    (rec, emb) are ``vswf._coupling``'s, which hold only 1 and i sqrt(l/(2l+1))
    or i sqrt((l+1)/(2l+1)) (the pinned decompositions of ``vswf``).
    """
    u = exact_cg_table(lmax)
    _, emb, rec = _coupling(lmax)
    return sum((rec * u[q]) @ omega @ (emb * u[q]).T for q in range(3))


def exact_translation_matrix(lmax: int, s_table: dict) -> np.ndarray:
    """W of ``vswf.translation_matrix`` in the two-stage form: a dense scalar
    translation from exact Gaunt integrals, lifted by three dense products."""
    ns = n_scalar(lmax + 1)
    omega = np.zeros((ns, ns), dtype=complex)
    for key, (rows, cols, coefs) in exact_scalar_recipe(lmax + 1).items():
        omega[rows, cols] += coefs * s_table.get(key, 0.0)
    return _exact_lift(lmax, omega)


@lru_cache(maxsize=None)
def exact_translation_recipe(lmax: int) -> dict:
    """{(a, b, p): coefficient of S_{p, m_b - m_a} in W[a, b]} from the two-stage form.

    The sigma of one p are lifted together, which keeps them apart: entry
    (a, b) receives only sigma = m_b - m_a.  Lifts that cancel exactly (p
    above l_a + l_b, for one) leave rounding of the exact values, far below
    1e-12, which counts as zero.
    """
    ns = n_scalar(lmax + 1)
    omegas = {}
    for (p, _), (rows, cols, coefs) in exact_scalar_recipe(lmax + 1).items():
        omegas.setdefault(p, np.zeros((ns, ns), dtype=complex))[rows, cols] = coefs
    out = {}
    for p, omega in omegas.items():
        w = _exact_lift(lmax, omega)
        for a, b in zip(*np.nonzero(np.abs(w) > 1e-12)):
            out[int(a), int(b), p] = complex(w[a, b])
    return out


def exact_translation_term(lmax: int, a: int, b: int, p: int) -> complex:
    """One coefficient of exact_translation_recipe, lifted entry by entry."""
    m = [mm for _, mm in lm_list(lmax)] * 2
    rows, cols, coefs = exact_scalar_recipe(lmax + 1).get((p, m[b] - m[a]), ((), (), ()))
    u = exact_cg_table(lmax)
    _, emb, rec = _coupling(lmax)
    r, e = rec[a] * u[:, a], emb[b] * u[:, b]
    return complex(sum(np.sum(r[q, rows] * coefs * e[q, cols]) for q in range(3)))


def h1_closed(pmax: int, z: np.ndarray) -> np.ndarray:
    """Closed-form h1_p(z) = (-i)^{p+1} e^{iz}/z sum_m c_pm (-2iz)^{-m}, row p = 0..pmax.

    c_pm = (p+m)! / (m! (p-m)!).  Exact for any complex z (no recurrences;
    independent of the package)."""
    f = math.factorial
    c = np.array([[f(p + m) / (f(m) * f(p - m)) if m <= p else 0.0 for m in range(pmax + 1)]
                  for p in range(pmax + 1)])
    phase = (-1j) ** np.arange(1, pmax + 2)
    return phase[:, None] * (np.exp(1j * z) / z) * (c @ _powers(1.0 / (-2j * z), pmax))


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """Rows x^0, x^1, ..., x^n by repeated multiplication."""
    out = [np.ones_like(x)]
    for _ in range(n):
        out.append(out[-1] * x)
    return np.array(out)


def smooth_window(r: np.ndarray, rmax: float, start: float = 0.75) -> np.ndarray:
    """C-infinity bump cutoff: 1 below start*rmax, 0 above rmax."""
    t = np.clip((r / rmax - start) / (1.0 - start), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        s0 = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        s1 = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return s1 / (s0 + s1)


def direct_lattice_sums(
    k: complex, kpar, keys, rmax: float, windowed: bool = True, a1=(1.0, 0.0), a2=(0.0, 1.0)
) -> dict:
    """Independent direct sums S_{p sigma} over the lattice spanned by a1, a2.

    Absolutely convergent for Im k > 0; the smooth window only accelerates
    the truncation.  Summed over blocks of rows (fixed n2) to bound memory.
    Each h_p is evaluated once per block for all its sigma, and
    Y_{p sigma}(pi/2, phi) = Y_{p sigma}(pi/2, 0) e^{i sigma phi}.
    """
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    cross = abs(a1[0] * a2[1] - a1[1] * a2[0])
    # |n_i| <= rmax / (spacing of the lattice lines along a_i) for |R| <= rmax
    n = int(math.ceil(rmax * max(np.linalg.norm(a1), np.linalg.norm(a2)) / cross)) + 1
    pmax = max(p for p, _ in keys)
    sigmas = np.array(sorted({sig for _, sig in keys}))
    smax = np.abs(sigmas).max()
    col = {sig: i for i, sig in enumerate(sigmas)}
    y0 = {(p, sig): _ylm(sig, p, 0.0, math.pi / 2) for p, sig in keys}
    tot = {key: 0.0 + 0.0j for key in keys}
    g1 = np.arange(-n, n + 1, dtype=float)
    block = max(1, 2**16 // g1.size)
    for first in range(-n, n + 1, block):
        g2 = np.arange(first, min(first + block, n + 1), dtype=float)
        rx = (g1 * a1[0] + g2[:, None] * a2[0]).ravel()
        ry = (g1 * a1[1] + g2[:, None] * a2[1]).ravel()
        r = np.hypot(rx, ry)
        sel = (r <= rmax) & (r > 0)
        if not sel.any():
            continue
        rx, ry, r = rx[sel], ry[sel], r[sel]
        ph = np.exp(1j * (kpar[0] * rx + kpar[1] * ry))
        if windowed:
            ph = ph * smooth_window(r, rmax)
        phi = np.arctan2(ry, rx)
        # e^{i sigma phi}, conjugated from e^{i |sigma| phi} for sigma < 0 (phi is real)
        e = _powers(np.exp(1j * phi), smax)[np.abs(sigmas)]
        e[sigmas < 0] = e[sigmas < 0].conj()
        # sums[i, p] = sum of ph h_p(k r) e^{i sigmas[i] phi} over the block
        sums = e @ (ph * h1_closed(pmax, k * r)).T
        for p, sig in keys:
            tot[(p, sig)] += y0[(p, sig)] * complex(sums[col[sig], p])
    return tot


def lattice_sum_keys(pmax: int) -> list:
    """All (p, sigma) with p <= pmax and p + sigma even (the nonzero sums)."""
    return [(p, s) for p in range(pmax + 1) for s in range(-p, p + 1) if (p + s) % 2 == 0]


def damped_extrapolated_sums(k0: float, kpar, keys, n_nodes: int = 12) -> dict:
    """Lossless lattice sums by analytic continuation from the lossy side.

    S(k0 + i delta) is computed by absolutely convergent direct sums at
    Chebyshev nodes delta in [0.01, 0.06] and extrapolated to delta -> 0,
    which is the physical (outgoing/Abel) lossless limit.  Requires k0 well
    separated from Wood anomalies (|kpar + g| = k0).
    """
    import warnings

    from numpy.polynomial import Chebyshev

    nodes = 0.035 + 0.025 * np.cos(np.pi * (2 * np.arange(n_nodes) + 1) / (2 * n_nodes))
    samples = {key: [] for key in keys}
    for d in nodes:
        res = direct_lattice_sums(k0 + 1j * d, kpar, keys, rmax=26.0 / d)
        for key in keys:
            samples[key].append(res[key])
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for key in keys:
            fit = Chebyshev.fit(nodes, np.array(samples[key]), n_nodes - 1)
            out[key] = complex(fit(0.0))
    return out


def bragg_mirror_reflectance(n1: float, n2: float, periods: int) -> float:
    """Closed-form peak reflectance of a quarter-wave stack, matched media."""
    rho = (n2 / n1) ** (2 * periods)
    return ((rho - 1.0) / (rho + 1.0)) ** 2


def fresnel_power_reflectance(eps: complex) -> float:
    """Normal-incidence |r|^2 for vacuum -> eps half-space."""
    n = cmath.sqrt(eps)
    if n.imag < 0:
        n = -n
    r = (1 - n) / (1 + n)
    return abs(r) ** 2


def _decaying_sqrt(w: complex) -> complex:
    """sqrt with Im >= 0, and Re >= 0 when Im == 0 (decaying/outgoing branch)."""
    s = cmath.sqrt(w)
    return -s if s.imag < 0 or (s.imag == 0 and s.real < 0) else s


def beam_kz_loop(kt, eps: complex, omega: float) -> list:
    """kz of every beam of in-plane wavevectors kt in a medium, one at a time."""
    return [_decaying_sqrt(eps * omega * omega - (kx * kx + ky * ky)) for kx, ky in kt]


def fresnel_beam(kzl: complex, kzr: complex, epsl: complex, epsr: complex, pol: str):
    """Flux-normalized (r, t) of one beam and polarization, left to right.

    Textbook s and p Fresnel coefficients; t carries sqrt(kzr / kzl) so that
    |t|^2 is the transmitted z-flux of a propagating beam.
    """
    if pol == "s":
        r = (kzl - kzr) / (kzl + kzr)
        t = 2 * kzl / (kzl + kzr)
    else:
        den = epsr * kzl + epsl * kzr
        r = (epsr * kzl - epsl * kzr) / den
        t = 2 * _decaying_sqrt(epsl) * _decaying_sqrt(epsr) * kzl / den
    return r, t * _decaying_sqrt(kzr) / _decaying_sqrt(kzl)


def plate_beam(kzl, kzm, kzr, epsl, epsm, epsr, thickness: float, pol: str):
    """(tpp, rpm, rmp, tmm) of one beam and polarization through a plate.

    Airy sums of the multiple reflections between its two interfaces.
    """
    r1, t1 = fresnel_beam(kzl, kzm, epsl, epsm, pol)
    r1b, t1b = fresnel_beam(kzm, kzl, epsm, epsl, pol)
    r2, t2 = fresnel_beam(kzm, kzr, epsm, epsr, pol)
    r2b, t2b = fresnel_beam(kzr, kzm, epsr, epsm, pol)
    ph = cmath.exp(1j * kzm * thickness)
    den = 1 - r1b * r2 * ph * ph
    return (
        t1 * t2 * ph / den,
        r1 + t1 * r2 * t1b * ph * ph / den,
        r2b + t2 * r1b * t2b * ph * ph / den,
        t2b * t1b * ph / den,
    )


def sph_neumann(lmax: int, z: complex) -> np.ndarray:
    """Spherical Neumann functions y_0..y_lmax via y_l = (h_l - j_l)/i.

    Built from the package's own h and j, so a Wronskian W(j, y) = 1/z^2
    checks the pair against each other.
    """
    return (sph_hankel1(lmax, z) - sph_bessel(lmax, z)) / 1j


def assoc_legendre(lmax: int, x: float) -> np.ndarray:
    """Unnormalized associated Legendre table P_l^m(x), 0 <= m <= l <= lmax.

    Condon-Shortley phase included.  Entries with m > l are zero.
    """
    if lmax < 0:
        raise InvalidArgumentError(f"lmax must be >= 0, got {lmax}")
    x = float(x)
    if not math.isfinite(x) or abs(x) > 1.0:
        raise InvalidArgumentError(f"|x| <= 1 required, got {x!r}")
    p = np.zeros((lmax + 1, lmax + 1))
    s = math.sqrt(max(0.0, 1.0 - x * x))
    p[0, 0] = 1.0
    for m in range(1, lmax + 1):
        p[m, m] = -(2 * m - 1) * s * p[m - 1, m - 1]
    for m in range(lmax):
        p[m + 1, m] = (2 * m + 1) * x * p[m, m]
    for m in range(lmax + 1):
        for l in range(m + 2, lmax + 1):
            p[l, m] = ((2 * l - 1) * x * p[l - 1, m] - (l + m - 1) * p[l - 2, m]) / (l - m)
    return p

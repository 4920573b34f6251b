"""2D lattice geometry, diffraction-order beam sets, and lattice sums.

The in-plane lattice sums

    S_{p,sigma}(k, kpar) = sum_{R != 0} e^{i kpar.R} h^(1)_p(k|R|) Y_{p,sigma}(Rhat)

are the "calculated only once per frequency" bottleneck; they are evaluated
by Ewald splitting (reciprocal part + real-space incomplete-Gaussian part +
origin correction).  The split rests on the exact identity

    int_0^inf u^{2L} exp(-R^2 u^2 + k^2/(4 u^2)) du
        = (i k sqrt(pi) / 2) (k / 2R)^L h^(1)_L(kR)

(outgoing branch), so the tail integral from eta gives the real-space part
with plain orthonormal Y_LM factors and the head resums in reciprocal space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

# erfc is imported inside the Ewald seeds, not here: scipy.special costs about
# 0.2 s and 26 MB at start-up, and a scene without sphere planes never sums.
from . import vswf
from .errors import ConvergenceError, InvalidArgumentError
from .mie import Material, branch_sqrt_array

_I_POW = (1.0, 1.0j, -1.0, -1.0j)  # i^M exactly, index M % 4
_EWALD_TOL = 1e-12  # shell-convergence threshold of lattice_sums_ewald
_FIRST_SHELLS = 6  # shells 0..5 in lattice_sums_ewald's first step: mostly all it needs
_MAX_SHELL = 200


@dataclass(frozen=True)
class Lattice2D:
    """2D Bravais lattice in units of a; a1, a2 hold the reduced basis of the vectors given."""

    a1: tuple[float, float]
    a2: tuple[float, float]

    def __post_init__(self):
        a1, a2 = tuple(map(float, self.a1)), tuple(map(float, self.a2))
        if not all(math.isfinite(x) for x in a1 + a2):
            raise InvalidArgumentError(f"non-finite lattice vector: a1={a1}, a2={a2}")
        if abs(a1[0] * a2[1] - a1[1] * a2[0]) < 1e-14:
            raise InvalidArgumentError(f"degenerate lattice cell: a1={a1}, a2={a2}")
        for name, v in zip(("a1", "a2"), _reduced(a1, a2)):
            object.__setattr__(self, name, v)

    @property
    def cross(self) -> float:
        return self.a1[0] * self.a2[1] - self.a1[1] * self.a2[0]

    @property
    def area(self) -> float:
        return abs(self.cross)

    @property
    def nearest_distance(self) -> float:
        """Length of the shortest nonzero lattice vector, the shorter of a1 and a2."""
        return min(math.hypot(*self.a1), math.hypot(*self.a2))


def _reduced(a1, a2) -> tuple[tuple[float, float], tuple[float, float]]:
    """Lagrange-Gauss reduced basis of the lattice, with the same signed cross product.

    Reduced, |a1 . a2| <= min |a_i|^2 / 2 to 1e-12 (and then kept as given), the shorter
    vector is a shortest one.  The slack, and a step that shortens nothing, end on ties."""
    (x1, y1), (x2, y2) = a1, a2
    while True:
        n1, n2, dot = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x1 * x2 + y1 * y2
        if abs(dot) <= (0.5 + 1e-12) * min(n1, n2):
            return (x1, y1), (x2, y2)
        if n2 < n1:  # (a2, -a1): the shorter first, the same cross product
            (x1, y1), (x2, y2), n1, n2, dot = (x2, y2), (-x1, -y1), n2, n1, -dot
        mu = round(dot / n1)
        x, y = x2 - mu * x1, y2 - mu * y1
        if x * x + y * y >= n2:
            return (x1, y1), (x2, y2)
        x2, y2 = x, y


SQUARE = Lattice2D((1.0, 0.0), (0.0, 1.0))
TRIANGULAR = Lattice2D((1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))


@lru_cache(maxsize=64)
def reciprocal_basis(lat: Lattice2D) -> tuple[np.ndarray, np.ndarray]:
    """Reciprocal vectors with b_i . a_j = 2 pi delta_ij, read-only."""
    b1 = (2.0 * math.pi / lat.cross) * np.array([lat.a2[1], -lat.a2[0]])
    b2 = (2.0 * math.pi / lat.cross) * np.array([-lat.a1[1], lat.a1[0]])
    b1.flags.writeable = b2.flags.writeable = False
    return b1, b2


@lru_cache(maxsize=64)
def mirror_fixed(lat: Lattice2D, offset=(0.0, 0.0)) -> bool:
    """Whether y -> -y maps the lattice, and the point ``offset`` modulo it, to themselves.

    The mirror moves a point by (0, -2y), so a1, a2 and the offset must each
    move by a lattice vector.
    """
    moves = -2.0 * np.array([[0.0, 0.0, 0.0], [lat.a1[1], lat.a2[1], offset[1]]])
    n = np.linalg.solve(np.column_stack([lat.a1, lat.a2]), moves)
    return bool(np.abs(n - np.rint(n)).max() <= 1e-9)


def fold_to_zone(lat: Lattice2D, kpar) -> tuple[np.ndarray, tuple[int, int]]:
    """Fold kpar into the first Brillouin zone.

    Returns (folded kpar, (n1, n2)) with folded = kpar + n1 b1 + n2 b2 and
    |folded| minimal; ties broken lexicographically on (n1, n2).  The search
    runs over the 3 x 3 box around minus the rounded coordinates
    kpar . a_i / 2 pi of kpar in (b1, b2), enough for a reduced basis.
    """
    kpar = np.asarray(kpar, dtype=float)
    b1, b2 = reciprocal_basis(lat)
    n1, n2, _ = _box(lat, 1, 1)
    kx, ky = kpar
    n1 = n1 - round((kx * lat.a1[0] + ky * lat.a1[1]) / (2.0 * math.pi))
    n2 = n2 - round((kx * lat.a2[0] + ky * lat.a2[1]) / (2.0 * math.pi))
    v = kpar + n1[:, None] * b1 + n2[:, None] * b2
    kt2 = beam_kt2(v)
    # only candidates within rounding of the least norm can share its key
    near = np.flatnonzero(kt2 <= kt2.min() * (1.0 + 1e-9) + 1e-9)
    best = near[_sorted_by_norm(kt2[near], n1[near], n2[near])[0]]
    return v[best], (int(n1[best]), int(n2[best]))


def beam_kt2(kt: np.ndarray) -> np.ndarray:
    """Squared norm of each row of an (n, 2) array, rounded as ``v @ v``."""
    return (kt[:, None, :] @ kt[:, :, None])[:, 0, 0]


def _sorted_by_norm(kt2: np.ndarray, n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """Order of the entries by the key (round(kt2, 12), n1, n2)."""
    return np.lexsort((n2, n1, [round(float(x), 12) for x in kt2]))


@dataclass(frozen=True)
class BeamSet:
    """Truncated plane-wave (diffraction-order) basis at fixed (omega, kpar).

    Beams are sorted by |kpar+g| (lexicographic integer tie-break).  kz obeys
    the global branch rule; a beam is propagating iff kz is exactly real.
    Every kz, in the ambient or any other medium, comes from ``roots``.
    """

    lattice: Lattice2D
    omega: float
    kpar: tuple[float, float]
    fold_shift: tuple[int, int]
    ambient: Material
    g_ints: tuple[tuple[int, int], ...]
    kt: np.ndarray          # (n, 2) in-plane wave vectors kpar + g
    kt2: np.ndarray         # (n,) |kt|^2, rounded as beam_kt2
    _roots: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_beams(self) -> int:
        return len(self.g_ints)

    @property
    def kz(self) -> np.ndarray:
        """(n,) complex kz of every beam in the ambient, read-only: roots(ambient)[0]."""
        return self.roots(self.ambient)[0]

    @cached_property
    def propagating(self) -> np.ndarray:
        """(n,) bool: whether each beam propagates in the ambient."""
        return self.kz.imag == 0.0

    @cached_property
    def mirror(self) -> np.ndarray | None:
        """Index of the mirror image (y -> -y) of every beam, read-only.

        None unless the lattice maps to itself and the folded kpar lies on
        the x axis, so that the mirror maps the beam set onto itself.
        """
        if self.kpar[1] != 0.0 or not mirror_fixed(self.lattice):
            return None
        kt = [(round(x, 9), round(y, 9)) for x, y in self.kt.tolist()]
        index = {v: j for j, v in enumerate(kt)}
        image = np.array([index.get((x, -y), -1) for x, y in kt])
        image.flags.writeable = False
        return None if (image < 0).any() else image

    def roots(self, mat: Material) -> tuple[np.ndarray, np.ndarray]:
        """(kz, sqrt kz) of every beam in a homogeneous medium, read-only.

        Computed once per medium from eps omega**2 - |kt|^2, so the layers
        of a point share them.
        """
        roots = self._roots.get(mat)
        if roots is None:
            kz = branch_sqrt_array(mat.eps * self.omega**2 - self.kt2)
            roots = self._roots[mat] = kz, branch_sqrt_array(kz)
            for x in roots:
                x.flags.writeable = False
        return roots


def beam_set(lat: Lattice2D, omega: float, kpar, ambient: Material, cutoff: float) -> BeamSet:
    """All diffraction orders g with |kpar+g| <= cutoff, kpar folded first."""
    if not omega > 0:
        raise InvalidArgumentError(f"omega must be > 0, got {omega}")
    if not math.isfinite(cutoff):
        raise InvalidArgumentError(f"cutoff must be finite, got {cutoff}")
    if not np.isfinite(kpar).all():
        raise InvalidArgumentError(f"kpar must be finite, got {np.asarray(kpar).tolist()}")
    if cutoff < omega * math.sqrt(abs(ambient.eps)) - 1e-12:
        raise InvalidArgumentError(
            f"cutoff {cutoff} < omega*sqrt|eps| = {omega * math.sqrt(abs(ambient.eps))}"
        )
    kf, shift = fold_to_zone(lat, kpar)
    kf_norm = math.hypot(*kf)
    if kf_norm > cutoff:
        raise InvalidArgumentError("cutoff too small to include the specular beam")
    # a kept g has |g| <= cutoff + |kf|, and |n_i| = |g . a_i| / 2 pi
    reach = (cutoff + kf_norm) / (2.0 * math.pi)
    n1, n2, g = _box(lat, *(int(reach * math.hypot(*a)) + 1 for a in (lat.a1, lat.a2)))
    kt = kf + g
    kt2 = beam_kt2(kt)
    keep = np.flatnonzero(kt2 <= cutoff * cutoff + 1e-12)
    keep = keep[_sorted_by_norm(kt2[keep], n1[keep], n2[keep])]
    return BeamSet(
        lattice=lat,
        omega=omega,
        kpar=(float(kf[0]), float(kf[1])),
        fold_shift=shift,
        ambient=ambient,
        g_ints=tuple(zip(n1[keep].tolist(), n2[keep].tolist())),
        kt=kt[keep],
        kt2=kt2[keep],
    )


@lru_cache(maxsize=64)
def _box(lat: Lattice2D, m1: int, m2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer pairs (n1, n2) with |n1| <= m1, |n2| <= m2 and their g = n1 b1 + n2 b2, read-only."""
    box = np.meshgrid(np.arange(-m1, m1 + 1), np.arange(-m2, m2 + 1), indexing="ij")
    n1, n2 = (n.ravel() for n in box)
    b1, b2 = reciprocal_basis(lat)
    g = n1[:, None] * b1 + n2[:, None] * b2
    n1.flags.writeable = n2.flags.writeable = g.flags.writeable = False
    return n1, n2, g


def _inc_gamma_half(nmax: int, x, sqrt_x) -> np.ndarray:
    """Gamma(1/2 - n, x) for n = 0..nmax, seeded by erfc, recurred downward.

    x and sqrt_x may be arrays; the result has shape x.shape + (nmax + 1,).
    """
    from scipy.special import erfc

    sqrt_x = np.asarray(sqrt_x, dtype=complex)
    out = np.zeros(sqrt_x.shape + (nmax + 1,), dtype=complex)
    out[..., 0] = math.sqrt(math.pi) * erfc(sqrt_x)
    ex = np.exp(-np.asarray(x))
    for n in range(1, nmax + 1):
        s = 0.5 - (n - 1)
        out[..., n] = (out[..., n - 1] - sqrt_x ** (2 * (s - 1)) * ex) / (s - 1)
    return out


def _tail_integrals(lmax: int, r, k: complex, eta: float) -> np.ndarray:
    """I_L(r) = int_eta^inf u^{2L} exp(-r^2 u^2 + k^2/(4u^2)) du, L = 0..lmax.

    Closed-form seeds in erfc, then the exact three-term recursion from
    integrating d/du [u^{2L-1} exp(...)] over (eta, inf).  r may be an
    array; the result has shape r.shape + (lmax + 1,).
    """
    from scipy.special import erfc

    r = np.asarray(r, dtype=float)
    a = r * eta + 1j * k / (2 * eta)
    b = r * eta - 1j * k / (2 * eta)
    ep = np.exp(1j * k * r) * erfc(a)
    em = np.exp(-1j * k * r) * erfc(b)
    prev2 = 1j * math.sqrt(math.pi) / (2 * k) * (ep - em)   # I_{-1}
    prev1 = math.sqrt(math.pi) / (4 * r) * (ep + em)        # I_0
    out = np.zeros(r.shape + (lmax + 1,), dtype=complex)
    out[..., 0] = prev1
    boundary = np.exp(-r * r * eta * eta + k * k / (4 * eta * eta))
    den = 2 * r * r
    for L in range(1, lmax + 1):
        cur = ((2 * L - 1) * prev1 + eta ** (2 * L - 1) * boundary - (k * k / 2) * prev2) / den
        out[..., L] = cur
        prev2, prev1 = prev1, cur
    return out


@lru_cache(maxsize=64)
def _shells(first: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs (n1, n2) with first <= s = max(|n1|, |n2|) < stop, by s then lexicographic, and each s."""
    r = np.arange(1 - stop, stop)
    n1, n2 = (n.ravel() for n in np.meshgrid(r, r, indexing="ij"))
    s = np.maximum(abs(n1), abs(n2))
    order = np.argsort(s, kind="stable")
    order = order[s[order] >= first]
    return n1[order], n2[order], s[order]


@lru_cache(maxsize=32)
def _lm_pairs(pmax: int, half: bool):
    """(L, M) with L <= pmax and L + M even; only M >= 0 if ``half``."""
    return [(L, M) for L in range(pmax + 1) for M in range(0 if half else -L, L + 1)
            if (L + M) % 2 == 0]


@lru_cache(maxsize=32)
def _pair_tables(pmax: int, half: bool):
    """Vectorization tables over the (L, M) pair list _lm_pairs(pmax, half).

    Returns (Lidx, Midx, terms, norm, yvec0).  The reciprocal-space inner
    sum of pair i is sum_n coef * gtab[n] gpow[n] kt^(L-2n) over its nonzero
    terms n = 0..(L-|M|)/2; ``terms`` = (start, n, power, coef) lists them
    flat, pair by pair, with start[i] the first term of pair i.
    norm[i] = i^M sqrt((2L+1)(L-M)!(L+M)!) is the k-independent part of the
    reciprocal-space prefactor, and yvec0 holds Y_LM at the in-plane
    direction phi = 0.
    """
    pairs = _lm_pairs(pmax, half)
    f = math.factorial
    start, n_of, power, coef = [], [], [], []
    for L, M in pairs:
        start.append(len(n_of))
        for n in range((L - abs(M)) // 2 + 1):
            n_of.append(n)
            power.append(L - 2 * n)
            coef.append(1.0 / (f(n) * f((L + M) // 2 - n) * f((L - M) // 2 - n)))
    terms = (np.array(start), np.array(n_of), np.array(power), np.array(coef))
    lidx = np.array([L for L, _ in pairs])
    midx = np.array([M for _, M in pairs])
    norm = np.array([_I_POW[M % 4] * math.sqrt((2 * L + 1) * f(L - M) * f(L + M)) for L, M in pairs])
    yvec0 = vswf.ylm_flat(pmax, 0.0, 1.0, 0.0)[vswf.sidx(lidx, midx)]
    return lidx, midx, terms, norm, yvec0


def lattice_sums_ewald(lat: Lattice2D, k: complex, kpar, pmax: int, eta: float | None = None) -> dict:
    """Ewald-accelerated S_{p,sigma} for all p <= pmax, sigma with p+sigma even.

    Both sums run over square shells max(|n1|, |n2|) = s of the reduced basis
    and stop after two consecutive shells whose largest term is below
    _EWALD_TOL relative to the running sum.  The shells are evaluated in array
    steps of several shells (_FIRST_SHELLS, then two at a time), added one by one.

    When the mirror y -> -y maps the lattice to itself and kpar lies on the
    x axis, it maps every term of either sum to the term of the mirror point
    with the azimuth negated.  Then only sigma >= 0 is summed, since
    S_{p,-sigma} = (-1)^sigma S_{p,sigma}, and only over the points with
    y >= 0: one with y > 0 stands for itself and its image, with the
    azimuthal factor 2 cos(sigma phi) in place of exp(i sigma phi).
    """
    kpar = np.asarray(kpar, dtype=float)
    half = kpar[1] == 0.0 and mirror_fixed(lat)
    area = lat.area
    if eta is None:
        eta = math.sqrt(math.pi) / math.sqrt(area)
    b1, b2 = reciprocal_basis(lat)
    a1, a2 = np.array(lat.a1), np.array(lat.a2)
    pairs = _lm_pairs(pmax, half)
    lidx, midx, (start, n_of, power, coef), pair_norm, yvec0 = _pair_tables(pmax, half)
    pref1 = pair_norm / (area * k * (-2 * k) ** lidx)
    nmax = pmax // 2
    gexp = 2 * np.arange(nmax + 1) - 1
    pref2 = -2j / (k * math.sqrt(math.pi))

    def upper(v):
        """The points summed: on the mirror those with y >= 0."""
        return v[:, 1] >= 0 if half else slice(None)

    def azimuth(v):
        """Azimuthal factor of every point and pair; exp(i M phi) = exp(i |M| phi)^* for M < 0."""
        phi = np.arctan2(v[:, 1], v[:, 0])
        az = np.exp(1j * np.arange(pmax + 1) * phi[:, None])[:, np.abs(midx)]
        np.conjugate(az, out=az, where=midx < 0)
        return np.where(v[:, 1] > 0, 2.0, 1.0)[:, None] * az.real if half else az

    def reciprocal(n1, n2):
        kg = kpar + n1[:, None] * b1 + n2[:, None] * b2
        keep = upper(kg)
        n1, n2, kg = n1[keep], n2[keep], kg[keep]
        kt = np.hypot(kg[:, 0], kg[:, 1])
        gam = branch_sqrt_array(k * k - kt * kt)
        grazing = np.flatnonzero(np.abs(gam) < 1e-10 * abs(k))
        if grazing.size:
            i = grazing[0]
            raise ConvergenceError(
                "grazing diffraction order (Wood anomaly) in Ewald sum",
                {"k": k, "kpar": tuple(kpar), "g": (int(n1[i]), int(n2[i]))},
            )
        gtab = _inc_gamma_half(nmax, -gam * gam / (4 * eta * eta), -1j * gam / (2 * eta))
        gpow = gam[:, None] ** gexp
        ktpow = kt[:, None] ** np.arange(pmax + 1)
        inner = (gtab * gpow)[:, n_of]  # in place from here: this is the largest array
        inner *= coef
        inner *= ktpow[:, power]
        inner = np.add.reduceat(inner, start, axis=1)
        return keep, pref1 * azimuth(kg) * inner

    def real(n1, n2):
        rv = n1[:, None] * a1 + n2[:, None] * a2
        keep = upper(rv)
        rv = rv[keep]
        r = np.hypot(rv[:, 0], rv[:, 1])
        itab = _tail_integrals(pmax, r, k, eta)
        bloch = np.exp(1j * (kpar[0] * rv[:, 0] + kpar[1] * rv[:, 1]))
        rpow = (2 * r[:, None] / k) ** np.arange(pmax + 1)
        return keep, (pref2 * bloch[:, None] * rpow * itab)[:, lidx] * yvec0 * azimuth(rv)

    vec = np.zeros(len(pairs), dtype=complex)
    norm = 0.0
    # the reciprocal sum includes g = 0 (shell 0), the real-space sum excludes R = 0
    for part, first, shell_terms in (("reciprocal", 0, reciprocal), ("real", 1, real)):
        quiet, s = 0, first
        while quiet < 2:
            if s >= _MAX_SHELL:
                raise ConvergenceError(
                    f"{part}-space Ewald sum did not converge",
                    {"eta": eta, "k": k, "kpar": tuple(kpar), "ring": ring},
                )
            stop = min(_FIRST_SHELLS if s == first else s + 2, _MAX_SHELL)
            n1, n2, shell = _shells(s, stop)
            keep, terms = shell_terms(n1, n2)
            bounds = np.searchsorted(shell[keep], np.arange(s, stop + 1))
            for s, lo, hi in zip(range(s, stop), bounds[:-1], bounds[1:]):
                vec += terms[lo:hi].sum(axis=0)
                ring = float(np.max(np.abs(terms[lo:hi])))
                norm = max(norm, float(np.max(np.abs(vec))))
                if s > 0 and ring < _EWALD_TOL * max(1.0, norm):
                    quiet += 1
                    if quiet >= 2:
                        break
                else:
                    quiet = 0
            s += 1

    tab = {key: vec[i] for i, key in enumerate(pairs)}
    if half:
        tab.update({(L, -M): (-1) ** M * tab[L, M] for L, M in pairs if M > 0})
    # origin correction (L = 0 only)
    g_m12 = _inc_gamma_half(1, -k * k / (4 * eta * eta), -1j * k / (2 * eta))[1]
    tab[(0, 0)] += g_m12 / (4.0 * math.pi)
    return tab


def structure_constants(lat: Lattice2D, omega: float, kpar, host: Material, lmax: int) -> np.ndarray:
    """Structure constants Omega for a plane of scatterers, from Ewald lattice sums.

    The (2 nlm) x (2 nlm) matrix over (M channels, E channels) x
    lm_list(lmax) maps outgoing multipole amplitudes on all other sites to
    the regular expansion at the origin site.  Two multipoles of order
    l <= lmax couple through the sums of order p <= 2 lmax only.
    """
    if not omega > 0:
        raise InvalidArgumentError(f"omega must be > 0, got {omega}")
    if lmax < 1:
        raise InvalidArgumentError(f"lmax must be >= 1, got {lmax}")
    kf, _ = fold_to_zone(lat, kpar)
    sums = lattice_sums_ewald(lat, host.wavenumber(omega), kf, 2 * lmax)
    return vswf.translation_matrix(lmax, sums)

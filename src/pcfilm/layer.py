"""Per-layer scattering matrices in the diffraction-order basis.

Basis convention: beam index major, polarization minor with the (s, p) pair
defined per beam relative to its own plane of incidence.  For the degenerate
normal-incidence beam the plane of incidence is taken to contain the lattice
x axis (azimuth 0).  Amplitudes are flux-normalized at construction: the
physical E-field amplitude is a / sqrt(kz), so |a|^2 is the z-flux carried
by a propagating beam and lossless S-matrices are unitary on the propagating
subspace.

A layer that is diagonal in this basis (interface, gap, plate, identity)
keeps only the diagonals of its blocks; ``star_product`` composes two of them
beam by beam and a reflectionless one (a gap) with a dense layer by row and
column scaling, so only dense pairs reach an LU solve.

Mirror sectors.  The mirror y -> -y sends beam (kx, ky) to (kx, -ky), s to
-s and p to p, and multipole (l, m) to (l, -m) times (-1)^m, -1 on magnetic
and +1 on electric channels.  Its even and odd eigenvectors, a channel it
fixes or a pair (e_c +- e_c') / sqrt 2, split both spaces into two
orthonormal sectors of equal size (``Sectors``).  A sphere plane on a
lattice the mirror maps to itself is solved in them when kpar lies on the x
axis (``BeamSet.mirror``), and stays there if the mirror also fixes its
offset modulo the lattice.  ``LayerS.blocks`` then carry a leading sector
axis of length 2 (1 in the full basis), so one batched solve or matmul
serves both sectors.  ``star_product`` gathers full-basis diagonal layers
into the sectors; any other layer outside them brings the product back to
the full basis.  A stack thus runs in the sectors when it has a sphere plane
and the mirror fixes the lattice, kpar and every plane offset.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import vswf
from .errors import InvalidArgumentError, SingularSolveError
from .lattice import BeamSet, Lattice2D, mirror_fixed, structure_constants
from .mie import Material, SphereScatterer, branch_sqrt, mie_t

# Largest accepted condition number of a solve.  For a dense solve what is
# checked is a probe estimate of the 2-norm condition number,
# ||A||_F max_j |A^-1 v_j| / |v_j| over _N_PROBES fixed complex Gaussian
# vectors v_j (Dixon, SIAM J. Numer. Anal. 20, 812 (1983)).  It never exceeds
# sqrt(n) cond_2(A); since E |A^-1 v|^2 = ||A^-1||_F^2 for E v v^H = I, it is
# on average at least cond_2(A) / sqrt(n).  In the mirror sectors A is
# block diagonal: ||A||_F runs over both sectors and the growth is the
# largest of either, so the estimate keeps these bounds.  For the diagonal
# denominator of two diagonal layers it is exact: cond_2 = max |den| / min |den|.
COND_REPORT_LIMIT = 1e10
_N_PROBES = 2


@dataclass(frozen=True)
class PlaneOfSpheres:
    """2D-periodic plane of identical spheres."""

    lattice: Lattice2D
    scatterer: SphereScatterer
    offset: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        offset = tuple(map(float, self.offset))
        if not all(map(math.isfinite, offset)):
            raise InvalidArgumentError(f"offset must be finite, got {offset}")
        nn = self.lattice.nearest_distance
        if 2 * self.scatterer.radius >= nn:
            raise InvalidArgumentError(
                f"spheres overlap in plane: diameter {2 * self.scatterer.radius} >= "
                f"nearest-neighbor distance {nn}"
            )


@dataclass(frozen=True)
class Plate:
    """Homogeneous plate of given thickness (units of a)."""

    thickness: float
    material: Material

    def __post_init__(self):
        if not math.isfinite(self.thickness):
            raise InvalidArgumentError(f"thickness must be finite, got {self.thickness}")
        if self.thickness < 0:
            raise InvalidArgumentError(f"thickness must be >= 0, got {self.thickness}")


@dataclass(frozen=True, eq=False)
class Sectors:
    """Orthonormal mirror-sector basis of a channel space: sector 0 even, 1 odd.

    Vector k of sector s is w[0, s, k] e_a + w[1, s, k] e_b with
    (a, b) = idx[:, s, k]: a channel the mirror fixes (b = a, weights 1 and
    0) or a mirror pair a < b; a is the representative channel.  ``basis``
    holds these vectors as the columns of U, sector 0 first.  All arrays
    are read-only.
    """

    idx: np.ndarray
    w: np.ndarray

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """The orthonormal matrix U whose column s m + k is vector k of sector s (m per sector)."""
        n = self.idx[0].size
        u = np.zeros((n, n))
        np.add.at(u, (self.idx.reshape(2, n), np.arange(n)), self.w.reshape(2, n))
        u.flags.writeable = False
        return u

    def unfold(self, x: np.ndarray) -> np.ndarray:
        """The full-basis matrix U blockdiag(x[0], x[1]) U^T of sector blocks x."""
        m = x.shape[-1]
        blk = np.zeros((2 * m, 2 * m), dtype=x.dtype)
        blk[:m, :m], blk[m:, m:] = x
        return self.basis @ blk @ self.basis.T

    def unfold_column(self, x: np.ndarray, c: int) -> np.ndarray:
        """Column c of unfold(x): U blockdiag(x[0], x[1]) times row c of U."""
        return self.basis @ (x @ self.basis[c].reshape(2, -1, 1)).ravel()


def _sectors(partner: np.ndarray, sign: np.ndarray) -> Sectors:
    """Sectors of the signed permutation e_c -> sign[c] e_partner[c], an involution."""
    c = np.arange(partner.size)
    rep = c[c <= partner]
    pair = partner[rep] != rep
    r = math.sqrt(0.5)
    idx, w = [], []
    for parity in (1.0, -1.0):
        a = rep[pair | (sign[rep] == parity)]
        paired = partner[a] != a
        idx.append((a, partner[a]))
        w.append((np.where(paired, r, 1.0), np.where(paired, parity * sign[a] * r, 0.0)))
    idx = np.array(idx).transpose(1, 0, 2)
    w = np.array(w).transpose(1, 0, 2)
    for arr in (idx, w):
        arr.flags.writeable = False
    return Sectors(idx, w)


def beam_sectors(beams: BeamSet) -> Sectors | None:
    """Sectors of the (beam, polarization) channels; None off the mirror."""
    return None if beams.mirror is None else _beam_sectors(beams.mirror.tobytes())


@functools.lru_cache(maxsize=16)
def _beam_sectors(mirror: bytes) -> Sectors:
    partner = np.frombuffer(mirror, dtype=int)
    n = partner.size
    return _sectors(np.repeat(2 * partner, 2) + np.tile([0, 1], n), np.tile([-1.0, 1.0], n))


@functools.lru_cache(maxsize=8)
def multipole_sectors(lmax: int) -> Sectors:
    """Sectors of the (magnetic, electric) x lm_list(lmax) multipole channels."""
    lms = vswf.lm_list(lmax)
    partner = np.array([vswf.lm_index(l, -m) for l, m in lms])
    parity = np.array([(-1.0) ** m for _, m in lms])
    return _sectors(
        np.concatenate([partner, partner + len(lms)]), np.concatenate([-parity, parity])
    )


def _fold_recipe(rows: np.ndarray, w0: np.ndarray, cols: Sectors, ncols: int):
    """Flat gathers and weights of _fold for an x of ncols columns, read-only.

    If x intertwines the mirrors (P_r x = x P_cols), row k of block s of
    U_r^T x U_cols is row rows[s, k] of x U_cols over w0[s, k]: x is read at
    representative rows only.  Dividing the weights first makes a mirror
    pair on both sides combine with the exact factors +-1.
    """
    flat = rows[:, :, None] * ncols + cols.idx[:, :, None, :]
    w = (cols.w[:, :, None, :] / w0[:, :, None]).astype(complex)
    flat.flags.writeable = w.flags.writeable = False
    return flat, w


def _fold(x: np.ndarray, recipe) -> np.ndarray:
    """Sector blocks (..., 2, m_r, m_c) of the matrices x (..., rows, ncols)."""
    flat, w = recipe
    g = x.reshape(x.shape[:-2] + (-1,))[..., flat]
    return g[..., 0, :, :, :] * w[0] + g[..., 1, :, :, :] * w[1]


@functools.lru_cache(maxsize=8)
def _omega_fold(lmax: int):
    """The _fold recipe of the structure constants Omega."""
    lsec = multipole_sectors(lmax)
    return _fold_recipe(lsec.idx[0], lsec.w[0], lsec, 2 * vswf.nlm(lmax))


def _maps_fold(partner: np.ndarray, sectors: Sectors, lmax: int):
    """One beam of each mirror pair, and the _fold recipe of its multipole maps."""
    is_rep = np.arange(partner.size) <= partner
    at = 2 * np.cumsum(is_rep).repeat(2) + np.tile([-2, -1], partner.size)  # row of a rep channel
    ncols = 2 * vswf.nlm(lmax)
    recipe = _fold_recipe(at[sectors.idx[0]], sectors.w[0], multipole_sectors(lmax), ncols)
    return np.flatnonzero(is_rep), recipe


def _embed_diagonal(d: np.ndarray) -> np.ndarray:
    """(..., m, m) matrices with the diagonals d of shape (..., m)."""
    out = np.zeros(d.shape + d.shape[-1:], dtype=d.dtype)
    i = np.arange(d.shape[-1])
    out[..., i, i] = d
    return out


_BLOCK_NAMES = ("tpp", "rpm", "rmp", "tmm")


@dataclass(eq=False)
class LayerS:
    """Four-block scattering matrix over (beam, polarization) ports.

    out+(right) = tpp @ in+(left) + rmp @ in-(right)
    out-(left)  = rpm @ in+(left) + tmm @ in-(right)

    ``blocks`` holds (tpp, rpm, rmp, tmm) with a leading sector axis: of
    length 1 over the 2n channels in the full basis (``sectors`` None), of
    length 2 over n channels each in the mirror sectors.  Each block is
    (S, m, m), or (S, m) diagonals for a layer diagonal in the beam basis.
    The attributes tpp ... tmm are always the full-basis 2n x 2n blocks,
    built on first use and cached.
    """

    beams: BeamSet  # the only record of the left side, its medium included
    mat_right: Material
    blocks: tuple
    sectors: Sectors | None = None

    @property
    def diagonal(self) -> bool:
        return self.blocks[0].ndim == 2

    @property
    def reflectionless(self) -> bool:
        """Diagonal with both reflection blocks zero, like a gap."""
        return self.diagonal and not (self.blocks[1].any() or self.blocks[2].any())

    def stacked(self, i: int) -> np.ndarray:
        """Block i as (S, m, m) matrices."""
        b = self.blocks[i]
        return _embed_diagonal(b) if b.ndim == 2 else b

    def column(self, i: int, c: int) -> np.ndarray:
        """Column c of the full-basis block i, read without building the whole block."""
        if self.sectors is not None:
            return self.sectors.unfold_column(self.stacked(i), c)
        b = self.blocks[i][0]
        if b.ndim == 2:
            return b[:, c]
        col = np.zeros_like(b)
        col[c] = b[c]
        return col

    def _dense(self, i: int) -> np.ndarray:
        b = self.stacked(i)
        return b[0] if self.sectors is None else self.sectors.unfold(b)

    @functools.cached_property
    def tpp(self) -> np.ndarray:
        return self._dense(0)

    @functools.cached_property
    def rpm(self) -> np.ndarray:
        return self._dense(1)

    @functools.cached_property
    def rmp(self) -> np.ndarray:
        return self._dense(2)

    @functools.cached_property
    def tmm(self) -> np.ndarray:
        return self._dense(3)


def _full_basis(s: LayerS) -> LayerS:
    """s with its blocks in the full basis."""
    if s.sectors is None:
        return s
    blocks = tuple(getattr(s, name)[None] for name in _BLOCK_NAMES)
    return LayerS(s.beams, s.mat_right, blocks)


def _common_basis(s1: LayerS, s2: LayerS) -> tuple[LayerS, LayerS]:
    """The pair in the sectors of either if the other is a diagonal layer the
    mirror fixes (equal entries on mirror pairs, as interfaces, gaps, plates
    and identities have), else in the full basis."""
    if (s1.sectors is None) == (s2.sectors is None):
        return s1, s2
    sectors, full = (s1.sectors, s2) if s2.sectors is None else (s2.sectors, s1)
    if full.diagonal:
        d = np.concatenate(full.blocks)[:, sectors.idx]  # (block, slot, sector, k)
        if np.array_equal(d[:, 0], d[:, 1]):
            moved = LayerS(full.beams, full.mat_right, tuple(d[:, 0]), sectors)
            return (moved, s2) if full is s1 else (s1, moved)
    return _full_basis(s1), _full_basis(s2)


def _diagonal_smatrix(beams: BeamSet, mat_right: Material, tpp, rpm, rmp, tmm) -> LayerS:
    """Full-basis LayerS whose four blocks are diagonal, from their (2n,) diagonals or scalars."""
    n = 2 * beams.n_beams
    diags = []
    for d in (tpp, rpm, rmp, tmm):
        d = np.asarray(d, dtype=complex)
        diags.append((d if d.shape == (n,) else np.full(n, d))[None])
    return LayerS(beams, mat_right, tuple(diags))


def identity_smatrix(beams: BeamSet) -> LayerS:
    return _diagonal_smatrix(beams, beams.ambient, 1.0, 0.0, 0.0, 1.0)


def _pol_vectors(kt: np.ndarray, kz: np.ndarray, k: complex, sign: int) -> np.ndarray:
    """(s_hat, p_hat) of every beam travelling toward sign*z, shape (n, 2, 3).

    Bilinear-orthonormal (no conjugation), so coefficients of a transverse
    field are plain dot products even for evanescent beams.
    """
    ktn = np.hypot(kt[:, 0], kt[:, 1])
    oblique = ktn >= 1e-12  # normal incidence: plane of incidence at azimuth 0
    cphi = np.divide(kt[:, 0], ktn, out=np.ones_like(ktn), where=oblique)
    sphi = np.divide(kt[:, 1], ktn, out=np.zeros_like(ktn), where=oblique)
    vec = np.zeros((kt.shape[0], 2, 3), dtype=complex)
    vec[:, 0, 0] = -sphi
    vec[:, 0, 1] = cphi
    vec[:, 1, 0] = sign * kz * cphi / k
    vec[:, 1, 1] = sign * kz * sphi / k
    vec[:, 1, 2] = -ktn / k
    return vec


@functools.lru_cache(maxsize=8)
def _probes(n: int) -> np.ndarray:
    """Fixed (seeded) complex Gaussian probe columns for an n x n solve."""
    rng = np.random.default_rng(n)
    v = rng.normal(size=(n, _N_PROBES)) + 1j * rng.normal(size=(n, _N_PROBES))
    v.flags.writeable = False
    return v


def _solve_reported(a: np.ndarray, b: np.ndarray, context: str) -> np.ndarray:
    """Solve a x = b and report ill-conditioning.

    a is (n, n) or a stack (S, n, n) of sector blocks, b (n, m) or (S, n, m).
    The probe columns of the condition estimate ride along with b through
    the same LU factorization, so the estimate costs _N_PROBES extra
    triangular solves.  Everything stays in numpy's LAPACK: mixing in a
    second BLAS library (scipy's) makes two thread pools spin against each
    other in this hot loop when BLAS runs multithreaded.
    """
    m = b.shape[-1]
    probes = _probes(a.shape[-1])
    rhs = np.concatenate([b, np.broadcast_to(probes, b.shape[:-1] + (_N_PROBES,))], axis=-1)
    try:
        xv = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSolveError(f"singular solve in {context}", condition=np.inf) from exc
    if not np.all(np.isfinite(xv)):
        raise SingularSolveError(f"non-finite solve result in {context}", condition=np.inf)
    growth = np.linalg.norm(xv[..., m:], axis=-2) / np.linalg.norm(probes, axis=0)
    cond = float(np.linalg.norm(a) * growth.max())
    if cond > COND_REPORT_LIMIT:
        raise SingularSolveError(
            f"ill-conditioned solve in {context}: cond = {cond:.3e}", condition=cond
        )
    return xv[..., :m]


def sphere_plane_smatrix(plane: PlaneOfSpheres, beams: BeamSet, lmax: int) -> LayerS:
    """S-matrix of one plane of spheres via self-consistent in-plane scattering.

    The regular incident expansion a about one sphere is scattered into
    b = (I - T Omega)^(-1) T a (T = Mie T-matrix, Omega = structure
    constants of the plane at the beams' omega and kpar); b is then
    converted to outgoing diffraction orders through the lattice-sum
    plane-wave identity.  The beams must be on the plane's lattice and in
    its host.  On a mirror beam set all of it runs in the two mirror
    sectors, with the plane-wave maps computed for one beam of each mirror
    pair.  The in-plane offset enters by displaced_smatrix.
    """
    if beams.lattice != plane.lattice:
        raise InvalidArgumentError(
            f"beam lattice {beams.lattice} != sphere plane lattice {plane.lattice}"
        )
    host = plane.scatterer.host
    if beams.ambient.eps != host.eps:
        raise InvalidArgumentError("beams must live in the sphere host medium")
    omega_mat = structure_constants(plane.lattice, beams.omega, beams.kpar, host, lmax)
    t_e, t_m = mie_t(plane.scatterer, beams.omega, lmax)
    lidx = np.array([l for l, _ in vswf.lm_list(lmax)])
    tdiag = np.concatenate([t_m[lidx - 1], t_e[lidx - 1]])
    sectors = beam_sectors(beams)
    if sectors is None:
        tdiag, omega_mat = tdiag[None], omega_mat[None]
        maps = [x[None] for x in _beam_multipole_maps(beams, lmax)]
    else:
        tdiag = tdiag[multipole_sectors(lmax).idx[0]]
        omega_mat = _fold(omega_mat, _omega_fold(lmax))
        rep, recipe = _maps_fold(beams.mirror, sectors, lmax)
        a_plus, a_minus, c_up, c_down = _beam_multipole_maps(beams, lmax, rep)
        folded = _fold(np.stack([a_plus.T, a_minus.T, c_up, c_down]), recipe)
        maps = [*folded[:2].transpose(0, 1, 3, 2), *folded[2:]]
    scatter = _solve_reported(
        np.eye(tdiag.shape[-1]) - tdiag[..., :, None] * omega_mat,
        _embed_diagonal(tdiag),
        "sphere-plane self-consistency (I - T Omega)",
    )
    a_plus, a_minus, c_up, c_down = maps
    b_plus = scatter @ a_plus
    b_minus = scatter @ a_minus
    eye = np.eye(c_up.shape[-2], dtype=complex)
    blocks = (eye + c_up @ b_plus, c_down @ b_plus, c_up @ b_minus, eye + c_down @ b_minus)
    return displaced_smatrix(LayerS(beams, host, blocks, sectors), plane.offset)


def displaced_smatrix(s: LayerS, offset) -> LayerS:
    """S-matrix of a layer moved in-plane by ``offset``: D^-1 S D.

    At the moved layer, beam j carries the Bloch phase
    d_j = exp(i kt_j . offset) relative to the unmoved one, in both
    polarizations: incoming amplitudes pick it up, outgoing ones shed it.
    A diagonal layer commutes with D and is returned as it is.  A layer in
    the mirror sectors stays there if the mirror fixes the offset (mirror
    pairs then share d_j), and is brought to the full basis otherwise.
    """
    if s.diagonal or not np.any(offset):
        return s
    if s.sectors is not None and not mirror_fixed(s.beams.lattice, tuple(offset)):
        s = _full_basis(s)
    d = np.repeat(np.exp(1j * (s.beams.kt @ np.asarray(offset, dtype=float))), 2)
    d = d[None] if s.sectors is None else d[s.sectors.idx[0]]
    blocks = tuple((1.0 / d)[..., :, None] * b * d[..., None, :] for b in s.blocks)
    return LayerS(s.beams, s.mat_right, blocks, s.sectors)


def _beam_multipole_maps(beams: BeamSet, lmax: int, which=slice(None)):
    """Plane-wave <-> multipole maps of the beams ``which`` for a plane at the origin.

    Returns (a_plus, a_minus, c_up, c_down): the regular-expansion columns
    (2 nlm x 2n) of unit incident beams travelling toward +z and -z, and the
    rows (2n x 2 nlm) converting the outgoing multipoles of the plane into
    beams travelling up (+z) and down (-z); n counts the beams selected.
    """
    nv = vswf.nlm(lmax)
    k = beams.ambient.wavenumber(beams.omega)
    kt = beams.kt[which]
    kz, sqrt_kz = (x[which] for x in beams.roots(beams.ambient))
    n = kz.size
    ktn = np.hypot(kt[:, 0], kt[:, 1])
    phi = np.where(ktn > 1e-12, np.arctan2(kt[:, 1], kt[:, 0]), 0.0)
    c_pref = 2.0 * math.pi / (beams.lattice.area * k * kz)

    # axes (sign, beam, polarization, channel); sign 0 travels toward +z,
    # sign 1 toward -z.  One Y_lm table serves incident and outgoing maps.
    yflat = vswf.ylm_flat(lmax + 1, np.stack([kz / k, -kz / k]), ktn / k, phi)[:, :, None, :]
    pols = np.stack([_pol_vectors(kt, kz, k, +1), _pol_vectors(kt, kz, k, -1)])
    a = vswf.incident_coeffs(lmax, yflat, pols) / sqrt_kz[:, None, None]
    c = (sqrt_kz * c_pref)[:, None, None] * vswf.outgoing_coeffs(lmax, yflat, pols)
    a_plus, a_minus = (a[i].reshape(2 * n, 2 * nv).T for i in (0, 1))
    c_up, c_down = (c[i].reshape(2 * n, 2 * nv) for i in (0, 1))
    return a_plus, a_minus, c_up, c_down


def _fresnel(left, right, epsl: complex, epsr: complex):
    """Flux-normalized Fresnel coefficients (r, t, r_back, t_back) of every beam.

    ``left`` and ``right`` are the BeamSet.roots of the two media; r and t
    act left-to-right, r_back and t_back right-to-left.  All four are (2n,)
    rows of one array, in the (beam, polarization) basis order, s then p
    per beam.
    """
    (kzl, ql), (kzr, qr) = left, right
    nl, nr = branch_sqrt(epsl), branch_sqrt(epsr)
    ss, pp = kzl + kzr, epsr * kzl + epsl * kzr
    rs, rp = (kzl - kzr) / ss, (epsr * kzl - epsl * kzr) / pp
    flux, flux_b = qr / ql, ql / qr
    ts, tp = 2.0 * kzl / ss * flux, 2.0 * nl * nr * kzl / pp * flux
    ts_b, tp_b = 2.0 * kzr / ss * flux_b, 2.0 * nr * nl * kzr / pp * flux_b
    out = np.stack([rs, rp, ts, tp, -rs, -rp, ts_b, tp_b])
    return out.reshape(4, 2, -1).transpose(0, 2, 1).reshape(4, -1)


def interface_smatrix(right: Material, beams: BeamSet) -> LayerS:
    """Fresnel S-matrix, per beam and pol, of the interface from beams.ambient into ``right``."""
    left = beams.ambient
    r, t, rb, tb = _fresnel(beams.roots(left), beams.roots(right), left.eps, right.eps)
    return _diagonal_smatrix(beams, right, t, r, rb, tb)


def gap_smatrix(distance: float, beams: BeamSet) -> LayerS:
    """Free propagation over a distance of the beams' ambient medium."""
    if distance < 0:
        raise InvalidArgumentError(f"distance must be >= 0, got {distance}")
    phase = np.repeat(np.exp(1j * beams.kz * distance), 2)
    return _diagonal_smatrix(beams, beams.ambient, phase, 0.0, 0.0, phase)


def plate_smatrix(plate: Plate, beams: BeamSet) -> LayerS:
    """Closed-form Fabry-Perot S-matrix of a homogeneous plate in the beams' ambient.

    The ambient is the same on both faces, so the back face is the front
    face reversed and one _fresnel call serves both.  Underflow-safe: an
    opaque plate's interior phase factor flushes to exact zero, leaving the
    front-interface reflection.
    """
    amb, mat = beams.ambient, plate.material
    mid = beams.roots(mat)
    ph = np.repeat(np.exp(1j * mid[0] * plate.thickness), 2)
    r1, t1, r1b, t1b = _fresnel(beams.roots(amb), mid, amb.eps, mat.eps)
    r2, t2, r2b, t2b = r1b, t1b, r1, t1
    den = 1.0 - r1b * r2 * ph * ph
    return _diagonal_smatrix(
        beams, amb,
        tpp=t1 * t2 * ph / den,
        rpm=r1 + t1 * r2 * t1b * ph * ph / den,
        rmp=r2b + t2 * r1b * t2b * ph * ph / den,
        tmm=t2b * t1b * ph / den,
    )


def _diagonal_star(s1: LayerS, s2: LayerS, context: str) -> LayerS:
    """star_product of two diagonal layers, beam by beam.

    The inter-layer matrix I - rmp1 rpm2 is diag(den); its exact 2-norm
    condition number max |den| / min |den| is checked like a dense solve's.
    """
    tpp1, rpm1, rmp1, tmm1 = s1.blocks
    tpp2, rpm2, rmp2, tmm2 = s2.blocks
    den = 1.0 - rmp1 * rpm2
    mag = np.abs(den)
    lo, hi = mag.min(), mag.max()
    if not (lo > 0.0 and hi < np.inf):  # also false for NaN
        raise SingularSolveError(f"singular solve in {context}", condition=np.inf)
    cond = float(hi / lo)
    if cond > COND_REPORT_LIMIT:
        raise SingularSolveError(
            f"ill-conditioned solve in {context}: cond = {cond:.3e}", condition=cond
        )
    x12 = tpp1 / den
    x21 = tmm2 / den
    blocks = (tpp2 * x12, rpm1 + tmm1 * rpm2 * x12, rmp2 + tpp2 * rmp1 * x21, tmm1 * x21)
    return LayerS(s1.beams, s2.mat_right, blocks, s1.sectors)


def star_product(s1: LayerS, s2: LayerS) -> LayerS:
    """Redheffer composition (s1 to the left of s2), exact multiple reflections.

    Both factors are first brought to one basis (_common_basis).  Two
    diagonal layers compose beam by beam.  A reflectionless diagonal factor
    (a gap) scales the rows and columns of the other one, with no solve.
    Any other pair takes two dense LU solves, each batched over the sectors.
    """
    if s1.beams.g_ints != s2.beams.g_ints:
        raise InvalidArgumentError("star_product requires identical beam sets")
    s1, s2 = _common_basis(s1, s2)
    context = "star product inter-layer solve"
    if s1.diagonal and s2.diagonal:
        return _diagonal_star(s1, s2, context)
    sectors = s1.sectors
    # t and m: the transmission diagonals of the gap
    if s1.reflectionless:
        t1, _, _, m1 = s1.blocks
        t1, m1 = t1[..., None, :], m1[..., None]  # column and row scaling
        tpp2, rpm2, rmp2, tmm2 = s2.blocks
        blocks = (tpp2 * t1, m1 * rpm2 * t1, rmp2, m1 * tmm2)
        return LayerS(s1.beams, s2.mat_right, blocks, sectors)
    if s2.reflectionless:
        tpp1, rpm1, rmp1, tmm1 = s1.blocks
        t2, _, _, m2 = s2.blocks
        t2, m2 = t2[..., None], m2[..., None, :]
        blocks = (t2 * tpp1, rpm1, t2 * rmp1 * m2, tmm1 * m2)
        return LayerS(s1.beams, s2.mat_right, blocks, sectors)
    tpp1, rpm1, rmp1, tmm1 = (s1.stacked(i) for i in range(4))
    tpp2, rpm2, rmp2, tmm2 = (s2.stacked(i) for i in range(4))
    eye = np.eye(tpp1.shape[-1], dtype=complex)
    x12 = _solve_reported(eye - rmp1 @ rpm2, tpp1, context)
    x21 = _solve_reported(eye - rpm2 @ rmp1, tmm2, context)
    blocks = (tpp2 @ x12, rpm1 + tmm1 @ rpm2 @ x12, rmp2 + tpp2 @ rmp1 @ x21, tmm1 @ x21)
    return LayerS(s1.beams, s2.mat_right, blocks, sectors)

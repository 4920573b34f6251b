"""Per-layer scattering matrices in the diffraction-order basis.

Basis convention: beam index major, polarization minor with the (s, p) pair
defined per beam relative to its own plane of incidence.  For the degenerate
normal-incidence beam the plane of incidence is taken to contain the lattice
x axis (azimuth 0).  Amplitudes are flux-normalized at construction: the
physical E-field amplitude is a / sqrt(kz), so |a|^2 is the z-flux carried
by a propagating beam and lossless S-matrices are unitary on the propagating
subspace.

A layer that is diagonal in this basis (interface, gap, plate, identity)
keeps only the four (2n,) diagonals of its blocks; ``star_product`` composes
two of them beam by beam and a reflectionless one (a gap) with a dense layer
by row and column scaling, so only dense pairs reach an LU solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import vswf
from .errors import InvalidArgumentError, SingularSolveError
from .lattice import BeamSet, Lattice2D, beam_kt2, structure_constants
from .mie import Material, SphereScatterer, branch_sqrt, branch_sqrt_array, mie_t

# Largest accepted condition number of a solve.  For a dense solve what is
# checked is a probe estimate of the 2-norm condition number,
# ||A||_F max_j |A^-1 v_j| / |v_j| over _N_PROBES fixed complex Gaussian
# vectors v_j (Dixon, SIAM J. Numer. Anal. 20, 812 (1983)).  It never exceeds
# sqrt(n) cond_2(A); since E |A^-1 v|^2 = ||A^-1||_F^2 for E v v^H = I, it is
# on average at least cond_2(A) / sqrt(n).  For the diagonal denominator of
# two diagonal layers it is exact: cond_2 = max |den| / min |den|.
COND_REPORT_LIMIT = 1e10
_N_PROBES = 2


@dataclass(frozen=True)
class PlaneOfSpheres:
    """2D-periodic plane of identical spheres."""

    lattice: Lattice2D
    scatterer: SphereScatterer
    offset: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        a1 = np.array(self.lattice.a1)
        a2 = np.array(self.lattice.a2)
        nn = min(
            np.linalg.norm(n1 * a1 + n2 * a2)
            for n1 in range(-2, 3)
            for n2 in range(-2, 3)
            if (n1, n2) != (0, 0)
        )
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
        if self.thickness < 0:
            raise InvalidArgumentError(f"thickness must be >= 0, got {self.thickness}")


@dataclass(eq=False)
class LayerS:
    """Four-block scattering matrix over (beam, polarization) ports.

    out+(right) = tpp @ in+(left) + rmp @ in-(right)
    out-(left)  = rpm @ in+(left) + tmm @ in-(right)

    ``blocks`` holds (tpp, rpm, rmp, tmm) as 2n x 2n arrays or, for a layer
    diagonal in the beam basis, as their (2n,) diagonals.  The attributes
    tpp ... tmm are always the 2-D blocks, built on first use and cached.
    """

    beams: BeamSet
    mat_left: Material
    mat_right: Material
    blocks: tuple

    @property
    def diagonal(self) -> bool:
        return self.blocks[0].ndim == 1

    @property
    def reflectionless(self) -> bool:
        """Diagonal with both reflection blocks zero, like a gap."""
        return self.diagonal and not (self.blocks[1].any() or self.blocks[2].any())

    def _dense(self, i: int) -> np.ndarray:
        b = self.blocks[i]
        return np.diag(b) if b.ndim == 1 else b

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


def _diagonal_smatrix(
    beams: BeamSet, mat_left: Material, mat_right: Material, tpp, rpm, rmp, tmm
) -> LayerS:
    """LayerS whose four blocks are diagonal, from their (2n,) diagonals or scalars."""
    n = 2 * beams.n_beams
    diags = []
    for d in (tpp, rpm, rmp, tmm):
        d = np.asarray(d, dtype=complex)
        diags.append(d if d.shape == (n,) else np.full(n, d))
    return LayerS(beams, mat_left, mat_right, tuple(diags))


def identity_smatrix(beams: BeamSet, mat: Material | None = None) -> LayerS:
    mat = beams.ambient if mat is None else mat
    return _diagonal_smatrix(beams, mat, mat, 1.0, 0.0, 0.0, 1.0)


def beam_kz(beams: BeamSet, mat: Material) -> np.ndarray:
    """kz of every beam in a (possibly different) homogeneous medium."""
    k2 = mat.eps * beams.omega**2
    return branch_sqrt_array(k2 - beam_kt2(beams.kt))


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
    """Solve a x = b (b of shape (n, m)) and report ill-conditioning.

    The probe columns of the condition estimate ride along with b through
    the same LU factorization, so the estimate costs _N_PROBES extra
    triangular solves.  Everything stays in numpy's LAPACK: mixing in a
    second BLAS library (scipy's) makes two thread pools spin against each
    other in this hot loop when BLAS runs multithreaded.
    """
    m = b.shape[1]
    probes = _probes(a.shape[0])
    try:
        xv = np.linalg.solve(a, np.concatenate([b, probes], axis=1))
    except np.linalg.LinAlgError as exc:
        raise SingularSolveError(f"singular solve in {context}", condition=np.inf) from exc
    if not np.all(np.isfinite(xv)):
        raise SingularSolveError(f"non-finite solve result in {context}", condition=np.inf)
    growth = np.linalg.norm(xv[:, m:], axis=0) / np.linalg.norm(probes, axis=0)
    cond = float(np.linalg.norm(a) * growth.max())
    if cond > COND_REPORT_LIMIT:
        raise SingularSolveError(
            f"ill-conditioned solve in {context}: cond = {cond:.3e}", condition=cond
        )
    return xv[:, :m]


def sphere_plane_smatrix(plane: PlaneOfSpheres, beams: BeamSet, lmax: int) -> LayerS:
    """S-matrix of one plane of spheres via self-consistent in-plane scattering.

    The regular incident expansion a about one sphere is scattered into
    b = (I - T Omega)^(-1) T a (T = Mie T-matrix, Omega = structure
    constants of the plane at the beams' omega and kpar); b is then
    converted to outgoing diffraction orders through the lattice-sum
    plane-wave identity.  The in-plane offset enters by displaced_smatrix.
    """
    host = plane.scatterer.host
    if beams.ambient.eps != host.eps:
        raise InvalidArgumentError("beams must live in the sphere host medium")
    omega = beams.omega
    k = host.wavenumber(omega)
    nv = vswf.nlm(lmax)
    omega_mat = structure_constants(plane.lattice, omega, beams.kpar, host, lmax)
    t_e, t_m = mie_t(plane.scatterer, omega, lmax)
    lidx = np.array([l for l, _ in vswf.lm_list(lmax)])
    tdiag = np.concatenate([t_m[lidx - 1], t_e[lidx - 1]])
    scatter = _solve_reported(
        np.eye(2 * nv) - tdiag[:, None] * omega_mat,
        np.diag(tdiag),
        "sphere-plane self-consistency (I - T Omega)",
    )

    a_plus, a_minus, c_up, c_down = _beam_multipole_maps(beams, k, plane.lattice.area, lmax)
    b_plus = scatter @ a_plus
    b_minus = scatter @ a_minus
    eye = np.eye(2 * beams.n_beams, dtype=complex)
    centred = LayerS(
        beams, host, host,
        (eye + c_up @ b_plus, c_down @ b_plus, c_up @ b_minus, eye + c_down @ b_minus),
    )
    return displaced_smatrix(centred, plane.offset)


def displaced_smatrix(s: LayerS, offset) -> LayerS:
    """S-matrix of a layer moved in-plane by ``offset``: D^-1 S D.

    At the moved layer, beam j carries the Bloch phase
    d_j = exp(i kt_j . offset) relative to the unmoved one, in both
    polarizations: incoming amplitudes pick it up, outgoing ones shed it.
    A diagonal layer commutes with D and is returned as it is.
    """
    if s.diagonal or not np.any(offset):
        return s
    d = np.repeat(np.exp(1j * (s.beams.kt @ np.asarray(offset, dtype=float))), 2)
    blocks = tuple((1.0 / d)[:, None] * b * d for b in s.blocks)
    return LayerS(s.beams, s.mat_left, s.mat_right, blocks)


def _beam_multipole_maps(beams: BeamSet, k: complex, area: float, lmax: int):
    """Plane-wave <-> multipole maps of every beam for a plane at the origin.

    Returns (a_plus, a_minus, c_up, c_down): the regular-expansion columns
    (2 nlm x 2n) of unit incident beams travelling toward +z and -z, and the
    rows (2n x 2 nlm) converting the outgoing multipoles of the plane into
    beams travelling up (+z) and down (-z).
    """
    n = beams.n_beams
    nv = vswf.nlm(lmax)
    kt = beams.kt
    kz = beams.kz
    sqrt_kz = branch_sqrt_array(kz)
    ktn = np.hypot(kt[:, 0], kt[:, 1])
    phi = np.where(ktn > 1e-12, np.arctan2(kt[:, 1], kt[:, 0]), 0.0)
    c_pref = 2.0 * math.pi / (area * k * kz)

    # axes (sign, beam, polarization, channel); sign 0 travels toward +z,
    # sign 1 toward -z.  One Y_lm table serves incident and outgoing maps.
    yflat = vswf.ylm_flat(lmax + 1, np.stack([kz / k, -kz / k]), ktn / k, phi)[:, :, None, :]
    pols = np.stack([_pol_vectors(kt, kz, k, +1), _pol_vectors(kt, kz, k, -1)])
    a = vswf.incident_coeffs(lmax, yflat, pols) / sqrt_kz[:, None, None]
    c = (sqrt_kz * c_pref)[:, None, None] * vswf.outgoing_coeffs(lmax, yflat, pols)
    a_plus, a_minus = (a[i].reshape(2 * n, 2 * nv).T for i in (0, 1))
    c_up, c_down = (c[i].reshape(2 * n, 2 * nv) for i in (0, 1))
    return a_plus, a_minus, c_up, c_down


def _fresnel(kzl: np.ndarray, kzr: np.ndarray, epsl: complex, epsr: complex):
    """Flux-normalized Fresnel coefficients (r, t) of every beam, left-to-right.

    Both are (2n,) arrays in the (beam, polarization) basis order, s then p
    per beam; right-to-left follows by swapping arguments.
    """
    nl, nr = branch_sqrt(epsl), branch_sqrt(epsr)
    rs = (kzl - kzr) / (kzl + kzr)
    ts = 2.0 * kzl / (kzl + kzr)
    rp = (epsr * kzl - epsl * kzr) / (epsr * kzl + epsl * kzr)
    tp = 2.0 * nl * nr * kzl / (epsr * kzl + epsl * kzr)
    flux = branch_sqrt_array(kzr) / branch_sqrt_array(kzl)
    return np.stack([rs, rp], axis=1).ravel(), np.stack([ts * flux, tp * flux], axis=1).ravel()


def interface_smatrix(mat_left: Material, mat_right: Material, beams: BeamSet) -> LayerS:
    """Fresnel S-matrix of a planar dielectric interface, per beam and pol."""
    kzl = beam_kz(beams, mat_left)
    kzr = beam_kz(beams, mat_right)
    r, t = _fresnel(kzl, kzr, mat_left.eps, mat_right.eps)
    rb, tb = _fresnel(kzr, kzl, mat_right.eps, mat_left.eps)
    return _diagonal_smatrix(beams, mat_left, mat_right, t, r, rb, tb)


def gap_smatrix(distance: float, beams: BeamSet) -> LayerS:
    """Free propagation over a distance of the beams' ambient medium."""
    if distance < 0:
        raise InvalidArgumentError(f"distance must be >= 0, got {distance}")
    phase = np.repeat(np.exp(1j * beams.kz * distance), 2)
    return _diagonal_smatrix(beams, beams.ambient, beams.ambient, phase, 0.0, 0.0, phase)


def plate_smatrix(
    plate: Plate, beams: BeamSet, ambient_left: Material, ambient_right: Material
) -> LayerS:
    """Closed-form Fabry-Perot S-matrix of a homogeneous plate.

    Underflow-safe: an opaque plate's interior phase factor flushes to exact
    zero, leaving the front-interface reflection.
    """
    kzl = beam_kz(beams, ambient_left)
    kzm = beam_kz(beams, plate.material)
    kzr = beam_kz(beams, ambient_right)
    el, em, er = ambient_left.eps, plate.material.eps, ambient_right.eps
    ph = np.repeat(np.exp(1j * kzm * plate.thickness), 2)
    r1, t1 = _fresnel(kzl, kzm, el, em)
    r1b, t1b = _fresnel(kzm, kzl, em, el)
    r2, t2 = _fresnel(kzm, kzr, em, er)
    r2b, t2b = _fresnel(kzr, kzm, er, em)
    den = 1.0 - r1b * r2 * ph * ph
    return _diagonal_smatrix(
        beams, ambient_left, ambient_right,
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
    return _diagonal_smatrix(
        s1.beams, s1.mat_left, s2.mat_right,
        tpp2 * x12, rpm1 + tmm1 * rpm2 * x12, rmp2 + tpp2 * rmp1 * x21, tmm1 * x21,
    )


def star_product(s1: LayerS, s2: LayerS) -> LayerS:
    """Redheffer composition (s1 to the left of s2), exact multiple reflections.

    Two diagonal layers compose beam by beam.  A reflectionless diagonal
    factor (a gap) scales the rows and columns of the other one, with no
    solve.  Any other pair takes two dense LU solves.
    """
    if s1.beams.g_ints != s2.beams.g_ints:
        raise InvalidArgumentError("star_product requires identical beam sets")
    context = "star product inter-layer solve"
    if s1.diagonal and s2.diagonal:
        return _diagonal_star(s1, s2, context)
    # t and m: the transmission diagonals of the gap
    if s1.reflectionless:
        t1, _, _, m1 = s1.blocks
        tpp2, rpm2, rmp2, tmm2 = s2.blocks
        blocks = (tpp2 * t1, m1[:, None] * rpm2 * t1, rmp2, m1[:, None] * tmm2)
        return LayerS(s1.beams, s1.mat_left, s2.mat_right, blocks)
    if s2.reflectionless:
        tpp1, rpm1, rmp1, tmm1 = s1.blocks
        t2, _, _, m2 = s2.blocks
        blocks = (t2[:, None] * tpp1, rpm1, t2[:, None] * rmp1 * m2, tmm1 * m2)
        return LayerS(s1.beams, s1.mat_left, s2.mat_right, blocks)
    n = s1.tpp.shape[0]
    eye = np.eye(n, dtype=complex)
    x12 = _solve_reported(eye - s1.rmp @ s2.rpm, s1.tpp, context)
    x21 = _solve_reported(eye - s2.rpm @ s1.rmp, s2.tmm, context)
    return LayerS(
        s1.beams,
        s1.mat_left,
        s2.mat_right,
        (
            s2.tpp @ x12,
            s1.rpm + s1.tmm @ s2.rpm @ x12,
            s2.rmp + s2.tpp @ s1.rmp @ x21,
            s1.tmm @ x21,
        ),
    )

"""Single-sphere scattering: materials, T-matrix, cross sections."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError
from .specfun import LMAX_CAP, sph_bessel, sph_hankel1, zl_derivative


def branch_sqrt(w: complex) -> complex:
    """Global square-root branch: Im >= 0, and Re >= 0 when Im == 0.

    This is the decaying-wave convention used everywhere in the package.
    """
    s = np.sqrt(complex(w))
    if s.imag < 0 or (s.imag == 0 and s.real < 0):
        s = -s
    return s


def branch_sqrt_array(w) -> np.ndarray:
    """branch_sqrt applied elementwise to an array.

    The principal root never has Re < 0, so only Im < 0 flips the sign.
    """
    s = np.sqrt(np.asarray(w, dtype=complex))
    return np.negative(s, out=s, where=s.imag < 0)


@dataclass(frozen=True)
class Material:
    """Relative permittivity of a (non-magnetic) region."""

    eps: complex

    def __post_init__(self):
        if not cmath.isfinite(self.eps):
            raise InvalidArgumentError(f"eps must be finite, got {self.eps}")
        if complex(self.eps).imag < 0:
            raise InvalidArgumentError(f"passive media only: Im(eps) >= 0, got {self.eps}")

    @property
    def n(self) -> complex:
        """Refractive index under the global branch rule."""
        return branch_sqrt(self.eps)

    @property
    def lossless(self) -> bool:
        return complex(self.eps).imag == 0.0

    def wavenumber(self, omega: float) -> complex:
        return omega * self.n


VACUUM = Material(1.0)


@dataclass(frozen=True)
class SphereScatterer:
    """Homogeneous sphere embedded in a host medium, lengths in units of a."""

    radius: float
    inside: Material
    host: Material

    def __post_init__(self):
        if not math.isfinite(self.radius):
            raise InvalidArgumentError(f"radius must be finite, got {self.radius}")
        if self.radius <= 0:
            raise InvalidArgumentError(f"radius must be > 0, got {self.radius}")


@lru_cache(maxsize=128)
def mie_t(sphere: SphereScatterer, omega: float, lmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel Mie T-matrix elements (T_E, T_M), each indexed l = 1..lmax.

    T maps the amplitude of a regular incident multipole to the amplitude of
    the outgoing scattered multipole; |1 + 2 T_l| = 1 for lossless media.
    Index convention: returned arrays have length lmax with entry [l-1].
    They are cached per (sphere, omega, lmax), since every angle of a sweep
    asks for the same ones, and read-only.
    """
    if not omega > 0:
        raise InvalidArgumentError(f"omega must be > 0, got {omega}")
    if not 1 <= lmax <= LMAX_CAP:
        raise InvalidArgumentError(f"lmax must be in 1..{LMAX_CAP}, got {lmax}")
    k_out = sphere.host.wavenumber(omega)
    k_in = sphere.inside.wavenumber(omega)
    if sphere.inside.eps == sphere.host.eps:
        z = np.zeros(lmax, dtype=complex)
        z.flags.writeable = False
        return z, z
    x = k_out * sphere.radius
    y = k_in * sphere.radius
    m = k_in / k_out
    jx = sph_bessel(lmax, x)
    jy = sph_bessel(lmax, y)
    hx = sph_hankel1(lmax, x)
    # Riccati-Bessel psi(z) = z j(z), xi(z) = z h1(z) and derivatives
    psi_x = x * jx
    psi_y = y * jy
    xi_x = x * hx
    dpsi_x = jx + x * zl_derivative(jx, x)
    dpsi_y = jy + y * zl_derivative(jy, y)
    dxi_x = hx + x * zl_derivative(hx, x)
    ls = np.arange(1, lmax + 1)
    a = (m * psi_y[ls] * dpsi_x[ls] - psi_x[ls] * dpsi_y[ls]) / (
        m * psi_y[ls] * dxi_x[ls] - xi_x[ls] * dpsi_y[ls]
    )
    b = (psi_y[ls] * dpsi_x[ls] - m * psi_x[ls] * dpsi_y[ls]) / (
        psi_y[ls] * dxi_x[ls] - m * xi_x[ls] * dpsi_y[ls]
    )
    t_e = -a
    t_m = -b
    t_e.flags.writeable = t_m.flags.writeable = False
    return t_e, t_m


@dataclass(frozen=True)
class CrossSections:
    """Efficiencies Q = sigma / (pi r^2); applicable only in lossless hosts."""

    q_ext: float
    q_sca: float
    q_abs: float
    applicable: bool = True


NOT_APPLICABLE = CrossSections(math.nan, math.nan, math.nan, applicable=False)


def mie_cross_sections(sphere: SphereScatterer, omega: float) -> CrossSections:
    """Extinction/scattering/absorption efficiencies of the sphere.

    The multipole series is cut at the Wiscombe order x + 4.05 x^(1/3) + 2.
    Cross-section normalization in a lossy host is ambiguous; for such hosts
    the not-applicable marker is returned.
    """
    if not omega > 0:
        raise InvalidArgumentError(f"omega must be > 0, got {omega}")
    if not sphere.host.lossless:
        return NOT_APPLICABLE
    if sphere.inside.eps == sphere.host.eps:
        return CrossSections(0.0, 0.0, 0.0)
    x = (sphere.host.wavenumber(omega) * sphere.radius).real
    lmax = min(LMAX_CAP, max(4, int(math.ceil(x + 4.05 * x ** (1 / 3) + 2))))
    t_e, t_m = mie_t(sphere, omega, lmax)
    ls = np.arange(1, lmax + 1)
    w = 2 * ls + 1
    q_ext = -(2.0 / x**2) * float(np.sum(w * (t_e.real + t_m.real)))
    q_sca = (2.0 / x**2) * float(np.sum(w * (np.abs(t_e) ** 2 + np.abs(t_m) ** 2)))
    return CrossSections(q_ext, q_sca, q_ext - q_sca)

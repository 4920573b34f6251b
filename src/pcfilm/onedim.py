"""1D transfer-matrix reference engine for layered films.

Amplitude convention: full E-field amplitudes of the forward/backward plane
waves in each medium; the transfer matrix M maps exit-side amplitudes to
incident-side amplitudes, so t = 1/M11 and r = M21/M11.  The transmittance
includes the exit-medium flux factor Re(n_exit cos(theta_exit)) /
(n_in cos(theta_in)), which reduces to |t|^2 for identical outer media.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SingularSolveError
from .mie import Material, VACUUM, branch_sqrt


@dataclass(frozen=True)
class OneDimLayer:
    """Homogeneous layer: relative permittivity and thickness (units of a)."""

    eps: complex
    thickness: float

    def __post_init__(self):
        Material(self.eps)  # raises unless eps is finite and passive
        if not math.isfinite(self.thickness):
            raise InvalidArgumentError(f"thickness must be finite, got {self.thickness}")
        if self.thickness < 0:
            raise InvalidArgumentError(f"thickness must be >= 0, got {self.thickness}")


@dataclass(frozen=True)
class OneDimMatrix:
    """2x2 transfer matrix plus the exit flux factor for T."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex
    exit_flux: float = 1.0

    @property
    def mat(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]])

    @property
    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21


def _kz(eps: complex, omega: float, kx: float) -> complex:
    return branch_sqrt(eps * omega * omega - kx * kx)


def _dyn_matrix(eps: complex, omega: float, kx: float, pol: str) -> np.ndarray:
    """Dynamical (field-continuity) matrix for E-amplitude plane waves."""
    kz = _kz(eps, omega, kx)
    n = branch_sqrt(eps)
    ct = kz / (n * omega)  # complex cosine of the refraction angle
    if pol == "s":
        return np.array([[1.0, 1.0], [n * ct, -n * ct]])
    return np.array([[ct, ct], [n, -n]])


def _check_point(omega: float, theta0: float, pol: str) -> None:
    """Reject an omega, incidence angle or polarization the engine does not solve."""
    if not omega > 0:
        raise InvalidArgumentError(f"omega must be > 0, got {omega}")
    if not 0 <= theta0 < math.pi / 2:
        raise InvalidArgumentError(f"theta0 must be in [0, pi/2), got {theta0}")
    if pol not in ("s", "p"):
        raise InvalidArgumentError(f"pol must be 's' or 'p', got {pol!r}")


def layer_matrix(
    layer: OneDimLayer, omega: float, theta0: float, pol: str, ambient: Material = VACUUM
) -> OneDimMatrix:
    """Transfer matrix of one layer, expressed in the ambient amplitude basis."""
    _check_point(omega, theta0, pol)
    kx = omega * ambient.n.real * math.sin(theta0)
    kz = _kz(layer.eps, omega, kx)
    ph = kz * layer.thickness
    prop = np.array([[np.exp(-1j * ph), 0.0], [0.0, np.exp(1j * ph)]])
    d_amb = _dyn_matrix(ambient.eps, omega, kx, pol)
    d_lay = _dyn_matrix(layer.eps, omega, kx, pol)
    m = np.linalg.solve(d_amb, d_lay @ prop @ np.linalg.solve(d_lay, d_amb))
    return OneDimMatrix(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def stack_matrix(
    layers,
    omega: float,
    theta0: float,
    pol: str,
    ambient: Material = VACUUM,
    exit: Material = VACUUM,
) -> OneDimMatrix:
    """Ordered product over the stack including the outer interface matrices.

    An empty stack is the bare interface from the ambient to the exit medium.
    """
    _check_point(omega, theta0, pol)
    kx = omega * ambient.n.real * math.sin(theta0)
    m = np.eye(2, dtype=complex)
    for layer in layers:
        lm = layer_matrix(layer, omega, theta0, pol, ambient)
        m = m @ lm.mat
    d_amb = _dyn_matrix(ambient.eps, omega, kx, pol)
    d_exit = _dyn_matrix(exit.eps, omega, kx, pol)
    m = m @ np.linalg.solve(d_amb, d_exit)
    kz_in = _kz(ambient.eps, omega, kx)
    kz_ex = _kz(exit.eps, omega, kx)
    n_in, n_ex = branch_sqrt(ambient.eps), branch_sqrt(exit.eps)
    flux = float((n_ex * (kz_ex / (n_ex * omega))).real / (n_in * (kz_in / (n_in * omega))).real)
    return OneDimMatrix(m[0, 0], m[0, 1], m[1, 0], m[1, 1], exit_flux=flux)


def rt_from_matrix(m: OneDimMatrix):
    """(r, t, R, T, A) from a transfer matrix; t = 1/M11, r = M21/M11."""
    if m.m11 == 0:
        raise SingularSolveError("M11 = 0: degenerate perfect-transmission resonance")
    t = 1.0 / m.m11
    r = m.m21 / m.m11
    R = abs(r) ** 2
    T = abs(t) ** 2 * m.exit_flux
    return r, t, R, T, 1.0 - R - T


def solve_onedim(
    layers, omega: float, theta0: float, pol: str,
    ambient: Material = VACUUM, exit: Material = VACUUM, opaque_exit: bool | None = None,
):
    """(R, T, A) for a 1D stack; lossy exit media count as opaque (T = 0)."""
    m = stack_matrix(layers, omega, theta0, pol, ambient, exit)
    _, _, R, T, A = rt_from_matrix(m)
    if opaque_exit is None:
        opaque_exit = not exit.lossless
    if opaque_exit:
        T = 0.0
        A = 1.0 - R
    return R, T, A

"""Complex-argument special functions for spherical-wave expansions.

Conventions used throughout the package:

* Spherical harmonics Y_lm are orthonormal and carry the Condon-Shortley
  phase; ``vswf.ylm_flat`` builds them from ``legendre_normalized``.  For
  directions with complex polar angle (evanescent beams) both cos(theta)
  and sin(theta) are passed explicitly, so no square-root branch is ever
  taken inside the recurrences (scipy's ``assoc_legendre_p_all`` takes the
  principal root of 1 - cos^2, -kpar/k in a lossless host of negative eps).
* The radial functions j_l and h^(1)_l come from ``scipy.special`` (the
  AMOS complex Bessel routines, Amos, ACM TOMS 12, 265 (1986)).
* ``Ybar_lm = (-1)^m Y_{l,-m}`` is the analytic continuation of the complex
  conjugate; it coincides with conj(Y_lm) for real angles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import hankel1, spherical_jn

from .errors import InvalidArgumentError, SingularArgumentError

# Default and hard cap for the multipole cutoff used by the physics modules.
LMAX_DEFAULT = 7
LMAX_CAP = 14


def _checked_argument(lmax: int, z) -> complex:
    """z as a complex number, once lmax and z pass the radial functions' checks."""
    if lmax < 0:
        raise InvalidArgumentError(f"lmax must be >= 0, got {lmax}")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidArgumentError(f"non-finite argument {z!r}")
    return z


def sph_bessel(lmax: int, z: complex) -> np.ndarray:
    """Spherical Bessel functions j_0..j_lmax at complex argument z."""
    z = _checked_argument(lmax, z)
    return spherical_jn(np.arange(lmax + 1), z)


def sph_hankel1(lmax: int, z: complex) -> np.ndarray:
    """Outgoing spherical Hankel functions h^(1)_0..h^(1)_lmax.

    From the cylinder function, h_l = sqrt(pi / 2z) H^(1)_{l+1/2}(z); the
    sum j + i y would cancel for Im z > 0, where h decays while j, y grow.
    """
    z = _checked_argument(lmax, z)
    if z == 0:
        raise SingularArgumentError("h^(1)_l is singular at z = 0")
    return np.sqrt(math.pi / (2 * z)) * hankel1(np.arange(lmax + 1) + 0.5, z)


def zl_derivative(zl: np.ndarray, z: complex) -> np.ndarray:
    """Derivative of any spherical Bessel family from its value table.

    Uses f_l' = f_{l-1} - (l+1)/z f_l (f_0' = -f_1).
    """
    lmax = len(zl) - 1
    out = np.zeros_like(zl)
    if lmax >= 1:
        out[0] = -zl[1]
    ls = np.arange(1, lmax + 1)
    out[1:] = zl[:-1] - (ls + 1) / z * zl[1:]
    return out


def legendre_normalized(lmax: int, ct, st) -> np.ndarray:
    """Spherical-harmonic-normalized Legendre table for possibly complex angles.

    Returns Ptilde[..., l, m] = sqrt((2l+1)(l-m)!/(4 pi (l+m)!)) P_l^m(ct) for
    0 <= m <= l, evaluated from (ct, st) without taking any square root of
    1 - ct^2; the caller chooses the branch by supplying st.  ct and st may
    be arrays of directions; the leading axes are their broadcast shape.
    """
    ct = np.asarray(ct)
    st = np.asarray(st)
    p = np.zeros(np.broadcast_shapes(ct.shape, st.shape) + (lmax + 1, lmax + 1), dtype=complex)
    p[..., 0, 0] = math.sqrt(1.0 / (4.0 * math.pi))
    for m in range(1, lmax + 1):
        p[..., m, m] = -math.sqrt((2 * m + 1) / (2.0 * m)) * st * p[..., m - 1, m - 1]
    for m in range(lmax):
        p[..., m + 1, m] = math.sqrt(2 * m + 3) * ct * p[..., m, m]
    ct = ct[..., None]
    for l in range(2, lmax + 1):
        a, b = _legendre_coefs(l)
        p[..., l, : l - 1] = a * (ct * p[..., l - 1, : l - 1] - b * p[..., l - 2, : l - 1])
    return p


@lru_cache(maxsize=None)
def _legendre_coefs(l: int) -> tuple[np.ndarray, np.ndarray]:
    """Three-term recursion factors for P[l, m] from P[l-1, m], P[l-2, m], m <= l-2."""
    m = range(l - 1)
    a = np.array([math.sqrt((4 * l * l - 1) / (l * l - k * k)) for k in m])
    b = np.array([math.sqrt(((l - 1) ** 2 - k * k) / (4 * (l - 1) ** 2 - 1)) for k in m])
    return a, b


@lru_cache(maxsize=200000)
def _wigner3j(j1: int, j2: int, j3: int, m1: int, m2: int, m3: int) -> float:
    """Exact Wigner 3j symbol via the Racah formula in rational arithmetic."""
    if m1 + m2 + m3 != 0:
        return 0.0
    if j3 < abs(j1 - j2) or j3 > j1 + j2:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    f = math.factorial
    delta = Fraction(
        f(j1 + j2 - j3) * f(j1 - j2 + j3) * f(-j1 + j2 + j3), f(j1 + j2 + j3 + 1)
    )
    norm = delta * (
        f(j1 + m1) * f(j1 - m1) * f(j2 + m2) * f(j2 - m2) * f(j3 + m3) * f(j3 - m3)
    )
    kmin = max(0, j2 - j3 - m1, j1 - j3 + m2)
    kmax = min(j1 + j2 - j3, j1 - m1, j2 + m2)
    total = Fraction(0)
    for k in range(kmin, kmax + 1):
        den = (
            f(k)
            * f(j1 + j2 - j3 - k)
            * f(j1 - m1 - k)
            * f(j2 + m2 - k)
            * f(j3 - j2 + m1 + k)
            * f(j3 - j1 - m2 + k)
        )
        total += Fraction((-1) ** k, den)
    if total == 0:
        return 0.0
    sign = (-1) ** (j1 - j2 - m3)
    return sign * float(total) * math.sqrt(float(norm))


@lru_cache(maxsize=200000)
def clebsch_gordan(j1: int, m1: int, j2: int, m2: int, J: int, M: int) -> float:
    """<j1 m1; j2 m2 | J M> from the exact 3j symbol."""
    if m1 + m2 != M:
        return 0.0
    return (-1) ** (j1 - j2 + M) * math.sqrt(2 * J + 1) * _wigner3j(j1, j2, J, m1, m2, -M)


def gaunt_lmm(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> float:
    """Gaunt integral int Y_{l1 m1} Y_{l2 m2} conj(Y_{l3 m3}) dOmega.

    Exact zero under any selection-rule violation (total function), because
    _wigner3j is: odd l1 + l2 + l3 makes the (0, 0, 0) symbol vanish.
    """
    pref = math.sqrt((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1) / (4.0 * math.pi))
    return (
        (-1) ** m3
        * pref
        * _wigner3j(l1, l2, l3, 0, 0, 0)
        * _wigner3j(l1, l2, l3, m1, m2, -m3)
    )

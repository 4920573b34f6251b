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
* The angular-momentum coupling coefficients are computed in floating point
  in ``vswf``: the spin-1 Clebsch-Gordan coefficients from their closed forms
  (``vswf._CG1``), within 2.2e-16 of the exact Racah values for l <= 14, and
  the structure-constant recipe (``vswf._translation_recipe``), whose Gaunt
  integrals are Gauss-Legendre sums over ``legendre_normalized`` taken
  directly in the vector channels, within 2.6e-14 of the exact values for
  lmax <= 9 and 2.4e-13 at lmax 14.  The exact Racah formula in integer
  arithmetic is the test suite's reference (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# scipy.special is imported inside the radial functions, not here: it costs
# about 0.2 s and 26 MB at start-up, and a scene without spheres never calls them.
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
    from scipy.special import spherical_jn

    z = _checked_argument(lmax, z)
    return spherical_jn(np.arange(lmax + 1), z)


def sph_hankel1(lmax: int, z: complex) -> np.ndarray:
    """Outgoing spherical Hankel functions h^(1)_0..h^(1)_lmax.

    From the cylinder function, h_l = sqrt(pi / 2z) H^(1)_{l+1/2}(z); the
    sum j + i y would cancel for Im z > 0, where h decays while j, y grow.
    """
    from scipy.special import hankel1

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

"""Kirchhoff-law emissivity maps and Planck weighting.

Emissivity is the absorptance of the (opaquely terminated) stack: E = A =
1 - R - T, evaluated point-by-point by the stack solver.  Planck weighting
is kept dimensionless: spectra are weighted by b(x) = x^3 / (e^x - 1) with
x = omega / x0, where x0 = a k_B T / (hbar c) maps the temperature to the
frequency unit (omega in c/a).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, PcfilmError
from .stack import NumericalControls, StackDescription, solve_stack_points

PLANCK_INTEGRAL = math.pi**4 / 15.0  # int_0^inf x^3/(e^x - 1) dx
PLANCK_PEAK_X = 2.8214393721220787   # root of 3(1 - e^-x) = x
POLS = ("s", "p")  # order of the polarization axis of EmissivityMap


@dataclass(frozen=True)
class EmissivityMap:
    """R, T and A = E over an (omega, theta) grid, indexed [omega, theta, pol].

    The last axis runs over POLS; ``e_s``, ``e_p`` and their unpolarized
    average ``e_avg`` are the emissivity maps.
    """

    R: np.ndarray
    T: np.ndarray
    A: np.ndarray

    @property
    def e_s(self) -> np.ndarray:
        return self.A[..., 0]

    @property
    def e_p(self) -> np.ndarray:
        return self.A[..., 1]

    @property
    def e_avg(self) -> np.ndarray:
        return 0.5 * (self.e_s + self.e_p)


class GridPointError(PcfilmError):
    """A point of a grid run failed; ``index`` is its grid index tuple."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


def run_grid(point, tasks, threads: int, describe) -> list:
    """[point(task) for task in tasks] on ``threads`` threads, in task order.

    Each task is a grid index tuple.  A PcfilmError raised by a point becomes
    a GridPointError carrying its task as ``index`` and the failure as its
    cause, with the message ``describe(task): <failure>``.
    """

    def work(task):
        try:
            return point(task)
        except PcfilmError as exc:
            raise GridPointError(f"{describe(task)}: {exc}", task) from exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, tasks))
    return [work(t) for t in tasks]


def angular_map(
    desc: StackDescription,
    omega_grid,
    theta_grid,
    controls: NumericalControls | None = None,
    phi: float = 0.0,
    threads: int = 1,
    omega_shown=None,
) -> EmissivityMap:
    """R, T, A for s and p over the full (omega, theta) grid.

    Points are assembled by grid index, so the result does not depend on
    ``threads``.  A failing point raises GridPointError naming its theta in
    degrees and its omega as ``omega_shown`` gives it (the caller's units of
    omega_grid), or as in omega_grid.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    theta_grid = np.asarray(theta_grid, dtype=float)
    if omega_grid.size == 0 or theta_grid.size == 0:
        raise InvalidArgumentError("grids must be nonempty")
    if omega_shown is None:
        omega_shown = omega_grid
    tasks = [(i, j) for i in range(omega_grid.size) for j in range(theta_grid.size)]

    def point(task):
        i, j = task
        # both polarizations share one stack S-matrix
        return solve_stack_points(desc, omega_grid[i], theta_grid[j], phi, POLS, controls)

    def describe(task):
        i, j = task
        theta_deg = math.degrees(theta_grid[j])
        return f"emissivity failed at omega={omega_shown[i]}, theta={theta_deg} deg"

    results = run_grid(point, tasks, threads, describe)
    shape = (omega_grid.size, theta_grid.size, len(POLS))
    rta = np.array([[(p.R, p.T, p.A) for p in pts] for pts in results]).reshape(shape + (3,))
    return EmissivityMap(rta[..., 0], rta[..., 1], rta[..., 2])


def planck_b(x):
    """Dimensionless Planck spectral density b(x) = x^3 / (e^x - 1)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    small = x < 1e-8
    pos = (x > 0) & ~small
    out[pos] = x[pos] ** 3 / np.expm1(x[pos])
    out[small & (x > 0)] = x[small & (x > 0)] ** 2  # leading order
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PlanckWeighted:
    """Planck-weighted spectrum with the grid's coverage of the full integral."""

    weighted: np.ndarray
    coverage: float
    low_coverage: bool


def planck_weight(omega_grid, emissivity, x0: float) -> PlanckWeighted:
    """Weight a spectrum E(omega) by the Planck density at scale x0.

    Output is E(omega) b(omega/x0) normalized so a unit-emissivity spectrum
    integrates to exactly 1 over the grid.  The coverage fraction reports
    how much of the full Planck integral the grid spans; below 80% the
    low-coverage flag is set.
    """
    if x0 <= 0:
        raise InvalidArgumentError(f"x0 must be > 0, got {x0}")
    omega_grid = np.asarray(omega_grid, dtype=float)
    emissivity = np.asarray(emissivity, dtype=float)
    if omega_grid.ndim != 1 or np.any(np.diff(omega_grid) <= 0):
        raise InvalidArgumentError("omega grid must be strictly increasing")
    x = omega_grid / x0
    b = planck_b(x)
    norm = np.trapezoid(b, omega_grid)
    if norm == 0:
        raise InvalidArgumentError("Planck weight vanishes on the given grid")
    coverage = float(np.trapezoid(planck_b(x), x) / PLANCK_INTEGRAL)
    return PlanckWeighted(
        weighted=emissivity * b / norm,
        coverage=coverage,
        low_coverage=coverage < 0.80,
    )

"""Shared helpers for the test suite."""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the wall-clock budgets of the
# acceptance tests then measure the code, not the thread pool's contention.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from pcfilm.band import true_runs
from pcfilm.lattice import BeamSet


def longest_run(mask) -> tuple[int, int] | None:
    """Indices (first, last) of the longest contiguous True run, or None."""
    return max(true_runs(mask), key=lambda r: r[1] - r[0], default=None)


def band_interval(omega, values, threshold: float = 0.2):
    """(omega_low, omega_high) of the longest run with values < threshold."""
    run = longest_run(np.asarray(values) < threshold)
    if run is None:
        return None
    omega = np.asarray(omega, dtype=float)
    return float(omega[run[0]]), float(omega[run[1]])


@pytest.fixture
def full_basis(monkeypatch):
    """Call it to keep every later layer in the full basis: the reference for the
    mirror sectors, which no beam set then qualifies for."""
    return lambda: monkeypatch.setattr(BeamSet, "mirror", property(lambda self: None))

"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from pcfilm.band import true_runs


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

"""Kirchhoff emissivity, angular maps, and Planck weighting."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import fresnel_power_reflectance
from pcfilm.emissivity import PLANCK_PEAK_X, GridPointError, angular_map, planck_b, planck_weight
from pcfilm.layer import Plate
from pcfilm.mie import Material, VACUUM
from pcfilm.stack import NumericalControls, StackDescription, solve_stack

LOSSY_STACK = StackDescription(
    (Plate(0.6, Material(2.6)), Plate(0.81, Material(1.44))),
    exit=Material(12.0 + 7.0j),
)


class TestPlanck:
    def test_peak_vs_bisection_oracle(self):
        # peak of x^3/(e^x - 1): root of 3 (1 - e^-x) = x
        lo, hi = 2.0, 3.5
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if 3.0 * (1.0 - math.exp(-mid)) - mid > 0:
                lo = mid
            else:
                hi = mid
        assert PLANCK_PEAK_X == pytest.approx(0.5 * (lo + hi), abs=1e-3)
        x = np.linspace(2.7, 2.95, 2001)
        b = planck_b(x)
        assert x[np.argmax(b)] == pytest.approx(PLANCK_PEAK_X, abs=1e-3)

    def test_small_x_tail(self):
        assert planck_b(1e-3) == pytest.approx(1e-6, rel=1e-3)
        assert planck_b(0.0) == 0.0

    def test_unit_emissivity_normalization(self):
        om = np.linspace(0.01, 25.0, 4000)
        out = planck_weight(om, np.ones_like(om), x0=1.0)
        assert np.trapezoid(out.weighted, om) == pytest.approx(1.0, abs=1e-6)
        assert not out.low_coverage

    def test_zero_emissivity(self):
        om = np.linspace(0.01, 25.0, 500)
        out = planck_weight(om, np.zeros_like(om), x0=1.0)
        assert np.max(np.abs(out.weighted)) == 0.0

    def test_low_coverage_flag(self):
        om = np.linspace(0.01, 1.0, 50)  # far below the Planck peak at x0 = 1
        out = planck_weight(om, np.ones_like(om), x0=1.0)
        assert out.coverage < 0.80
        assert out.low_coverage


class TestEmissivityPoint:
    def test_lossless_scene_emits_nothing(self):
        desc = StackDescription((Plate(0.6, Material(2.6)), Plate(0.81, Material(1.44))))
        assert solve_stack(desc, 1.1, 0.2, 0.0, "s").A == pytest.approx(0.0, abs=1e-10)

    def test_bare_substrate(self):
        desc = StackDescription((), exit=Material(12.0 + 7.0j))
        e = solve_stack(desc, 0.9, 0.0, 0.0, "p").A
        assert e == pytest.approx(1.0 - fresnel_power_reflectance(12.0 + 7.0j), abs=1e-12)


class TestAngularMap:
    def test_single_point_wraps(self):
        m = angular_map(LOSSY_STACK, [1.1], [0.3])
        for k, pol in enumerate("sp"):
            p = solve_stack(LOSSY_STACK, 1.1, 0.3, 0.0, pol)
            assert (m.R[0, 0, k], m.T[0, 0, k], m.A[0, 0, k]) == (p.R, p.T, p.A)
        assert m.e_s[0, 0] == m.A[0, 0, 0]
        assert m.e_p[0, 0] == m.A[0, 0, 1]

    def test_average_exact(self):
        m = angular_map(LOSSY_STACK, [0.9, 1.2], [0.0, 0.4])
        assert np.array_equal(m.e_avg, 0.5 * (m.e_s + m.e_p))

    def test_theta_reversal_invariance(self):
        thetas = [0.0, 0.2, 0.5]
        a = angular_map(LOSSY_STACK, [1.0], thetas)
        b = angular_map(LOSSY_STACK, [1.0], thetas[::-1])
        assert np.max(np.abs(a.e_s - b.e_s[:, ::-1])) == 0.0

    def test_threads_deterministic(self):
        oms = [0.8, 1.0, 1.3]
        ths = [0.0, 0.3]
        a = angular_map(LOSSY_STACK, oms, ths, threads=1)
        b = angular_map(LOSSY_STACK, oms, ths, threads=2)
        assert np.array_equal(a.e_s, b.e_s)
        assert np.array_equal(a.e_p, b.e_p)

    def test_values_in_unit_interval(self):
        m = angular_map(LOSSY_STACK, np.linspace(0.5, 2.0, 8), [0.0, 0.5, 1.0])
        for arr in (m.e_s, m.e_p, m.e_avg):
            assert np.all(arr >= -1e-12)
            assert np.all(arr <= 1.0 + 1e-12)

    def test_failure_carries_coordinates(self):
        # an impossibly small beam cutoff fails inside the solve; the map
        # must surface the offending grid point
        bad = NumericalControls(lmax=2, cutoff=0.01)
        with pytest.raises(GridPointError, match="omega=1.25, theta=") as exc:
            angular_map(LOSSY_STACK, [1.25], [math.radians(30.0)], controls=bad)
        assert exc.value.index == (0, 0)
        assert f"theta={math.degrees(math.radians(30.0))} deg: " in str(exc.value)

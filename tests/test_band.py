"""Complex band structure from the unit-slice S-matrix."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from pcfilm.band import complex_bands, gap_edges, overlap_permutation, true_runs
from pcfilm.errors import InvalidArgumentError
from pcfilm.lattice import SQUARE, beam_set
from pcfilm.layer import Plate, gap_smatrix
from pcfilm.mie import Material, VACUUM
from pcfilm.stack import NumericalControls, slice_smatrix

EPS1, D1 = 2.6, 0.6
EPS2, D2 = 1.44, 0.81
PERIOD = D1 + D2


def _unit_slice(omega, eps1=EPS1, d1=D1, eps2=EPS2, d2=D2):
    return slice_smatrix(
        (Plate(d1, Material(eps1)), Plate(d2, Material(eps2))),
        VACUUM,
        omega,
        (0.0, 0.0),
        NumericalControls(lmax=1, cutoff=omega + 2 * math.pi),
    )


def _bloch_cos(omega, eps1=EPS1, d1=D1, eps2=EPS2, d2=D2):
    """Closed-form 1D two-layer dispersion: cos(kz * period)."""
    k1, k2 = omega * math.sqrt(eps1), omega * math.sqrt(eps2)
    return math.cos(k1 * d1) * math.cos(k2 * d2) - 0.5 * (
        k1 / k2 + k2 / k1
    ) * math.sin(k1 * d1) * math.sin(k2 * d2)


class TestComplexBands:
    def test_free_space_dispersion(self):
        omega, d = 0.8, 1.3
        beams = beam_set(SQUARE, omega, (0.0, 0.0), VACUUM, omega + 2 * math.pi)
        bp = complex_bands(gap_smatrix(d, beams), d, omega, (0.0, 0.0))
        prop = [kz for kz in bp.kz_list if abs(kz.imag) * d < 1e-6]
        assert prop
        assert any(abs(abs(kz.real) - omega) < 1e-10 for kz in prop)

    def test_uniform_medium_folded(self):
        omega, d = 0.9, 1.0
        unit = slice_smatrix(
            (Plate(d, Material(4.0)),),
            VACUUM,
            omega,
            (0.0, 0.0),
            NumericalControls(lmax=1, cutoff=omega + 2 * math.pi),
        )
        bp = complex_bands(unit, d, omega, (0.0, 0.0))
        # kz = 2 omega folded into (-pi/d, pi/d]
        target = 2.0 * omega
        target -= 2.0 * math.pi / d * round(target / (2.0 * math.pi / d))
        assert any(
            abs(kz.imag) * d < 1e-6 and abs(abs(kz.real) - abs(target)) < 1e-10
            for kz in bp.kz_list
        )

    def test_folding_range(self):
        bp = complex_bands(_unit_slice(1.2), PERIOD, 1.2, (0.0, 0.0))
        for kz in bp.kz_list:
            assert -math.pi / PERIOD - 1e-9 < kz.real <= math.pi / PERIOD + 1e-9

    def test_im_kz_nonnegative_representatives(self):
        bp = complex_bands(_unit_slice(1.7), PERIOD, 1.7, (0.0, 0.0))
        assert all(kz.imag > -1e-6 / PERIOD for kz in bp.kz_list)

    def test_quarter_wave_dispersion_in_band(self):
        # inside a propagating band the specular branch matches the closed form
        for omega in (0.6, 1.0, 2.2):
            f = _bloch_cos(omega)
            assert abs(f) < 1.0  # sanity: a band frequency
            bp = complex_bands(_unit_slice(omega), PERIOD, omega, (0.0, 0.0))
            ref = math.acos(f) / PERIOD
            assert any(
                abs(kz.imag) * PERIOD < 1e-6 and abs(abs(kz.real) - ref) < 1e-8
                for kz in bp.kz_list
            )

    def test_quarter_wave_decay_in_gap(self):
        # mid-gap: |cos(kz d)| > 1, kz = pi/d + i * arccosh|f| / d
        omega = 1.62
        f = _bloch_cos(omega)
        assert abs(f) > 1.0
        bp = complex_bands(_unit_slice(omega), PERIOD, omega, (0.0, 0.0))
        ref_im = math.acosh(abs(f)) / PERIOD
        best = min(
            (kz for kz in bp.kz_list if kz.imag * PERIOD > 1e-6),
            key=lambda kz: kz.imag,
        )
        assert best.imag == pytest.approx(ref_im, rel=1e-8)
        assert abs(best.real) == pytest.approx(math.pi / PERIOD, rel=1e-8)

    def test_overlap_permutation_identity(self):
        bp = complex_bands(_unit_slice(1.0), PERIOD, 1.0, (0.0, 0.0))
        perm = overlap_permutation(bp, bp)
        assert list(perm) == list(range(len(bp.kz_list)))


class TestGapEdges:
    def test_free_space_gapless(self):
        d = 1.0
        scan = []
        for omega in np.linspace(0.2, 2.0, 40):
            beams = beam_set(SQUARE, float(omega), (0.0, 0.0), VACUUM, float(omega) + 2 * math.pi)
            scan.append(complex_bands(gap_smatrix(d, beams), d, float(omega), (0.0, 0.0)))
        assert gap_edges(scan) == []

    def test_quarter_wave_edges_vs_closed_form(self):
        omegas = np.linspace(1.2, 2.1, 60)
        scan = [
            complex_bands(_unit_slice(float(om)), PERIOD, float(om), (0.0, 0.0))
            for om in omegas
        ]

        def refine(omega):
            return complex_bands(_unit_slice(float(omega)), PERIOD, float(omega), (0.0, 0.0))

        gaps = gap_edges(scan, refine=refine, tol=1e-4)
        assert len(gaps) == 1
        lo, hi = gaps[0]
        edge_lo = brentq(lambda w: abs(_bloch_cos(w)) - 1.0, 1.3, 1.62)
        edge_hi = brentq(lambda w: abs(_bloch_cos(w)) - 1.0, 1.62, 2.0)
        assert lo == pytest.approx(edge_lo, abs=2e-4)
        assert hi == pytest.approx(edge_hi, abs=2e-4)

    def test_true_runs(self):
        assert true_runs([]) == []
        assert true_runs([False, False]) == []
        assert true_runs([True, True, True]) == [(0, 2)]
        assert true_runs([True, False, True, True, False, True]) == [(0, 0), (2, 3), (5, 5)]

    def test_non_monotone_scan_rejected(self):
        pts = [
            complex_bands(_unit_slice(om), PERIOD, om, (0.0, 0.0))
            for om in (1.0, 1.4, 1.2)
        ]
        with pytest.raises(InvalidArgumentError):
            gap_edges(pts)

"""Complex band structure from the unit-slice S-matrix."""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import pcfilm.scenes as sc
from pcfilm.band import complex_bands, gap_edges, overlap_permutation, true_runs
from pcfilm.errors import InvalidArgumentError
from pcfilm.lattice import SQUARE, beam_set
from pcfilm.layer import Plate, gap_smatrix
from pcfilm.mie import Material, VACUUM
from pcfilm.stack import Gap, Interface, NumericalControls, slice_smatrix

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

    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
    def test_zone_edge_reads_plus_pi(self, side):
        # omega d = pi (1 +- 1e-12): the propagating branches of a vacuum gap
        # sit at the zone edge, which reads +pi/d from either side
        d = 1.0
        omega = math.pi * (1.0 + side * 1e-12) / d
        beams = beam_set(SQUARE, omega, (0.0, 0.0), VACUUM, omega + 2 * math.pi)
        bp = complex_bands(gap_smatrix(d, beams), d, omega, (0.0, 0.0))
        edge = bp.kz_list[bp.propagating]
        assert edge.size == 4  # forward and backward, s and p
        assert np.all(np.abs(edge.real * d / math.pi - 1.0) < 1e-9)

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


class TestSliceAmbients:
    def test_other_ambient_on_the_right_rejected(self):
        omega = 0.9
        unit = slice_smatrix(
            [Interface(VACUUM, Material(2.25)), Gap(0.3)],
            VACUUM,
            omega,
            (0.0, 0.0),
            NumericalControls(lmax=1, cutoff=omega + 2 * math.pi),
        )
        with pytest.raises(InvalidArgumentError, match="unit slice must have the same ambient"):
            complex_bands(unit, 0.3, omega, (0.0, 0.0))


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


class TestMirrorSectors:
    """The paper-fig4 unit slice at normal incidence runs in the mirror sectors."""

    @staticmethod
    def _bands():
        scene = sc.preset("paper-fig4")
        unit, ambient, period = scene.unit_slice()
        omega = float(scene.omega_internal(np.array([1.8]))[0])
        s = slice_smatrix(unit, ambient, omega, (0.0, 0.0), scene.controls(), scene.lattice())
        return s, complex_bands(s, period, omega, (0.0, 0.0))

    @staticmethod
    def _kept(bp):
        """kz d of the branches with Im kz d <= 5, sorted by (Im, Re)."""
        kzd = [kz * bp.period for kz in bp.kz_list if kz.imag * bp.period <= 5.0]
        return sorted(kzd, key=lambda z: (round(z.imag, 6), z.real))

    def test_same_branches_as_full_basis(self, full_basis):
        unit, got = self._bands()
        assert unit.sectors is not None
        full_basis()
        unit, want = self._bands()
        assert unit.sectors is None
        assert got.kz_list.size == want.kz_list.size
        a, b = self._kept(got), self._kept(want)
        assert len(a) == len(b) > 0
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-9

    def test_sectors_never_paired(self):
        _, bp = self._bands()
        half = bp.vectors.shape[0] // 2
        odd = np.abs(bp.vectors[half:]).max(axis=0) > 0
        assert odd.any() and not odd.all()
        assert np.all(bp.vectors[:half, odd] == 0) and np.all(bp.vectors[half:, ~odd] == 0)
        assert list(overlap_permutation(bp, bp)) == list(range(bp.kz_list.size))
        # an odd branch that ends is not continued by an even branch that starts
        c1, (a0, d0) = np.flatnonzero(odd)[0], np.flatnonzero(~odd)[:2]

        def pick(cols):
            return dataclasses.replace(bp, kz_list=bp.kz_list[cols], vectors=bp.vectors[:, cols])

        assert list(overlap_permutation(pick([c1, a0]), pick([a0, d0]))) == [0, 1]

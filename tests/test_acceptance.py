"""Acceptance gate: end-to-end physics checks against oracles and presets.

These tests are slower than the per-module suites; they exercise whole
scenes (energy bookkeeping, dual-engine agreement, preset reproduction)
at the tolerances the package commits to.  Run with ``pytest
tests/test_acceptance.py``.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest
from conftest import band_interval, longest_run

from oracles import damped_extrapolated_sums, direct_lattice_sums, mie_efficiencies, mie_oracle
from pcfilm.band import complex_bands, gap_edges
from pcfilm.emissivity import (
    PLANCK_PEAK_X,
    angular_map,
    planck_b,
    planck_weight,
)
from pcfilm.lattice import SQUARE, lattice_sums_ewald
from pcfilm.layer import PlaneOfSpheres, Plate
from pcfilm.mie import Material, SphereScatterer, VACUUM, mie_cross_sections, mie_t
from pcfilm.onedim import OneDimLayer, solve_onedim
from pcfilm.stack import (
    Gap,
    NumericalControls,
    Repeat,
    StackDescription,
    slice_smatrix,
    solve_stack,
    solve_stack_points,
)
import pcfilm.scenes as sc

GAP_CENTER_CA = 2.27  # displayed gap center of the opal film, c/a (angular)


@pytest.fixture(scope="module")
def fig2_map():
    """Full paper-fig2 emissivity map (150 x 13, both polarizations), timed."""
    scene = sc.preset("paper-fig2")
    om_disp = scene.omega_display_grid()
    thetas = scene.theta_grid()
    t0 = time.perf_counter()
    m = angular_map(
        scene.build_stack(), scene.omega_internal(om_disp), thetas, controls=scene.controls()
    )
    elapsed = time.perf_counter() - t0
    return scene, om_disp, m, elapsed


class TestEnergyConservation:
    def test_three_dimensional_suite(self):
        # lossless spheres + plate + gaps, two periods, free-standing
        plane = PlaneOfSpheres(SQUARE, SphereScatterer(0.3, Material(2.25), VACUUM))
        desc = StackDescription(
            (Repeat((plane, Gap(0.8), Plate(0.35, Material(4.0)), Gap(0.4)), 2),)
        )
        controls = NumericalControls(lmax=7, cutoff=18.0)
        angles = [math.radians(t) for t in (0, 11, 23, 34, 47, 53, 59)]
        t0 = time.perf_counter()
        worst = 0.0
        for om in np.linspace(1.0, 2.0, 200):
            for th in angles:
                p = solve_stack(desc, float(om), th, 0.0, "s", controls=controls)
                worst = max(worst, abs(p.R + p.T - 1.0))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-6
        assert elapsed < 120.0

    def test_onedim_suite(self):
        layers = [OneDimLayer(2.6, 0.6), OneDimLayer(1.44, 0.81)] * 16
        angles = [math.radians(t) for t in (0, 11, 23, 34, 47, 53, 59)]
        worst = 0.0
        for om in np.linspace(0.5, 3.5, 200):
            for th in angles:
                for pol in ("s", "p"):
                    R, T, A = solve_onedim(layers, float(om), th, pol)
                    worst = max(worst, abs(R + T - 1.0))
        assert worst < 1e-10


class TestDualEngineEquivalence:
    def test_random_plate_scenes(self):
        rng = np.random.default_rng(20240824)
        exits = (VACUUM, Material(4.0), Material(12.0 + 7.0j))
        for _ in range(500):
            n = int(rng.integers(1, 5))
            eps = [
                complex(rng.uniform(1.0, 16.0), rng.uniform(0.0, 2.0) * (rng.random() < 0.5))
                for _ in range(n)
            ]
            ds = rng.uniform(0.05, 1.5, size=n)
            omega = float(rng.uniform(0.5, 2.5))
            theta = float(rng.uniform(0.0, math.radians(80.0)))
            pol = "s" if rng.random() < 0.5 else "p"
            exit_m = exits[int(rng.integers(0, 3))]
            plates = tuple(Plate(float(d), Material(e)) for e, d in zip(eps, ds))
            desc = StackDescription(plates, exit=exit_m)
            controls = NumericalControls(lmax=1, cutoff=4.2 * omega + 1.0)
            p = solve_stack(desc, omega, theta, 0.0, pol, controls=controls)
            layers = [OneDimLayer(e, float(d)) for e, d in zip(eps, ds)]
            R, T, A = solve_onedim(layers, omega, theta, pol, VACUUM, exit_m)
            assert p.R == pytest.approx(R, abs=1e-10)
            assert p.T == pytest.approx(T, abs=1e-10)
            assert p.A == pytest.approx(A, abs=1e-10)


class TestMieAgainstOracle:
    LMAX = 4

    def _triples(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            radius = float(rng.uniform(0.05, 0.45))
            omega = float(rng.uniform(0.5, 3.0))
            im = float(rng.uniform(0.0, 2.0)) * (rng.random() < 0.5)
            eps = complex(rng.uniform(1.2, 16.0), im)
            yield radius, eps, omega

    def test_t_matrix_and_cross_sections(self):
        for radius, eps, omega in self._triples():
            sph = SphereScatterer(radius, Material(eps), VACUUM)
            t_e, t_m = mie_t(sph, omega, self.LMAX)
            ref_e, ref_m = mie_oracle(radius, eps, 1.0, omega, self.LMAX)
            assert np.max(np.abs(t_e - ref_e)) < 1e-10 * np.max(np.abs(ref_e))
            assert np.max(np.abs(t_m - ref_m)) < 1e-10 * np.max(np.abs(ref_m))
            cs = mie_cross_sections(sph, omega)
            q_ext, q_sca = mie_efficiencies(radius, eps, 1.0, omega)
            assert cs.q_ext == pytest.approx(q_ext, rel=1e-10, abs=1e-14)
            assert cs.q_sca == pytest.approx(q_sca, rel=1e-10, abs=1e-14)

    def test_lossless_unitarity(self):
        for radius, eps, omega in self._triples():
            if eps.imag != 0.0:
                continue
            t_e, t_m = mie_t(SphereScatterer(radius, Material(eps), VACUUM), omega, self.LMAX)
            for t in (t_e, t_m):
                assert np.max(np.abs(np.abs(1.0 + 2.0 * t) - 1.0)) < 1e-10


class TestLatticeSumOracles:
    def test_ewald_vs_direct_lossy(self):
        k = 1.0 * np.sqrt(complex(12.0, 0.1))
        kpar = (0.3, 0.17)
        pmax = 6
        tab = lattice_sums_ewald(SQUARE, k, kpar, pmax)
        keys = [(p, s) for p in range(pmax + 1) for s in range(-p, p + 1) if (p + s) % 2 == 0]
        ref = direct_lattice_sums(k, kpar, keys, rmax=260.0)
        scale = max(abs(v) for v in ref.values())
        assert max(abs(tab[key] - ref[key]) for key in keys) < 1e-8 * scale

    def test_ewald_vs_lossless_extrapolation(self):
        # sub-diffraction: omega = 0.3 with |kpar| = 0.054 is far from any
        # Wood anomaly, so the Abel-limit oracle converges (slow: about 22 s on
        # a 2-core Intel Xeon VM)
        k0, kpar, pmax = 0.3, (0.05, 0.02), 4
        tab = lattice_sums_ewald(SQUARE, k0, kpar, pmax)
        keys = [(p, s) for p in range(pmax + 1) for s in range(-p, p + 1) if (p + s) % 2 == 0]
        ref = damped_extrapolated_sums(k0, kpar, keys)
        scale = max(abs(v) for v in ref.values())
        assert max(abs(tab[key] - ref[key]) for key in keys) < 1e-6 * scale

    def test_eta_independence(self):
        eta0 = math.sqrt(math.pi)  # default splitting parameter, unit-area cell
        a = lattice_sums_ewald(SQUARE, 1.5, (0.3, 0.1), 16, eta=eta0 / math.sqrt(2.0))
        b = lattice_sums_ewald(SQUARE, 1.5, (0.3, 0.1), 16, eta=eta0 * math.sqrt(2.0))
        scale = max(abs(v) for v in a.values())
        assert max(abs(a[key] - b[key]) for key in a) < 1e-8 * scale


def _per_theta_bands(om_disp, e):
    """Per-angle (lo, hi) of the longest E < 0.2 run, or None if any angle lacks one."""
    bands = []
    for j in range(e.shape[1]):
        run = longest_run(e[:, j] < 0.2)
        if run is None:
            return None
        bands.append((float(om_disp[run[0]]), float(om_disp[run[1]])))
    return bands


class TestOpalEmissivityMap:
    """paper-fig2: omnidirectional low-emissivity band with unit edge peaks."""

    def test_runtime_budget(self, fig2_map):
        _, _, _, elapsed = fig2_map
        assert elapsed < 600.0

    def test_omnidirectional_band(self, fig2_map):
        _, om_disp, m, _ = fig2_map
        pols = {"s": m.e_s, "p": m.e_p}
        passing = None
        for name, e in pols.items():
            bands = _per_theta_bands(om_disp, e)
            if bands is None:
                continue
            centers = np.array([0.5 * (lo + hi) for lo, hi in bands])
            drift = np.max(np.abs(centers - centers.mean())) / centers.mean()
            if drift < 0.03:
                passing = (name, bands, centers)
                break
        assert passing is not None, "no polarization shows an E < 0.2 band at every angle with < 3% center drift"
        name, bands, centers = passing

        # the band edges rise to (essentially) unit emissivity; the peak may
        # sit in either polarization, so search both within 0.35 c/a of the edges
        edge_max = 0.0
        for j, (lo, hi) in enumerate(bands):
            near = ((om_disp >= lo - 0.35) & (om_disp < lo)) | (
                (om_disp > hi) & (om_disp <= hi + 0.35)
            )
            for e in pols.values():
                if np.any(near):
                    edge_max = max(edge_max, float(e[near, j].max()))
        assert edge_max >= 0.98

        # displayed gap center close to the nominal 2.27 c/a
        assert abs(centers.mean() - GAP_CENTER_CA) / GAP_CENTER_CA < 0.10


class TestOnedimComparison:
    """paper-fig3: strong angular dependence, same normal-incidence center."""

    FIG3 = [OneDimLayer(2.6, 0.6), OneDimLayer(1.44, 0.81)] * 16
    SUBSTRATE = Material(12.0 + 7.0j)

    def _e_avg(self, om_disp, theta):
        out = np.zeros(om_disp.size)
        for i, od in enumerate(om_disp):
            om = float(od) / math.sqrt(2.0)
            tot = 0.0
            for pol in ("s", "p"):
                _, _, A = solve_onedim(self.FIG3, om, theta, pol, VACUUM, self.SUBSTRATE, True)
                tot += A
            out[i] = 0.5 * tot
        return out

    def test_center_shift_and_normal_incidence_match(self, fig2_map):
        om_disp = np.linspace(1.6, 3.0, 150)
        centers = {}
        for theta_deg in (0.0, 60.0):
            band = band_interval(om_disp, self._e_avg(om_disp, math.radians(theta_deg)))
            assert band is not None
            centers[theta_deg] = 0.5 * (band[0] + band[1])
        shift = abs(centers[60.0] - centers[0.0]) / centers[0.0]
        assert shift > 0.10  # the 1D film's stop band is highly angle dependent

        # at normal incidence the 1D and 3D films agree on the gap center
        _, om3, m, _ = fig2_map
        band3 = band_interval(om3, m.e_s[:, 0])
        assert band3 is not None
        center3 = 0.5 * (band3[0] + band3[1])
        assert abs(centers[0.0] - center3) / center3 < 0.10


class TestBandStructureVsTransmission:
    """paper-fig4: the complex-band gap is where the film stops transmitting."""

    def _setup(self):
        scene = sc.preset("paper-fig4")
        unit, amb, period = scene.unit_slice()
        controls = scene.controls()

        def bands_at(om):
            u = slice_smatrix(unit, amb, float(om), (0.0, 0.0), controls)
            return complex_bands(u, period, float(om), (0.0, 0.0))

        return scene, controls, period, bands_at

    def test_gap_interior_opacity_and_dip_edges(self):
        scene, controls, period, bands_at = self._setup()
        om_int = scene.omega_internal(np.linspace(1.2, 2.4, 40))
        scan = [bands_at(om) for om in om_int]
        gaps = gap_edges(scan, refine=bands_at, tol=1e-4)
        assert gaps, "no band gap found in the scan window"
        lo, hi = gaps[0]

        desc = scene.build_stack()  # 8 periods, free-standing
        width = hi - lo
        for frac in np.linspace(0.15, 0.85, 7):
            om = lo + float(frac) * width
            assert solve_stack(desc, om, 0.0, 0.0, "s", controls=controls).T < 1e-3

        # transmission-dip edges: T crosses 1e-2 within 2% of the band edges
        om_t = np.linspace(lo - 0.08, hi + 0.08, 120)
        logT = np.log(
            [solve_stack(desc, float(om), 0.0, 0.0, "s", controls=controls).T for om in om_t]
        )
        thr = math.log(1e-2)
        below = logT < thr
        crossings = []
        for i in np.nonzero(np.diff(below.astype(int)) != 0)[0]:
            f = (thr - logT[i]) / (logT[i + 1] - logT[i])
            crossings.append(float(om_t[i] + f * (om_t[i + 1] - om_t[i])))
        assert crossings
        assert abs(min(crossings) - lo) / lo < 0.02
        assert abs(max(crossings) - hi) / hi < 0.02


class TestTerminationDependence:
    """Removing absorption and the backplane removes the emissivity feature."""

    def test_lossless_unbacked_film_emits_nothing(self):
        scene = sc.preset("paper-fig2")
        materials = tuple(
            (name, complex(eps).real if name == "host" else eps) for name, eps in scene.materials
        )
        bare = dataclasses.replace(scene, materials=materials, exit="vacuum")
        desc = bare.build_stack()
        controls = bare.controls()
        om_int = bare.omega_internal(np.linspace(1.6, 3.0, 25))
        emax = 0.0
        for om in om_int:
            for theta_deg in (0.0, 30.0, 60.0):
                ps, pp = solve_stack_points(
                    desc, float(om), math.radians(theta_deg), 0.0, ("s", "p"), controls
                )
                emax = max(emax, ps.A, pp.A)
        # with A identically zero there is no low-E band bounded by unit peaks
        assert emax < 1e-6


class TestTruncationConvergence:
    """Stability of the paper-fig2 map under lmax and beam-cutoff increases."""

    def _emap(self, scene, controls, om_int, thetas):
        desc = scene.build_stack()
        out = np.zeros((om_int.size, len(thetas), 2))
        for i, om in enumerate(om_int):
            for j, th in enumerate(thetas):
                ps, pp = solve_stack_points(desc, float(om), th, 0.0, ("s", "p"), controls)
                out[i, j] = (ps.A, pp.A)
        return out

    def test_fig2_grid_stability(self):
        scene = sc.preset("paper-fig2")
        om_int = scene.omega_internal(np.linspace(1.8, 2.8, 12))
        thetas = [0.0, math.radians(30.0), math.radians(60.0)]
        cut0 = float(scene.cutoff)
        base = self._emap(scene, NumericalControls(lmax=7, cutoff=cut0), om_int, thetas)
        worst = 0.0
        for controls in (
            NumericalControls(lmax=8, cutoff=cut0),
            NumericalControls(lmax=7, cutoff=1.3 * cut0),
        ):
            worst = max(worst, float(np.max(np.abs(self._emap(scene, controls, om_int, thetas) - base))))
        assert worst < 1e-3, (
            f"emissivity moves by {worst:.2e} under truncation refinement: adjacent "
            "sphere planes touch in this geometry, so the interlayer plane-wave "
            "expansion is only conditionally convergent; raising lmax or stepping "
            "the beam cutoff across further reciprocal-lattice shells destabilizes "
            "it (median shift ~2-5e-2, isolated points losing positivity) instead "
            "of refining the answer; the presets therefore pin cutoff = 18 on the "
            "observed stable plateau (see scripts/convergence_study.py and README "
            "'Known limitations')"
        )


class TestDecayRateConsistency:
    """In-gap transmittance falls at the rate set by the least-damped Bloch mode."""

    def test_transmittance_slope_matches_bloch_decay(self):
        scene = sc.preset("paper-fig4")
        unit, amb, period = scene.unit_slice()
        controls = scene.controls()
        om_int = scene.omega_internal(np.linspace(1.2, 2.4, 40))
        scan = []
        def bands_at(om):
            u = slice_smatrix(unit, amb, float(om), (0.0, 0.0), controls)
            return complex_bands(u, period, float(om), (0.0, 0.0))
        gaps = gap_edges([bands_at(om) for om in om_int], refine=bands_at, tol=1e-4)
        assert gaps
        mid = 0.5 * (gaps[0][0] + gaps[0][1])
        bp = bands_at(mid)
        im_min = min(kz.imag for kz in bp.kz_list if kz.imag * period > 1e-6)

        counts = np.array([2, 4, 8, 16])
        log_t = []
        for n in counts:
            desc = dataclasses.replace(scene, periods=int(n)).build_stack()
            log_t.append(math.log(solve_stack(desc, mid, 0.0, 0.0, "s", controls=controls).T))
        slope = np.polyfit(counts, log_t, 1)[0]
        assert -slope == pytest.approx(2.0 * im_min * period, rel=0.05)


class TestPlanckWeighting:
    def test_peak_location(self):
        # independent bisection of the peak condition 3 (1 - e^-x) = x
        lo, hi = 2.0, 3.5
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if 3.0 * (1.0 - math.exp(-mid)) - mid > 0:
                lo = mid
            else:
                hi = mid
        assert PLANCK_PEAK_X == pytest.approx(0.5 * (lo + hi), abs=1e-3)
        x = np.linspace(2.6, 3.0, 4001)
        assert x[np.argmax(planck_b(x))] == pytest.approx(2.8214, abs=1e-3)

    def test_unit_emissivity_normalization(self):
        om = np.linspace(0.01, 25.0, 4000)
        out = planck_weight(om, np.ones_like(om), x0=1.0)
        assert np.trapezoid(out.weighted, om) == pytest.approx(1.0, abs=1e-6)

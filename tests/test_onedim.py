"""1D transfer-matrix reference engine."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from conftest import band_interval
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bragg_mirror_reflectance, fresnel_power_reflectance
from pcfilm.errors import InvalidArgumentError, SingularSolveError
from pcfilm.mie import Material, VACUUM
from pcfilm.onedim import (
    OneDimLayer,
    OneDimMatrix,
    layer_matrix,
    rt_from_matrix,
    solve_onedim,
    stack_matrix,
)

FIG3 = [OneDimLayer(2.6, 0.6), OneDimLayer(1.44, 0.81)] * 16


class TestLayerMatrix:
    def test_vacuum_layer_pure_propagation(self):
        om, d, th = 0.9, 0.7, 0.3
        m = layer_matrix(OneDimLayer(1.0, d), om, th, "s")
        ph = cmath.exp(-1j * om * d * math.cos(th))
        assert m.m11 == pytest.approx(ph, abs=1e-13)
        assert m.m22 == pytest.approx(1.0 / ph, abs=1e-13)
        assert abs(m.m12) < 1e-14
        assert abs(m.m21) < 1e-14

    def test_normal_incidence_polarization_degeneracy(self):
        m_s = layer_matrix(OneDimLayer(3.5 + 0.2j, 0.4), 1.1, 0.0, "s")
        m_p = layer_matrix(OneDimLayer(3.5 + 0.2j, 0.4), 1.1, 0.0, "p")
        for a, b in ((m_s.m11, m_p.m11), (m_s.m12, m_p.m12), (m_s.m21, m_p.m21), (m_s.m22, m_p.m22)):
            assert a == pytest.approx(b, abs=1e-14)

    def test_quarter_wave_slab_vs_fabry_perot(self):
        eps, om = 4.0, 1.3
        n = math.sqrt(eps)
        d = math.pi / (2.0 * om * n)  # quarter-wave
        M = stack_matrix([OneDimLayer(eps, d)], om, 0.0, "s")
        _, t, R, T, _ = rt_from_matrix(M)
        r01 = (1.0 - n) / (1.0 + n)
        ph = cmath.exp(2j * n * om * d)
        t_ref = (1.0 - r01**2) * cmath.exp(1j * n * om * d) / (1.0 - r01**2 * ph)
        assert abs(t) == pytest.approx(abs(t_ref), abs=1e-12)
        assert R + T == pytest.approx(1.0, abs=1e-12)


class TestStackMatrix:
    def test_det_matched_media(self):
        M = stack_matrix([OneDimLayer(2.6, 0.5), OneDimLayer(1.44, 0.8)], 0.9, 0.3, "p")
        assert M.det == pytest.approx(1.0, abs=1e-12)

    def test_fig3_no_overflow(self):
        for om in np.linspace(0.5, 4.0, 15):
            M = stack_matrix(FIG3, float(om), 0.0, "s")
            assert all(
                np.isfinite([M.m11.real, M.m11.imag, M.m21.real, M.m21.imag])
            )

    def test_split_product_associativity(self):
        om, th = 1.1, 0.4
        layers = [OneDimLayer(2.6, 0.6), OneDimLayer(1.44, 0.81), OneDimLayer(4.0, 0.3)]
        whole = stack_matrix(layers, om, th, "s")
        # left part ends in vacuum ambient; compose partial transfer matrices
        left = stack_matrix(layers[:1], om, th, "s")
        right = stack_matrix(layers[1:], om, th, "s")
        a = np.array([[left.m11, left.m12], [left.m21, left.m22]])
        b = np.array([[right.m11, right.m12], [right.m21, right.m22]])
        prod = a @ b
        assert prod[0, 0] == pytest.approx(whole.m11, abs=1e-12)
        assert prod[1, 0] == pytest.approx(whole.m21, abs=1e-12)


class TestRtFromMatrix:
    def test_identity(self):
        r, t, R, T, A = rt_from_matrix(OneDimMatrix(1.0, 0.0, 0.0, 1.0, 1.0))
        assert r == 0.0
        assert t == 1.0
        assert A == pytest.approx(0.0, abs=1e-14)

    def test_singular_m11_rejected(self):
        with pytest.raises(SingularSolveError):
            rt_from_matrix(OneDimMatrix(0.0, 0.0, 1.0, 1.0, 1.0))

    def test_bragg_mirror_closed_form(self):
        n1, n2, periods = 1.5, 2.5, 8
        om = 1.0
        layers = [OneDimLayer(n1**2, math.pi / (2 * om * n1)), OneDimLayer(n2**2, math.pi / (2 * om * n2))] * periods
        # matched outer media: embed in the first-layer material
        amb = Material(n1**2)
        R, T, A = solve_onedim(layers, om, 0.0, "s", amb, amb)
        # closed form for N full periods embedded in n1
        rho = (n2 / n1) ** (2 * periods)
        assert R == pytest.approx(((rho - 1) / (rho + 1)) ** 2, abs=1e-10)
        assert bragg_mirror_reflectance(n1, n2, periods) == pytest.approx(R, abs=1e-10)


class TestSolveOnedim:
    def test_bare_interface_fresnel(self):
        # a zero-thickness vacuum layer leaves only the exit interface
        R, T, A = solve_onedim([OneDimLayer(1.0, 0.0)], 0.9, 0.0, "s", VACUUM, Material(12.0 + 7.0j))
        assert R == pytest.approx(fresnel_power_reflectance(12.0 + 7.0j), abs=1e-12)
        assert T == 0.0
        assert A == pytest.approx(1.0 - R, abs=1e-12)

    def test_empty_stack_is_the_bare_interface(self):
        # no layer at all: the ambient-to-exit interface, the identity product
        R, T, A = solve_onedim([], 1.0, 0.0, "s", VACUUM, Material(2.25))
        assert R == pytest.approx(fresnel_power_reflectance(2.25), abs=1e-15)
        assert T == pytest.approx(1.0 - R, abs=1e-15)

    # an empty stack reaches no layer_matrix, so stack_matrix checks the point itself
    @pytest.mark.parametrize(
        "omega, theta0, pol, match",
        [
            (1.0, 0.3, "x", "pol must be 's' or 'p', got 'x'"),
            (1.0, 2.0, "s", r"theta0 must be in \[0, pi/2\), got 2.0"),
            (-1.0, 0.3, "p", "omega must be > 0, got -1.0"),
        ],
    )
    def test_empty_stack_checks_the_point(self, omega, theta0, pol, match):
        with pytest.raises(InvalidArgumentError, match=match):
            solve_onedim([], omega, theta0, pol, VACUUM, Material(2.25))

    @pytest.mark.parametrize(
        "eps, thickness, match",
        [
            (2.0, math.nan, "thickness must be finite"),
            (math.nan, 0.5, "eps must be finite"),
            (2.0, math.inf, "thickness must be finite"),
        ],
    )
    def test_non_finite_layer_rejected(self, eps, thickness, match):
        with pytest.raises(InvalidArgumentError, match=match):
            OneDimLayer(eps, thickness)

    @given(
        eps=st.lists(st.floats(1.0, 16.0), min_size=1, max_size=5),
        ds=st.lists(st.floats(0.05, 1.5), min_size=5, max_size=5),
        theta_deg=st.floats(0.0, 85.0),
        pol=st.sampled_from(["s", "p"]),
        omega=st.floats(0.3, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_lossless_energy_conservation(self, eps, ds, theta_deg, pol, omega):
        layers = [OneDimLayer(e, d) for e, d in zip(eps, ds)]
        R, T, A = solve_onedim(layers, omega, math.radians(theta_deg), pol)
        assert R + T == pytest.approx(1.0, abs=1e-10)
        assert abs(A) < 1e-10

    def test_fig3_stop_band_and_edge_peaks(self):
        substrate = Material(12.0 + 7.0j)
        om_disp = np.linspace(1.6, 3.0, 120)
        e_avg = np.zeros(om_disp.size)
        for i, od in enumerate(om_disp):
            om = float(od) / math.sqrt(2.0)
            tot = 0.0
            for pol in ("s", "p"):
                R, T, A = solve_onedim(FIG3, om, 0.0, pol, VACUUM, substrate, True)
                tot += A
            e_avg[i] = 0.5 * tot
        band = band_interval(om_disp, e_avg)
        assert band is not None
        lo, hi = band
        assert hi - lo > 0.2  # a real stop band, not a grid blip
        near = ((om_disp >= lo - 0.35) & (om_disp < lo)) | ((om_disp > hi) & (om_disp <= hi + 0.35))
        assert e_avg[near].max() >= 0.9

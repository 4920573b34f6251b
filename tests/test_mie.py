"""Single-sphere Mie channels and cross sections against an independent oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mie_efficiencies, mie_oracle
from pcfilm.errors import InvalidArgumentError
from pcfilm.mie import (
    NOT_APPLICABLE,
    Material,
    SphereScatterer,
    branch_sqrt,
    branch_sqrt_array,
    mie_cross_sections,
    mie_t,
)


class TestBranchSqrt:
    def test_positive_real(self):
        assert branch_sqrt(4.0) == pytest.approx(2.0)

    def test_negative_real_maps_up(self):
        assert branch_sqrt(-4.0) == pytest.approx(2.0j)

    @given(
        re=st.floats(-10.0, 10.0),
        im=st.floats(0.0, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_branch_rule(self, re, im):
        w = complex(re, im)
        r = branch_sqrt(w)
        assert r * r == pytest.approx(w, abs=1e-12 * max(1.0, abs(w)))
        assert r.imag >= -1e-15
        if r.imag == 0.0:
            assert r.real >= 0.0

    @given(
        re=st.floats(-10.0, 10.0) | st.sampled_from([-4.0, -0.0, 0.0, 2.25]),
        im=st.sampled_from([0.0, -0.0]) | st.floats(0.0, 10.0) | st.floats(-10.0, 0.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_array_matches_scalar_bit_for_bit(self, re, im):
        # negative reals and Im = +-0.0 included; signed zeros must agree too
        w = complex(re, im)
        a = complex(branch_sqrt_array(np.array([w]))[0])
        r = branch_sqrt(w)
        assert (a.real, a.imag) == (r.real, r.imag)
        assert math.copysign(1.0, a.real) == math.copysign(1.0, r.real)
        assert math.copysign(1.0, a.imag) == math.copysign(1.0, r.imag)


class TestMaterial:
    def test_gain_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Material(12.0 - 0.1j)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, complex(2.0, math.inf)])
    def test_non_finite_rejected(self, eps):
        with pytest.raises(InvalidArgumentError, match="eps must be finite"):
            Material(eps)

    def test_lossless_flag(self):
        assert Material(12.0).lossless
        assert not Material(12.0 + 0.1j).lossless


class TestMieT:
    def test_index_matched_sphere_scatters_nothing(self):
        sph = SphereScatterer(0.3, Material(5.0 + 0.2j), Material(5.0 + 0.2j))
        t_e, t_m = mie_t(sph, 1.3, 5)
        assert np.max(np.abs(t_e)) == 0.0
        assert np.max(np.abs(t_m)) == 0.0

    def test_paper_sphere_unitarity(self):
        sph = SphereScatterer(0.30618621, Material(1.0), Material(12.0))
        t_e, t_m = mie_t(sph, 2.27, 7)
        for t in (t_e, t_m):
            assert np.max(np.abs(np.abs(1.0 + 2.0 * t) - 1.0)) < 1e-10

    def test_rayleigh_limit(self):
        eps_in, eps_host = 2.5, 1.0
        radius = 0.01
        omega = 1e-2 / (radius * math.sqrt(eps_host))
        x = omega * radius * math.sqrt(eps_host)
        t_e, _ = mie_t(SphereScatterer(radius, Material(eps_in), Material(eps_host)), omega, 2)
        ref = (2j / 3.0) * x**3 * (eps_in - eps_host) / (eps_in + 2.0 * eps_host)
        assert abs(t_e[0] - ref) < 0.01 * abs(ref)

    def test_cached_read_only(self):
        # every angle of a sweep asks again at the same omega
        sph = SphereScatterer(0.30618621, Material(1.0), Material(12.0 + 0.1j))
        first = mie_t(sph, 2.0, 6)
        again = mie_t(SphereScatterer(0.30618621, Material(1.0), Material(12.0 + 0.1j)), 2.0, 6)
        assert all(a is b for a, b in zip(first, again))
        for t in first:
            with pytest.raises(ValueError, match="read-only"):
                t[0] = 0.0

    def test_nonpositive_omega_rejected(self):
        sph = SphereScatterer(0.3, Material(2.0), Material(1.0))
        with pytest.raises(InvalidArgumentError):
            mie_t(sph, 0.0, 4)

    def test_nan_omega_rejected(self):
        sph = SphereScatterer(0.3, Material(2.0), Material(1.0))
        with pytest.raises(InvalidArgumentError, match="omega must be > 0, got nan"):
            mie_t(sph, math.nan, 4)
        with pytest.raises(InvalidArgumentError, match="omega must be > 0, got nan"):
            mie_cross_sections(sph, math.nan)

    def test_vs_oracle_lossy_host(self):
        sph = SphereScatterer(0.30618621, Material(1.0), Material(12.0 + 0.1j))
        t_e, t_m = mie_t(sph, 2.0, 6)
        ref_e, ref_m = mie_oracle(0.30618621, 1.0, 12.0 + 0.1j, 2.0, 6)
        assert np.max(np.abs(t_e - ref_e)) < 1e-10 * np.max(np.abs(ref_e))
        assert np.max(np.abs(t_m - ref_m)) < 1e-10 * np.max(np.abs(ref_m))

    def test_truncation_decay(self):
        sph = SphereScatterer(0.4, Material(9.0), Material(1.0))
        omega = 3.0
        t_e, t_m = mie_t(sph, omega, 14)
        l_safe = int(omega * 0.4 * 1.0 + 4)
        mags = np.abs(t_e) + np.abs(t_m)
        for l in range(l_safe, 13):
            assert mags[l + 1] < mags[l]

    def test_continuity_in_omega(self):
        sph = SphereScatterer(0.30618621, Material(1.0), Material(12.0))
        prev = None
        for omega in np.arange(2.0, 2.05, 1e-3):
            t_e, t_m = mie_t(sph, float(omega), 5)
            cur = np.concatenate([t_e, t_m])
            if prev is not None:
                denom = np.maximum(np.abs(prev), 1e-6)
                assert np.max(np.abs(cur - prev) / denom) < 0.10
            prev = cur

    @given(
        radius=st.floats(0.05, 0.5),
        eps=st.floats(1.5, 16.0),
        omega=st.floats(0.3, 4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_lossless_unitarity_property(self, radius, eps, omega):
        t_e, t_m = mie_t(SphereScatterer(radius, Material(eps), Material(1.0)), omega, 6)
        for t in (t_e, t_m):
            assert np.max(np.abs(np.abs(1.0 + 2.0 * t) - 1.0)) < 1e-10

    @given(
        radius=st.floats(0.05, 0.5),
        eps_im=st.floats(0.01, 2.0),
        omega=st.floats(0.3, 4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_lossy_subunitarity_property(self, radius, eps_im, omega):
        sph = SphereScatterer(radius, Material(complex(3.0, eps_im)), Material(1.0))
        t_e, t_m = mie_t(sph, omega, 6)
        for t in (t_e, t_m):
            assert np.max(np.abs(1.0 + 2.0 * t)) < 1.0 + 1e-10


class TestCrossSections:
    def test_index_matched(self):
        cs = mie_cross_sections(SphereScatterer(0.3, Material(4.0), Material(4.0)), 1.0)
        assert cs.applicable
        assert cs.q_ext == pytest.approx(0.0, abs=1e-14)
        assert cs.q_sca == pytest.approx(0.0, abs=1e-14)
        assert cs.q_abs == pytest.approx(0.0, abs=1e-14)

    def test_lossless_no_absorption(self):
        cs = mie_cross_sections(SphereScatterer(0.3, Material(12.0), Material(1.0)), 2.0)
        assert abs(cs.q_abs) < 1e-12
        assert cs.q_ext == pytest.approx(cs.q_sca + cs.q_abs, rel=1e-10)

    def test_lossy_host_not_applicable(self):
        cs = mie_cross_sections(SphereScatterer(0.3, Material(1.0), Material(12.0 + 0.1j)), 2.0)
        assert not cs.applicable
        assert cs is NOT_APPLICABLE

    def test_lossy_sphere_vs_oracle(self):
        cs = mie_cross_sections(SphereScatterer(0.3, Material(4.0 + 0.5j), Material(1.0)), 2.0)
        q_ext, q_sca = mie_efficiencies(0.3, 4.0 + 0.5j, 1.0, 2.0)
        assert cs.q_ext == pytest.approx(q_ext, rel=1e-10)
        assert cs.q_sca == pytest.approx(q_sca, rel=1e-10)
        assert cs.q_abs == pytest.approx(q_ext - q_sca, rel=1e-9)

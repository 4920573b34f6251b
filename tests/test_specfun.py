"""Special functions: radial functions, Legendre/harmonics, coupling coefficients."""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assoc_legendre,
    clebsch_gordan,
    gaunt_exact,
    gaunt_quadrature,
    mp_sph_h1,
    mp_sph_jn,
    mp_sph_yn,
    sph_neumann,
)
from pcfilm.errors import InvalidArgumentError, SingularArgumentError
from pcfilm.specfun import LMAX_CAP, sph_bessel, sph_hankel1, zl_derivative
from pcfilm.vswf import _coupling, _scalar_contraction, lm_index, n_scalar, sidx, ylm_flat


class TestSphBessel:
    def test_j0_closed_form(self):
        j = sph_bessel(0, 1.0)
        assert j[0] == pytest.approx(math.sin(1.0), abs=1e-12)

    def test_small_argument_j1(self):
        j = sph_bessel(1, 1e-4)
        assert j[1] == pytest.approx(1e-4 / 3.0, rel=1e-6)

    def test_complex_argument_vs_oracle(self):
        z = 2.0 + 0.5j
        j = sph_bessel(5, z)
        for l in range(6):
            ref = mp_sph_jn(l, z)
            assert abs(j[l] - ref) <= 1e-12 * abs(ref)

    def test_zero_argument_analytic(self):
        j = sph_bessel(3, 0.0)
        assert j[0] == 1.0
        assert np.all(j[1:] == 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sph_bessel(2, complex("nan"))

    @given(
        r=st.floats(1e-3, 50.0),
        phase=st.floats(0.0, 2.0 * math.pi),
        lmax=st.integers(0, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_recurrence_residual(self, r, phase, lmax):
        z = r * cmath.exp(1j * phase)
        j = sph_bessel(lmax + 1, z)
        scale = max(np.max(np.abs(j)), 1.0)
        for l in range(1, lmax + 1):
            res = j[l - 1] + j[l + 1] - (2 * l + 1) / z * j[l]
            assert abs(res) < 1e-12 * scale


class TestOracleNegativeRealAxis:
    """The mpmath oracles keep the sign of j_l and y_l at Re z < 0, Im z = 0."""

    @pytest.mark.parametrize("z", [-1.0, -2.5])
    def test_closed_forms(self, z):
        assert mp_sph_jn(0, z) == pytest.approx(math.sin(z) / z, abs=1e-15)
        assert mp_sph_yn(0, z) == pytest.approx(-math.cos(z) / z, abs=1e-15)

    @pytest.mark.parametrize("z", [-1.0, -2.5])
    @pytest.mark.parametrize("l", range(4))
    def test_vs_scipy(self, z, l):
        jn, yn = scipy.special.spherical_jn(l, z), scipy.special.spherical_yn(l, z)
        assert mp_sph_jn(l, z) == pytest.approx(jn, rel=1e-14, abs=1e-15)
        assert mp_sph_yn(l, z) == pytest.approx(yn, rel=1e-14, abs=1e-15)
        assert mp_sph_h1(l, z) == pytest.approx(jn + 1j * yn, rel=1e-14, abs=1e-15)


class TestSphHankel:
    def test_h0_closed_form(self):
        h = sph_hankel1(0, 1.0)
        assert h[0] == pytest.approx(math.sin(1.0) - 1j * math.cos(1.0), abs=1e-13)

    def test_h1_closed_form(self):
        # h1_1(z) = -e^{iz} (z + i) / z^2
        z = 1.0
        h = sph_hankel1(1, z)
        ref = -cmath.exp(1j * z) * (z + 1j) / z**2
        assert h[1] == pytest.approx(ref, abs=1e-12)
        assert h[1].imag == pytest.approx(-1.381773, abs=1e-6)

    def test_zero_argument_raises(self):
        with pytest.raises(SingularArgumentError):
            sph_hankel1(2, 0.0)

    def test_complex_argument_vs_oracle(self):
        z = 0.5 + 2.0j
        h = sph_hankel1(6, z)
        for l in range(7):
            ref = mp_sph_h1(l, z)
            assert abs(h[l] - ref) <= 1e-12 * abs(ref)

    def test_lower_half_plane_high_order_vs_oracle(self):
        # no passive medium reaches Im z < 0; this pins the public function,
        # where an upward recurrence from h_0, h_1 loses digits with l
        z = 0.41 - 8.57j
        h = sph_hankel1(12, z)
        for l in range(13):
            ref = mp_sph_h1(l, z)
            assert abs(h[l] - ref) <= 1e-12 * abs(ref)

    @given(
        r=st.floats(1e-3, 50.0),
        phase=st.floats(0.0, 2.0 * math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_wronskian(self, r, phase):
        z = r * cmath.exp(1j * phase)
        lmax = 4
        j = sph_bessel(lmax, z)
        y = sph_neumann(lmax, z)
        jp = zl_derivative(j, z)
        yp = zl_derivative(y, z)
        for l in range(lmax + 1):
            w = j[l] * yp[l] - jp[l] * y[l]
            # relative to the cancellation scale (j, y grow like e^{|Im z|})
            scale = max(abs(1.0 / z**2), abs(j[l] * yp[l]) + abs(jp[l] * y[l]))
            assert abs(w - 1.0 / z**2) <= 1e-10 * scale

    def test_wronskian_spec_point(self):
        z = 0.5 + 2.0j
        j = sph_bessel(3, z)
        y = sph_neumann(3, z)
        jp = zl_derivative(j, z)
        yp = zl_derivative(y, z)
        for l in range(4):
            w = j[l] * yp[l] - jp[l] * y[l]
            assert abs(w - 1.0 / z**2) <= 1e-10 * abs(1.0 / z**2)


class TestAssocLegendre:
    def test_p10(self):
        p = assoc_legendre(1, 0.3)
        assert p[1, 0] == pytest.approx(0.3, abs=1e-14)

    def test_pole_degeneracy(self):
        p = assoc_legendre(2, 1.0)
        for l in range(3):
            for m in range(1, l + 1):
                assert p[l, m] == 0.0

    def test_vs_polynomial_oracle(self):
        # explicit expansion oracle (generalized binomials), no recurrences
        from math import comb, factorial

        from scipy.special import binom

        def plm(l, m, x):
            total = 0.0
            for k in range(m, l + 1):
                total += (
                    factorial(k)
                    / factorial(k - m)
                    * x ** (k - m)
                    * comb(l, k)
                    * binom((l + k - 1) / 2.0, l)
                )
            return (-1) ** m * 2**l * (1 - x * x) ** (m / 2) * total

        x = -0.7
        p = assoc_legendre(6, x)
        for l in range(7):
            for m in range(l + 1):
                ref = plm(l, m, x)
                assert abs(p[l, m] - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            assoc_legendre(2, 1.5)

    @given(x=st.floats(-1.0, 1.0), lmax=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_l_recurrence(self, x, lmax):
        p = assoc_legendre(lmax, x)
        scale = max(np.max(np.abs(p)), 1.0)
        for l in range(1, lmax):
            for m in range(l):
                res = (l + 1 - m) * p[l + 1, m] - (2 * l + 1) * x * p[l, m] + (l + m) * p[l - 1, m]
                assert abs(res) < 1e-12 * scale


class TestYlmTable:
    def test_closed_forms_complex_angle(self):
        ct = 1.3 + 0.2j  # evanescent direction: |cos| > 1, st from the decaying branch
        st = cmath.sqrt(1 - ct * ct)
        phi = 0.7
        tab = ylm_flat(2, ct, st, phi)
        assert tab[sidx(1, 0)] == pytest.approx(math.sqrt(3 / (4 * math.pi)) * ct, rel=1e-14)
        assert tab[sidx(1, 1)] == pytest.approx(
            -math.sqrt(3 / (8 * math.pi)) * st * cmath.exp(1j * phi), rel=1e-14
        )
        assert tab[sidx(1, -1)] == pytest.approx(
            math.sqrt(3 / (8 * math.pi)) * st * cmath.exp(-1j * phi), rel=1e-14
        )
        assert tab[sidx(2, 0)] == pytest.approx(
            math.sqrt(5 / (16 * math.pi)) * (3 * ct * ct - 1), rel=1e-14
        )

    def test_batched_equals_loop_reference(self):
        rng = np.random.default_rng(7)
        ct = rng.normal(size=(3, 5)) + 0.4j * rng.normal(size=(3, 5))
        st = np.sqrt(1 - ct * ct)
        phi = rng.uniform(-math.pi, math.pi, size=5)
        tab = ylm_flat(6, ct, st, phi)
        assert tab.shape == (3, 5, 49)
        lms = [(l, m) for l in range(7) for m in range(-l, l + 1)]
        assert [sidx(l, m) for l, m in lms] == list(range(49))
        for i in range(3):
            for j in range(5):
                one = _ylm_loop(6, ct[i, j], st[i, j], phi[j])
                want = np.array([one[l, 6 + m] for l, m in lms])
                assert np.max(np.abs(tab[i, j] - want)) <= 1e-14 * np.max(np.abs(one))


def _ylm_loop(lmax, ct, st, phi):
    """Y_lm for one direction as a table [l, m + lmax], one (l, m) at a time (reference)."""
    p = np.zeros((lmax + 1, lmax + 1), dtype=complex)
    p[0, 0] = math.sqrt(1.0 / (4.0 * math.pi))
    for m in range(1, lmax + 1):
        p[m, m] = -math.sqrt((2 * m + 1) / (2.0 * m)) * st * p[m - 1, m - 1]
    for m in range(lmax):
        p[m + 1, m] = math.sqrt(2 * m + 3) * ct * p[m, m]
    for m in range(lmax + 1):
        for l in range(m + 2, lmax + 1):
            a = math.sqrt((4 * l * l - 1) / (l * l - m * m))
            b = math.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
            p[l, m] = a * (ct * p[l - 1, m] - b * p[l - 2, m])
    out = np.zeros((lmax + 1, 2 * lmax + 1), dtype=complex)
    for m in range(lmax + 1):
        eimp = np.exp(1j * m * phi)
        for l in range(m, lmax + 1):
            out[l, m + lmax] = p[l, m] * eimp
            if m > 0:
                out[l, -m + lmax] = (-1) ** m * p[l, m] / eimp
    return out


@lru_cache(maxsize=None)
def _recipe(lam_max):
    """{(lam, nu, p, lam', nu'): coef} of the in-plane lattice-sum recipe."""
    keys, flat, coefs, key = _scalar_contraction(lam_max)
    ns = n_scalar(lam_max)
    lm = [(lam, nu) for lam in range(lam_max + 1) for nu in range(-lam, lam + 1)]
    return {
        lm[f // ns] + (keys[k][0],) + lm[f % ns]: c for f, c, k in zip(flat.tolist(), coefs, key)
    }


def _gaunt_from_coef(coef, lam, p, lamp):
    """G from the recipe coefficient 4 pi i^(lam+p-lam') (-1)^p G."""
    return coef / (4.0 * math.pi * (1j) ** (lam + p - lamp) * (-1) ** p)


def _exact_recipe(lam_max):
    """The recipe's terms from exact Gaunt integrals: every term the selection
    rules allow (p + sigma even for in-plane sums) whose value is nonzero."""
    out = {}
    for lam in range(lam_max + 1):
        for nu in range(-lam, lam + 1):
            for lamp in range(lam_max + 1):
                for nup in range(-lamp, lamp + 1):
                    for p in range(abs(lam - lamp), lam + lamp + 1, 2):
                        sigma = nup - nu
                        if abs(sigma) > p or (p + sigma) % 2:
                            continue
                        g = gaunt_exact(lam, nu, p, sigma, lamp, nup)
                        if g != 0.0:
                            coef = 4.0 * math.pi * (1j) ** (lam + p - lamp) * (-1) ** p * g
                            out[lam, nu, p, lamp, nup] = coef
    return out


class TestGaunt:
    """The Gaunt recipe of the lattice sums (vswf._scalar_contraction), by quadrature."""

    def test_y00_normalization(self):
        # G(00; 00; 00) = 1 / sqrt(4 pi)
        coef = _recipe(1)[0, 0, 0, 0, 0]
        assert coef == pytest.approx(math.sqrt(4.0 * math.pi), abs=1e-14)

    def test_m_selection_rule(self):
        # every term adds S_{p, nu' - nu} at (lam, nu), (lam', nu')
        keys, flat, _, key = _scalar_contraction(6)
        ns = n_scalar(6)
        nu = np.array([n for lam in range(7) for n in range(-lam, lam + 1)])
        sigma = np.array([k[1] for k in keys])[key]
        assert np.array_equal(sigma, nu[flat % ns] - nu[flat // ns])

    def test_vs_quadrature_oracle(self):
        coef = _recipe(3)[2, 1, 1, 3, 2]
        ref = gaunt_quadrature(2, 1, 1, 1, 3, 2)
        assert _gaunt_from_coef(coef, 2, 1, 3) == pytest.approx(ref, abs=1e-12)

    @given(
        l1=st.integers(0, 4),
        l2=st.integers(0, 4),
        l3=st.integers(0, 6),
        m1=st.integers(-4, 4),
        m2=st.integers(-4, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_exchange_symmetry_and_quadrature(self, l1, l2, l3, m1, m2):
        # the lam and p slots exchange when both lattice sums are in-plane
        if abs(m1) > l1 or abs(m2) > l2 or abs(m1 + m2) > l3 or (l1 + m1) % 2 or (l2 + m2) % 2:
            return
        m3 = m1 + m2
        ref = gaunt_quadrature(l1, m1, l2, m2, l3, m3)
        a = _recipe(6).get((l1, m1, l2, l3, m3))
        b = _recipe(6).get((l2, m2, l1, l3, m3))
        if abs(ref) < 1e-12:
            assert a is None and b is None
            return
        assert _gaunt_from_coef(a, l1, l2, l3) == pytest.approx(ref, abs=1e-12)
        assert _gaunt_from_coef(b, l2, l1, l3) == pytest.approx(ref, abs=1e-12)

    def test_selection_rule_violations_exact_zero(self):
        terms = _recipe(6)
        assert all(abs(lam - lamp) <= p <= lam + lamp for lam, _, p, lamp, _ in terms)
        assert all((lam + p + lamp) % 2 == 0 for lam, _, p, lamp, _ in terms)
        # triangle and parity violations
        assert (0, 0, 2, 0, 0) not in terms
        assert (1, 0, 1, 1, 0) not in terms

    @pytest.mark.parametrize("lam_max", range(1, 10))
    def test_terms_match_exact_recipe(self, lam_max):
        got, want = _recipe(lam_max), _exact_recipe(lam_max)
        # the same terms, accidental zeros of the 3j symbols left out too
        assert got.keys() == want.keys()
        assert max(abs(got[t] - want[t]) for t in want) <= 1e-12

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_sampled_terms_vs_exact_past_cap(self, data):
        lam_max = LMAX_CAP + 1
        lam = data.draw(st.integers(0, lam_max))
        lamp = data.draw(st.integers(0, lam_max))
        nu = data.draw(st.integers(-lam, lam))
        nup = data.draw(st.integers(-lamp, lamp))
        sigma = nup - nu
        p = data.draw(st.integers(max(abs(lam - lamp), abs(sigma)), lam + lamp))
        g = gaunt_exact(lam, nu, p, sigma, lamp, nup)
        coef = _recipe(lam_max).get((lam, nu, p, lamp, nup))
        if g == 0.0 or (p + sigma) % 2:
            assert coef is None
        else:
            want = 4.0 * math.pi * (1j) ** (lam + p - lamp) * (-1) ** p * g
            assert abs(coef - want) <= 1e-12


class TestClebschGordan:
    def test_closed_forms_vs_oracle(self):
        u = _coupling(LMAX_CAP)[0]
        want = np.zeros_like(u)
        nv = u.shape[1] // 2
        for l in range(1, LMAX_CAP + 1):
            for m in range(-l, l + 1):
                for q in (-1, 0, 1):
                    for j in (l - 1, l, l + 1):
                        if abs(m - q) <= j:
                            cg = clebsch_gordan(j, m - q, 1, q, l, m)
                            # the magnetic and the electric row of (l, m)
                            want[q + 1, [lm_index(l, m), nv + lm_index(l, m)], sidx(j, m - q)] = cg
        assert np.max(np.abs(u - want)) <= 1e-15

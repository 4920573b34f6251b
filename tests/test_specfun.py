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
    exact_cg_table,
    exact_translation_matrix,
    exact_translation_recipe,
    exact_translation_term,
    lattice_sum_keys,
    mp_sph_h1,
    mp_sph_jn,
    mp_sph_yn,
    sph_neumann,
)
from pcfilm.errors import InvalidArgumentError, SingularArgumentError
from pcfilm.specfun import LMAX_CAP, sph_bessel, sph_hankel1, zl_derivative
from pcfilm.vswf import (
    _coupling,
    _translation_recipe,
    lm_list,
    nlm,
    sidx,
    translation_matrix,
    ylm_flat,
)


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
def _terms(lmax):
    """{(a, b, p): coefficient} of vswf._translation_recipe."""
    keys, flat, coefs, key = _translation_recipe(lmax)
    nv2 = 2 * nlm(lmax)
    p = np.array([k[0] for k in keys])[key]
    return {(f // nv2, f % nv2, q): c for f, q, c in zip(flat.tolist(), p.tolist(), coefs)}


def _random_sums(lmax, mirror, seed):
    """Random complex S_{p,sigma} for p + sigma even.

    On the mirror S_{p,-sigma} = (-1)^sigma S_{p,sigma}, as for kpar on the x axis.
    """
    rng = np.random.default_rng(seed)
    keys = lattice_sum_keys(2 * lmax + 2)
    sums = dict(zip(keys, rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))))
    if mirror:
        sums.update({(p, -s): (-1) ** s * sums[p, s] for p, s in keys if s > 0})
    return sums


class TestGaunt:
    """The Gaunt recipe of the structure constants (vswf._translation_recipe), by quadrature."""

    def test_y00_normalization(self):
        # S_00 enters as 4 pi G(lam nu; 00; lam nu) = sqrt(4 pi) on the scalar
        # diagonal, which the unitary lift keeps: sqrt(4 pi) times the identity
        nv2 = 2 * nlm(3)
        s00 = {(a, b): c for (a, b, p), c in _terms(3).items() if p == 0}
        assert sorted(s00) == [(a, a) for a in range(nv2)]
        assert max(abs(c - math.sqrt(4.0 * math.pi)) for c in s00.values()) <= 1e-14

    def test_m_selection_rule(self):
        # every term adds S_{p, m_b - m_a} at (a, b), and only with p + sigma even
        keys, flat, _, key = _translation_recipe(6)
        m = np.array([mm for _, mm in lm_list(6)] * 2)
        p, sigma = np.array(keys).T[:, key]
        assert np.array_equal(sigma, m[flat % m.size] - m[flat // m.size])
        assert np.all((p + sigma) % 2 == 0) and np.all(np.abs(sigma) <= p)

    def test_selection_rule_violations_exact_zero(self):
        # vector channels couple through |l_a - l_b| <= p <= l_a + l_b, with
        # l_a + l_b + p even within the magnetic and electric blocks and odd
        # across them; p = 2 lmax + 1 and 2 lmax + 2 cancel in the lift
        lmax = 6
        nv = nlm(lmax)
        l = [ll for ll, _ in lm_list(lmax)] * 2
        for a, b, p in _terms(lmax):
            assert abs(l[a] - l[b]) <= p <= l[a] + l[b]
            assert (l[a] + l[b] + p + (a < nv) + (b < nv)) % 2 == 0

    @pytest.mark.parametrize("lmax", range(1, 10))
    def test_terms_match_exact_recipe(self, lmax):
        got, want = _terms(lmax), exact_translation_recipe(lmax)
        # the same terms, exact zeros left out
        assert got.keys() == want.keys()
        assert max(abs(got[t] - want[t]) for t in want) <= 1e-13

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_sampled_terms_vs_exact_at_cap(self, data):
        lmax = LMAX_CAP
        keys, flat, coefs, key = _translation_recipe(lmax)
        nv2 = 2 * nlm(lmax)
        a = data.draw(st.integers(0, nv2 - 1))
        b = data.draw(st.integers(0, nv2 - 1))
        p = data.draw(st.integers(0, 2 * lmax + 2))
        want = exact_translation_term(lmax, a, b, p)
        at = flat == a * nv2 + b
        got = [c for k, c in zip(key[at], coefs[at]) if keys[k][0] == p]
        # exact zeros lift to rounding of the exact values; over the whole
        # table the kept coefficients are within 2.4e-13 of the exact ones
        assert len(got) == (abs(want) > 1e-12)
        assert abs(sum(got) - want) <= 1e-12

    @pytest.mark.parametrize("mirror", [True, False], ids=["mirror", "off-mirror"])
    @pytest.mark.parametrize("lmax", [1, 7, LMAX_CAP])
    def test_translation_matrix_vs_exact(self, lmax, mirror):
        sums = _random_sums(lmax, mirror, seed=lmax)
        got = translation_matrix(lmax, sums)
        want = exact_translation_matrix(lmax, sums)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestClebschGordan:
    def test_closed_forms_vs_oracle(self):
        # every entry of the table, the structural zeros included
        assert np.max(np.abs(_coupling(LMAX_CAP)[0] - exact_cg_table(LMAX_CAP))) <= 1e-15

"""Vector spherical-wave plumbing: index maps, expansions, rotation phases."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from pcfilm.specfun import sph_bessel
from pcfilm.vswf import (
    lm_index,
    lm_list,
    nlm,
    plane_wave_coeffs,
    sidx,
    ylm_flat,
)


class TestIndexMaps:
    def test_nlm_count(self):
        for lmax in range(1, 8):
            assert nlm(lmax) == lmax * (lmax + 2)
            assert len(lm_list(lmax)) == nlm(lmax)

    def test_roundtrip(self):
        for i, (l, m) in enumerate(lm_list(6)):
            assert lm_index(l, m) == i


class TestScalarExpansion:
    def test_plane_wave_reconstruction(self):
        # e^{iK.r} = 4 pi sum_l i^l Ybar_lm(K^) j_l(kr) Y_lm(r^)
        k = 1.7
        th_k, ph_k = 0.8, 1.1
        kvec = k * np.array(
            [
                math.sin(th_k) * math.cos(ph_k),
                math.sin(th_k) * math.sin(ph_k),
                math.cos(th_k),
            ]
        )
        r = np.array([0.3, -0.2, 0.4])
        rr = np.linalg.norm(r)
        ctr, str_ = r[2] / rr, math.hypot(r[0], r[1]) / rr
        phr = math.atan2(r[1], r[0])
        lmax = 25
        j = sph_bessel(lmax, k * rr)
        yk = ylm_flat(lmax, math.cos(th_k), math.sin(th_k), ph_k)
        yr = ylm_flat(lmax, ctr, str_, phr)
        total = 0.0 + 0.0j
        for lam in range(lmax + 1):
            for nu in range(-lam, lam + 1):
                ybar = (-1) ** nu * yk[sidx(lam, -nu)]
                total += 4 * math.pi * 1j**lam * ybar * j[lam] * yr[sidx(lam, nu)]
        assert total == pytest.approx(cmath.exp(1j * np.dot(kvec, r)), abs=1e-12)


class TestPlaneWaveCoeffs:
    @staticmethod
    def _theta_hat(th, ph):
        return np.array(
            [math.cos(th) * math.cos(ph), math.cos(th) * math.sin(ph), -math.sin(th)]
        )

    def test_rotation_phase(self):
        # rotating direction and polarization about z multiplies a_lm by e^{-im alpha}
        th, ph, alpha = 0.8, 1.1, 0.37
        aM, aE = plane_wave_coeffs(4, math.cos(th), math.sin(th), ph, self._theta_hat(th, ph))
        bM, bE = plane_wave_coeffs(
            4, math.cos(th), math.sin(th), ph + alpha, self._theta_hat(th, ph + alpha)
        )
        for l, m in lm_list(4):
            i = lm_index(l, m)
            phase = cmath.exp(-1j * m * alpha)
            assert bM[i] == pytest.approx(aM[i] * phase, abs=1e-12)
            assert bE[i] == pytest.approx(aE[i] * phase, abs=1e-12)

    def test_linearity(self):
        th, ph = 0.5, 0.0
        e1 = self._theta_hat(th, ph)
        e2 = np.array([0.0, 1.0, 0.0])  # phi-hat at ph = 0
        a1M, a1E = plane_wave_coeffs(3, math.cos(th), math.sin(th), ph, e1)
        a2M, a2E = plane_wave_coeffs(3, math.cos(th), math.sin(th), ph, e2)
        cM, cE = plane_wave_coeffs(3, math.cos(th), math.sin(th), ph, 0.3 * e1 + 2.0j * e2)
        assert np.max(np.abs(cM - 0.3 * a1M - 2.0j * a2M)) < 1e-12
        assert np.max(np.abs(cE - 0.3 * a1E - 2.0j * a2E)) < 1e-12

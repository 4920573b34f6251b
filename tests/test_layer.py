"""Single-layer S-matrices: interfaces, gaps, plates, and sphere planes."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from oracles import beam_kz_loop, fresnel_beam, fresnel_power_reflectance, mie_oracle, plate_beam
from pcfilm import vswf
from pcfilm.errors import InvalidArgumentError, SingularSolveError
from pcfilm.lattice import SQUARE, TRIANGULAR, Lattice2D, beam_set, structure_constants
from pcfilm.layer import (
    COND_REPORT_LIMIT,
    Plate,
    PlaneOfSpheres,
    _beam_multipole_maps,
    _diagonal_smatrix,
    _solve_reported,
    beam_sectors,
    displaced_smatrix,
    gap_smatrix,
    identity_smatrix,
    interface_smatrix,
    multipole_sectors,
    plate_smatrix,
    sphere_plane_smatrix,
    star_product,
)
from pcfilm.mie import Material, SphereScatterer, VACUUM, branch_sqrt, mie_t

OM = 0.9


def _vac_beams(omega=OM, kpar=(0.0, 0.0)):
    return beam_set(SQUARE, omega, kpar, VACUUM, omega + 2 * math.pi)


class TestInterface:
    def test_equal_media_identity(self):
        beams = _vac_beams()
        S = interface_smatrix(VACUUM, beams)
        n = S.tpp.shape[0]
        assert np.max(np.abs(S.tpp - np.eye(n))) < 1e-14
        assert np.max(np.abs(S.rpm)) < 1e-14
        assert np.max(np.abs(S.rmp)) < 1e-14

    def test_fresnel_normal_incidence(self):
        S = interface_smatrix(Material(12.0), _vac_beams())
        r = (1.0 - math.sqrt(12.0)) / (1.0 + math.sqrt(12.0))
        assert S.rpm[0, 0] == pytest.approx(r, abs=1e-12)  # s channel
        assert S.rpm[1, 1] == pytest.approx(-r, abs=1e-12)  # p sign convention
        assert abs(S.rpm[0, 0]) ** 2 == pytest.approx(r * r, abs=1e-12)

    def test_total_internal_reflection(self):
        # specular beam propagating in eps = 12 but beyond the vacuum light line
        kpar = (1.5 * OM, 0.0)
        beams = beam_set(SQUARE, OM, kpar, Material(12.0), OM * math.sqrt(12.0) + 2 * math.pi)
        assert beams.propagating[0]
        S = interface_smatrix(VACUUM, beams)
        assert abs(abs(S.rpm[0, 0]) - 1.0) < 1e-12
        assert abs(abs(S.rpm[1, 1]) - 1.0) < 1e-12


class TestGap:
    def test_zero_distance_identity(self):
        beams = _vac_beams()
        S = gap_smatrix(0.0, beams)
        n = S.tpp.shape[0]
        assert np.max(np.abs(S.tpp - np.eye(n))) < 1e-14

    def test_propagating_phase_unimodular(self):
        beams = _vac_beams()
        S = gap_smatrix(1.3, beams)
        for i in np.where(beams.propagating)[0]:
            assert abs(abs(S.tpp[2 * i, 2 * i]) - 1.0) < 1e-14

    def test_evanescent_decay(self):
        beams = _vac_beams()
        S = gap_smatrix(5.0, beams)
        for i in np.where(~beams.propagating)[0]:
            expected = math.exp(-abs(beams.kz[i].imag) * 5.0)
            assert abs(S.tpp[2 * i, 2 * i]) == pytest.approx(expected, rel=1e-12)

    def test_negative_distance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gap_smatrix(-0.1, _vac_beams())


class TestPlate:
    def test_zero_thickness_equal_ambients_identity(self):
        beams = _vac_beams()
        S = plate_smatrix(Plate(0.0, Material(4.0)), beams)
        n = S.tpp.shape[0]
        assert np.max(np.abs(S.tpp - np.eye(n))) < 1e-12
        assert np.max(np.abs(S.rpm)) < 1e-12

    def test_vacuum_plate_pure_phase(self):
        beams = _vac_beams()
        S = plate_smatrix(Plate(0.7, VACUUM), beams)
        assert S.tpp[0, 0] == pytest.approx(cmath.exp(1j * OM * 0.7), abs=1e-13)
        assert np.max(np.abs(S.rpm)) < 1e-14

    def test_opaque_substrate_underflow_safe(self):
        beams = _vac_beams()
        S = plate_smatrix(Plate(1e8, Material(12.0 + 7.0j)), beams)
        assert np.max(np.abs(S.tpp)) == 0.0
        assert abs(S.rpm[0, 0]) ** 2 == pytest.approx(
            fresnel_power_reflectance(12.0 + 7.0j), abs=1e-12
        )

    @pytest.mark.parametrize(
        "ambient, plate",
        [
            (VACUUM, Plate(1.3, Material(2.5 + 0.3j))),
            (Material(2.25 + 0.05j), Plate(1.3, Material(2.5 + 0.3j))),
            (VACUUM, Plate(1e8, Material(12.0 + 7.0j))),
        ],
        ids=["vacuum", "lossy-ambient", "opaque"],
    )
    def test_interface_gap_interface(self, ambient, plate):
        # the closed form against its two interfaces and the interior gap,
        # composed by star products; the opaque plate transmits exact zeros
        outer = TestDiagonalLayersVsLoop._beams(ambient)
        inner = TestDiagonalLayersVsLoop._beams(plate.material)
        whole = plate_smatrix(plate, outer)
        split = star_product(
            star_product(
                interface_smatrix(plate.material, outer),
                gap_smatrix(plate.thickness, inner),
            ),
            interface_smatrix(ambient, inner),
        )
        assert whole.diagonal and split.diagonal
        for a, b, name in zip(whole.blocks, split.blocks, ("tpp", "rpm", "rmp", "tmm")):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=0, err_msg=name)


class TestDiagonalLayersVsLoop:
    """interface_smatrix and plate_smatrix against scalar formulas, beam by beam."""

    BLOCKS = ("tpp", "rpm", "rmp", "tmm")

    @staticmethod
    def _beams(ambient=VACUUM):
        # oblique, off the symmetry lines: 8 orders, the specular one
        # propagating in a lossless ambient and the rest evanescent
        beams = beam_set(SQUARE, OM, (0.7, 0.4), ambient, OM * math.sqrt(12.0) + 2 * math.pi)
        assert beams.n_beams == 8 and beams.propagating.sum() == ambient.lossless
        return beams

    def _check(self, S, per_beam):
        """per_beam(j, pol) gives the four scalar blocks of beam j."""
        want = np.array([per_beam(j, pol) for j in range(S.beams.n_beams) for pol in "sp"])
        for b, name in enumerate(self.BLOCKS):
            got = getattr(S, name)
            assert np.array_equal(got, np.diag(np.diag(got))), name
            np.testing.assert_allclose(np.diag(got), want[:, b], rtol=1e-14, atol=0, err_msg=name)

    @pytest.mark.parametrize(
        "left, right",
        [(VACUUM, Material(12.0)), (Material(2.25), Material(12.0 + 7.0j))],
        ids=["vacuum-dielectric", "dielectric-lossy"],
    )
    def test_interface(self, left, right):
        beams = self._beams(left)
        kzl = beam_kz_loop(beams.kt, left.eps, OM)
        kzr = beam_kz_loop(beams.kt, right.eps, OM)

        def per_beam(j, pol):
            r, t = fresnel_beam(kzl[j], kzr[j], left.eps, right.eps, pol)
            rb, tb = fresnel_beam(kzr[j], kzl[j], right.eps, left.eps, pol)
            return t, r, rb, tb

        self._check(interface_smatrix(right, beams), per_beam)

    @pytest.mark.parametrize(
        "plate",
        [Plate(0.35, Material(12.0 + 0.1j)), Plate(1e8, Material(12.0 + 7.0j))],
        ids=["lossy", "opaque"],
    )
    def test_plate_in_lossy_ambient(self, plate):
        ambient = Material(2.25 + 0.05j)
        beams = self._beams(ambient)
        kz = [beam_kz_loop(beams.kt, m.eps, OM) for m in (ambient, plate.material, ambient)]
        eps = (ambient.eps, plate.material.eps, ambient.eps)

        def per_beam(j, pol):
            return plate_beam(*(k[j] for k in kz), *eps, plate.thickness, pol)

        S = plate_smatrix(plate, beams)
        self._check(S, per_beam)
        if plate.thickness > 1e3:
            # the interior phase underflows: no transmission, front reflection only
            assert not S.tpp.any() and not S.tmm.any()


class TestSpherePlane:
    def test_index_matched_identity(self):
        host = Material(5.0 + 0.2j)
        beams = beam_set(SQUARE, OM, (0.0, 0.0), host, abs(OM * host.n) + 2 * math.pi)
        plane = PlaneOfSpheres(SQUARE, SphereScatterer(0.3, host, host))
        S = sphere_plane_smatrix(plane, beams, 4)
        n = S.tpp.shape[0]
        assert np.max(np.abs(S.tpp - np.eye(n))) < 1e-10
        assert np.max(np.abs(S.rpm)) < 1e-10
        assert np.max(np.abs(S.rmp)) < 1e-10

    def test_lossless_flux_conservation(self):
        host = Material(12.0)
        omega = 2.27 / math.sqrt(2.0)
        beams = beam_set(SQUARE, omega, (0.0, 0.0), host, omega * math.sqrt(12.0) + 2 * math.pi)
        plane = PlaneOfSpheres(SQUARE, SphereScatterer(0.30618621, Material(1.0), host))
        S = sphere_plane_smatrix(plane, beams, 7)
        prop = np.repeat(beams.propagating, 2)
        for j in np.where(prop)[0]:
            flux = np.sum(np.abs(S.tpp[prop, j]) ** 2) + np.sum(np.abs(S.rpm[prop, j]) ** 2)
            assert flux == pytest.approx(1.0, abs=1e-6)

    def test_dilute_born_limit(self):
        omega, radius = 0.5, 0.02
        beams = _vac_beams(omega)
        plane = PlaneOfSpheres(SQUARE, SphereScatterer(radius, Material(4.0), VACUUM))
        S = sphere_plane_smatrix(plane, beams, 7)
        t_e, t_m = mie_oracle(radius, 4.0, 1.0, omega, 1)
        born = (3.0 * math.pi / omega**2) * (t_e[0] - t_m[0])
        assert abs(S.rpm[0, 0] - born) < 0.03 * abs(born)

    def test_z_mirror_symmetry(self):
        host = Material(12.0 + 0.1j)
        beams = beam_set(SQUARE, OM, (0.2, 0.1), host, abs(OM * host.n) + 2 * math.pi)
        plane = PlaneOfSpheres(SQUARE, SphereScatterer(0.30618621, Material(1.0), host))
        S = sphere_plane_smatrix(plane, beams, 5)
        # mirror z -> -z flips the p basis vector sign: S_down = D S_up D
        n = S.tpp.shape[0]
        d = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(n)])
        assert np.max(np.abs(S.tpp - d[:, None] * S.tmm * d[None, :])) < 1e-12
        assert np.max(np.abs(S.rpm - d[:, None] * S.rmp * d[None, :])) < 1e-12

    def test_offset_plane_vs_oracle_maps(self):
        # the offset enters as D^-1 S D; the oracle maps carry it as Bloch
        # phases of each beam instead
        host = Material(12.0 + 0.1j)
        omega, lmax, kpar, offset = 2.2 / math.sqrt(2.0), 5, (0.7, -0.3), (0.5, 0.25)
        beams = beam_set(SQUARE, omega, kpar, host, 12.0)
        sphere = SphereScatterer(0.30618621, Material(1.0), host)
        S = sphere_plane_smatrix(PlaneOfSpheres(SQUARE, sphere, offset), beams, lmax)

        a_plus, a_minus, c_up, c_down = _maps_per_direction(
            beams, host.wavenumber(omega), offset, SQUARE.area, lmax
        )
        t_e, t_m = mie_t(sphere, omega, lmax)
        lidx = np.array([l for l, _ in vswf.lm_list(lmax)])
        tdiag = np.concatenate([t_m[lidx - 1], t_e[lidx - 1]])
        omega_mat = structure_constants(SQUARE, omega, kpar, host, lmax)
        scatter = np.linalg.solve(np.eye(tdiag.size) - tdiag[:, None] * omega_mat, np.diag(tdiag))
        eye = np.eye(2 * beams.n_beams)
        want = (
            eye + c_up @ scatter @ a_plus,
            c_down @ scatter @ a_plus,
            c_up @ scatter @ a_minus,
            eye + c_down @ scatter @ a_minus,
        )
        for got, w in zip((S.tpp, S.rpm, S.rmp, S.tmm), want):
            assert np.max(np.abs(got - w)) <= 1e-12 * np.max(np.abs(w))

    def test_beams_on_another_lattice_rejected(self):
        plane = PlaneOfSpheres(TRIANGULAR, SphereScatterer(0.3, Material(4.0), VACUUM))
        beams = beam_set(SQUARE, 2.0, (0.5, 0.0), VACUUM, 10.0)
        with pytest.raises(InvalidArgumentError) as exc:
            sphere_plane_smatrix(plane, beams, 3)
        assert str(SQUARE) in str(exc.value) and str(TRIANGULAR) in str(exc.value)

    def test_overlapping_spheres_rejected(self):
        with pytest.raises(InvalidArgumentError):
            PlaneOfSpheres(SQUARE, SphereScatterer(0.6, Material(2.0), VACUUM))

    def test_overlap_on_a_skewed_cell_rejected(self):
        # the nearest neighbour a2 - 3 a1 = (0.01, 0.05) lies outside |n_i| <= 2
        lat = Lattice2D((1.0, 0.0), (3.01, 0.05))
        with pytest.raises(InvalidArgumentError, match="spheres overlap"):
            PlaneOfSpheres(lat, SphereScatterer(0.4, Material(2.0), VACUUM))


def _maps_per_direction(beams, k, offset, area, lmax):
    """The beam maps of a plane at ``offset``, one beam, sign and polarization at a time."""
    n, nv = beams.n_beams, vswf.nlm(lmax)
    a = {s: np.zeros((2 * nv, 2 * n), dtype=complex) for s in (1, -1)}
    c = {s: np.zeros((2 * n, 2 * nv), dtype=complex) for s in (1, -1)}
    for j in range(n):
        (kx, ky), kz = beams.kt[j], beams.kz[j]
        ktn = math.hypot(kx, ky)
        phi = math.atan2(ky, kx) if ktn > 1e-12 else 0.0
        cphi, sphi = (kx / ktn, ky / ktn) if ktn > 1e-12 else (1.0, 0.0)
        bloch = cmath.exp(1j * (kx * offset[0] + ky * offset[1]))
        root = branch_sqrt(kz)
        for sign in (1, -1):
            ct, st = sign * kz / k, ktn / k
            pols = (np.array([-sphi, cphi, 0.0]), np.array([sign * kz * cphi, sign * kz * sphi, -ktn]) / k)
            amp = vswf.out_tensor(lmax) @ vswf.ylm_flat(lmax + 1, ct, st, phi)
            for ipol, e in enumerate(pols):
                aM, aE = vswf.plane_wave_coeffs(lmax, ct, st, phi, e)
                a[sign][:, 2 * j + ipol] = np.concatenate([aM, aE]) * bloch / root
                c[sign][2 * j + ipol] = root / bloch * 2 * math.pi / (area * k * kz) * (e @ amp)
    return a[1], a[-1], c[1], c[-1]


class TestBeamMultipoleMaps:
    @pytest.mark.parametrize("kpar, offset", [((0.0, 0.0), (0.5, 0.5)), ((0.7, -0.3), (0.5, 0.25))])
    def test_batched_equals_per_direction(self, kpar, offset):
        host = Material(12.0 + 0.1j)
        omega, lmax = 2.2 / math.sqrt(2.0), 7
        beams = beam_set(SQUARE, omega, kpar, host, 18.0)
        travelling = np.abs(beams.kz.real) > np.abs(beams.kz.imag)  # the host is lossy
        assert travelling.any() and not travelling.all()
        k = host.wavenumber(omega)
        a_plus, a_minus, c_up, c_down = _beam_multipole_maps(beams, lmax)
        want = _maps_per_direction(beams, k, offset, SQUARE.area, lmax)
        # moving the plane by the offset is the conjugation of displaced_smatrix
        d = np.repeat(np.exp(1j * (beams.kt @ np.asarray(offset))), 2)
        got = (a_plus * d, a_minus * d, c_up / d[:, None], c_down / d[:, None])
        for g, w in zip(got, want):
            cols = (w, g) if w.shape[0] > w.shape[1] else (w.T, g.T)  # one column per beam port
            scale = np.max(np.abs(cols[0]), axis=0)
            assert np.all(np.max(np.abs(cols[1] - cols[0]), axis=0) <= 1e-13 * scale)


class TestMirrorSectorBasis:
    """The sector basis against the full basis it replaces."""

    def test_sphere_plane_matches_full_basis(self, full_basis):
        host = Material(12.0 + 0.1j)
        omega = 2.2 / math.sqrt(2.0)
        sphere = SphereScatterer(0.30618621, Material(1.0), host)
        plane = PlaneOfSpheres(SQUARE, sphere, (0.5, 0.5))
        got = sphere_plane_smatrix(plane, beam_set(SQUARE, omega, (0.7, 0.0), host, 18.0), 7)
        assert got.sectors is not None
        full_basis()
        want = sphere_plane_smatrix(plane, beam_set(SQUARE, omega, (0.7, 0.0), host, 18.0), 7)
        assert want.sectors is None
        for name in ("tpp", "rpm", "rmp", "tmm"):
            g, w = getattr(got, name), getattr(want, name)
            assert np.max(np.abs(g - w)) < 1e-12 * np.max(np.abs(w)), name

    @pytest.mark.parametrize("kind", ["beams", "multipoles"])
    def test_orthonormal_and_block_diagonal(self, kind):
        if kind == "beams":
            beams = beam_set(SQUARE, 1.5, (0.9, 0.0), VACUUM, 12.0)
            sectors = beam_sectors(beams)
            assert beam_sectors(beam_set(SQUARE, 1.5, (0.9, 0.2), VACUUM, 12.0)) is None
        else:
            sectors = multipole_sectors(3)
        n = 2 * sectors.idx.shape[-1]
        u = np.zeros((n, n))  # the basis as a matrix, columns sector 0 then 1
        for s in range(2):
            for q in range(2):
                u[sectors.idx[q, s], s * n // 2 + np.arange(n // 2)] += sectors.w[q, s]
        assert np.array_equal(sectors.basis, u)
        assert np.allclose(u.T @ u, np.eye(n), atol=1e-15)
        x = np.random.default_rng(1).normal(size=(2, n // 2, n // 2))
        full = sectors.unfold(x)
        blk = np.zeros((n, n))
        blk[: n // 2, : n // 2], blk[n // 2:, n // 2:] = x
        assert np.allclose(full, u @ blk @ u.T, atol=1e-14)
        for c in (0, n - 1):
            assert np.allclose(sectors.unfold_column(x, c), full[:, c], atol=1e-15)


class TestSolveReported:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20)) + 8 * np.eye(20)
        b = rng.normal(size=(20, 5)) + 0j
        assert np.max(np.abs(_solve_reported(a, b, "test") - np.linalg.solve(a, b))) < 1e-13

    def test_exactly_singular(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(SingularSolveError) as err:
            _solve_reported(a, np.eye(2, dtype=complex), "test")
        assert err.value.condition == np.inf

    def test_stacked_sectors_checked_together(self):
        good = np.eye(2, dtype=complex)
        bad = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-11]], dtype=complex)
        b = np.eye(2, dtype=complex)[None].repeat(2, axis=0)
        x = _solve_reported(np.stack([good, 2 * good]), b, "test")
        assert np.allclose(x, np.stack([good, 0.5 * good]), atol=1e-15)
        # a bad sector is not hidden by a good one: ||A||_F over both sectors
        # times the largest probe growth of either
        with pytest.raises(SingularSolveError, match="ill-conditioned") as err:
            _solve_reported(np.stack([good, bad]), b, "test")
        assert err.value.condition >= np.linalg.cond(bad) / 2.0
        with pytest.raises(SingularSolveError) as err:
            _solve_reported(np.stack([np.ones((2, 2), dtype=complex), good]), b, "test")
        assert err.value.condition == np.inf

    def test_nearly_singular(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-11]], dtype=complex)
        with pytest.raises(SingularSolveError, match="ill-conditioned") as err:
            _solve_reported(a, np.eye(2, dtype=complex), "test")
        assert COND_REPORT_LIMIT < err.value.condition < np.inf
        # the reported value is the probe estimate of the 2-norm condition
        # number: at most sqrt(n) cond_2, and here within that factor below it
        cond2 = np.linalg.cond(a)
        assert cond2 / np.sqrt(2.0) <= err.value.condition <= np.sqrt(2.0) * cond2 * (1 + 1e-3)


class TestIdentity:
    def test_identity_smatrix(self):
        beams = _vac_beams()
        S = identity_smatrix(beams)
        other = gap_smatrix(0.8, beams)
        left = star_product(S, other)
        for a, b in ((left.tpp, other.tpp), (left.rpm, other.rpm)):
            assert np.max(np.abs(a - b)) < 1e-14


class TestColumn:
    def test_full_basis_diagonal_layers(self):
        # read straight from the diagonals, equal to the dense blocks' columns
        beams = beam_set(SQUARE, 1.7, (0.4, 0.1), VACUUM, 14.0)
        plate = plate_smatrix(Plate(0.6, Material(2.6 + 0.3j)), beams)
        layers = (
            plate,
            interface_smatrix(Material(12.0 + 7.0j), beams),
            gap_smatrix(0.8, beams),
            star_product(plate, gap_smatrix(0.3, beams)),
        )
        for s in layers:
            assert s.diagonal and s.sectors is None
            for c in range(2 * beams.n_beams):
                for i, name in enumerate(("tpp", "rpm", "rmp", "tmm")):
                    assert np.array_equal(s.column(i, c), getattr(s, name)[:, c])


def _dense_star(s1, s2):
    """The dense Redheffer formula on the materialised blocks, as a reference."""
    eye = np.eye(s1.tpp.shape[0])
    x12 = np.linalg.solve(eye - s1.rmp @ s2.rpm, s1.tpp)
    x21 = np.linalg.solve(eye - s2.rpm @ s1.rmp, s2.tmm)
    return (
        s2.tpp @ x12,
        s1.rpm + s1.tmm @ s2.rpm @ x12,
        s2.rmp + s2.tpp @ s1.rmp @ x21,
        s1.tmm @ x21,
    )


class TestStarProductPaths:
    """Each star_product path against the dense formula on the same blocks."""

    HOST = Material(12.0 + 0.1j)

    @staticmethod
    def _check(got, want_diagonal, s1, s2, floor=0.0):
        """got against the dense formula, to 1e-13 relative, or floor times the block scale.

        In the sectors, entries the mirror forces to zero come out exactly
        zero, where the dense formula leaves rounding noise.
        """
        assert got.diagonal is want_diagonal
        for name, want in zip(("tpp", "rpm", "rmp", "tmm"), _dense_star(s1, s2)):
            atol = floor * np.max(np.abs(want))
            np.testing.assert_allclose(getattr(got, name), want, rtol=1e-13, atol=atol, err_msg=name)

    def test_lossless_plate_then_lossy_plate(self):
        beams = TestDiagonalLayersVsLoop._beams()
        s1 = plate_smatrix(Plate(0.3, Material(4.0)), beams)
        s2 = plate_smatrix(Plate(0.5, Material(2.0 + 0.1j)), beams)
        self._check(star_product(s1, s2), True, s1, s2)

    def test_plate_then_interface_unequal_ambients(self):
        medium = Material(2.25)
        beams = TestDiagonalLayersVsLoop._beams(medium)
        s1 = plate_smatrix(Plate(0.35, Material(12.0 + 0.1j)), beams)
        s2 = interface_smatrix(Material(12.0 + 7.0j), beams)
        got = star_product(s1, s2)
        assert got.beams.ambient == medium and got.mat_right == Material(12.0 + 7.0j)
        self._check(got, True, s1, s2)

    def _gap_and_plane(self):
        omega = 2.2 / math.sqrt(2.0)
        beams = beam_set(SQUARE, omega, (0.7, -0.3), self.HOST, 12.0)
        sphere = SphereScatterer(0.30618621, Material(1.0), self.HOST)
        plane = sphere_plane_smatrix(PlaneOfSpheres(SQUARE, sphere, (0.5, 0.25)), beams, 4)
        return gap_smatrix(0.177, beams), plane

    def test_gap_then_offset_plane(self):
        gap, plane = self._gap_and_plane()
        assert gap.reflectionless and not plane.diagonal
        self._check(star_product(gap, plane), False, gap, plane)

    def test_plane_then_gap(self):
        gap, plane = self._gap_and_plane()
        self._check(star_product(plane, gap), False, plane, gap)

    @staticmethod
    def _pair(r2_first):
        """Two diagonal vacuum layers with den = 1 - r2_first in the first port."""
        beams = _vac_beams()
        n = 2 * beams.n_beams
        rmp1 = np.zeros(n)
        rmp1[0] = 1.0
        rpm2 = np.zeros(n)
        rpm2[0] = r2_first
        s1 = _diagonal_smatrix(beams, VACUUM, 0.5, 0.0, rmp1, 0.5)
        s2 = _diagonal_smatrix(beams, VACUUM, 0.5, rpm2, 0.0, 0.5)
        return s1, s2

    def test_diagonal_zero_denominator(self):
        with pytest.raises(SingularSolveError, match="star product inter-layer solve") as err:
            star_product(*self._pair(1.0))
        assert err.value.condition == np.inf

    def test_diagonal_ill_conditioned(self):
        s1, s2 = self._pair(1.0 - 1e-11)
        with pytest.raises(SingularSolveError, match="ill-conditioned") as err:
            star_product(s1, s2)
        assert COND_REPORT_LIMIT < err.value.condition < np.inf
        # exact 2-norm condition number of the diagonal inter-layer matrix
        cond2 = np.linalg.cond(np.eye(s1.tpp.shape[0]) - s1.rmp @ s2.rpm)
        assert err.value.condition == pytest.approx(cond2, rel=1e-12)

    def _mirror_plane(self, offset=(0.5, 0.5)):
        """A sphere plane on a mirror beam set (kpar along x), solved in the sectors."""
        omega = 2.2 / math.sqrt(2.0)
        beams = beam_set(SQUARE, omega, (0.7, 0.0), self.HOST, 12.0)
        sphere = SphereScatterer(0.30618621, Material(1.0), self.HOST)
        plane = sphere_plane_smatrix(PlaneOfSpheres(SQUARE, sphere, offset), beams, 4)
        return beams, plane

    def test_sector_plane_pair(self):
        _, plane = self._mirror_plane()
        assert plane.sectors is not None and plane.blocks[0].shape[0] == 2
        got = star_product(plane, plane)
        assert got.sectors is not None
        self._check(got, False, plane, plane, 1e-13)

    def test_diagonal_layers_gathered_into_sectors(self):
        beams, plane = self._mirror_plane()
        gap = gap_smatrix(0.177, beams)
        interface = interface_smatrix(Material(12.0 + 7.0j), beams)
        for s1, s2 in ((gap, plane), (plane, gap), (interface, plane), (plane, interface)):
            got = star_product(s1, s2)
            assert got.sectors is not None
            self._check(got, False, s1, s2, 1e-13)

    def test_plane_off_the_mirror_returns_to_full_basis(self):
        beams, plane = self._mirror_plane()
        _, off = self._mirror_plane((0.25, 0.1))
        assert off.sectors is None
        got = star_product(plane, off)
        assert got.sectors is None
        self._check(got, False, plane, off, 1e-13)

    def test_displaced_diagonal_layer_unchanged(self):
        beams = TestDiagonalLayersVsLoop._beams()
        for s in (gap_smatrix(0.4, beams), interface_smatrix(Material(2.25), beams)):
            assert displaced_smatrix(s, (0.5, 0.25)) is s

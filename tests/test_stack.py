"""Stack composition and spectrum extraction."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fresnel_power_reflectance
import pcfilm.layer as ly
import pcfilm.scenes as sc
import pcfilm.stack as stk
from pcfilm.emissivity import angular_map
from pcfilm.errors import InvalidArgumentError
from pcfilm.lattice import SQUARE, TRIANGULAR, Lattice2D, beam_set, mirror_fixed
from pcfilm.layer import (
    Plate,
    PlaneOfSpheres,
    gap_smatrix,
    identity_smatrix,
    plate_smatrix,
    star_product,
)
from pcfilm.mie import Material, SphereScatterer, VACUUM
from pcfilm.onedim import OneDimLayer, solve_onedim
from pcfilm.stack import (
    Gap,
    Interface,
    NumericalControls,
    Repeat,
    StackDescription,
    repeat_slice,
    slice_smatrix,
    solve_stack,
    solve_stack_points,
    stack_smatrix,
)

OM = 0.9
DATA = Path(__file__).resolve().parent / "data"


def _vac_beams(omega=OM):
    return beam_set(SQUARE, omega, (0.0, 0.0), VACUUM, omega + 2 * math.pi)


class TestStarProduct:
    def test_gap_additivity(self):
        beams = _vac_beams()
        combined = star_product(gap_smatrix(0.4, beams), gap_smatrix(0.9, beams))
        whole = gap_smatrix(1.3, beams)
        assert np.max(np.abs(combined.tpp - whole.tpp)) < 1e-13
        assert np.max(np.abs(combined.rpm)) < 1e-14

    def test_associativity(self):
        beams = _vac_beams()
        a = plate_smatrix(Plate(0.3, Material(4.0)), beams)
        b = plate_smatrix(Plate(0.5, Material(2.0 + 0.1j)), beams)
        c = gap_smatrix(0.7, beams)
        left = star_product(star_product(a, b), c)
        right = star_product(a, star_product(b, c))
        for x, y in ((left.tpp, right.tpp), (left.rpm, right.rpm), (left.rmp, right.rmp)):
            assert np.max(np.abs(x - y)) < 1e-10

    def test_two_quarter_wave_plates_vs_airy(self):
        # closed-form double-slab reflectance via the Airy recursion
        eps1, eps2 = 2.25, 4.0
        omega = OM
        d1 = math.pi / (2.0 * omega * math.sqrt(eps1))
        d2 = math.pi / (2.0 * omega * math.sqrt(eps2))
        beams = _vac_beams()
        s1 = plate_smatrix(Plate(d1, Material(eps1)), beams)
        s2 = plate_smatrix(Plate(d2, Material(eps2)), beams)
        comp = star_product(s1, s2)

        def slab_r_t(n, d):
            r01 = (1 - n) / (1 + n)
            ph = np.exp(2j * n * omega * d)
            r = r01 * (1 - ph) / (1 - r01**2 * ph)
            t = (1 - r01**2) * np.exp(1j * n * omega * d) / (1 - r01**2 * ph)
            return r, t

        ra, ta = slab_r_t(math.sqrt(eps1), d1)
        rb, tb = slab_r_t(math.sqrt(eps2), d2)
        r_tot = ra + ta * ta * rb / (1 - ra * rb)
        assert abs(comp.rpm[0, 0] - r_tot) < 1e-10

    def test_mismatched_beams_rejected(self):
        small = beam_set(SQUARE, OM, (0.0, 0.0), VACUUM, OM + 2 * math.pi)
        large = beam_set(SQUARE, OM, (0.0, 0.0), VACUUM, OM + 4 * math.pi)
        with pytest.raises(InvalidArgumentError):
            star_product(gap_smatrix(0.1, small), gap_smatrix(0.1, large))


class TestRepeatSlice:
    def test_n1_is_identity_operation(self):
        beams = _vac_beams()
        s = plate_smatrix(Plate(0.3, Material(3.0 + 0.2j)), beams)
        r = repeat_slice(s, 1)
        assert np.max(np.abs(r.tpp - s.tpp)) < 1e-14

    def test_n4_equals_pairwise(self):
        beams = _vac_beams()
        s = plate_smatrix(Plate(0.3, Material(3.0 + 0.2j)), beams)
        quad = repeat_slice(s, 4)
        ref = star_product(star_product(s, s), star_product(s, s))
        for x, y in ((quad.tpp, ref.tpp), (quad.rpm, ref.rpm)):
            assert np.max(np.abs(x - y)) < 1e-12

    def test_n0_identity(self):
        beams = _vac_beams()
        s = gap_smatrix(0.5, beams)
        r = repeat_slice(s, 0)
        n = r.tpp.shape[0]
        assert np.max(np.abs(r.tpp - np.eye(n))) < 1e-14

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            repeat_slice(gap_smatrix(0.5, _vac_beams()), -1)

    def test_other_ambient_on_the_right_rejected(self):
        elements = [Interface(VACUUM, Material(2.25)), Gap(0.3)]
        s = slice_smatrix(elements, VACUUM, OM, (0.0, 0.0), NumericalControls())
        with pytest.raises(InvalidArgumentError, match="repeat_slice requires the same ambient"):
            repeat_slice(s, 2)

    @pytest.mark.parametrize("count", [2.5, 2.0])
    def test_non_integer_count_rejected(self, count):
        # a float count used to fail at the first solve, in repeat_slice
        with pytest.raises(InvalidArgumentError, match="count must be an integer"):
            Repeat((Plate(0.3, Material(2.0)),), count)

    def test_doubling_vs_naive_chain(self):
        beams = _vac_beams()
        s = plate_smatrix(Plate(0.2, Material(2.5 + 0.05j)), beams)
        chain = s
        for _ in range(6):
            chain = star_product(chain, s)
        assert np.max(np.abs(repeat_slice(s, 7).tpp - chain.tpp)) < 1e-10


class TestSolveStack:
    def test_empty_stack(self):
        desc = StackDescription(())
        p = solve_stack(desc, OM, 0.0, 0.0, "s")
        assert p.R == pytest.approx(0.0, abs=1e-14)
        assert p.T == pytest.approx(1.0, abs=1e-14)
        assert p.A == pytest.approx(0.0, abs=1e-14)

    def test_bare_substrate_fresnel(self):
        desc = StackDescription((), exit=Material(12.0 + 7.0j))
        p = solve_stack(desc, OM, 0.0, 0.0, "s")
        R = fresnel_power_reflectance(12.0 + 7.0j)
        assert p.R == pytest.approx(R, abs=1e-12)
        assert p.T == 0.0
        assert p.E == pytest.approx(1.0 - R, abs=1e-12)

    def test_vs_onedim_plate_stack(self):
        plates = (
            Plate(0.4, Material(2.6)),
            Plate(0.7, Material(1.44 + 0.2j)),
            Plate(0.3, Material(5.0)),
        )
        desc = StackDescription(plates, exit=Material(4.0))
        layers = [OneDimLayer(p.material.eps, p.thickness) for p in plates]
        theta = math.radians(35.0)
        for pol in ("s", "p"):
            p = solve_stack(desc, OM, theta, 0.0, pol)
            R1, T1, A1 = solve_onedim(layers, OM, theta, pol, VACUUM, Material(4.0))
            assert p.R == pytest.approx(R1, abs=1e-10)
            assert p.T == pytest.approx(T1, abs=1e-10)
            assert p.A == pytest.approx(A1, abs=1e-10)

    def test_transmission_reciprocity(self):
        plates = (
            Plate(0.4, Material(2.6 + 0.1j)),
            Plate(0.7, Material(1.44)),
            Plate(0.2, Material(9.0 + 0.5j)),
        )
        fwd = StackDescription(plates)
        rev = StackDescription(tuple(reversed(plates)))
        theta = math.radians(25.0)
        for pol in ("s", "p"):
            a = solve_stack(fwd, OM, theta, 0.0, pol)
            b = solve_stack(rev, OM, theta, 0.0, pol)
            assert a.T == pytest.approx(b.T, abs=1e-8)

    def test_repeat_element(self):
        unit = (Plate(0.3, Material(2.6)), Gap(0.2))
        a = StackDescription((Repeat(unit, 3),))
        b = StackDescription(unit * 3)
        pa = solve_stack(a, OM, 0.0, 0.0, "s")
        pb = solve_stack(b, OM, 0.0, 0.0, "s")
        assert pa.R == pytest.approx(pb.R, abs=1e-12)

    def test_points_wrapper_matches_single(self):
        desc = StackDescription((Plate(0.5, Material(3.0 + 0.3j)),))
        ps, pp = solve_stack_points(desc, OM, 0.3, 0.0, ("s", "p"))
        assert ps.R == pytest.approx(solve_stack(desc, OM, 0.3, 0.0, "s").R, abs=1e-14)
        assert pp.R == pytest.approx(solve_stack(desc, OM, 0.3, 0.0, "p").R, abs=1e-14)

    def test_transparent_lossy_exit_rejected(self):
        # no beam propagates in a lossy exit, so T would read 0 and A take the
        # transmitted flux; only a lossless exit may be transparent
        with pytest.raises(InvalidArgumentError, match="must be opaque"):
            StackDescription((), exit=Material(12.0 + 7.0j), opaque_exit=False)
        desc = StackDescription((Plate(0.3, Material(4.0)),), exit=Material(2.0), opaque_exit=False)
        p = solve_stack(desc, OM, 0.0, 0.0, "s")
        assert p.T > 0 and abs(p.R + p.T - 1.0) < 1e-12

    def test_invalid_inputs_rejected(self):
        desc = StackDescription(())
        with pytest.raises(InvalidArgumentError):
            solve_stack(desc, -1.0, 0.0, 0.0, "s")
        with pytest.raises(InvalidArgumentError):
            solve_stack(desc, OM, math.pi / 2, 0.0, "s")
        with pytest.raises(InvalidArgumentError):
            solve_stack(desc, OM, 0.0, 0.0, "x")
        with pytest.raises(InvalidArgumentError, match="omega must be > 0, got nan"):
            solve_stack(desc, math.nan, 0.0, 0.0, "s")
        # a lossy incident ambient is rejected when the stack is built
        with pytest.raises(InvalidArgumentError, match="incident ambient must be lossless"):
            StackDescription((), incident=Material(2.0 + 0.1j))

    @given(
        eps_re=st.lists(st.floats(1.0, 16.0), min_size=1, max_size=4),
        eps_im=st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
        ds=st.lists(st.floats(0.01, 2.0), min_size=4, max_size=4),
        theta_deg=st.floats(0.0, 80.0),
        pol=st.sampled_from(["s", "p"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_flux_bookkeeping_property(self, eps_re, eps_im, ds, theta_deg, pol):
        plates = tuple(
            Plate(d, Material(complex(er, ei)))
            for er, ei, d in zip(eps_re, eps_im, ds)
        )
        desc = StackDescription(plates)
        p = solve_stack(desc, OM, math.radians(theta_deg), 0.0, pol)
        assert -1e-9 <= p.R <= 1.0 + 1e-9
        assert -1e-9 <= p.T <= 1.0 + 1e-9
        assert p.R + p.T + p.A == pytest.approx(1.0, abs=1e-9)

    def test_opal_gap_suppression(self):
        import pcfilm.scenes as sc

        scene = sc.preset("paper-fig2")
        desc = scene.build_stack()
        omega = float(scene.omega_internal(np.array([2.27]))[0])
        ps, pp = solve_stack_points(desc, omega, 0.0, 0.0, ("s", "p"), scene.controls())
        assert min(ps.E, pp.E) < 0.2


_SPHERE = SphereScatterer(0.2, Material(4.0), VACUUM)


def _bad_stacks():
    """(elements in a vacuum ambient, the walk's message) that the stack walk rejects."""
    dense = Material(4.0)
    sphere_in_dense = SphereScatterer(0.2, Material(2.0), dense)
    square, triangular = (PlaneOfSpheres(lat, _SPHERE) for lat in (SQUARE, TRIANGULAR))
    two_lattices = f"sphere plane lattice {TRIANGULAR} != first plane lattice {SQUARE}"
    return {
        "interface-left-not-ambient": (
            (Interface(dense, VACUUM),), "interface left medium eps=4.0 != ambient eps=1.0"
        ),
        "sphere-host-not-ambient": (
            (PlaneOfSpheres(SQUARE, sphere_in_dense),),
            "sphere plane host eps=4.0 != ambient eps=1.0",
        ),
        "repeat-changes-ambient": (
            (Repeat((Interface(VACUUM, dense),), 2),),
            "repeated sub-stack must preserve the ambient medium",
        ),
        "unknown-element": ((Gap(0.1), "plate"), "unknown stack element 'plate'"),
        "planes-on-two-lattices": ((square, Gap(0.5), triangular), two_lattices),
        "repeat-plane-on-other-lattice": (
            (square, Repeat((Gap(0.5), triangular), 2)), two_lattices
        ),
    }


class TestWalkChecks:
    @pytest.mark.parametrize("case", sorted(_bad_stacks()))
    def test_solve_stack_rejects(self, case):
        # a bad stack never reaches a solve: building its description rejects it
        elements, message = _bad_stacks()[case]
        with pytest.raises(InvalidArgumentError) as exc:
            StackDescription(elements)
        assert str(exc.value) == message

    @pytest.mark.parametrize("case", sorted(_bad_stacks()))
    def test_slice_smatrix_rejects(self, case):
        elements, message = _bad_stacks()[case]
        with pytest.raises(InvalidArgumentError) as exc:
            slice_smatrix(elements, VACUUM, OM, (0.0, 0.0), NumericalControls(lmax=2))
        assert str(exc.value) == message

    def test_planes_on_two_lattices_named(self):
        elements, _ = _bad_stacks()["planes-on-two-lattices"]
        with pytest.raises(InvalidArgumentError) as exc:
            StackDescription(elements)
        assert str(SQUARE) in str(exc.value) and str(TRIANGULAR) in str(exc.value)

    def test_points_do_not_walk_again(self, monkeypatch):
        desc = StackDescription((Interface(VACUUM, Material(4.0)), Repeat((Gap(0.2),), 2)))
        walks = _record_calls(monkeypatch, stk, "walk_stack")
        angular_map(desc, [OM, 1.2], [0.0, 0.3], NumericalControls(lmax=2))
        assert walks == []

    def test_interface_medium_sets_auto_cutoff(self):
        # the host entered by an interface outside any Repeat counts toward the
        # auto cutoff: with vacuum alone it fell below omega*sqrt(12) at omega 4
        host = Material(12.0)
        plane = PlaneOfSpheres(SQUARE, SphereScatterer(0.3, VACUUM, host))
        desc = StackDescription(
            (Interface(VACUUM, host), Gap(0.35), plane, Gap(0.35), Interface(host, VACUUM))
        )
        assert desc.walk.media == {1.0, 12.0}
        for p in solve_stack_points(desc, 4.0, 0.0, 0.0, ("s", "p"), NumericalControls(lmax=3)):
            assert abs(p.R + p.T - 1.0) < 1e-10

    def test_beam_lattice_must_match_planes(self):
        unit = (PlaneOfSpheres(SQUARE, _SPHERE),)
        controls = NumericalControls(lmax=2)
        with pytest.raises(InvalidArgumentError) as exc:
            slice_smatrix(unit, VACUUM, OM, (0.0, 0.0), controls, lat=TRIANGULAR)
        assert str(SQUARE) in str(exc.value) and str(TRIANGULAR) in str(exc.value)
        # the planes' own lattice, given explicitly, is accepted
        slice_smatrix(unit, VACUUM, OM, (0.0, 0.0), controls, lat=SQUARE)


_GLASS, _DENSE = Material(2.25), Material(4.0)
# interfaces outside the Repeat and inside it: the film enters glass, each
# period enters and leaves the dense medium, and the film ends in glass
_REPEATED = (
    Interface(VACUUM, _GLASS),
    Gap(0.3),
    Repeat(
        (Interface(_GLASS, _DENSE), Gap(0.2), Plate(0.1, Material(3.0)), Interface(_DENSE, _GLASS)),
        2,
    ),
    Gap(0.1),
)


class TestWalkSteps:
    """The walk records each element with its ambient and ends in the exit medium."""

    @pytest.mark.parametrize(
        "exit_m",
        [_GLASS, Material(2.25 + 0j), VACUUM, Material(12 + 7j)],
        ids=["glass", "glass-eps-complex", "vacuum", "lossy"],
    )
    def test_steps_carry_ambients_and_exit(self, exit_m):
        walk = StackDescription(_REPEATED, exit=exit_m).walk
        outer = [(s.element, s.ambient) for s in walk.steps[: len(_REPEATED)]]
        assert outer == list(zip(_REPEATED, [VACUUM, _GLASS, _GLASS, _GLASS]))
        unit = walk.steps[2].walk
        assert [(s.element, s.ambient) for s in unit.steps] == list(
            zip(_REPEATED[2].elements, [_GLASS, _DENSE, _DENSE, _DENSE])
        )
        assert unit.exit == _GLASS
        assert all((s.walk is not None) == isinstance(s.element, Repeat) for s in walk.steps)
        # the exit interface is the last step exactly when the exit medium differs
        tail = walk.steps[len(_REPEATED):]
        if exit_m.eps == _GLASS.eps:
            assert tail == ()
        else:
            assert [(s.element, s.ambient) for s in tail] == [(Interface(_GLASS, exit_m), _GLASS)]
        assert walk.exit == exit_m

    @pytest.mark.parametrize("exit_m", [VACUUM, Material(12 + 7j)], ids=["vacuum", "lossy"])
    def test_exit_interface_composed_last(self, exit_m):
        # the stack's S-matrix is its elements' with the exit interface as one more element
        controls = NumericalControls(lmax=2)
        kpar = (OM * math.sin(0.3), 0.0)
        got = stack_smatrix(StackDescription(_REPEATED, exit=exit_m), OM, kpar, controls)
        elements = _REPEATED + (Interface(_GLASS, exit_m),)
        want = slice_smatrix(elements, VACUUM, OM, kpar, controls)
        assert got.beams.g_ints == want.beams.g_ints
        for i in range(4):
            assert np.array_equal(got.stacked(i), want.stacked(i))

    @pytest.mark.parametrize("name", ["paper-fig2", "paper-fig3", "paper-fig4"])
    def test_unit_slice_reads_the_walk(self, name):
        scene = sc.preset(name)
        unit, ambient, period = scene.unit_slice()
        # the elements and ambient built from the config text, and the period
        # summed in the same order, so it has the same bits
        _, want_ambient = scene._build_elements(scene.pre, scene.material(scene.incident))
        want_unit, _ = scene._build_elements(scene.unit, want_ambient)
        assert unit == want_unit and ambient == want_ambient
        assert period == sum(
            el.distance if isinstance(el, Gap) else (el.thickness if isinstance(el, Plate) else 0.0)
            for el in want_unit
        )


class TestLatticeBasis:
    """R, T and A of a sphere plane depend on its lattice, not on the basis naming it."""

    @pytest.mark.parametrize("m", [-2, -1, 1, 2, 3, 7, 10])
    def test_triangular_basis_invariance(self, m):
        (x1, y1), (x2, y2) = TRIANGULAR.a1, TRIANGULAR.a2
        sheared = Lattice2D((x1, y1), (x2 + m * x1, y2 + m * y1))
        sphere = SphereScatterer(0.3, Material(4.0 + 0.5j), VACUUM)
        controls = NumericalControls(lmax=4)
        for omega, theta, phi in ((2.0, 0.0, 0.0), (3.0, 0.3, 0.0), (2.5, 0.5, math.radians(25.0))):
            want, got = (
                solve_stack_points(
                    StackDescription((PlaneOfSpheres(lat, sphere),)), omega, theta, phi,
                    ("s", "p"), controls,
                )
                for lat in (TRIANGULAR, sheared)
            )
            for w, g in zip(want, got):
                assert max(abs(w.R - g.R), abs(w.T - g.T), abs(w.A - g.A)) <= 1e-12


class TestTotalBeams:
    """A stack's S-matrix keeps its first layer's beams, in the incident medium.

    Reflectance is read off those beams' propagating mask.
    """

    @staticmethod
    def _check(desc, omega, theta, controls):
        total = stack_smatrix(desc, omega, (omega * math.sin(theta), 0.0), controls)
        assert total.beams.ambient == desc.incident
        kz_in = total.beams.roots(desc.incident)[0]
        assert np.array_equal(total.beams.propagating, kz_in.imag == 0.0)

    @pytest.mark.parametrize(
        "name",
        ["paper-fig2", "paper-fig3", "paper-fig4", DATA / "slab.cfg", DATA / "repeated-slab.cfg"],
        ids=["paper-fig2", "paper-fig3", "paper-fig4", "slab", "repeated-slab"],
    )
    def test_scenes(self, name):
        scene = sc.preset(name) if isinstance(name, str) else sc.parse_config(name.read_text())
        omega = float(scene.omega_internal(scene.omega_display_grid())[0])
        self._check(scene.build_stack(), omega, 0.3, scene.controls())

    def test_stack_opening_with_an_empty_repeat(self):
        unit = (Interface(_GLASS, _DENSE), Gap(0.2), Interface(_DENSE, _GLASS))
        desc = StackDescription((Repeat(unit, 0), Gap(0.1)), incident=_GLASS, exit=VACUUM)
        self._check(desc, OM, 0.3, NumericalControls(lmax=2))


def _record_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


class TestSolveCount:
    """LU solves per point: only dense pairs and the sphere plane itself solve."""

    def test_paper_fig3_solves_nothing(self, monkeypatch):
        import pcfilm.scenes as sc

        solves = _record_calls(monkeypatch, ly, "_solve_reported")
        scene = sc.preset("paper-fig3")
        omega = float(scene.omega_internal(np.array([2.3]))[0])
        solve_stack_points(scene.build_stack(), omega, 0.5, 0.0, ("s", "p"), scene.controls())
        assert solves == []

    def test_gap_plane_gap_repeated(self, monkeypatch):
        solves = _record_calls(monkeypatch, ly, "_solve_reported")
        pairs = _record_calls(monkeypatch, stk, "star_product")
        unit = (Gap(0.2), PlaneOfSpheres(SQUARE, _SPHERE), Gap(0.2))
        solve_stack(StackDescription((Repeat(unit, 2),)), OM, 0.3, 0.0, "s")
        # gap * plane and (gap plane) * gap scale; the doubling is dense * dense
        dense = [not (a.diagonal or b.diagonal) for a, b in pairs]
        assert dense == [False, False, True]
        assert len(solves) == 1 + 2 * sum(dense)


def _assert_rta(got, want, tol=1e-12):
    for g, w in zip(got, want):
        for name, value in zip("RTA", w):
            assert abs(getattr(g, name) - value) <= tol, (g.pol, name, getattr(g, name), value)


_HOST = Material(12.0 + 0.1j)
_CONTROLS = NumericalControls(lmax=4, cutoff=12.0)


def _film(lat, offsets):
    """Two periods of (gap, plane, gap) per offset in the host, on a lossy backplane."""
    sphere = SphereScatterer(0.3, VACUUM, _HOST)
    unit = []
    for off in offsets:
        unit += [Gap(0.2), PlaneOfSpheres(lat, sphere, off), Gap(0.2)]
    return StackDescription((Interface(VACUUM, _HOST), Repeat(tuple(unit), 2)), exit=Material(12 + 7j))


# (lattice, plane offsets, phi in degrees, (R, T, A) for s and p at omega 1.6
# and theta 25 deg, from the full-basis code that preceded the mirror sectors)
_SCENES = {
    "square-offset-0.25-0.1": (
        SQUARE, [(0.0, 0.0), (0.25, 0.1)], 0.0,
        ((0.20085084940177697, 0.0, 0.799149150598223), (0.1306160763341348, 0.0, 0.8693839236658651)),
    ),
    "square-phi-30": (
        SQUARE, [(0.0, 0.0), (0.5, 0.5)], 30.0,
        ((0.2072508391479309, 0.0, 0.7927491608520691), (0.1525368296923563, 0.0, 0.8474631703076437)),
    ),
    "triangular-on-mirror": (
        TRIANGULAR, [(0.0, 0.0), (0.5, 0.0)], 0.0,
        ((0.24813952332796585, 0.0, 0.7518604766720342), (0.1213554125976822, 0.0, 0.8786445874023178)),
    ),
    "triangular-off-mirror": (
        TRIANGULAR, [(0.0, 0.0), (0.25, math.sqrt(3.0) / 4.0)], 0.0,
        ((0.1854725836098486, 0.0, 0.8145274163901514), (0.1744328718657196, 0.0, 0.8255671281342805)),
    ),
}


class TestMirrorSectors:
    """Scenes the mirror y -> -y maps to themselves run in its two sectors."""

    @pytest.mark.parametrize("theta_deg", [0.0, 30.0])
    def test_paper_fig2_matches_full_basis(self, theta_deg, full_basis):
        scene = sc.preset("paper-fig2")
        desc, controls = scene.build_stack(), scene.controls()
        omega = float(scene.omega_internal(np.array([2.2]))[0])
        theta = math.radians(theta_deg)
        kpar = (omega * math.sin(theta), 0.0)
        assert stack_smatrix(desc, omega, kpar, controls).sectors is not None
        got = solve_stack_points(desc, omega, theta, 0.0, ("s", "p"), controls)
        full_basis()
        assert stack_smatrix(desc, omega, kpar, controls).sectors is None
        want = solve_stack_points(desc, omega, theta, 0.0, ("s", "p"), controls)
        _assert_rta(got, [(w.R, w.T, w.A) for w in want])

    @pytest.mark.parametrize("name", sorted(_SCENES))
    def test_path_follows_scene_symmetry(self, name, full_basis):
        lat, offsets, phi_deg, reference = _SCENES[name]
        desc = _film(lat, offsets)
        omega, theta, phi = 1.6, math.radians(25.0), math.radians(phi_deg)
        kpar = omega * math.sin(theta) * np.array([math.cos(phi), math.sin(phi)])
        on_mirror = phi == 0.0 and all(mirror_fixed(lat, off) for off in offsets)
        assert on_mirror == (name == "triangular-on-mirror")
        assert (stack_smatrix(desc, omega, kpar, _CONTROLS).sectors is not None) == on_mirror
        got = solve_stack_points(desc, omega, theta, phi, ("s", "p"), _CONTROLS)
        _assert_rta(got, reference)
        full_basis()
        want = solve_stack_points(desc, omega, theta, phi, ("s", "p"), _CONTROLS)
        _assert_rta(got, [(w.R, w.T, w.A) for w in want])

    def test_one_stacked_solve_per_solve_site(self, monkeypatch):
        solves = _record_calls(monkeypatch, ly, "_solve_reported")
        scene = sc.preset("paper-fig2")
        omega = float(scene.omega_internal(np.array([2.2]))[0])
        solve_stack_points(scene.build_stack(), omega, 0.5, 0.0, ("s", "p"), scene.controls())
        assert len(solves) == 15
        # both sectors in one call: 63 + 63 multipole and 23 + 23 beam channels
        assert {a.shape[:2] for a, _, _ in solves} == {(2, 63), (2, 23)}

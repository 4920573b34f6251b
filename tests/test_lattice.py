"""Lattice geometry, beam sets, and structure-constant lattice sums."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pcfilm.scenes as sc
from oracles import direct_lattice_sums, lattice_sum_keys
from pcfilm.errors import ConvergenceError, InvalidArgumentError
from pcfilm.lattice import (
    SQUARE,
    TRIANGULAR,
    Lattice2D,
    beam_set,
    fold_to_zone,
    lattice_sums_ewald,
    reciprocal_basis,
    structure_constants,
)
from pcfilm.mie import VACUUM, Material, branch_sqrt
from pcfilm.vswf import lm_list, nlm, translation_matrix


def _beam_set_loop(lat, omega, kpar, ambient, cutoff, nbox=None):
    """(g_ints, kt, kz) of beam_set, one integer pair at a time (reference).

    It folds kpar with a 2 x 2 solve and searches the square integer box
    |n1|, |n2| <= nbox, by default 2 (cutoff + |kf|) / min |b| + 2.  That
    box covers every beam when the cell angle lies in [30, 150] degrees,
    where |a1| |a2| <= 2 |a1 x a2|: on every lattice, since a lattice stores
    its reduced basis, whose angle lies in [60, 120] degrees.
    """
    b1, b2 = reciprocal_basis(lat)
    kpar = np.asarray(kpar, dtype=float)
    n0 = -np.round(np.linalg.solve(np.column_stack([b1, b2]), kpar)).astype(int)
    folds = []
    for n1 in range(n0[0] - 2, n0[0] + 3):
        for n2 in range(n0[1] - 2, n0[1] + 3):
            v = kpar + n1 * b1 + n2 * b2
            folds.append((round(float(v @ v), 12), n1, n2, v))
    kf = min(folds, key=lambda e: e[:3])[3]
    if nbox is None:
        bmin = min(np.linalg.norm(b1), np.linalg.norm(b2))
        nbox = int(math.ceil((cutoff + math.hypot(*kf)) / bmin * 2)) + 2
    entries = []
    for n1 in range(-nbox, nbox + 1):
        for n2 in range(-nbox, nbox + 1):
            kt = kf + (n1 * b1 + n2 * b2)
            kt2 = float(kt @ kt)
            if kt2 <= cutoff * cutoff + 1e-12:
                entries.append((round(kt2, 12), n1, n2, kt2, kt))
    entries.sort(key=lambda e: e[:3])
    k2 = ambient.eps * omega**2
    return (
        tuple((e[1], e[2]) for e in entries),
        np.array([e[4] for e in entries]),
        np.array([branch_sqrt(k2 - e[3]) for e in entries]),
    )


# oblique lattices as in TestReciprocalBasis.test_duality, and the square
# and triangular ones
_OBLIQUE = st.tuples(
    st.tuples(st.floats(0.5, 2.0), st.floats(-0.5, 0.5)),
    st.tuples(st.floats(-0.5, 0.5), st.floats(0.5, 2.0)),
).filter(lambda a: abs(a[0][0] * a[1][1] - a[0][1] * a[1][0]) > 0.1).map(lambda a: Lattice2D(*a))
_LATTICES = st.one_of(st.sampled_from([SQUARE, TRIANGULAR]), _OBLIQUE)
# strongly unreduced bases: the nearest lattice points, direct and
# reciprocal, lie far outside |n_i| <= 2 in them
_SKEWED_BASES = [
    ((1.0, 0.0), (2.6, 0.3)),
    ((1.0, 0.0), (3.01, 0.05)),
    ((1.0, 0.0), (1.7 * math.cos(math.radians(3)), 1.7 * math.sin(math.radians(3)))),
    ((1.0, 0.0), (1.7 * math.cos(math.radians(5)), 1.7 * math.sin(math.radians(5)))),
]
_SKEWED = [Lattice2D(*basis) for basis in _SKEWED_BASES]
# coordinates of kpar in (b1, b2): zone centre, edge midpoints, the corners of
# the square and triangular zones, and any point, each moved by a few b
_FRACTIONS = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1 / 3, 2 / 3]), st.floats(-0.5, 0.5))


def _kpar(lat, f1, f2, m1, m2):
    b1, b2 = reciprocal_basis(lat)
    return (f1 + m1) * b1 + (f2 + m2) * b2


class TestReciprocalBasis:
    def test_square(self):
        b1, b2 = reciprocal_basis(SQUARE)
        assert b1 == pytest.approx([2 * math.pi, 0.0], abs=1e-14)
        assert b2 == pytest.approx([0.0, 2 * math.pi], abs=1e-14)

    def test_hexagonal(self):
        b1, b2 = reciprocal_basis(TRIANGULAR)
        assert np.hypot(*b1) == pytest.approx(4 * math.pi / math.sqrt(3), rel=1e-14)
        assert np.hypot(*b2) == pytest.approx(4 * math.pi / math.sqrt(3), rel=1e-14)

    @given(
        ax=st.floats(0.5, 2.0),
        ay=st.floats(-0.5, 0.5),
        bx=st.floats(-0.5, 0.5),
        by=st.floats(0.5, 2.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_duality(self, ax, ay, bx, by):
        assume(abs(ax * by - ay * bx) > 0.1)
        lat = Lattice2D((ax, ay), (bx, by))
        b1, b2 = reciprocal_basis(lat)
        for b, pairs in ((b1, (2 * math.pi, 0.0)), (b2, (0.0, 2 * math.pi))):
            assert np.dot(b, lat.a1) == pytest.approx(pairs[0], abs=1e-13)
            assert np.dot(b, lat.a2) == pytest.approx(pairs[1], abs=1e-13)

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidArgumentError):
            reciprocal_basis(Lattice2D((1.0, 0.0), (2.0, 0.0)))

    @pytest.mark.parametrize("a1", [(math.nan, 0.0), (1.0, math.inf)])
    def test_non_finite_rejected(self, a1):
        with pytest.raises(InvalidArgumentError, match="non-finite lattice vector"):
            Lattice2D(a1, (0.0, 1.0))


class TestReducedBasis:
    """A lattice stores the Lagrange-Gauss reduced basis of the vectors given."""

    @staticmethod
    def _check_reduced(lat, basis):
        (x1, y1), (x2, y2) = basis
        # reduced to the rounding of a1 . a2
        norms = (np.dot(lat.a1, lat.a1), np.dot(lat.a2, lat.a2))
        assert abs(np.dot(lat.a1, lat.a2)) <= 0.5 * min(norms) + 1e-12 * math.sqrt(norms[0] * norms[1])
        assert lat.cross == pytest.approx(x1 * y2 - y1 * x2, rel=1e-12)
        # the same lattice: the stored vectors have integer coordinates in the
        # given ones, and with the same cross product the converse holds too
        m = np.linalg.solve(np.column_stack(basis), np.column_stack([lat.a1, lat.a2]))
        assert np.abs(m - np.rint(m)).max() < 1e-9

    def test_reduced_basis_kept_bit_for_bit(self):
        bases = [((1.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))]
        bases += [(sc.preset(name).a1, sc.preset(name).a2) for name in sorted(sc.PRESET_TEXT)]
        for a1, a2 in bases:
            lat = Lattice2D(a1, a2)
            assert (lat.a1, lat.a2) == (a1, a2)

    @pytest.mark.parametrize("basis", _SKEWED_BASES)
    def test_skewed_basis_reduced(self, basis):
        lat = Lattice2D(*basis)
        assert (lat.a1, lat.a2) != basis
        self._check_reduced(lat, basis)

    @pytest.mark.parametrize(
        "basis",
        [
            ((0.5, 1.25), (1.25, 0.5)),
            ((2.0, 0.25), (0.25, 1.25)),
            # the long vector projects onto the short one by a half-integer
            # to rounding, at an aspect ratio of 1.8e4: without the stop on a
            # step that shortens nothing, the loop would add and subtract the
            # short vector forever
            ((14525.455720597967, -11121.811888150638), (-0.6076979571890453, -0.7941682396244899)),
        ],
    )
    def test_ties_terminate(self, basis):
        self._check_reduced(Lattice2D(*basis), basis)

    @pytest.mark.parametrize(
        "a1, a2", [([1, 0], [0, 1]), (np.array([1.0, 0.0]), np.array([0.0, 1.0]))], ids=["list", "array"]
    )
    def test_lists_and_arrays_accepted(self, a1, a2):
        # stored as float tuples, so the lattice hashes as the cached boxes need
        lat = Lattice2D(a1, a2)
        assert lat == SQUARE and hash(lat) == hash(SQUARE)
        assert beam_set(lat, 1.0, (0.3, 0.1), VACUUM, 10.0).g_ints == beam_set(
            SQUARE, 1.0, (0.3, 0.1), VACUUM, 10.0
        ).g_ints


class TestNearestDistance:
    @pytest.mark.parametrize("lat", [SQUARE, TRIANGULAR, *_SKEWED])
    def test_matches_brute_force(self, lat):
        # every nonzero n1 a1 + n2 a2 with |n1|, |n2| <= 64 in the basis the
        # lattice stores; the shortest has |n_i| <= min(|a1|, |a2|) |b_i| / 2 pi
        r = np.arange(-64, 65)
        n1, n2 = (n.ravel() for n in np.meshgrid(r, r, indexing="ij"))
        v = n1[:, None] * np.array(lat.a1) + n2[:, None] * np.array(lat.a2)
        length = np.linalg.norm(v, axis=1)
        expected = length[(n1 != 0) | (n2 != 0)].min()
        assert lat.nearest_distance == pytest.approx(expected, rel=1e-14)


class TestFoldToZone:
    def test_interior_point_unchanged(self):
        folded, shift = fold_to_zone(SQUARE, (0.3, -0.2))
        assert folded == pytest.approx([0.3, -0.2], abs=1e-14)
        assert shift == (0, 0)

    @given(n1=st.integers(-3, 3), n2=st.integers(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_reciprocal_shift_removed(self, n1, n2):
        base = np.array([0.4, 0.1])
        b1, b2 = reciprocal_basis(SQUARE)
        folded, shift = fold_to_zone(SQUARE, base + n1 * b1 + n2 * b2)
        assert folded == pytest.approx(base, abs=1e-10)
        # the recorded shift restores the original: kpar = folded - shift * b
        assert shift == (-n1, -n2)

    @given(
        lat=st.one_of(_LATTICES, st.sampled_from(_SKEWED)), f1=_FRACTIONS, f2=_FRACTIONS,
        m1=st.integers(-3, 3), m2=st.integers(-3, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_window(self, lat, f1, f2, m1, m2):
        # the least key (round(|v|^2, 12), n1, n2) over the window around the
        # rounded coordinates of kpar, found by a 2 x 2 solve.  The folded
        # point is no longer than the rounded one, so it moves that one by
        # some |g| <= |b1| + |b2|: |n_i| <= (|b1| + |b2|) |a_i| / 2 pi in the
        # basis the lattice stores.  A 7 x 7 window for the square lattice.
        kpar = _kpar(lat, f1, f2, m1, m2)
        b1, b2 = reciprocal_basis(lat)
        n0 = -np.round(np.linalg.solve(np.column_stack([b1, b2]), kpar)).astype(int)
        reach = (np.hypot(*b1) + np.hypot(*b2)) / (2 * math.pi)
        w1, w2 = (math.ceil(reach * math.hypot(*a)) + 1 for a in (lat.a1, lat.a2))
        box = np.meshgrid(np.arange(-w1, w1 + 1) + n0[0], np.arange(-w2, w2 + 1) + n0[1], indexing="ij")
        n1, n2 = (n.ravel() for n in box)
        v = kpar + n1[:, None] * b1 + n2[:, None] * b2
        kt2 = np.einsum("ij,ij->i", v, v)
        near = np.flatnonzero(kt2 <= kt2.min() * (1 + 1e-6) + 1e-9)
        window = [(round(float(v[i] @ v[i]), 12), int(n1[i]), int(n2[i]), v[i]) for i in near]
        best = min(window, key=lambda e: e[:3])
        folded, shift = fold_to_zone(lat, kpar)
        assert shift == best[1:3]
        assert np.array_equal(folded, best[3])


class TestBeamSet:
    def test_long_wavelength_single_propagating(self):
        beams = beam_set(SQUARE, 0.5, (0.0, 0.0), Material(1.0), 2 * math.pi * 1.1)
        assert beams.g_ints[0] == (0, 0)
        assert int(np.sum(beams.propagating)) == 1

    def test_propagating_count_vs_enumeration(self):
        omega = 7.0
        beams = beam_set(SQUARE, omega, (0.0, 0.0), Material(1.0), omega + 2 * math.pi)
        count = 0
        for n1 in range(-5, 6):
            for n2 in range(-5, 6):
                if 2 * math.pi * math.hypot(n1, n2) < omega:
                    count += 1
        assert int(np.sum(beams.propagating)) == count

    def test_deterministic_ordering(self):
        kpar = (math.pi, 0.0)  # zone boundary
        a = beam_set(SQUARE, 7.0, kpar, Material(1.0), 7.0 + 2 * math.pi)
        b = beam_set(SQUARE, 7.0, kpar, Material(1.0), 7.0 + 2 * math.pi)
        assert a.g_ints == b.g_ints
        dists = [np.hypot(*(np.asarray(a.kpar) + 2 * math.pi * np.array(g))) for g in a.g_ints]
        assert all(d2 >= d1 - 1e-12 for d1, d2 in zip(dists, dists[1:]))

    @pytest.mark.parametrize(
        "lat, kpar",
        [(SQUARE, (math.pi, 0.0)), (SQUARE, (7.1, -3.3)), (TRIANGULAR, (0.4, 2.9))],
    )
    def test_matches_loop_reference(self, lat, kpar):
        ambient = Material(12.0 + 0.1j)
        beams = beam_set(lat, 1.6, kpar, ambient, 18.0)
        g_ints, kt, kz = _beam_set_loop(lat, 1.6, kpar, ambient, 18.0)
        assert beams.g_ints == g_ints
        assert np.array_equal(beams.kt, kt)
        assert np.array_equal(beams.kz, kz)

    def test_skewed_cell_keeps_every_beam(self):
        # named by a basis at a cell angle of 11 degrees, a box of
        # 2 (cutoff + |kf|) / min |b| in it misses the beams +-(5 b1 + 6 b2)
        a1, a2 = (0.5, 0.5), (0.5, 0.75)
        lat = Lattice2D(a1, a2)
        beams = beam_set(lat, 1.0, (0.0, 0.0), VACUUM, 50.0)
        g_ints, kt, kz = _beam_set_loop(lat, 1.0, (0.0, 0.0), VACUUM, 50.0, nbox=40)
        c = a1[0] * a2[1] - a1[1] * a2[0]
        b1 = 2 * math.pi / c * np.array([a2[1], -a2[0]])
        b2 = 2 * math.pi / c * np.array([-a1[1], a1[0]])
        for g in (5 * b1 + 6 * b2, -(5 * b1 + 6 * b2)):
            assert np.abs(beams.kt - (np.array(beams.kpar) + g)).max(axis=1).min() < 1e-9
        assert beams.g_ints == g_ints
        assert np.array_equal(beams.kt, kt)
        assert np.array_equal(beams.kz, kz)

    @given(
        lat=_LATTICES, f1=_FRACTIONS, f2=_FRACTIONS,
        m1=st.integers(-2, 2), m2=st.integers(-2, 2),
        shell=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        eps=st.sampled_from([1.0, 2.25, 12.0, 12.0 + 0.1j, 12.0 + 7.0j]),
        fill=st.floats(0.05, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_reference_on_shells(self, lat, f1, f2, m1, m2, shell, eps, fill):
        # the cutoff is the radius of the shell through kpar + g(shell), so
        # beams sit on it; omega puts the light cone at a fraction of it.  On
        # a zone edge that radius may round below |kf|, the specular beam's.
        kpar = _kpar(lat, f1, f2, m1, m2)
        b1, b2 = reciprocal_basis(lat)
        kf, _ = fold_to_zone(lat, kpar)
        cutoff = max(float(np.hypot(*(kf + shell[0] * b1 + shell[1] * b2))), math.hypot(*kf))
        assume(cutoff > 0.5)
        ambient = Material(eps)
        omega = fill * cutoff / math.sqrt(abs(eps))
        beams = beam_set(lat, omega, kpar, ambient, cutoff)
        g_ints, kt, kz = _beam_set_loop(lat, omega, kpar, ambient, cutoff)
        assert np.array_equal(beams.g_ints, g_ints)
        assert np.array_equal(beams.kt, kt)
        assert np.array_equal(beams.kz, kz)

    @pytest.mark.parametrize("eps", [12.0, 12.0 + 0.1j, 12.0 + 7.0j])
    def test_kz_is_the_ambient_root(self, eps):
        # one kz formula: a gap and an interface in the ambient see the same kz
        beams = beam_set(TRIANGULAR, 1.7, (0.4, 0.1), Material(eps), 20.0)
        assert np.array_equal(beams.kz, beams.roots(beams.ambient)[0])

    def test_cutoff_too_small_rejected(self):
        with pytest.raises(InvalidArgumentError):
            beam_set(SQUARE, 3.0, (0.0, 0.0), Material(4.0), 3.0)

    @pytest.mark.parametrize("cutoff", [math.nan, math.inf])
    def test_non_finite_cutoff_rejected(self, cutoff):
        with pytest.raises(InvalidArgumentError, match="cutoff must be finite"):
            beam_set(SQUARE, 3.0, (0.0, 0.0), Material(4.0), cutoff)

    def test_non_finite_omega_rejected(self):
        # a NaN passes omega <= 0; it used to give beams whose kz were all NaN
        with pytest.raises(InvalidArgumentError, match="omega must be > 0, got nan"):
            beam_set(SQUARE, math.nan, (0.0, 0.0), Material(1.0), 10.0)
        with pytest.raises(InvalidArgumentError, match="omega must be > 0, got nan"):
            structure_constants(SQUARE, math.nan, (0.0, 0.0), Material(1.0), 2)

    @pytest.mark.parametrize("kpar", [(math.nan, 0.0), (0.0, math.inf)])
    def test_non_finite_kpar_rejected(self, kpar):
        with pytest.raises(InvalidArgumentError, match="kpar must be finite"):
            beam_set(SQUARE, 1.0, kpar, Material(1.0), 10.0)

    def test_cardinality_nondecreasing_in_cutoff(self):
        sizes = [
            len(beam_set(SQUARE, 1.0, (0.1, 0.2), Material(1.0), c).g_ints)
            for c in np.linspace(7.0, 30.0, 12)
        ]
        assert sizes == sorted(sizes)

    def test_evanescent_kz_decays(self):
        beams = beam_set(SQUARE, 0.5, (0.0, 0.0), Material(1.0), 15.0)
        assert np.all(beams.kz.imag >= 0.0)
        assert np.all(beams.kz[~beams.propagating].imag > 0.0)


class TestLatticeSums:
    # in-plane sums vanish identically for odd p + sigma; only even keys exist
    KEYS = [(p, s) for p in range(5) for s in range(-p, p + 1) if (p + s) % 2 == 0]

    def test_ewald_vs_direct_lossy(self):
        # host eps = 12 + 0.1i at omega = 1: Im k is small, so the direct
        # oracle needs a windowed radius well past 60 to resolve 1e-8
        k = complex(np.lib.scimath.sqrt(12.0 + 0.1j))
        kpar = (0.11, 0.23)
        ew = lattice_sums_ewald(SQUARE, k, kpar, 4)
        dr = direct_lattice_sums(k, kpar, self.KEYS, rmax=260.0)
        scale = max(abs(v) for v in ew.values())
        for key in self.KEYS:
            assert abs(ew[key] - dr[key]) < 1e-8 * scale

    def test_ewald_vs_independent_oracle(self):
        k = 1.2 + 0.15j
        kpar = (0.3, -0.1)
        ew = lattice_sums_ewald(SQUARE, k, kpar, 4)
        # oracle rescales: our sums carry Y_lm evaluated in the plane
        orc = direct_lattice_sums(k, kpar, self.KEYS, rmax=180.0)
        scale = max(abs(v) for v in ew.values())
        for key in self.KEYS:
            assert abs(ew[key] - orc[key]) < 1e-10 * scale

    def test_eta_independence_lossless(self):
        k, kpar = 0.9, (0.21, 0.13)
        eta0 = math.sqrt(math.pi)
        a = lattice_sums_ewald(SQUARE, k, kpar, 4, eta=eta0 / math.sqrt(2.0))
        b = lattice_sums_ewald(SQUARE, k, kpar, 4, eta=eta0 * math.sqrt(2.0))
        scale = max(abs(v) for v in a.values())
        for key in a:
            assert abs(a[key] - b[key]) < 1e-8 * scale

    def test_wood_anomaly_names_grazing_order(self):
        # k = 2 pi at normal incidence: the four orders with |g| = 2 pi graze the plane
        with pytest.raises(ConvergenceError, match="Wood anomaly") as exc:
            lattice_sums_ewald(SQUARE, 2 * math.pi, (0.0, 0.0), 4)
        assert exc.value.diagnostics["g"] in {(-1, 0), (1, 0), (0, -1), (0, 1)}

    def test_named_basis_does_not_matter(self):
        # the sums depend on the lattice, not on the basis naming it; square
        # shells of the unreduced first basis would stop early, 1.00 apart
        k, kpar = 2.0, (0.3, 0.1)
        a = lattice_sums_ewald(Lattice2D((1.0, 0.0), (3.01, 0.05)), k, kpar, 4)
        b = lattice_sums_ewald(Lattice2D((0.96, -0.2), (0.01, 0.05)), k, kpar, 4)
        assert set(a) == set(b)
        scale = max(abs(v) for v in b.values())
        assert max(abs(a[key] - b[key]) for key in b) <= 1e-12 * scale

    def test_triangular_lossy_vs_direct(self):
        k = 1.4 + 0.5j
        ew = lattice_sums_ewald(TRIANGULAR, k, (0.17, 0.05), 3)
        dr = direct_lattice_sums(
            k, (0.17, 0.05), lattice_sum_keys(3), rmax=60.0, windowed=False,
            a1=TRIANGULAR.a1, a2=TRIANGULAR.a2,
        )
        scale = max(abs(v) for v in ew.values())
        for key, v in ew.items():
            assert abs(v - dr[key]) < 1e-8 * scale


class TestEwaldMirror:
    """On the mirror (kpar along x) only sigma >= 0 is summed, over y >= 0."""

    PMAX = 6

    def _direct(self, lat, k, kpar):
        return direct_lattice_sums(
            k, kpar, lattice_sum_keys(self.PMAX), rmax=60.0, windowed=False, a1=lat.a1, a2=lat.a2
        )

    @pytest.mark.parametrize("lat", [SQUARE, TRIANGULAR], ids=["square", "triangular"])
    @pytest.mark.parametrize("kpar", [(0.37, 0.0), (0.37, 0.21)], ids=["on-axis", "off-axis"])
    def test_vs_direct_all_keys(self, lat, kpar):
        k = 1.4 + 0.5j
        ew = lattice_sums_ewald(lat, k, kpar, self.PMAX)
        dr = self._direct(lat, k, kpar)
        assert set(ew) == set(dr)
        scale = max(abs(v) for v in dr.values())
        for key, v in dr.items():
            assert abs(ew[key] - v) < 1e-10 * scale, key
        # S_{p,-sigma} = (-1)^sigma S_{p,sigma} holds on the mirror only,
        # exactly where the sigma < 0 sums were filled in from it
        mirrored = all(ew[p, -s] == (-1) ** s * ew[p, s] for p, s in ew if s > 0)
        assert mirrored == (kpar[1] == 0.0)


class TestStructureConstants:
    def test_ewald_vs_direct_method_lossy(self):
        host = Material(12.0 + 2.0j)
        a = structure_constants(SQUARE, 1.0, (0.11, 0.23), host, 3)
        sums = direct_lattice_sums(
            host.wavenumber(1.0), (0.11, 0.23), lattice_sum_keys(8), rmax=60.0, windowed=False
        )
        b = translation_matrix(3, sums)
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - b)) < 1e-8 * scale

    def test_c4_selection_rule_at_gamma(self):
        sc = structure_constants(SQUARE, 0.8, (0.0, 0.0), Material(1.0), 4)
        n = nlm(4)
        lms = lm_list(4)
        scale = np.max(np.abs(sc))
        for s in range(2):
            for t in range(2):
                for i, (_, m) in enumerate(lms):
                    for j, (_, mp) in enumerate(lms):
                        if (m - mp) % 4 != 0:
                            assert abs(sc[s * n + i, t * n + j]) < 1e-10 * scale

    def test_bloch_periodicity(self):
        host = Material(2.0 + 0.3j)
        b1, _ = reciprocal_basis(SQUARE)
        a = structure_constants(SQUARE, 0.9, (0.13, 0.07), host, 3)
        b = structure_constants(SQUARE, 0.9, np.array([0.13, 0.07]) + b1, host, 3)
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - b)) < 1e-10 * scale

    def test_symmetry_invariant(self):
        # Omega_{lm,l'm'}(kpar) = (-1)^{m+m'} Omega_{l'-m',l-m}(-kpar), per block
        lmax = 3
        host = Material(2.0 + 0.3j)
        A = structure_constants(SQUARE, 0.9, (0.13, 0.07), host, lmax)
        B = structure_constants(SQUARE, 0.9, (-0.13, -0.07), host, lmax)
        n = nlm(lmax)
        lms = lm_list(lmax)
        idx = {lm: i for i, lm in enumerate(lms)}
        mapped = np.zeros_like(A)
        for s in range(2):
            for t in range(2):
                for i, (l, m) in enumerate(lms):
                    for j, (lp, mp) in enumerate(lms):
                        mapped[s * n + i, t * n + j] = (-1) ** (m + mp) * B[
                            s * n + idx[(lp, -mp)], t * n + idx[(l, -m)]
                        ]
        assert np.max(np.abs(mapped - A)) < 1e-10 * np.max(np.abs(A))

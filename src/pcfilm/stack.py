"""Finite-crystal scattering: compose layer S-matrices and extract R, T, A.

A stack is an ordered list of elements traversed left (incident side) to
right (exit side).  The ambient medium starts at ``incident`` and is changed
only by Interface elements.  ``walk_stack`` alone follows it: it checks
every element against the ambient it sits in, records both, and ends with
an interface onto ``exit`` when the last ambient differs.  Solves compose it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import layer as ly
from .errors import InvalidArgumentError, PcfilmError
from .lattice import SQUARE, Lattice2D, beam_set
from .layer import LayerS, Plate, PlaneOfSpheres, identity_smatrix, star_product
from .mie import Material, VACUUM
from .specfun import LMAX_DEFAULT


@dataclass(frozen=True)
class Interface:
    """Planar boundary switching the ambient from left to right material."""

    left: Material
    right: Material


@dataclass(frozen=True)
class Gap:
    """Free propagation through the current ambient medium."""

    distance: float

    def __post_init__(self):
        if not math.isfinite(self.distance):
            raise InvalidArgumentError(f"distance must be finite, got {self.distance}")
        if self.distance < 0:
            raise InvalidArgumentError(f"distance must be >= 0, got {self.distance}")


@dataclass(frozen=True)
class Repeat:
    """A sub-stack repeated count times (composed by doubling)."""

    elements: tuple
    count: int

    def __post_init__(self):
        if not isinstance(self.count, numbers.Integral):
            raise InvalidArgumentError(f"count must be an integer, got {self.count!r}")
        if self.count < 0:
            raise InvalidArgumentError(f"count must be >= 0, got {self.count}")


@dataclass(frozen=True)
class StackDescription:
    """Ordered layer elements with incident ambient and exit termination.

    The stack is checked once, when it is built: the incident ambient must be
    lossless, and ``walk_stack`` checks every element against its ambient.
    Every solve reads the kept ``walk`` instead of walking again.

    ``opaque_exit`` marks the exit medium as an absorbing termination whose
    transmitted flux is not collected (T = 0); it defaults to True whenever
    the exit material is lossy.  A lossy exit cannot be transparent: no beam
    propagates in it, so it carries no transmitted flux to collect.
    """

    elements: tuple
    incident: Material = VACUUM
    exit: Material = VACUUM
    opaque_exit: bool | None = None
    walk: StackWalk = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.incident.lossless:
            raise InvalidArgumentError("incident ambient must be lossless")
        if self.opaque_exit is False and not self.exit.lossless:
            raise InvalidArgumentError(
                f"a lossy exit medium (eps={self.exit.eps}) must be opaque: "
                "no beam propagates in it to carry transmitted flux"
            )
        object.__setattr__(self, "walk", walk_stack(self.elements, self.incident, self.exit))

    @property
    def exit_is_opaque(self) -> bool:
        if self.opaque_exit is not None:
            return self.opaque_exit
        return not self.exit.lossless


@dataclass(frozen=True)
class NumericalControls:
    """Truncation and solver knobs, threaded explicitly (never global)."""

    lmax: int = LMAX_DEFAULT
    cutoff: float | None = None

    def resolved_cutoff(self, omega: float, eps_max: float, kpar_norm: float) -> float:
        if self.cutoff is not None:
            return self.cutoff
        return max(omega * math.sqrt(eps_max), kpar_norm) + 2.0 * math.pi


@dataclass(frozen=True)
class SpectrumPoint:
    """R, T, A (= emissivity E) at one (omega, theta, phi, polarization)."""

    omega: float
    theta: float
    phi: float
    pol: str
    R: float
    T: float
    A: float

    @property
    def E(self) -> float:
        return self.A


def repeat_slice(s: LayerS, n: int) -> LayerS:
    """n-fold star-power of a self-composable slice, by binary doubling."""
    if n < 0:
        raise InvalidArgumentError(f"repeat count must be >= 0, got {n}")
    if s.beams.ambient.eps != s.mat_right.eps:
        raise InvalidArgumentError("repeat_slice requires the same ambient on both sides")
    if n == 0:
        return identity_smatrix(s.beams)
    acc = None
    base = s
    while n > 0:
        if n & 1:
            acc = base if acc is None else star_product(acc, base)
        n >>= 1
        if n:
            base = star_product(base, base)
    return acc


@dataclass(frozen=True)
class Step:
    """One element of a walk, the ambient it sits in and, for a Repeat, its walk."""

    element: object
    ambient: Material
    walk: StackWalk | None = None


@dataclass(frozen=True)
class StackWalk:
    """What a validated element sequence leaves behind.

    ``steps`` holds a Step per element, then one for the interface onto the
    exit medium if the walk was given one other than its last ambient;
    ``exit`` is the ambient after the last step; ``media`` the eps that fix
    the beam cutoff (the starting ambient, the right medium of every
    interface, inside a Repeat or not, and every plate material); ``plane``
    the first sphere plane in depth-first order, or None.  Every sphere
    plane shares its lattice.
    """

    steps: tuple
    exit: Material
    media: frozenset
    plane: PlaneOfSpheres | None


def _first_plane(plane, other):
    """The walk's first sphere plane, once ``other`` is checked against its lattice."""
    if plane is None:
        return other
    if other is not None and other.lattice != plane.lattice:
        raise InvalidArgumentError(
            f"sphere plane lattice {other.lattice} != first plane lattice {plane.lattice}"
        )
    return plane


def walk_stack(elements, ambient: Material, exit: Material | None = None) -> StackWalk:
    """Check every element against the ambient it sits in, and record it.

    Given ``exit``, the walk ends in that medium.  A StackDescription runs
    it once, when built; ``slice_smatrix`` per call.
    """
    steps = []
    media = {complex(ambient.eps)}
    plane = None
    for el in elements:
        inside, sub = ambient, None
        if isinstance(el, Interface):
            if el.left.eps != ambient.eps:
                raise InvalidArgumentError(
                    f"interface left medium eps={el.left.eps} != ambient eps={ambient.eps}"
                )
            ambient = el.right
            media.add(complex(ambient.eps))
        elif isinstance(el, Repeat):
            sub = walk_stack(el.elements, ambient)
            if sub.exit.eps != ambient.eps:
                raise InvalidArgumentError("repeated sub-stack must preserve the ambient medium")
            media |= sub.media
            plane = _first_plane(plane, sub.plane)
        elif isinstance(el, PlaneOfSpheres):
            if el.scatterer.host.eps != ambient.eps:
                raise InvalidArgumentError(
                    f"sphere plane host eps={el.scatterer.host.eps} != ambient eps={ambient.eps}"
                )
            plane = _first_plane(plane, el)
        elif isinstance(el, Plate):
            media.add(complex(el.material.eps))
        elif not isinstance(el, Gap):
            raise InvalidArgumentError(f"unknown stack element {el!r}")
        steps.append(Step(el, inside, sub))
    if exit is not None and exit.eps != ambient.eps:
        steps.append(Step(Interface(ambient, exit), ambient))
        media.add(complex(exit.eps))
        ambient = exit
    return StackWalk(tuple(steps), ambient, frozenset(media), plane)


class _LayerBuilder:
    """S-matrices of a walk's steps, their beam cutoff covering the walk's media."""

    def __init__(self, walk: StackWalk, omega: float, kpar, controls: NumericalControls, lat=None):
        if lat is None:
            lat = walk.plane.lattice if walk.plane is not None else SQUARE
        self.lat = lat
        self.omega = omega
        self.kpar = tuple(np.asarray(kpar, dtype=float))
        self.lmax = controls.lmax
        eps_max = max(abs(e) for e in walk.media)
        self.cutoff = controls.resolved_cutoff(omega, eps_max, float(np.hypot(*self.kpar)))
        self._beams: dict[complex, object] = {}
        self._planes: dict = {}

    def beams_in(self, mat: Material):
        key = complex(mat.eps)
        if key not in self._beams:
            self._beams[key] = beam_set(self.lat, self.omega, self.kpar, mat, self.cutoff)
        return self._beams[key]

    def _sphere_plane(self, el: PlaneOfSpheres) -> LayerS:
        # the in-plane offset enters only by displaced_smatrix, so one
        # centred S-matrix per scatterer serves all offsets
        key = (el.lattice, el.scatterer)
        if key not in self._planes:
            centred = PlaneOfSpheres(el.lattice, el.scatterer)
            beams = self.beams_in(el.scatterer.host)
            self._planes[key] = ly.sphere_plane_smatrix(centred, beams, self.lmax)
        return ly.displaced_smatrix(self._planes[key], el.offset)

    def build(self, step: Step) -> LayerS:
        el = step.element
        if isinstance(el, Interface):
            return ly.interface_smatrix(el.right, self.beams_in(step.ambient))
        if isinstance(el, Gap):
            return ly.gap_smatrix(el.distance, self.beams_in(step.ambient))
        if isinstance(el, Plate):
            return ly.plate_smatrix(el, self.beams_in(step.ambient))
        if isinstance(el, PlaneOfSpheres):
            return self._sphere_plane(el)
        return repeat_slice(self.compose(step.walk), el.count)

    def compose(self, walk: StackWalk) -> LayerS:
        """Star product of a walk's steps, in order; a Repeat's by doubling."""
        total = None
        for step in walk.steps:
            s = self.build(step)
            total = s if total is None else star_product(total, s)
        return identity_smatrix(self.beams_in(walk.exit)) if total is None else total


def slice_smatrix(
    elements,
    ambient: Material,
    omega: float,
    kpar,
    controls: NumericalControls,
    lat: Lattice2D | None = None,
) -> LayerS:
    """S-matrix of a bare element sequence inside a fixed ambient medium.

    Used for unit slices of a periodic stacking (band structure) where no
    entrance/exit interfaces are wanted.
    """
    walk = walk_stack(elements, ambient)
    return _LayerBuilder(walk, omega, kpar, controls, lat).compose(walk)


def stack_smatrix(
    desc: StackDescription, omega: float, kpar, controls: NumericalControls
) -> LayerS:
    """Total S-matrix of the stack: its walk ends with the exit interface."""
    return _LayerBuilder(desc.walk, omega, kpar, controls).compose(desc.walk)


def _extract_point(
    desc: StackDescription, total: LayerS, omega: float, theta: float, phi: float, pol: str
) -> SpectrumPoint:
    beams = total.beams
    # the incident beam is the diffraction order whose kt equals kpar
    target = (-beams.fold_shift[0], -beams.fold_shift[1])
    try:
        j0 = beams.g_ints.index(target)
    except ValueError as exc:
        raise PcfilmError("incident beam missing from beam set") from exc
    col = 2 * j0 + (0 if pol == "s" else 1)

    # in the mirror sectors, s lies in the odd and p in the even sector
    r_amp = total.column(1, col)
    t_amp = total.column(0, col)
    if not (np.all(np.isfinite(r_amp)) and np.all(np.isfinite(t_amp))):
        raise PcfilmError("non-finite amplitudes in stack solution")
    # the total's beams are its first layer's, in desc.incident
    mask_in = np.repeat(beams.propagating, 2)
    R = float(np.sum(np.abs(r_amp[mask_in]) ** 2))
    if desc.exit_is_opaque:
        T = 0.0
    else:
        kz_out = beams.roots(desc.exit)[0]
        mask_out = np.repeat(kz_out.imag == 0.0, 2)
        T = float(np.sum(np.abs(t_amp[mask_out]) ** 2))
    A = 1.0 - R - T
    return SpectrumPoint(omega=omega, theta=theta, phi=phi, pol=pol, R=R, T=T, A=A)


def solve_stack_points(
    desc: StackDescription,
    omega: float,
    theta: float,
    phi: float,
    pols,
    controls: NumericalControls | None = None,
) -> tuple:
    """SpectrumPoints for several polarizations sharing one stack S-matrix."""
    if controls is None:
        controls = NumericalControls()
    if not omega > 0:
        raise InvalidArgumentError(f"omega must be > 0, got {omega}")
    if not 0 <= theta < math.pi / 2:
        raise InvalidArgumentError(f"theta must be in [0, pi/2), got {theta}")
    for pol in pols:
        if pol not in ("s", "p"):
            raise InvalidArgumentError(f"pol must be 's' or 'p', got {pol!r}")
    n_inc = desc.incident.n.real
    kpar = omega * n_inc * math.sin(theta) * np.array([math.cos(phi), math.sin(phi)])
    total = stack_smatrix(desc, omega, kpar, controls)
    return tuple(_extract_point(desc, total, omega, theta, phi, pol) for pol in pols)


def solve_stack(
    desc: StackDescription,
    omega: float,
    theta: float,
    phi: float,
    pol: str,
    controls: NumericalControls | None = None,
) -> SpectrumPoint:
    """R, T, A for a unit-flux plane wave incident from the left ambient."""
    return solve_stack_points(desc, omega, theta, phi, (pol,), controls)[0]

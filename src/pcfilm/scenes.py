"""Scene configuration: sectioned key=value parsing, presets, serialization.

Config format (UTF-8, ``#`` comments)::

    [materials]
    host = 12+0.1j            # any name = complex permittivity

    [lattice]
    a1 = 1 0
    a2 = 0 1

    [stack]
    incident = vacuum         # material name or "vacuum"
    exit = substrate
    opaque = auto             # auto | true | false
    pre1  = interface vacuum host
    unit1 = gap 0.1767766952966369
    unit2 = spheres void 0.30618621 0 0
    ...
    periods = 4               # repeats the unit* block
    post1 = ...

    [sweep]
    omega = 1.8 2.8 150       # min max count, display units; min, max > 0
    theta = 0 60 13           # degrees, min and max in [0, 90)
    phi = 0                   # degrees
    units = angular           # angular | ordinary ("c/a" with or without 2pi)
    frequency_unit = 1.4142135623730951   # display unit length / internal unit

    [numerics]
    lmax = 7
    cutoff = auto             # auto or absolute wavenumber

Element forms: ``interface <matL> <matR>``, ``gap <d>``, ``plate <mat> <d>``,
``spheres <inner-mat> <radius> [offx offy]`` (host = current ambient).
All lengths are in internal units (the 2D lattice constant); display
frequencies are internal * frequency_unit (angular) or that / 2pi (ordinary).
Loading a scene rejects a sweep outside these ranges or with a count below 1,
a non-finite phi or omega bound, and a frequency_unit or numeric cutoff that
is not finite and > 0.  It builds the stack once, which checks every element
against its ambient.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .lattice import Lattice2D
from .layer import Plate, PlaneOfSpheres
from .mie import Material, SphereScatterer, VACUUM
from .specfun import LMAX_CAP, LMAX_DEFAULT
from .stack import Gap, Interface, NumericalControls, Repeat, StackDescription

SECTIONS = ("materials", "lattice", "stack", "sweep", "numerics")
ELEMENT_KINDS = ("interface", "gap", "plate", "spheres")


@dataclass(frozen=True)
class Scene:
    """Fully validated scene: primitive fields only, so equality is exact."""

    materials: tuple  # ((name, eps), ...)
    a1: tuple
    a2: tuple
    incident: str
    exit: str
    opaque: str  # "auto" | "true" | "false"
    pre: tuple   # tuples of element tokens
    unit: tuple
    post: tuple
    periods: int
    omega_sweep: tuple  # (min, max, count) in display units
    theta_sweep: tuple  # (min, max, count) in degrees
    phi_deg: float
    units: str
    frequency_unit: float
    lmax: int
    cutoff: float | str  # "auto" or value

    def __post_init__(self):
        # checked here, so that a config file and a replaced field alike fail at load
        issues = []
        if not 1 <= self.lmax <= LMAX_CAP:
            issues.append(f"[numerics] lmax must be in 1..{LMAX_CAP}, got {self.lmax}")
        if self.cutoff != "auto" and not 0 < self.cutoff < math.inf:
            issues.append(f"[numerics] cutoff must be auto or finite and > 0, got {self.cutoff}")
        lo, hi, n = self.omega_sweep
        if not (math.isfinite(lo) and math.isfinite(hi)):
            issues.append(f"[sweep] omega = {lo} {hi} {n}: need finite min, max")
        elif not (lo > 0 and hi > 0 and n >= 1):
            issues.append(f"[sweep] omega = {lo} {hi} {n}: need min, max > 0, count >= 1")
        lo, hi, n = self.theta_sweep
        if not (0 <= lo < 90 and 0 <= hi < 90 and n >= 1):
            issues.append(f"[sweep] theta = {lo} {hi} {n}: need min, max in [0, 90), count >= 1")
        if not math.isfinite(self.phi_deg):
            issues.append(f"[sweep] phi must be finite, got {self.phi_deg}")
        if not 0 < self.frequency_unit < math.inf:
            issues.append(f"[sweep] frequency_unit must be finite and > 0, got {self.frequency_unit}")
        if issues:
            raise ConfigError([(None, msg) for msg in issues])

    def material(self, name: str) -> Material:
        if name == "vacuum":
            return VACUUM
        for n, eps in self.materials:
            if n == name:
                return Material(eps)
        raise ConfigError([(None, f"unknown material {name!r}")])

    def lattice(self) -> Lattice2D:
        return Lattice2D(self.a1, self.a2)

    def _build_elements(self, specs, ambient: Material):
        out = []
        lat = self.lattice()
        for spec in specs:
            kind = spec[0]
            if kind == "interface":
                el = Interface(self.material(spec[1]), self.material(spec[2]))
                ambient = el.right
            elif kind == "gap":
                el = Gap(float(spec[1]))
            elif kind == "plate":
                el = Plate(float(spec[2]), self.material(spec[1]))
            elif kind == "spheres":
                off = (float(spec[3]), float(spec[4])) if len(spec) > 3 else (0.0, 0.0)
                # in the config's a1, a2: the lattice stores its reduced basis
                offv = tuple(off[0] * np.array(self.a1) + off[1] * np.array(self.a2))
                el = PlaneOfSpheres(
                    lat, SphereScatterer(float(spec[2]), self.material(spec[1]), ambient), offv
                )
            else:
                raise ConfigError([(None, f"unknown element kind {kind!r}")])
            out.append(el)
        return tuple(out), ambient

    def build_stack(self) -> StackDescription:
        incident = self.material(self.incident)
        exit_m = self.material(self.exit)
        pre, amb = self._build_elements(self.pre, incident)
        unit, amb2 = self._build_elements(self.unit, amb)
        post, _ = self._build_elements(self.post, amb2)
        elements = pre
        if unit:
            elements = elements + (Repeat(unit, self.periods),)
        elements = elements + post
        opaque = None if self.opaque == "auto" else (self.opaque == "true")
        return StackDescription(elements, incident=incident, exit=exit_m, opaque_exit=opaque)

    def unit_slice(self):
        """(elements, ambient, period) of the repeated part, read from the stack's walk."""
        walk = self.build_stack().walk
        rest = walk.steps[len(self.pre):]  # the unit's Repeat first, if there is a unit
        amb = rest[0].ambient if rest else walk.exit
        unit = rest[0].element.elements if self.unit else ()
        period = sum(
            el.distance if isinstance(el, Gap) else (el.thickness if isinstance(el, Plate) else 0.0)
            for el in unit
        )
        return unit, amb, period

    def controls(self) -> NumericalControls:
        cutoff = None if self.cutoff == "auto" else float(self.cutoff)
        return NumericalControls(lmax=self.lmax, cutoff=cutoff)

    def omega_display_grid(self) -> np.ndarray:
        lo, hi, n = self.omega_sweep
        return np.linspace(lo, hi, int(n))

    @property
    def display_scale(self) -> float:
        """Displayed frequency per internal frequency."""
        return self.frequency_unit if self.units == "angular" else self.frequency_unit / (2 * math.pi)

    def omega_internal(self, displayed) -> np.ndarray:
        return np.asarray(displayed, dtype=float) / self.display_scale

    def omega_displayed(self, internal) -> np.ndarray:
        return np.asarray(internal, dtype=float) * self.display_scale

    def theta_grid(self) -> np.ndarray:
        lo, hi, n = self.theta_sweep
        return np.radians(np.linspace(lo, hi, int(n)))


def _fmt(x: float) -> str:
    return repr(float(x))


def _pair(val: str) -> tuple:
    x, y = (float(t) for t in val.split())
    return x, y


def _sweep(val: str) -> tuple:
    lo, hi, n = val.split()
    return float(lo), float(hi), int(n)


_SHOW = {
    _pair: lambda v: f"{_fmt(v[0])} {_fmt(v[1])}",
    _sweep: lambda v: f"{_fmt(v[0])} {_fmt(v[1])} {int(v[2])}",
    float: _fmt,
}

# Every scalar setting: (section, key, Scene field, parser or tuple of the
# allowed words, default; None = required).  [materials] and the stack
# elements pre*/unit*/post* are lists and are handled apart.
SETTINGS = (
    ("lattice", "a1", "a1", _pair, (1.0, 0.0)),
    ("lattice", "a2", "a2", _pair, (0.0, 1.0)),
    ("stack", "incident", "incident", str, "vacuum"),
    ("stack", "exit", "exit", str, "vacuum"),
    ("stack", "opaque", "opaque", ("auto", "true", "false"), "auto"),
    ("stack", "periods", "periods", int, 1),
    ("sweep", "omega", "omega_sweep", _sweep, None),
    ("sweep", "theta", "theta_sweep", _sweep, (0.0, 0.0, 1)),
    ("sweep", "phi", "phi_deg", float, 0.0),
    ("sweep", "units", "units", ("angular", "ordinary"), "angular"),
    ("sweep", "frequency_unit", "frequency_unit", float, 1.0),
    ("numerics", "lmax", "lmax", int, LMAX_DEFAULT),
    ("numerics", "cutoff", "cutoff", lambda v: "auto" if v == "auto" else float(v), "auto"),
)
ELEMENT_BLOCKS = ("pre", "unit", "post")


def serialize_scene(scene: Scene) -> str:
    """Canonical config text; parsing it reproduces the Scene exactly."""
    lines = ["[materials]"] + [f"{name} = {complex(eps)}" for name, eps in scene.materials]
    for section in SECTIONS[1:]:
        lines += ["", f"[{section}]"]
        for sec, key, fld, parse, _ in SETTINGS:
            if sec == section:
                lines.append(f"{key} = {_SHOW.get(parse, str)(getattr(scene, fld))}")
        if section == "stack":
            for prefix in ELEMENT_BLOCKS:
                for i, spec in enumerate(getattr(scene, prefix), 1):
                    lines.append(f"{prefix}{i} = " + " ".join(str(t) for t in spec))
    return "\n".join(lines) + "\n"


def _parse_complex(tok: str) -> complex:
    return complex(tok.replace(" ", "").replace("i", "j"))


def parse_config(text: str) -> Scene:
    """Parse and fully validate a scene; raises ConfigError with line numbers."""
    issues = []
    section = None
    materials: list = []
    settings = {(sec, key): (fld, parse) for sec, key, fld, parse, _ in SETTINGS}
    values = {fld: default for _, _, fld, _, default in SETTINGS}
    elements = {prefix: {} for prefix in ELEMENT_BLOCKS}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SECTIONS:
                issues.append((ln, f"unknown section [{name}]"))
                section = None
            else:
                section = name
            continue
        if "=" not in line:
            issues.append((ln, f"expected 'key = value', got {line!r}"))
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if section is None:
            issues.append((ln, "key outside of any section"))
            continue
        try:
            if section == "materials":
                if key == "vacuum":
                    issues.append((ln, "material name 'vacuum' is reserved"))
                elif any(n == key for n, _ in materials):
                    issues.append((ln, f"duplicate material {key!r}"))
                else:
                    eps = _parse_complex(val)
                    if not cmath.isfinite(eps):
                        issues.append((ln, f"eps must be finite, got {eps}"))
                    elif eps.imag < 0:
                        issues.append((ln, f"Im(eps) must be >= 0, got {eps}"))
                    else:
                        materials.append((key, eps))
                continue
            if section == "stack" and (section, key) not in settings:
                for prefix in ELEMENT_BLOCKS:
                    if key.startswith(prefix) and key[len(prefix):].isdigit():
                        toks = val.split()
                        if not toks or toks[0] not in ELEMENT_KINDS:
                            issues.append((ln, f"unknown element {val!r}"))
                        elif toks[0] == "interface" and len(toks) != 3:
                            issues.append((ln, "interface takes 2 material names"))
                        elif toks[0] == "gap" and len(toks) != 2:
                            issues.append((ln, "gap takes 1 length"))
                        elif toks[0] == "plate" and len(toks) != 3:
                            issues.append((ln, "plate takes material and thickness"))
                        elif toks[0] == "spheres" and len(toks) not in (3, 5):
                            issues.append((ln, "spheres takes material, radius [, offx offy]"))
                        else:
                            elements[prefix][int(key[len(prefix):])] = tuple(toks)
                        break
                else:
                    issues.append((ln, f"unknown key {key!r} in [stack]"))
                continue
            if (section, key) not in settings:
                issues.append((ln, f"unknown key {key!r} in [{section}]"))
                continue
            fld, parse = settings[section, key]
            if not isinstance(parse, tuple):
                values[fld] = parse(val)
            elif val in parse:
                values[fld] = val
            else:
                issues.append((ln, f"{key} must be {'|'.join(parse)}, got {val!r}"))
        except (ValueError, TypeError) as exc:
            issues.append((ln, f"bad value for {key!r}: {exc}"))

    def ordered(d):
        if d and sorted(d) != list(range(1, len(d) + 1)):
            issues.append((None, "element keys must be numbered 1..n without holes"))
        return tuple(d[i] for i in sorted(d))

    blocks = {prefix: ordered(elements[prefix]) for prefix in ELEMENT_BLOCKS}
    if not any(blocks.values()):
        issues.append((None, "stack must contain at least one element"))
    for sec, key, fld, _, _ in SETTINGS:
        if values[fld] is None:
            issues.append((None, f"[{sec}] {key} is required"))
    if issues:
        raise ConfigError(issues)
    scene = Scene(materials=tuple(materials), **blocks, **values)
    try:
        scene.build_stack()  # materials resolve, every element fits its ambient
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError([(None, str(exc))]) from exc
    return scene


_DZ = math.sqrt(2.0) / 4.0  # diamond (001) plane spacing in 2D-lattice units
_R = 0.30618621
_FREQ_UNIT = math.sqrt(2.0)  # displayed c/a uses the cubic cell a_c = sqrt(2) a2D


def _opal_config(host: str, exit: str, periods: int, omega: str, extra_materials: str,
                 cutoff: float = 18.0) -> str:
    planes = [(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5)]
    lines = [
        "[materials]",
        f"host = {host}",
        "void = 1",
        extra_materials,
        "[lattice]",
        "a1 = 1 0",
        "a2 = 0 1",
        "[stack]",
        "incident = vacuum",
        f"exit = {exit}",
        "pre1 = interface vacuum host",
    ]
    i = 1
    for ox, oy in planes:
        lines.append(f"unit{i} = gap {_DZ / 2}")
        lines.append(f"unit{i + 1} = spheres void {_R} {ox} {oy}")
        lines.append(f"unit{i + 2} = gap {_DZ / 2}")
        i += 3
    lines += [
        f"periods = {periods}",
        "[sweep]",
        f"omega = {omega}",
        "theta = 0 60 13",
        f"frequency_unit = {_FREQ_UNIT}",
        "[numerics]",
        "lmax = 7",
        # Adjacent-plane spheres touch, so the interlayer plane-wave expansion
        # is only conditionally convergent; a fixed cutoff past the 2pi*sqrt(5)
        # shell sits on the stable plateau and keeps the beam set uniform
        # across the sweep (no mid-scan stepping artifacts).
        f"cutoff = {cutoff}",
    ]
    return "\n".join(l for l in lines if l) + "\n"


PRESET_TEXT = {
    # SIII inverted-opal film: diamond (001) air spheres in eps = 12 + i/10,
    # four periods on the absorptive backplane.
    "paper-fig2": _opal_config(
        host="12+0.1j", exit="substrate", periods=4, omega="1.6 3.0 150",
        extra_materials="substrate = 12+7j",
    ),
    # 1D comparison film: 16 periods of (2.6, 0.6) / (1.44, 0.81) on the backplane.
    "paper-fig3": "\n".join([
        "[materials]",
        "m1 = 2.6",
        "m2 = 1.44",
        "substrate = 12+7j",
        "[stack]",
        "incident = vacuum",
        "exit = substrate",
        "unit1 = plate m1 0.6",
        "unit2 = plate m2 0.81",
        "periods = 16",
        "[sweep]",
        "omega = 1.6 3.0 150",
        "theta = 0 60 13",
        f"frequency_unit = {_FREQ_UNIT}",
        "[numerics]",
        "lmax = 7",
    ]) + "\n",
    # lossless eps1 = 22 variant, no backplane: band structure + transmission.
    "paper-fig4": _opal_config(
        host="22", exit="vacuum", periods=8, omega="1.2 2.4 150",
        extra_materials="",
    ),
}


def preset(name: str) -> Scene:
    if name not in PRESET_TEXT:
        raise ConfigError([(None, f"unknown preset {name!r}; have {sorted(PRESET_TEXT)}")])
    return parse_config(PRESET_TEXT[name])

"""Config parsing, presets, and the command-line surface."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import pcfilm.scenes as sc
from pcfilm.cli import main
from pcfilm.errors import ConfigError
from pcfilm.stack import NumericalControls, slice_smatrix

SLAB = Path(__file__).resolve().parent / "data" / "slab.cfg"
REPEATED_SLAB = SLAB.with_name("repeated-slab.cfg")
BARE_INTERFACE = SLAB.with_name("bare-interface.cfg")

GOOD = """[materials]
m1 = 2.6
m2 = 1.44
substrate = 12+7j

[lattice]
a1 = 1.0 0.0
a2 = 0.0 1.0

[stack]
incident = vacuum
exit = substrate
opaque = auto
unit1 = plate m1 0.6
unit2 = plate m2 0.81
periods = 4

[sweep]
omega = 1.6 3.0 5
theta = 0.0 60.0 3
phi = 0.0
units = angular
frequency_unit = 1.4142135623730951

[numerics]
lmax = 7
cutoff = auto
"""


def _edited(*edits):
    """GOOD with each (old line, new text) edit applied."""
    lines = GOOD.splitlines()
    for old, new in edits:
        lines[lines.index(old)] = new
    return "\n".join(lines) + "\n"


# (edits of GOOD, the exact ConfigError issues); line numbers are GOOD's
MESSAGE_CASES = {
    "unknown-section": (
        [("[numerics]", "[numerix]")],
        [(25, "unknown section [numerix]"), (26, "key outside of any section"),
         (27, "key outside of any section")],
    ),
    "no-equals": ([("phi = 0.0", "phi 0.0")], [(21, "expected 'key = value', got 'phi 0.0'")]),
    "key-outside-section": (
        [("[materials]", "lmax = 7\n[materials]")], [(1, "key outside of any section")]
    ),
    "vacuum-reserved": ([("m1 = 2.6", "vacuum = 2.6")], [(2, "material name 'vacuum' is reserved")]),
    "duplicate-material": ([("m2 = 1.44", "m1 = 1.44")], [(3, "duplicate material 'm1'")]),
    "gain-material": (
        [("m2 = 1.44", "m2 = 1.44-0.1j")], [(3, "Im(eps) must be >= 0, got (1.44-0.1j)")]
    ),
    "malformed-material": (
        [("m2 = 1.44", "m2 = 1.4.4")],
        [(3, "bad value for 'm2': complex() arg is a malformed string")],
    ),
    "unknown-element": (
        [("unit2 = plate m2 0.81", "unit2 = slab m2 0.81")], [(15, "unknown element 'slab m2 0.81'")]
    ),
    "empty-element": ([("unit2 = plate m2 0.81", "unit2 =")], [(15, "unknown element ''")]),
    "interface-arity": (
        [("unit2 = plate m2 0.81", "unit2 = interface m2")], [(15, "interface takes 2 material names")]
    ),
    "gap-arity": ([("unit2 = plate m2 0.81", "unit2 = gap")], [(15, "gap takes 1 length")]),
    "plate-arity": (
        [("unit2 = plate m2 0.81", "unit2 = plate m2")], [(15, "plate takes material and thickness")]
    ),
    "spheres-arity": (
        [("unit2 = plate m2 0.81", "unit2 = spheres m2 0.1 0")],
        [(15, "spheres takes material, radius [, offx offy]")],
    ),
    "unknown-stack-key": ([("periods = 4", "period = 4")], [(16, "unknown key 'period' in [stack]")]),
    "unknown-key": ([("phi = 0.0", "psi = 0.0")], [(21, "unknown key 'psi' in [sweep]")]),
    "materials-as-setting": ([("a2 = 0.0 1.0", "m3 = 2")], [(8, "unknown key 'm3' in [lattice]")]),
    "units-word": (
        [("units = angular", "units = radial")],
        [(22, "units must be angular|ordinary, got 'radial'")],
    ),
    "opaque-word": (
        [("opaque = auto", "opaque = maybe")], [(13, "opaque must be auto|true|false, got 'maybe'")]
    ),
    "a1-not-float": (
        [("a1 = 1.0 0.0", "a1 = x 0.0")],
        [(7, "bad value for 'a1': could not convert string to float: 'x'")],
    ),
    "a1-too-few": (
        [("a1 = 1.0 0.0", "a1 = 1.0")],
        [(7, "bad value for 'a1': not enough values to unpack (expected 2, got 1)")],
    ),
    "a1-too-many": (
        [("a1 = 1.0 0.0", "a1 = 1 0 0")],
        [(7, "bad value for 'a1': too many values to unpack (expected 2)")],
    ),
    "omega-count": (
        [("omega = 1.6 3.0 5", "omega = 1.6 3.0")],
        [(19, "bad value for 'omega': not enough values to unpack (expected 3, got 2)"),
         (None, "[sweep] omega is required")],
    ),
    "theta-int": (
        [("theta = 0.0 60.0 3", "theta = 0.0 60.0 3.5")],
        [(20, "bad value for 'theta': invalid literal for int() with base 10: '3.5'")],
    ),
    "periods-int": (
        [("periods = 4", "periods = four")],
        [(16, "bad value for 'periods': invalid literal for int() with base 10: 'four'")],
    ),
    "lmax-int": (
        [("lmax = 7", "lmax = 7.0")],
        [(26, "bad value for 'lmax': invalid literal for int() with base 10: '7.0'")],
    ),
    "lmax-range": ([("lmax = 7", "lmax = 20")], [(None, "[numerics] lmax must be in 1..14, got 20")]),
    "lmax-zero": ([("lmax = 7", "lmax = 0")], [(None, "[numerics] lmax must be in 1..14, got 0")]),
    "omega-negative": (
        [("omega = 1.6 3.0 5", "omega = -1 3 3")],
        [(None, "[sweep] omega = -1.0 3.0 3: need min, max > 0, count >= 1")],
    ),
    "omega-zero-max": (
        [("omega = 1.6 3.0 5", "omega = 1.6 0 5")],
        [(None, "[sweep] omega = 1.6 0.0 5: need min, max > 0, count >= 1")],
    ),
    "omega-no-points": (
        [("omega = 1.6 3.0 5", "omega = 1.6 3.0 0")],
        [(None, "[sweep] omega = 1.6 3.0 0: need min, max > 0, count >= 1")],
    ),
    "theta-past-grazing": (
        [("theta = 0.0 60.0 3", "theta = 0 95 3")],
        [(None, "[sweep] theta = 0.0 95.0 3: need min, max in [0, 90), count >= 1")],
    ),
    "theta-grazing": (
        [("theta = 0.0 60.0 3", "theta = 90 0 3")],
        [(None, "[sweep] theta = 90.0 0.0 3: need min, max in [0, 90), count >= 1")],
    ),
    "theta-negative": (
        [("theta = 0.0 60.0 3", "theta = -10 60 3")],
        [(None, "[sweep] theta = -10.0 60.0 3: need min, max in [0, 90), count >= 1")],
    ),
    "theta-no-points": (
        [("theta = 0.0 60.0 3", "theta = 0 60 -2")],
        [(None, "[sweep] theta = 0.0 60.0 -2: need min, max in [0, 90), count >= 1")],
    ),
    "range-issues-together": (
        [("lmax = 7", "lmax = 0"), ("omega = 1.6 3.0 5", "omega = 0 3 5"),
         ("theta = 0.0 60.0 3", "theta = 0 90 3")],
        [(None, "[numerics] lmax must be in 1..14, got 0"),
         (None, "[sweep] omega = 0.0 3.0 5: need min, max > 0, count >= 1"),
         (None, "[sweep] theta = 0.0 90.0 3: need min, max in [0, 90), count >= 1")],
    ),
    "phi-float": (
        [("phi = 0.0", "phi = east")],
        [(21, "bad value for 'phi': could not convert string to float: 'east'")],
    ),
    "frequency-unit-float": (
        [("frequency_unit = 1.4142135623730951", "frequency_unit = root2")],
        [(23, "bad value for 'frequency_unit': could not convert string to float: 'root2'")],
    ),
    "cutoff-float": (
        [("cutoff = auto", "cutoff = big")],
        [(27, "bad value for 'cutoff': could not convert string to float: 'big'")],
    ),
    "cutoff-nan": (
        [("cutoff = auto", "cutoff = nan")],
        [(None, "[numerics] cutoff must be auto or finite and > 0, got nan")],
    ),
    "cutoff-inf": (
        [("cutoff = auto", "cutoff = inf")],
        [(None, "[numerics] cutoff must be auto or finite and > 0, got inf")],
    ),
    "cutoff-negative": (
        [("cutoff = auto", "cutoff = -3")],
        [(None, "[numerics] cutoff must be auto or finite and > 0, got -3.0")],
    ),
    "phi-nan": ([("phi = 0.0", "phi = nan")], [(None, "[sweep] phi must be finite, got nan")]),
    "frequency-unit-zero": (
        [("frequency_unit = 1.4142135623730951", "frequency_unit = 0")],
        [(None, "[sweep] frequency_unit must be finite and > 0, got 0.0")],
    ),
    "frequency-unit-negative": (
        [("frequency_unit = 1.4142135623730951", "frequency_unit = -1")],
        [(None, "[sweep] frequency_unit must be finite and > 0, got -1.0")],
    ),
    "frequency-unit-nan": (
        [("frequency_unit = 1.4142135623730951", "frequency_unit = nan")],
        [(None, "[sweep] frequency_unit must be finite and > 0, got nan")],
    ),
    "omega-inf": (
        [("omega = 1.6 3.0 5", "omega = 1 inf 2")],
        [(None, "[sweep] omega = 1.0 inf 2: need finite min, max")],
    ),
    "omega-nan": (
        [("omega = 1.6 3.0 5", "omega = nan 3 5")],
        [(None, "[sweep] omega = nan 3.0 5: need finite min, max")],
    ),
    "element-holes": (
        [("unit2 = plate m2 0.81", "unit3 = plate m2 0.81")],
        [(None, "element keys must be numbered 1..n without holes")],
    ),
    "empty-stack": (
        [("unit1 = plate m1 0.6", ""), ("unit2 = plate m2 0.81", "")],
        [(None, "stack must contain at least one element")],
    ),
    "omega-required": ([("omega = 1.6 3.0 5", "")], [(None, "[sweep] omega is required")]),
    "line-issues-first": (
        [("units = angular", "units = radial"), ("unit2 = plate m2 0.81", "unit3 = plate m2 0.81"),
         ("omega = 1.6 3.0 5", "")],
        [(22, "units must be angular|ordinary, got 'radial'"),
         (None, "element keys must be numbered 1..n without holes"),
         (None, "[sweep] omega is required")],
    ),
    "unknown-material": ([("exit = substrate", "exit = steel")], [(None, "unknown material 'steel'")]),
    "non-finite-lattice": (
        [("a1 = 1.0 0.0", "a1 = nan 0.0")],
        [(None, "non-finite lattice vector: a1=(nan, 0.0), a2=(0.0, 1.0)")],
    ),
    "degenerate-lattice": (
        [("a2 = 0.0 1.0", "a2 = 2.0 0.0")],
        [(None, "degenerate lattice cell: a1=(1.0, 0.0), a2=(2.0, 0.0)")],
    ),
    "negative-gap": (
        [("unit2 = plate m2 0.81", "unit2 = gap -1")], [(None, "distance must be >= 0, got -1.0")]
    ),
    "gap-not-float": (
        [("unit2 = plate m2 0.81", "unit2 = gap wide")],
        [(None, "could not convert string to float: 'wide'")],
    ),
    "negative-thickness": (
        [("unit2 = plate m2 0.81", "unit2 = plate m2 -1")],
        [(None, "thickness must be >= 0, got -1.0")],
    ),
    "sphere-radius": (
        [("unit2 = plate m2 0.81", "unit2 = spheres m2 0")], [(None, "radius must be > 0, got 0.0")]
    ),
    "overlapping-spheres": (
        [("unit2 = plate m2 0.81", "unit2 = spheres m2 0.6")],
        [(None, "spheres overlap in plane: diameter 1.2 >= nearest-neighbor distance 1.0")],
    ),
    "negative-periods": ([("periods = 4", "periods = -1")], [(None, "count must be >= 0, got -1")]),
    "gap-nan": (
        [("unit2 = plate m2 0.81", "unit2 = gap nan")], [(None, "distance must be finite, got nan")]
    ),
    "gap-inf": (
        [("unit2 = plate m2 0.81", "unit2 = gap inf")], [(None, "distance must be finite, got inf")]
    ),
    "plate-thickness-nan": (
        [("unit2 = plate m2 0.81", "unit2 = plate m2 nan")],
        [(None, "thickness must be finite, got nan")],
    ),
    "plate-material-nan": ([("m2 = 1.44", "m2 = nan")], [(3, "eps must be finite, got (nan+0j)")]),
    "interface-material-nan": (
        [("m1 = 2.6", "m1 = nan"),
         ("unit1 = plate m1 0.6", "pre1 = interface vacuum m1\npre2 = interface m1 vacuum\n"
                                  "unit1 = plate m1 0.6")],
        [(2, "eps must be finite, got (nan+0j)")],
    ),
    "sphere-radius-nan": (
        [("unit2 = plate m2 0.81", "unit2 = spheres m2 nan")],
        [(None, "radius must be finite, got nan")],
    ),
    "sphere-offset-nan": (
        [("unit2 = plate m2 0.81", "unit2 = spheres m2 0.1 nan 0")],
        [(None, "offset must be finite, got (nan, nan)")],
    ),
}


# stacks the walk rejects, which parse_config must report as ConfigError; a
# sphere plane always takes the ambient it sits in as its host and the scene
# lattice as its lattice, so config text cannot give the walk's sphere-host
# or lattice mismatch
WALK_CASES = {
    "interface-left-not-ambient": (
        [("unit1 = plate m1 0.6", "pre1 = interface m2 m1\nunit1 = plate m1 0.6")],
        [(None, "interface left medium eps=(1.44+0j) != ambient eps=1.0")],
    ),
    "repeat-changes-ambient": (
        [("unit2 = plate m2 0.81", "unit2 = interface vacuum m2")],
        [(None, "repeated sub-stack must preserve the ambient medium")],
    ),
    "transparent-lossy-exit": (
        [("opaque = auto", "opaque = false")],
        [(None, "a lossy exit medium (eps=(12+7j)) must be opaque: "
                "no beam propagates in it to carry transmitted flux")],
    ),
}

# every setting away from its default, every element kind
CUSTOM = """[materials]
host = 12+0.1j
void = 1
glass = 2.25

[lattice]
a1 = 1.1 0.0
a2 = 0.2 0.9

[stack]
incident = glass
exit = host
opaque = true
pre1 = interface glass host
unit1 = gap 0.25
unit2 = spheres void 0.3 0.5 0.25
unit3 = gap 0.25
post1 = plate glass 0.4
periods = 3

[sweep]
omega = 1.2 2.4 7
theta = 5.0 45.0 4
phi = 30.0
units = ordinary
frequency_unit = 2.5

[numerics]
lmax = 5
cutoff = 14.5
"""


def _small_fig3():
    scene = sc.preset("paper-fig3")
    return dataclasses.replace(scene, omega_sweep=(1.6, 3.0, 5), theta_sweep=(0.0, 60.0, 3))


class TestParseConfig:
    def test_round_trip_presets(self):
        for name in ("paper-fig2", "paper-fig3", "paper-fig4"):
            scene = sc.preset(name)
            assert sc.parse_config(sc.serialize_scene(scene)) == scene

    def test_round_trip_custom(self):
        scene = sc.parse_config(GOOD)
        assert sc.parse_config(sc.serialize_scene(scene)) == scene

    def test_round_trip_every_setting(self):
        scene = sc.parse_config(CUSTOM)
        defaults = sc.parse_config("[stack]\nunit1 = gap 0.1\n[sweep]\nomega = 1 2 3\n")
        for f in dataclasses.fields(sc.Scene):
            assert getattr(scene, f.name) != getattr(defaults, f.name), f.name
        assert sc.parse_config(sc.serialize_scene(scene)) == scene

    @pytest.mark.parametrize("case", sorted(WALK_CASES))
    def test_stack_walk_at_parse(self, case):
        edits, issues = WALK_CASES[case]
        with pytest.raises(ConfigError) as exc:
            sc.parse_config(_edited(*edits))
        assert exc.value.issues == issues

    def test_empty_stack_rejected(self):
        bad = GOOD.replace("unit1 = plate m1 0.6\n", "").replace("unit2 = plate m2 0.81\n", "")
        with pytest.raises(ConfigError) as exc:
            sc.parse_config(bad)
        assert any("stack must contain at least one element" in msg for _, msg in exc.value.issues)

    def test_unknown_key_with_line_number(self):
        lines = GOOD.splitlines()
        lines.insert(lines.index("periods = 4") + 1, "wibble = 3")
        with pytest.raises(ConfigError) as exc:
            sc.parse_config("\n".join(lines) + "\n")
        (line, msg), *_ = exc.value.issues
        assert "wibble" in msg
        assert line == lines.index("wibble = 3") + 1

    @pytest.mark.parametrize("case", sorted(MESSAGE_CASES))
    def test_messages_pinned(self, case):
        edits, issues = MESSAGE_CASES[case]
        with pytest.raises(ConfigError) as exc:
            sc.parse_config(_edited(*edits))
        assert exc.value.issues == issues

    def test_fig2_preset_constants(self):
        scene = sc.preset("paper-fig2")
        mats = dict(scene.materials)
        assert mats["host"] == 12.0 + 0.1j
        assert mats["substrate"] == 12.0 + 7.0j
        assert scene.periods == 4
        assert any(
            tok[0] == "spheres" and float(tok[2]) == 0.30618621 for tok in scene.unit
        )
        # four sphere planes per period, diamond (001) offsets
        offsets = [
            (float(tok[3]), float(tok[4])) for tok in scene.unit if tok[0] == "spheres"
        ]
        assert offsets == [(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5)]

    def test_display_unit_scale(self):
        scene = sc.preset("paper-fig2")
        assert scene.frequency_unit == pytest.approx(math.sqrt(2.0), rel=1e-12)
        disp = scene.omega_display_grid()
        internal = scene.omega_internal(disp)
        assert np.allclose(internal * math.sqrt(2.0), disp)


class TestCli:
    def _write(self, tmp_path, scene):
        cfg = tmp_path / "scene.cfg"
        cfg.write_text(sc.serialize_scene(scene))
        return str(cfg)

    def test_spectrum_csv_stable_and_rfc4180(self, tmp_path):
        cfg = self._write(tmp_path, _small_fig3())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["spectrum", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["spectrum", "--config", cfg, "--out", str(out2)]) == 0
        data = (out1 / "spectrum.csv").read_bytes()
        assert data == (out2 / "spectrum.csv").read_bytes()
        assert b"\r\n" in data
        header = data.split(b"\r\n", 1)[0]
        assert header.startswith(b'"omega(c/a,angular)"')  # comma forces quoting

    def test_sweep_outputs(self, tmp_path):
        cfg = self._write(tmp_path, _small_fig3())
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()
        for pol in ("s", "p", "avg"):
            svg = (out / f"sweep_{pol}.svg").read_text()
            assert svg.startswith("<svg")
            assert 'version="1.1"' in svg
            assert "0.0" in svg  # colorbar limits are printed as text

    def test_units_ordinary_rescales_header(self, tmp_path):
        cfg = self._write(tmp_path, _small_fig3())
        out = tmp_path / "ord"
        assert main(["spectrum", "--config", cfg, "--out", str(out), "--units", "ordinary"]) == 0
        header = (out / "spectrum.csv").read_text().splitlines()[0]
        assert "ordinary" in header

    def test_band_outputs(self, tmp_path):
        scene = dataclasses.replace(_small_fig3(), omega_sweep=(1.6, 3.0, 12))
        cfg = self._write(tmp_path, scene)
        out = tmp_path / "band"
        assert main(["band", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "band.csv").exists()
        assert (out / "band.svg").exists()

    def test_band_cutoff_from_unit_media(self, tmp_path, monkeypatch):
        # the auto cutoff is pinned from the media of the unit slice (largest
        # eps 2.6), not from the exit substrate |12 + 7i| it never contains
        scene = sc.preset("paper-fig3")
        lo, hi, _ = scene.omega_sweep
        scene = dataclasses.replace(scene, omega_sweep=(lo, hi, 3))
        seen = []

        def spy(unit, ambient, omega, kpar, controls, lat):
            seen.append(controls.cutoff)
            return slice_smatrix(unit, ambient, omega, kpar, controls, lat)

        monkeypatch.setattr("pcfilm.cli.slice_smatrix", spy)
        cfg = self._write(tmp_path, scene)
        assert main(["band", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        omega_max = float(scene.omega_internal(hi))
        assert seen == [NumericalControls().resolved_cutoff(omega_max, 2.6, 0.0)] * 3

    @pytest.mark.parametrize("sweep", [(3.0, 1.6, 20), (2.0, 2.0, 3)], ids=["decreasing", "repeated"])
    def test_band_needs_an_increasing_scan(self, tmp_path, capsys, monkeypatch, sweep):
        # rejected before any point is solved, not by gap_edges after all of
        # them; spectrum and sweep accept such grids
        scene = dataclasses.replace(sc.preset("paper-fig3"), omega_sweep=sweep, theta_sweep=(0.0, 0.0, 1))
        cfg = self._write(tmp_path, scene)
        seen = []
        monkeypatch.setattr("pcfilm.cli.slice_smatrix", lambda *args: seen.append(args))
        assert main(["band", "--config", cfg, "--out", str(tmp_path / "b")]) == 2
        assert seen == []
        lo, hi, n = sweep
        assert capsys.readouterr().err == f"error: [sweep] omega = {lo} {hi} {n}: band needs min < max\n"
        for command in ("spectrum", "sweep"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0

    def test_mie_output(self, tmp_path):
        cfg = self._write(tmp_path, sc.preset("paper-fig4"))
        out = tmp_path / "mie"
        assert main(["mie", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "mie.csv").exists()

    @pytest.mark.parametrize("command", ["mie", "validate"])
    def test_threads_only_on_grid_commands(self, tmp_path, capsys, command):
        # only spectrum, sweep and band spread their points over threads
        argv = [command, "--preset", "paper-fig3", "--threads", "2", "--out", str(tmp_path / "x")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_validate_fig3_passes(self, tmp_path):
        cfg = self._write(tmp_path, _small_fig3())
        out = tmp_path / "val"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
        report = (out / "validate.txt").read_text()
        assert "pass" in report.lower()

    @pytest.mark.parametrize(
        "config",
        [SLAB, REPEATED_SLAB, BARE_INTERFACE],
        ids=["slab", "repeated-slab", "bare-interface"],
    )
    def test_validate_sphere_free_film_runs_dual_engine(self, tmp_path, config):
        # interfaces and a gap around a plate, once in the repeated unit: no
        # sphere plane, not plates only; and a bare interface, no layer at all
        out = tmp_path / "val"
        assert main(["validate", "--config", str(config), "--out", str(out)]) == 0
        report = (out / "validate.txt").read_text()
        assert "PASS config/dual-engine" in report
        assert "FAIL" not in report

    def test_band_needs_a_repeated_unit(self, tmp_path, capsys):
        assert main(["band", "--config", str(SLAB), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: scene has no repeated unit with positive thickness\n"
        )

    @pytest.mark.parametrize(
        "command, prefix",
        [
            ("spectrum", "emissivity failed at omega=2.0, theta=0.0 deg: "),
            ("sweep", "emissivity failed at omega=2.0, theta=0.0 deg: "),
            ("band", "band failed at omega=2.0: "),
            ("validate", "emissivity failed at omega=2.0, theta=0.0 deg: "),
        ],
        ids=["spectrum", "sweep", "band", "validate"],
    )
    def test_failure_names_displayed_point(self, tmp_path, capsys, command, prefix):
        # a beam cutoff below the specular beam fails inside the solve; the
        # message must give omega as requested (not the internal c/a value,
        # here 2/sqrt(2)) and theta in degrees
        scene = dataclasses.replace(
            sc.preset("paper-fig3"), omega_sweep=(2.0, 2.0, 1), theta_sweep=(0.0, 0.0, 1)
        )
        cfg = self._write(tmp_path, scene)
        argv = [command, "--config", cfg, "--out", str(tmp_path / "x"), "--cutoff", "0.01"]
        assert main(argv) == 2
        assert f"error: {prefix}cutoff 0.01 < omega*sqrt|eps|" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["preset", "config", "every-preset"])
    def test_validate_applies_overrides(self, tmp_path, monkeypatch, source):
        seen = []
        monkeypatch.setattr("pcfilm.cli.run_validate", lambda scene: seen.append(scene) or [])
        argv = {
            "preset": ["--preset", "paper-fig2"],
            "config": ["--config", self._write(tmp_path, sc.preset("paper-fig2"))],
            "every-preset": [],
        }[source]
        overrides = ["--lmax", "9", "--cutoff", "23.4", "--units", "ordinary"]
        assert main(["validate", *argv, *overrides, "--out", str(tmp_path / "v")]) == 0
        assert len(seen) == (len(sc.PRESET_TEXT) if source == "every-preset" else 1)
        for scene in seen:
            assert (scene.lmax, scene.cutoff, scene.units) == (9, 23.4, "ordinary")

    def test_validate_preset_and_config_conflict(self, tmp_path, capsys):
        cfg = self._write(tmp_path, _small_fig3())
        argv = ["validate", "--preset", "paper-fig3", "--config", cfg, "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "exactly one of --preset / --config" in capsys.readouterr().err

    @pytest.mark.parametrize("lmax", ["0", "15"])
    def test_lmax_override_out_of_range(self, tmp_path, capsys, lmax):
        argv = ["band", "--preset", "paper-fig4", "--lmax", lmax, "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        assert f"error: [numerics] lmax must be in 1..14, got {lmax}" in capsys.readouterr().err

    def test_non_finite_cutoff_override(self, tmp_path, capsys):
        argv = ["spectrum", "--config", str(SLAB), "--cutoff", "nan", "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: [numerics] cutoff must be auto or finite and > 0, got nan\n"

    def test_preset_and_config_conflict(self, tmp_path):
        cfg = self._write(tmp_path, _small_fig3())
        assert main(["spectrum", "--preset", "paper-fig3", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_unknown_preset_rejected(self, tmp_path):
        assert main(["spectrum", "--preset", "nope", "--out", str(tmp_path / "x")]) == 2

"""Config parsing, presets, and the command-line surface."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import pcfilm.scenes as sc
from pcfilm.cli import main
from pcfilm.errors import ConfigError

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

    def test_mie_output(self, tmp_path):
        cfg = self._write(tmp_path, sc.preset("paper-fig4"))
        out = tmp_path / "mie"
        assert main(["mie", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "mie.csv").exists()

    def test_validate_fig3_passes(self, tmp_path):
        cfg = self._write(tmp_path, _small_fig3())
        out = tmp_path / "val"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
        report = (out / "validate.txt").read_text()
        assert "pass" in report.lower()

    @pytest.mark.parametrize(
        "command, prefix",
        [
            ("spectrum", "emissivity failed at omega=2.0, theta=0.0 deg: "),
            ("sweep", "emissivity failed at omega=2.0, theta=0.0 deg: "),
            ("band", "band failed at omega=2.0: "),
        ],
        ids=["spectrum", "sweep", "band"],
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

    def test_preset_and_config_conflict(self, tmp_path):
        cfg = self._write(tmp_path, _small_fig3())
        assert main(["spectrum", "--preset", "paper-fig3", "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_unknown_preset_rejected(self, tmp_path):
        assert main(["spectrum", "--preset", "nope", "--out", str(tmp_path / "x")]) == 2

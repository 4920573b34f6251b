"""Which scipy modules a command loads, each run in a fresh interpreter.

scipy is imported inside the functions that call it, so a run loads only
what its scene needs: nothing for a sphere-free film, ``scipy.special`` once
a sphere plane is summed, and ``scipy.linalg`` for ``band`` alone.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pcfilm.scenes as sc

SRC = Path(__file__).resolve().parents[1] / "src"
SLAB = Path(__file__).resolve().parent / "data" / "slab.cfg"

# runs the CLI, then prints the scipy modules it loaded as the last line
_CHILD = """import sys
from pcfilm.cli import main
rc = main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
sys.exit(rc)
"""


def _scipy_loaded(*argv) -> set[str]:
    # os.environ already pins BLAS to one thread (conftest)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_scipy_loaded_only_where_called(tmp_path):
    for command in ("spectrum", "validate"):
        loaded = _scipy_loaded(command, "--config", str(SLAB), "--out", str(tmp_path / command))
        assert loaded == set(), command

    sweep = dataclasses.replace(
        sc.preset("paper-fig2"), omega_sweep=(2.2, 2.2, 1), theta_sweep=(0.0, 30.0, 2)
    )
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(sc.serialize_scene(sweep))
    csv = {}
    for threads in ("1", "2"):
        out = tmp_path / f"sweep{threads}"
        loaded = _scipy_loaded("sweep", "--config", str(cfg), "--threads", threads, "--out", str(out))
        assert "scipy.special" in loaded and "scipy.linalg" not in loaded, threads
        csv[threads] = (out / "sweep.csv").read_bytes()
    assert csv["2"] == csv["1"]  # the first import of scipy.special happens in the pool

    band = dataclasses.replace(sc.preset("paper-fig4"), omega_sweep=(1.5, 1.6, 2))
    cfg = tmp_path / "band.cfg"
    cfg.write_text(sc.serialize_scene(band))
    assert "scipy.linalg" in _scipy_loaded("band", "--config", str(cfg), "--out", str(tmp_path / "b"))

"""Golden-output regression: tiny grids of the three paper presets through the CLI.

Each grid is the preset with a short omega sweep, run by ``pcfilm.cli.main``
on a generated ``--config`` file; its CSV must match the committed one under
``tests/data/golden/`` field by field, numeric fields within one unit of
their 9th significant digit (the CSV's own rounding).  A value below
``NOISE`` in magnitude is rounding noise of an exact zero (Im kz*d on a
lossless passband comes out near 1e-14) and matches any other such value.

The band CSV is compared per omega as the branch count plus the multiset of
kz*d over branches with Im kz*d <= BAND_IM_MAX, sorted by (Im, Re).  Rounding
cannot change that much, but it does change the rest: kz*d inherits an error
of order 1e-16 exp(Im kz*d) from the eigensolver, and the branch labels of
degenerate branches follow eigenvector overlaps that are arbitrary inside a
degenerate subspace.  A 1e-15 relative change of the lattice sums already
moves both past the 9th digit.

Regenerate the goldens only for an intended, explained change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import math
import sys
import tempfile
from pathlib import Path

import pytest

import pcfilm.scenes as sc
from pcfilm.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
NOISE = 1e-12
BAND_IM_MAX = 5.0

# preset -> (subcommand, omega sweep (min, max, count) in display units, CSV)
GRIDS = {
    "paper-fig2": ("sweep", (2.0, 2.4, 3), "sweep.csv"),
    "paper-fig3": ("spectrum", (1.6, 3.0, 5), "spectrum.csv"),
    "paper-fig4": ("band", (1.2, 2.4, 6), "band.csv"),
}


def run_grid(preset: str, out: Path) -> Path:
    command, omega, csv_name = GRIDS[preset]
    scene = dataclasses.replace(sc.preset(preset), omega_sweep=omega)
    config = out / "scene.cfg"
    config.write_text(sc.serialize_scene(scene), encoding="utf-8")
    if main([command, "--config", str(config), "--out", str(out)]) != 0:
        raise RuntimeError(f"{command} on {preset} failed")
    return out / csv_name


def golden_path(preset: str) -> Path:
    return GOLDEN / f"{preset}-{GRIDS[preset][2]}"


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def field_mismatch(want: str, got: str) -> bool:
    """True unless the fields agree (numbers: within 1 unit of the 9th digit)."""
    a, b = _number(want), _number(got)
    if a is None or b is None:
        return want != got
    if a == b or (math.isnan(a) and math.isnan(b)):
        return False
    if abs(a) < NOISE and abs(b) < NOISE:
        return False
    unit = 10.0 ** (math.floor(math.log10(max(abs(a), abs(b)))) - 8)
    return abs(a - b) > unit * (1 + 1e-9)


def band_rows(rows: list[list[str]]) -> list[list[str]]:
    """Band CSV rows reduced to the part that rounding cannot change."""
    out = [["omega", "branches", "re_kz_d_over_pi", "im_kz_d"]]
    for omega, group in itertools.groupby(rows[1:], key=lambda row: row[0]):
        group = list(group)
        kept = [row for row in group if float(row[3]) <= BAND_IM_MAX]
        kept.sort(key=lambda row: (round(float(row[3]), 6), float(row[2])))
        out += [[omega, str(len(group)), row[2], row[3]] for row in kept]
    return out


def compare(golden: Path, produced: Path) -> tuple[int, list[str]]:
    """(number of fields differing in the last digit, list of real mismatches)."""
    want, got = _read(golden), _read(produced)
    if want[0] != got[0]:
        return 0, [f"header {got[0]} != {want[0]}"]
    if "im_kz_d" in want[0]:
        want, got = band_rows(want), band_rows(got)
    if len(want) != len(got):
        return 0, [f"{len(got)} rows != {len(want)}"]
    last_digit, bad = 0, []
    for r, (rw, rg) in enumerate(zip(want, got)):
        if len(rw) != len(rg):
            bad.append(f"row {r}: {rg} != {rw}")
            continue
        for c, (fw, fg) in enumerate(zip(rw, rg)):
            if field_mismatch(fw, fg):
                bad.append(f"row {r} col {want[0][c]}: {fg} != {fw}")
            elif fw != fg:
                last_digit += 1
    return last_digit, bad


@pytest.mark.parametrize("preset", sorted(GRIDS))
def test_matches_golden(preset, tmp_path):
    _, bad = compare(golden_path(preset), run_grid(preset, tmp_path))
    assert not bad, "\n".join(bad[:20])


def test_field_tolerance():
    assert not field_mismatch("0.123456789", "0.12345679")
    assert field_mismatch("0.123456789", "0.123456787")
    assert not field_mismatch("-1.04020655e-14", "9.5e-15")
    assert field_mismatch("1e-14", "2e-12")
    assert field_mismatch("1", "2")
    assert field_mismatch("s", "p")


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in sorted(GRIDS):
        with tempfile.TemporaryDirectory() as tmp:
            golden_path(name).write_bytes(run_grid(name, Path(tmp)).read_bytes())
        print(f"wrote {golden_path(name)}", file=sys.stderr)

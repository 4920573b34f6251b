"""Fast self-test of the benchmark's own machinery, on tiny grids.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that the tracer puts every original function back, that every
span's self time lies between 0 and its duration and that spans nest inside
their parents (also under a 2-thread sweep), that the spectrum workload
never reaches the sphere path, that a child's warm-up point is off its grid,
and that each output check flags a corrupted copy of a good CSV.  Exit
status 0 means every check passed.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(BENCH))

from run import OUT, PINS, WORKLOADS, plan_chunk  # noqa: E402

os.environ.update(PINS)
sys.path.insert(0, str(ROOT / "src"))

import pcfilm.cli  # noqa: E402
import pcfilm.scenes as sc  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def tiny(preset: str, omega, theta=(0.0, 30.0, 2)) -> sc.Scene:
    return dataclasses.replace(sc.preset(preset), omega_sweep=omega, theta_sweep=theta)


def run_cli(command: str, scene: sc.Scene, work: Path, threads: int = 1):
    """Run the CLI on ``scene`` in-process, traced; return (csv path, spans)."""
    work.mkdir(parents=True)
    cfg = work / "scene.cfg"
    cfg.write_text(sc.serialize_scene(scene), encoding="utf-8")
    argv = [command, "--config", str(cfg), "--out", str(work), "--threads", str(threads)]
    with spans.Tracer() as tracer:
        rc = pcfilm.cli.main(argv)
    expect(rc == 0, f"{command} on a tiny grid exits 0")
    return work / f"{command}.csv", tracer.spans


def snapshot() -> dict:
    mods = {n: m for n, m in sys.modules.items() if n == "pcfilm" or n.startswith("pcfilm.")}
    snap = {(n, a): v for n, m in mods.items() for a, v in vars(m).items()}
    snap["Scene.build_stack"] = sc.Scene.__dict__["build_stack"]
    return snap


def same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def check_restore() -> None:
    before = snapshot()
    tracer = spans.Tracer()
    tracer.install()
    during = snapshot()
    rebound = [k for k in before if during.get(k) is not before[k]]
    names = {k[1] if isinstance(k, tuple) else k for k in rebound}
    expect({"star_product", "beam_set", "structure_constants", "mie_t",
            "solve_stack_points", "np", "Scene.build_stack"} <= names,
           f"install rebinds imported-by-name functions ({len(rebound)} attributes)")
    tracer.uninstall()
    expect(same(before, snapshot()), "uninstall restores every original attribute")


def check_spans(name: str, span_list) -> None:
    by_id = {s[0]: s for s in span_list}
    own = spans.self_times(span_list)
    expect(all(-1e-9 <= own[s[0]] <= s[4] - s[3] + 1e-12 for s in span_list),
           f"{name}: 0 <= self <= total for all {len(span_list)} spans")
    nested = all(
        s[2] is None or (by_id[s[2]][3] <= s[3] and s[4] <= by_id[s[2]][4]) for s in span_list
    )
    expect(nested, f"{name}: every span lies inside its parent")


def corrupt(src: Path, dst: Path, row: int, col: int, value: str) -> Path:
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = value
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return dst


def main() -> int:
    work = OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    check_restore()

    for name in WORKLOADS:
        preset = sc.preset(WORKLOADS[name].preset)
        for k in range(3):
            ch = plan_chunk(preset, name, 7, k)
            grid = list(ch.scene.omega_display_grid())
            expect(min(abs(ch.warm_omega - g) for g in grid) > 1e-9 and len(set(grid)) == len(grid),
                   f"{name} child {k}: distinct grid omegas, warm-up omega off the grid")

    sweep = tiny("paper-fig2", (2.0, 2.01, 2))
    path, sp = run_cli("sweep", sweep, work / "sweep")
    check_spans("sweep", sp)
    expect(not checks.check_sweep(path, sweep), "sweep: good CSV passes its check")
    bad = corrupt(path, work / "sweep-bad.csv", 2, 3, "1.5")
    expect(checks.check_sweep(bad, sweep) == {(0, 1)}, "sweep: E > 1 is flagged")
    bad = corrupt(path, work / "sweep-bad2.csv", 9, 3, "0.123")
    expect(checks.check_sweep(bad, sweep) == {(0, 0)}, "sweep: avg != (s + p) / 2 is flagged")

    # fresh points: a repeat would be served from pcfilm's structure-constant cache
    sweep2 = tiny("paper-fig2", (2.02, 2.03, 2))
    _, sp2 = run_cli("sweep", sweep2, work / "sweep-2w", threads=2)
    check_spans("sweep --threads 2", sp2)
    expect(all(s[2] is None for s in sp2 if s[1] == "stack.solve_stack_points"),
           "sweep --threads 2: pool-thread spans do not nest under the main thread's")

    spectrum = tiny("paper-fig3", (2.0, 2.2, 3))
    path, sp = run_cli("spectrum", spectrum, work / "spectrum")
    check_spans("spectrum", sp)
    counts = spans.summarize([sp], 6)
    sphere_path = ["lattice.lattice_sums_ewald", "mie.mie_t", "vswf.translation_matrix",
                   "vswf.plane_wave_coeffs", "vswf.ylm_flat"]
    expect(all(counts[f"{n}.calls_per_point"] == 0 for n in sphere_path),
           "spectrum: 0 calls into lattice_sums_ewald, mie_t and vswf")
    expect(not checks.check_spectrum(path, spectrum), "spectrum: good CSV passes its check")
    with open(path, newline="", encoding="utf-8") as fh:
        r = next(row for i, row in enumerate(csv.reader(fh)) if i == 3)
    bad = corrupt(path, work / "spectrum-bad.csv", 3, 3, repr(float(r[3]) + 1e-6))
    expect(checks.check_spectrum(bad, spectrum) == {(0, 1)},
           "spectrum: R off by 1e-6 from the 1D engine is flagged")

    band = tiny("paper-fig4", (1.5, 1.6, 3))
    path, sp = run_cli("band", band, work / "band")
    check_spans("band", sp)
    expect(not checks.check_band(path, band), "band: good CSV passes its check")
    bad = corrupt(path, work / "band-bad.csv", 1, 3, "-0.1")
    expect(checks.check_band(bad, band) == {0}, "band: Im kz d < -1e-6 is flagged")
    bad = corrupt(path, work / "band-bad2.csv", 1, 2, "nan")
    expect(checks.check_band(bad, band) == {0}, "band: non-finite kz is flagged")

    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the pcfilm command line on the three paper presets.

Run from the repository root (see ``perfbench/README.md``)::

    python3 perfbench/run.py --workload fig2-sweep --seed 1 --seconds 20 --trace 0

A run starts fresh interpreters (``child.py``) one after another until
``--seconds`` have passed, and at least ``MIN_CHILDREN`` of them.  Child k
gets its own grid, a sub-window of the preset's omega grid and theta set
drawn from ``(workload, seed, k)``, so no grid point repeats inside one
process and the caches behave as in a real CLI run.  Each child sets up
pcfilm, then runs ``pcfilm.cli.main`` once on the generated ``--config``.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's children.  ``--trace 1`` runs every grid twice, untraced and then
traced, and reports the per-layer metrics of ``spans.summarize`` plus
``trace.overhead_frac``.  Either way the CSV of every child is checked
(``checks.py``) and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, with run metadata and the SHA-256 of every CSV, is written to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 120
GAP_FRAC = (0.15, 0.85)  # where in the gap the fig4 transmission check looks


@dataclasses.dataclass(frozen=True)
class Workload:
    command: str
    preset: str
    n_omega: int       # omegas of the preset grid per child ...
    omega_stride: int  # ... taken every omega_stride-th grid omega


# Each child keeps the preset's full theta set: the cost of a point varies
# with theta by up to 20 % on paper-fig2, so a seeded theta subset would add
# spread between seeds.  paper-fig3's cost grows with omega (its beam cutoff
# follows omega), so its children take every other omega across the window.
WORKLOADS = {
    "fig2-sweep": Workload("sweep", "paper-fig2", 4, 1),
    "fig3-spectrum": Workload("spectrum", "paper-fig3", 60, 2),
    "fig4-band": Workload("band", "paper-fig4", 40, 1),
}

END_TO_END_UNITS = {
    "points_per_s": "1/s",
    "setup_s": "s",
    "cpu_s_per_point": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith("_ms_per_point"):
        return "ms"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    return "count"


@dataclasses.dataclass(frozen=True)
class Chunk:
    scene: object        # pcfilm.scenes.Scene holding this child's grid
    points: int
    warm_omega: float    # display units, halfway between two grid omegas
    warm_theta_deg: float


def plan_chunk(preset_scene, name: str, seed: int, k: int) -> Chunk:
    """The grid of child ``k``, drawn from ``(workload, seed, k)`` only."""
    wl = WORKLOADS[name]
    om = [float(x) for x in preset_scene.omega_display_grid()]
    th = [math.degrees(t) for t in preset_scene.theta_grid()]
    span = wl.omega_stride * (wl.n_omega - 1)
    i0 = random.Random(f"{name}/{seed}/{k}").randrange(len(om) - span)
    scene = dataclasses.replace(
        preset_scene, omega_sweep=(om[i0], om[i0 + span], wl.n_omega)
    )
    points = wl.n_omega * (1 if wl.command == "band" else len(th))
    warm_theta = 0.5 * (th[0] + th[1]) if len(th) > 1 else th[0]
    return Chunk(scene, points, 0.5 * (om[i0] + om[i0 + 1]), warm_theta)


def run_child(name: str, chunk: Chunk, work: Path, traced: bool) -> dict:
    """Run one child in ``work``; raise RuntimeError if it gives no result."""
    from pcfilm.scenes import serialize_scene

    wl = WORKLOADS[name]
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "scene.cfg"
    config.write_text(serialize_scene(chunk.scene), encoding="utf-8")
    spec = {
        "config": str(config), "out": str(work), "command": wl.command,
        "warm_omega": chunk.warm_omega,
        "warm_theta_deg": chunk.warm_theta_deg,
        "trace": str(work / "spans.json") if traced else None,
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINS)
    spec["spawn_t"] = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    res.update(points=chunk.points, work=str(work), traced=traced)
    return res


def check_child(name: str, chunk: Chunk, res: dict) -> None:
    """Add the output check and the CSV's SHA-256 to a child's result."""
    from checks import CHECKS

    wl = WORKLOADS[name]
    csv_path = Path(res["work"]) / f"{wl.command}.csv"
    if res["rc"] != 0 or not csv_path.is_file():
        res.update(failed=chunk.points, sha256=None)
        return
    res["failed"] = len(CHECKS[wl.command](csv_path, chunk.scene))
    res["sha256"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()


def _git_sha() -> str:
    if not (ROOT / ".git").exists():  # so git does not answer for an enclosing repo
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:  # no git on this machine
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata() -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_pins": PINS,
        "git_sha": _git_sha(),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((ROOT / "src").rglob("*.py"))
        ),
    }


def end_to_end(children) -> dict:
    return {
        "points_per_s": statistics.median(c["points"] / c["wall_s"] for c in children),
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "cpu_s_per_point": statistics.median(c["cpu_s"] / c["points"] for c in children),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }


def per_layer(children) -> dict:
    import spans

    traced = [c for c in children if c["traced"]]
    span_lists = []
    for c in traced:
        with open(Path(c["work"]) / "spans.json", encoding="utf-8") as fh:
            span_lists.append(json.load(fh))
    out = spans.summarize(span_lists, sum(c["points"] for c in traced))
    untraced = [c for c in children if not c["traced"]]
    out["trace.overhead_frac"] = statistics.median(
        t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced)
    ) - 1.0
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from pcfilm.scenes import preset

    wl = WORKLOADS[name]
    preset_scene = preset(wl.preset)
    work_root = OUT / "work" / name
    shutil.rmtree(work_root, ignore_errors=True)
    chunks, children = [], []
    start = time.monotonic()
    while len(chunks) < MIN_CHILDREN or time.monotonic() - start < seconds:
        k = len(chunks)
        chunks.append(chunk := plan_chunk(preset_scene, name, seed, k))
        for traced in (False, True) if trace else (False,):
            work = work_root / f"{k:03d}{'-traced' if traced else ''}"
            children.append(run_child(name, chunk, work, traced) | {"chunk": k})
    for c in children:
        check_child(name, chunks[c["chunk"]], c)

    attempted = sum(c["points"] for c in children)
    failed = sum(c["failed"] for c in children)
    gap = None
    if wl.command == "band":
        from checks import GAP_T_MAX, gap_transmittance

        frac = random.Random(f"{name}/{seed}/gap").uniform(*GAP_FRAC)
        omega, t = gap_transmittance(preset_scene, frac)
        gap = {"omega_internal": omega, "T": t, "ok": t < GAP_T_MAX}
        attempted += 1
        failed += 0 if gap["ok"] else 1
    if trace:
        metrics = per_layer(children)
        units = {m: layer_unit(m) for m in metrics}
    else:
        metrics = end_to_end(children)
        units = END_TO_END_UNITS
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "gap_check": gap,
        "children": children,
        "metadata": metadata(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pcfilm" / "__init__.py").is_file():
        sys.stderr.write("perfbench: src/pcfilm not found; run from the repository root\n")
        return 2
    os.environ.update(PINS)  # before numpy is imported, for the checks run here
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1), encoding="utf-8")

    meta = result["metadata"]
    print(f"workload {args.workload}  seed {args.seed}  children {len(result['children'])}"
          f"  attempted {result['attempted']}  failed {result['failed']}"
          f"  fail_frac {result['fail_frac']}")
    print(f"machine: {meta['nproc']} x {meta['cpu_model']}; python {meta['python']}, numpy "
          f"{meta['numpy']}, scipy {meta['scipy']}, {meta['blas']}; git {meta['git_sha']}; "
          f"src lines {meta['src_lines']}")
    for k, c in enumerate(result["children"]):
        print(f"child {k}: sha256 {c['sha256']}  failed {c['failed']}/{c['points']}")
    if result["gap_check"] is not None:
        print(f"gap check: {result['gap_check']}")
    for m, v in result["metrics"].items():
        print(f"{m} = {v['value']} {v['unit']}")
    print(f"record: {record}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

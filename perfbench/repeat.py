"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/repeat.py --workloads fig2-sweep fig3-spectrum --seeds 5
    python3 perfbench/repeat.py --seeds 10 --trace-seed 1 --write perfbench/baseline.json

For every workload (default: those of ``BENCHMARK.json``) it runs ``run.py``
with seeds 1..N, ``--trace 0`` and the ``run_seconds`` of ``BENCHMARK.json``,
and prints, per end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median, with quartiles from ``statistics.quantiles(values, n=4)``,
next to a third of the metric's bound.  With ``--trace-seed`` it adds one
``--trace 1`` run per workload.  ``--write`` stores all of it, with the run
metadata, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import OUT, ROOT, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                    default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--write", type=Path, default=None)
    args = ap.parse_args()
    summary = {"seconds": args.seconds, "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    for wl in args.workloads:
        runs = [run_once(wl, s, args.seconds, 0) for s in summary["seeds"]]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m: spread([r["metrics"][m]["value"] for r in runs]) | {"unit": u["unit"]}
                for m, u in runs[0]["metrics"].items()
            },
        }
        print(f"{wl}: correct {entry['correct']}, failed {entry['failed']}/{entry['attempted']}")
        for m, st in entry["end_to_end"].items():
            print(f"  {m:16s} median {st['median']:.6g} {st['unit']:4s} "
                  f"q1 {st['q1']:.6g} q3 {st['q3']:.6g} spread {st['spread']:.4f} "
                  f"(bound / 3 = {BOUNDS[m] / 3:.4f})")
        if args.trace_seed is not None:
            traced = run_once(wl, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {m: v["value"] for m, v in traced["metrics"].items()}
            entry["per_layer_seed"] = args.trace_seed
        summary["workloads"][wl] = entry
    record = OUT / f"{args.workloads[-1]}-seed{args.seeds}-trace0.json"
    summary["metadata"] = json.loads(record.read_text(encoding="utf-8"))["metadata"]
    if args.write is not None:
        args.write.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

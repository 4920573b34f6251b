"""One benchmark run of the pcfilm CLI in a fresh interpreter.

Started by ``run.py`` from the repository root with ``PYTHONPATH=src`` and
the BLAS thread pins already in its environment::

    python3 perfbench/child.py '<json spec>'

Set-up is everything a CLI user pays before the first grid point: interpreter
start (``spec["spawn_t"]`` is the parent's ``time.monotonic()`` just before
it started this process), importing pcfilm, ``parse_config`` +
``build_stack``, and one warm-up point off the grid that fills the lazy
tables.  Then ``pcfilm.cli.main`` runs once on the generated config, timed,
optionally with the layer tracer of ``spans.py`` installed.

The last line of standard output is a JSON object with ``setup_s``,
``wall_s``, ``cpu_s`` (this process and its children, timed region only),
``peak_rss_mb`` (this process plus its largest child), ``rc`` and ``error``.
A failure during set-up is not caught: the process exits non-zero with no
result line.
"""

import json
import math
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    kib = sum(resource.getrusage(w).ru_maxrss
              for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def main() -> None:
    spec = json.loads(sys.argv[1])

    import pcfilm.cli
    from pcfilm import band, scenes, stack

    with open(spec["config"], encoding="utf-8") as fh:
        scene = scenes.parse_config(fh.read())
    desc = scene.build_stack()
    controls = scene.controls()
    omega = float(scene.omega_internal(spec["warm_omega"]))
    if spec["command"] == "band":
        unit, ambient, period = scene.unit_slice()
        s = stack.slice_smatrix(unit, ambient, omega, (0.0, 0.0), controls, scene.lattice())
        band.complex_bands(s, period, omega, (0.0, 0.0))
    else:
        stack.solve_stack_points(
            desc, omega, math.radians(spec["warm_theta_deg"]),
            math.radians(scene.phi_deg), ("s", "p"), controls,
        )
    setup_s = time.monotonic() - spec["spawn_t"]

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    argv = [spec["command"], "--config", spec["config"], "--out", spec["out"],
            "--threads", "1"]
    error = None
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        rc = pcfilm.cli.main(argv)
    except Exception:  # a crashed run counts all its points as failed
        rc, error = None, traceback.format_exc()
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spec["trace"])
    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb, "rc": rc, "error": error,
    }))


if __name__ == "__main__":
    main()

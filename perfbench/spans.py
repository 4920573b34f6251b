"""Per-layer tracing of pcfilm from outside the program.

``Tracer.install()`` wraps the public functions named in ``TARGETS`` and
rebinds every attribute of every loaded ``pcfilm.*`` module that *is* the
original function object, because modules import each other's functions by
name (``stack`` holds its own ``star_product``, ``beam_set`` and
``structure_constants``; ``layer`` holds ``mie_t``; ``emissivity`` and
``cli`` hold ``solve_stack_points``).  ``linalg.solve`` and ``linalg.cond``
are traced only as called by ``pcfilm.layer``: that module's ``np`` is
swapped for a forwarding proxy whose ``linalg`` carries the wrappers.
``Tracer.uninstall()`` puts every original back.

Spans are kept in memory as ``[sid, name, parent_sid, t0, t1, extra]`` and
written once, by ``dump``, when the traced run ends.  Each thread keeps its
own parent stack, so spans opened inside thread-pool workers nest under the
worker's own spans and never under whatever the main thread has open.

Limit: workers of a process pool started with ``spawn`` import pcfilm afresh
and do not inherit the wrappers, so their layers would go untraced.  Per-layer
numbers therefore come from the 1-worker workloads.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import sys
import threading
import time

# "<module>.<function>" under pcfilm, or "<module>.<Class>.<method>"
TARGETS = (
    "lattice.beam_set",
    "lattice.structure_constants",
    "lattice.lattice_sums_ewald",
    "vswf.translation_matrix",
    "vswf.plane_wave_coeffs",
    "vswf.ylm_flat",
    "mie.mie_t",
    "layer.sphere_plane_smatrix",
    "layer.star_product",
    "layer.interface_smatrix",
    "layer.gap_smatrix",
    "layer.plate_smatrix",
    "stack.stack_smatrix",
    "stack.slice_smatrix",
    "stack.solve_stack_points",
    "band.complex_bands",
    "band.overlap_permutation",
    "emissivity.angular_map",
    "output.write_csv",
    "output.write_heatmap_svg",
    "output.write_band_svg",
    "scenes.parse_config",
    "scenes.Scene.build_stack",
    "cli.main",
    "cli.cmd_sweep",
    "cli.cmd_spectrum",
    "cli.cmd_band",
)
LINALG_TARGETS = ("solve", "cond")  # numpy.linalg, as called by pcfilm.layer
LINALG_SCOPE = "pcfilm.layer"
SPAN_NAMES = TARGETS + tuple(f"linalg.{f}" for f in LINALG_TARGETS)


class _Forward:
    """Attribute proxy: the given overrides, everything else from ``target``."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, ids, local = self.spans, self._ids, self._local
        beams = name == "lattice.beam_set"  # record the BeamSet's counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            rec = [sid, name, stack[-1] if stack else None, clock(), None, None]
            spans.append(rec)
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if beams:
                rec[5] = [out.n_beams, int(out.propagating.sum())]
            return out

        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "pcfilm" or n.startswith("pcfilm.")) and m is not None]
        for target in TARGETS:
            mod_name, *path = target.split(".")
            owner = importlib.import_module(f"pcfilm.{mod_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(target, original)
            if owner is not sys.modules[f"pcfilm.{mod_name}"]:
                self._set(owner, path[-1], wrapper)  # a method on a class
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        layer = importlib.import_module(LINALG_SCOPE)
        np = layer.np
        linalg = _Forward(np.linalg, **{
            f: self._wrap(f"linalg.{f}", getattr(np.linalg, f)) for f in LINALG_TARGETS
        })
        self._set(layer, "np", _Forward(np, linalg=linalg))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct child spans."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[2] is not None:
            own[s[2]] -= s[4] - s[3]
    return own


def summarize(span_lists, points: int) -> dict:
    """Per-layer metrics over the spans of one or more traced runs."""
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    beams, point_ms = [], []
    busy = grid = 0.0
    for spans in span_lists:
        own = self_times(spans)
        for sid, name, _, t0, t1, extra in spans:
            calls[name] += 1
            self_s[name] += own[sid]
            if extra is not None:
                beams.append(extra)
            if name == "stack.solve_stack_points":
                point_ms.append((t1 - t0) * 1e3)
            elif name == "emissivity.angular_map":
                grid += t1 - t0
        if any(s[1] == "emissivity.angular_map" for s in spans):
            busy += sum(s[4] - s[3] for s in spans if s[1] == "stack.solve_stack_points")
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls_per_point"] = calls[name] / points
        out[f"{name}.self_ms_per_point"] = self_s[name] * 1e3 / points
    out["lattice.beam_set.n_beams_mean"] = statistics.fmean(b[0] for b in beams) if beams else 0.0
    out["lattice.beam_set.n_propagating_mean"] = (
        statistics.fmean(b[1] for b in beams) if beams else 0.0
    )
    sc_calls = calls["lattice.structure_constants"]
    out["lattice.structure_constants.hit_ratio"] = (
        1.0 - calls["lattice.lattice_sums_ewald"] / sc_calls if sc_calls else 0.0
    )
    out["stack.solve_stack_points.samples"] = len(point_ms)
    p50 = p99 = statistics.median(point_ms) if point_ms else 0.0
    if len(point_ms) >= 2:
        p99 = statistics.quantiles(point_ms, n=100, method="inclusive")[98]
    out["stack.solve_stack_points.p50_ms"] = p50
    out["stack.solve_stack_points.p99_ms"] = p99
    out["emissivity.angular_map.busy_frac"] = busy / grid if grid else 0.0
    return out

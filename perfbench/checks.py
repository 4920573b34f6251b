"""Output checks for the CSV files written by the benchmark's CLI runs.

They assert no new physics; each reuses an invariant the test suite or
``pcfilm validate`` already asserts.  Every check returns the set of grid
points (``(i, j)`` omega/theta indices, or ``i`` for band) that failed;
rows missing from the file or out of grid order fail their point too.

Values in the CSV carry 9 significant digits, so a value v read back may
differ from the computed one by half a unit in its 9th digit, which is at
most ``RTOL * |v|``.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from pcfilm import band as bd
from pcfilm.layer import Plate
from pcfilm.onedim import OneDimLayer, solve_onedim
from pcfilm.stack import Repeat, slice_smatrix, solve_stack

RTOL = 5.000001e-9
DUAL_ENGINE_TOL = 1e-10  # the `dual-engine` threshold of `pcfilm validate`
BAND_IM_TOL = -1e-6      # Im kz * d below this is an unphysical branch
GAP_T_MAX = 1e-3         # TestBandStructureVsTransmission's in-gap transmittance
GAP_SCAN = 40            # omegas in the coarse scan that locates the gap


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _num(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _matches(text: str, value: float, atol: float = 0.0) -> bool:
    x = _num(text)
    return math.isfinite(x) and abs(x - value) <= RTOL * abs(value) + atol


def check_sweep(path, scene) -> set:
    """E finite and in [0, 1] for s and p, and avg = (s + p) / 2."""
    om = scene.omega_display_grid()
    th = np.degrees(scene.theta_grid())
    n = om.size * th.size
    rows = _rows(path)
    if len(rows) != 3 * n:
        return {divmod(t, th.size) for t in range(n)}
    bad, e = set(), {}
    for k, row in enumerate(rows):
        pol, t = divmod(k, n)
        i, j = divmod(t, th.size)
        if (len(row) != 4 or row[2] != ("s", "p", "avg")[pol]
                or not _matches(row[0], om[i]) or not _matches(row[1], th[j])):
            bad.add((i, j))
            continue
        e[pol, i, j] = v = _num(row[3])
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            bad.add((i, j))
    for t in range(n):
        i, j = divmod(t, th.size)
        if (i, j) in bad:
            continue
        s, p, avg = e[0, i, j], e[1, i, j], e[2, i, j]
        if abs(avg - 0.5 * (s + p)) > RTOL * (abs(avg) + 0.5 * (abs(s) + abs(p))):
            bad.add((i, j))
    return bad


def plate_layers(desc) -> list:
    """The stack as 1D layers; the scene must hold only plates and repeats."""
    layers = []

    def walk(elements):
        for el in elements:
            if isinstance(el, Repeat):
                for _ in range(el.count):
                    walk(el.elements)
            elif isinstance(el, Plate):
                layers.append(OneDimLayer(el.material.eps, el.thickness))
            else:
                raise ValueError(f"not a plate-only stack: {el!r}")

    walk(desc.elements)
    return layers


def check_spectrum(path, scene) -> set:
    """R, T, A and E = A agree with the 1D transfer-matrix engine."""
    om = scene.omega_display_grid()
    om_int = scene.omega_internal(om)
    th = scene.theta_grid()
    th_deg = np.degrees(th)
    desc = scene.build_stack()
    layers = plate_layers(desc)
    n = om.size * th.size
    rows = _rows(path)
    if len(rows) != 2 * n:
        return {divmod(t, th.size) for t in range(n)}
    bad = set()
    for k, row in enumerate(rows):
        i, j = divmod(k // 2, th.size)
        pol = "sp"[k % 2]
        if (len(row) != 7 or row[2] != pol
                or not _matches(row[0], om[i]) or not _matches(row[1], th_deg[j])):
            bad.add((i, j))
            continue
        ref = solve_onedim(
            layers, float(om_int[i]), float(th[j]), pol,
            desc.incident, desc.exit, desc.exit_is_opaque,
        )
        got = (row[3], row[4], row[5], row[6])
        if not all(_matches(g, r, DUAL_ENGINE_TOL) for g, r in zip(got, (*ref, ref[2]))):
            bad.add((i, j))
    return bad


def check_band(path, scene) -> set:
    """Every omega has branches, all with finite kz and Im kz * d >= -1e-6."""
    om = scene.omega_display_grid()
    groups: dict = {}
    for row in _rows(path):
        groups.setdefault(row[0], []).append(row)
    bad = set(range(om.size))
    if len(groups) != om.size:
        return bad
    for i, (text, rows) in enumerate(groups.items()):
        if not _matches(text, om[i]):
            continue
        kz = [(_num(r[2]), _num(r[3])) for r in rows if len(r) == 4]
        if len(kz) == len(rows) and all(
            math.isfinite(re) and math.isfinite(im) and im >= BAND_IM_TOL for re, im in kz
        ):
            bad.discard(i)
    return bad


def gap_transmittance(scene, frac: float) -> tuple[float, float]:
    """(omega, T) at ``frac`` of the way through the first band gap.

    The gap is located as TestBandStructureVsTransmission does it: a scan of
    the scene's frequency window, then ``gap_edges``; T is the s-polarised
    normal-incidence transmittance of the full film (all periods).
    """
    unit, amb, period = scene.unit_slice()
    controls = scene.controls()
    lo, hi, _ = scene.omega_sweep
    scan = []
    for om in scene.omega_internal(np.linspace(lo, hi, GAP_SCAN)):
        s = slice_smatrix(unit, amb, float(om), (0.0, 0.0), controls, scene.lattice())
        scan.append(bd.complex_bands(s, period, float(om), (0.0, 0.0)))
    gaps = bd.gap_edges(scan)
    if not gaps:
        return math.nan, math.nan
    g_lo, g_hi = gaps[0]
    om = g_lo + frac * (g_hi - g_lo)
    return float(om), solve_stack(scene.build_stack(), om, 0.0, 0.0, "s", controls).T


CHECKS = {"sweep": check_sweep, "spectrum": check_spectrum, "band": check_band}

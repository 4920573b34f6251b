"""Command-line interface: spectrum / sweep / band / mie / validate.

All subcommands take a scene from ``--preset NAME`` or ``--config PATH``
(plus optional overrides) and write CSV/SVG artifacts into ``--out DIR``.
CSV output is byte-stable for identical inputs regardless of --threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import band as bd
from . import scenes as sc
from .emissivity import PLANCK_PEAK_X, POLS, angular_map, planck_b, planck_weight, run_grid
from .errors import ConfigError, PcfilmError
from .mie import Material, SphereScatterer, mie_cross_sections, mie_t
from .onedim import OneDimLayer, solve_onedim
from .output import fmt9, write_band_svg, write_csv, write_heatmap_svg
from .stack import Gap, Interface, Repeat, slice_smatrix, walk_stack


def _overridden(scene: sc.Scene, args) -> sc.Scene:
    """scene with the --lmax, --cutoff and --units given on the command line."""
    overrides = {
        k: getattr(args, k) for k in ("lmax", "cutoff", "units") if getattr(args, k) is not None
    }
    return dataclasses.replace(scene, **overrides) if overrides else scene


def _load_scene(args) -> sc.Scene:
    if (args.preset is None) == (args.config is None):
        raise PcfilmError("exactly one of --preset / --config is required")
    if args.preset is not None:
        scene = sc.preset(args.preset)
    else:
        scene = sc.parse_config(Path(args.config).read_text(encoding="utf-8"))
    return _overridden(scene, args)


def _freq_header(scene: sc.Scene) -> str:
    return "omega(c/a,angular)" if scene.units == "angular" else "omega(c/a,ordinary)"


def _grid_points(scene: sc.Scene):
    om_disp = scene.omega_display_grid()
    om_int = scene.omega_internal(om_disp)
    th = scene.theta_grid()
    th_deg = np.degrees(th)
    return om_disp, om_int, th, th_deg


def _angular_map(scene: sc.Scene, om_disp, th, threads: int = 1):
    """EmissivityMap at displayed omegas and angles th (rad), failures named as displayed."""
    return angular_map(
        scene.build_stack(), scene.omega_internal(om_disp), th, scene.controls(),
        math.radians(scene.phi_deg), threads, om_disp,
    )


def cmd_spectrum(scene: sc.Scene, out: Path, threads: int) -> list[Path]:
    om_disp, _, th, th_deg = _grid_points(scene)
    emap = _angular_map(scene, om_disp, th, threads)
    rows = [
        [fmt9(om_disp[i]), fmt9(th_deg[j]), pol]
        + [fmt9(x[i, j, k]) for x in (emap.R, emap.T, emap.A, emap.A)]  # E = A
        for i in range(om_disp.size)
        for j in range(th_deg.size)
        for k, pol in enumerate(POLS)
    ]
    path = out / "spectrum.csv"
    write_csv(path, [_freq_header(scene), "theta(deg)", "pol", "R", "T", "A", "E"], rows)
    return [path]


def cmd_sweep(scene: sc.Scene, out: Path, threads: int) -> list[Path]:
    om_disp, _, th, th_deg = _grid_points(scene)
    emap = _angular_map(scene, om_disp, th, threads)
    maps = (("s", emap.e_s), ("p", emap.e_p), ("avg", emap.e_avg))
    rows = []
    for pol, mat in maps:
        for i in range(om_disp.size):
            for j in range(th_deg.size):
                rows.append([fmt9(om_disp[i]), fmt9(th_deg[j]), pol, fmt9(mat[i, j])])
    paths = [out / "sweep.csv"]
    write_csv(paths[0], [_freq_header(scene), "theta(deg)", "pol", "E"], rows)
    for pol, mat in maps:
        p = out / f"sweep_{pol}.svg"
        write_heatmap_svg(
            p, th_deg, om_disp, mat.T, f"emissivity E ({pol})",
            "theta (deg)", _freq_header(scene),
        )
        paths.append(p)
    return paths


def cmd_band(scene: sc.Scene, out: Path, threads: int) -> list[Path]:
    unit, ambient, period = scene.unit_slice()
    if period <= 0:
        raise PcfilmError("scene has no repeated unit with positive thickness")
    om_disp, om_int, _, _ = _grid_points(scene)
    if (np.diff(om_int) <= 0).any():  # gap_edges continues branches along increasing omega
        lo, hi, n = scene.omega_sweep
        raise ConfigError([(None, f"[sweep] omega = {lo} {hi} {n}: band needs min < max")])
    controls = scene.controls()
    lat = scene.lattice()
    if controls.cutoff is None:
        # pin the beam cutoff at the scan maximum, over the media of the unit
        # slice as slice_smatrix sees them, so the Bloch eigenvector dimension
        # is constant and branches can be continued by overlap
        eps_max = max(abs(eps) for eps in walk_stack(unit, ambient).media)
        controls = dataclasses.replace(
            controls, cutoff=controls.resolved_cutoff(float(om_int[-1]), eps_max, 0.0)
        )

    def point(task):
        om = om_int[task[0]]
        s = slice_smatrix(unit, ambient, om, (0.0, 0.0), controls, lat)
        return bd.complex_bands(s, period, om, (0.0, 0.0))

    tasks = [(i,) for i in range(om_int.size)]
    points = run_grid(point, tasks, threads, lambda t: f"band failed at omega={om_disp[t[0]]}")
    # eigenvector-overlap continuation: label branches consistently along the scan
    rows = []
    prev = None
    for i, bp in enumerate(points):
        if prev is not None and prev.kz_list.size and bp.kz_list.size:
            perm = bd.overlap_permutation(prev, bp)
            bp = dataclasses.replace(bp, kz_list=bp.kz_list[perm], vectors=bp.vectors[:, perm])
        prev = bp
        for branch, kz in enumerate(bp.kz_list):
            rows.append([
                fmt9(om_disp[i]), str(branch),
                fmt9(kz.real * period / math.pi), fmt9(kz.imag * period),
            ])
    gaps_internal = bd.gap_edges(points)
    gaps_disp = [
        (float(scene.omega_displayed(lo)), float(scene.omega_displayed(hi)))
        for lo, hi in gaps_internal
    ]
    paths = [out / "band.csv", out / "band.svg"]
    write_csv(paths[0], [_freq_header(scene), "branch", "re_kz_d_over_pi", "im_kz_d"], rows)
    write_band_svg(
        paths[1], om_disp, [bp.kz_list for bp in points], period,
        gaps_disp, "complex band structure (normal incidence)",
        y_label=_freq_header(scene),
    )
    return paths


def _first_scatterer(scene: sc.Scene) -> SphereScatterer:
    plane = scene.build_stack().walk.plane
    if plane is None:
        raise PcfilmError("scene contains no sphere plane; nothing for 'mie' to compute")
    return plane.scatterer


def cmd_mie(scene: sc.Scene, out: Path) -> list[Path]:
    sphere = _first_scatterer(scene)
    om_disp, om_int, _, _ = _grid_points(scene)
    rows = []
    for od, oi in zip(om_disp, om_int):
        cs = mie_cross_sections(sphere, oi)
        rows.append([
            fmt9(od), fmt9(cs.q_ext), fmt9(cs.q_sca), fmt9(cs.q_abs),
            "true" if cs.applicable else "false",
        ])
    path = out / "mie.csv"
    write_csv(path, [_freq_header(scene), "q_ext", "q_sca", "q_abs", "applicable"], rows)
    return [path]


def _lossless_variant(scene: sc.Scene) -> sc.Scene:
    mats = tuple((name, complex(eps.real, 0.0)) for name, eps in scene.materials)
    return dataclasses.replace(scene, materials=mats, exit="vacuum", opaque="false")


def _onedim_layers(walk) -> list:
    """The OneDimLayers of a sphere-free walk: a gap is a layer of its ambient."""
    layers = []
    for step in walk.steps:
        el = step.element
        if isinstance(el, Repeat):
            layers += _onedim_layers(step.walk) * el.count
        elif isinstance(el, Gap):
            layers.append(OneDimLayer(step.ambient.eps, el.distance))
        elif not isinstance(el, Interface):
            layers.append(OneDimLayer(el.material.eps, el.thickness))
    return layers


def run_validate(scene: sc.Scene):
    """Invariant checks with measured residuals: [(name, residual, threshold)]."""
    checks = []
    rt = sc.parse_config(sc.serialize_scene(scene))
    checks.append(("config-round-trip", 0.0 if rt == scene else 1.0, 0.5))

    xs = np.linspace(2.0, 3.6, 20001)
    x_peak = xs[np.argmax(planck_b(xs))]
    checks.append(("planck-peak", abs(x_peak - PLANCK_PEAK_X), 1e-3))
    grid = np.linspace(1e-3, 40.0, 4000)
    pw = planck_weight(grid, np.ones_like(grid), 1.0)
    checks.append(("planck-normalization", abs(np.trapezoid(pw.weighted, grid) - 1.0), 1e-6))

    om_disp = scene.omega_display_grid()
    om_disp = om_disp[[0, om_disp.size // 2, -1]]
    om_pts = scene.omega_internal(om_disp)
    th_pts = (0.0, math.radians(40.0))
    emap = _angular_map(_lossless_variant(scene), om_disp, th_pts)
    resid = float(np.max(np.abs(emap.R + emap.T - 1.0)))
    desc = scene.build_stack()
    spheres = desc.walk.plane is not None
    checks.append(("energy-conservation", resid, 1e-6 if spheres else 1e-10))

    if not spheres:
        layers = _onedim_layers(desc.walk)
        emap = _angular_map(scene, om_disp, th_pts)
        onedim = np.array([
            [
                [solve_onedim(layers, float(om), th, pol, desc.incident, desc.exit,
                              desc.exit_is_opaque) for pol in POLS]
                for th in th_pts
            ]
            for om in om_pts
        ])
        rta = np.stack([emap.R, emap.T, emap.A], axis=-1)
        checks.append(("dual-engine", float(np.max(np.abs(rta - onedim))), 1e-10))
    else:
        sphere = desc.walk.plane.scatterer
        host = Material(complex(sphere.host.eps).real)
        inner = Material(complex(sphere.inside.eps).real)
        resid = 0.0
        for om in om_pts:
            t_e, t_m = mie_t(SphereScatterer(sphere.radius, inner, host), float(om), scene.lmax)
            resid = max(
                resid,
                float(np.max(np.abs(np.abs(1 + 2 * t_e) - 1))),
                float(np.max(np.abs(np.abs(1 + 2 * t_m) - 1))),
            )
        checks.append(("mie-unitarity", resid, 1e-10))
    return checks


def cmd_validate(args, out: Path) -> int:
    if args.preset is None and args.config is None:
        targets = [(n, _overridden(sc.preset(n), args)) for n in sorted(sc.PRESET_TEXT)]
    else:
        targets = [(args.preset or "config", _load_scene(args))]
    lines = []
    ok = True
    for name, scene in targets:
        for check, resid, thr in run_validate(scene):
            passed = resid < thr
            ok = ok and passed
            lines.append(
                f"{'PASS' if passed else 'FAIL'} {name}/{check}: "
                f"residual={fmt9(resid)} threshold={fmt9(thr)}"
            )
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    (out / "validate.txt").write_text(report, encoding="utf-8")
    return 0 if ok else 1


# the commands that solve a grid of points, on --threads threads
_GRID_RUNNERS = {"spectrum": cmd_spectrum, "sweep": cmd_sweep, "band": cmd_band}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pcfilm", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("spectrum", "R/T/A/E long CSV over the sweep grid"),
        ("sweep", "emissivity map CSV + SVG heatmaps per polarization"),
        ("band", "complex band structure CSV + SVG at normal incidence"),
        ("mie", "single-sphere cross sections over the frequency grid"),
        ("validate", "run invariant suites, report residuals (exit 0 = pass)"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="scene config file path")
        p.add_argument("--preset", help="built-in scene name (paper-fig2/3/4)")
        p.add_argument("--out", default=".", help="output directory")
        if name in _GRID_RUNNERS:
            p.add_argument("--threads", type=int, default=1, help="threads over the grid points")
        p.add_argument("--lmax", type=int, default=None)
        p.add_argument("--cutoff", type=float, default=None)
        p.add_argument("--units", choices=("angular", "ordinary"), default=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "validate":
            return cmd_validate(args, out)
        scene = _load_scene(args)
        if args.command == "mie":
            paths = cmd_mie(scene, out)
        else:
            paths = _GRID_RUNNERS[args.command](scene, out, max(1, args.threads))
        for p in paths:
            sys.stdout.write(f"wrote {p}\n")
        return 0
    except PcfilmError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Sensitivity of the emissivity spectrum to the crystal/backplane spacing.

The paper does not state the gap between the last sphere plane and the
substrate; the preset uses the mirror-plane cut (dz/2 on both faces).  This
scan varies the trailing gap from contact to a full plane spacing and
reports how the normal-incidence gap center and band-edge peak move.
"""

import dataclasses
import math
import sys

import pcfilm.scenes as sc
from pcfilm.band import true_runs
from pcfilm.emissivity import angular_map

DZ = math.sqrt(2.0) / 4.0


def gap_center(om_disp, e_avg, threshold=0.2):
    best = max(true_runs(e_avg < threshold), key=lambda r: r[1] - r[0], default=None)
    if best is None:
        return None
    return 0.5 * (om_disp[best[0]] + om_disp[best[1]])


def spectrum_for_spacing(scene, spacing):
    # replace the final half-gap of the last period by the requested spacing:
    # append a compensating post gap (never negative, clipped at contact)
    extra = spacing - DZ / 2.0
    post = (("gap", repr(max(extra, 0.0))),)
    unit = scene.unit
    if extra < 0:
        # shrink the trailing unit gap instead
        unit = unit[:-1] + (("gap", repr(DZ / 2.0 + extra)),)
        post = ()
    varied = dataclasses.replace(scene, unit=unit, post=post)
    om_disp = varied.omega_display_grid()
    desc = varied.build_stack()
    emap = angular_map(desc, varied.omega_internal(om_disp), [0.0], varied.controls())
    return om_disp, emap.e_avg[:, 0]


def main():
    scene = sc.preset("paper-fig2")
    scene = dataclasses.replace(scene, omega_sweep=(1.8, 2.8, 60))
    print("spacing/dz  gap_center(c/a)  max_band_edge_E")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        om, e = spectrum_for_spacing(scene, frac * DZ)
        center = gap_center(om, e)
        print(f"{frac:10.2f}  {center if center else float('nan'):15.4f}  {e.max():15.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

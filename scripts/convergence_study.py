#!/usr/bin/env python3
"""Truncation convergence of the Fig. 2 emissivity: lmax 7 -> 8 and beam
cutoff +30%, reporting the largest absolute change in E over a coarse grid."""

import math
import sys

import numpy as np

import pcfilm.scenes as sc
from pcfilm.emissivity import angular_map
from pcfilm.stack import NumericalControls


def emap(scene, controls, om_int, thetas):
    """E[omega, theta, pol] for s and p."""
    return angular_map(scene.build_stack(), om_int, thetas, controls).A


def main():
    scene = sc.preset("paper-fig2")
    om_int = scene.omega_internal(np.linspace(1.8, 2.8, 12))
    thetas = [0.0, math.radians(30), math.radians(60)]
    eps_max = max(abs(eps) for _, eps in scene.materials)
    base_ctrl = scene.controls()
    cut0 = base_ctrl.resolved_cutoff(float(om_int[-1]), eps_max, float(om_int[-1]))
    base = emap(scene, NumericalControls(lmax=7, cutoff=cut0), om_int, thetas)
    for label, ctrl in (
        ("lmax 7 -> 8", NumericalControls(lmax=8, cutoff=cut0)),
        ("cutoff +30%", NumericalControls(lmax=7, cutoff=1.3 * cut0)),
    ):
        delta = np.max(np.abs(emap(scene, ctrl, om_int, thetas) - base))
        print(f"{label}: max |dE| = {delta:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Complex band structure of the infinitely repeated slice.

The Bloch condition on a unit slice with scattering blocks (tpp, rpm, rmp,
tmm) is posed as the generalized eigenproblem

    [[tpp, rmp], [0, I]] v = lambda [[I, 0], [rpm, tmm]] v,   v = (a+_L, b-_R)

which never inverts the (exponentially small in-gap) transmission blocks.
Bloch wavevectors are kz = -i ln(lambda) / period with Re(kz) in
(-pi/d, pi/d].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy.linalg is imported inside complex_bands, not here: it costs about 0.2 s
# at start-up, and only the band command solves the pencil.
from .errors import ConvergenceError, InvalidArgumentError
from .layer import LayerS

PROP_TOL = 1e-6  # |ln|lambda|| below this counts as a propagating band


@dataclass(frozen=True)
class BandPoint:
    """Bloch wavevectors (units 1/a) of one stacking period at fixed (omega, kpar).

    kz_list holds the Im(kz) >= 0 representative of every (lambda, 1/lambda*)
    pair, sorted by (Im kz, Re kz); vectors are the matching eigenvectors
    (columns), used for band continuation across a frequency scan.
    """

    omega: float
    kpar: tuple[float, float]
    period: float
    kz_list: np.ndarray
    vectors: np.ndarray

    @property
    def propagating(self) -> np.ndarray:
        return np.abs(self.kz_list.imag) * self.period < PROP_TOL


def complex_bands(unit: LayerS, period: float, omega: float, kpar) -> BandPoint:
    """All Bloch branches of the repeated unit slice at one (omega, kpar).

    In the mirror sectors each sector's pencil is solved on its own and the
    branches are concatenated, each eigenvector in its own sector's rows, so
    branches of different sectors never overlap.
    """
    import scipy.linalg

    if period <= 0:
        raise InvalidArgumentError(f"period must be > 0, got {period}")
    if unit.beams.ambient.eps != unit.mat_right.eps:
        raise InvalidArgumentError("unit slice must have the same ambient on both sides")
    tpp, rpm, rmp, tmm = (unit.stacked(i) for i in range(4))
    n_sectors, n = tpp.shape[:2]
    eye = np.eye(n, dtype=complex)
    zero = np.zeros((n, n), dtype=complex)
    sector_vals, sector_vecs = [], []
    for s in range(n_sectors):
        a = np.block([[tpp[s], rmp[s]], [zero, eye]])
        b = np.block([[eye, zero], [rpm[s], tmm[s]]])
        try:
            vals, vecs = scipy.linalg.eig(a, b)
        except Exception as exc:  # scipy raises LinAlgError subclasses
            raise ConvergenceError(
                "generalized eigensolver failed",
                {
                    "cond_a": np.linalg.cond(a),
                    "cond_b": np.linalg.cond(b),
                    "omega": omega,
                },
            ) from exc
        sector_vals.append(vals)
        sector_vecs.append(vecs)
    vals = np.concatenate(sector_vals)
    vecs = scipy.linalg.block_diag(*sector_vecs)  # each sector in its own rows
    keep = []
    for i, lam in enumerate(vals):
        if not np.isfinite(lam) or lam == 0:
            continue  # half of a fully evanescent pair; its partner is kept
        # np.log takes the Bloch phase Re(kz) d in (-pi, pi]; a phase that
        # rounding put within 1e-9 pi of -pi is the zone edge +pi
        kz = -1j * np.log(lam) / period
        if kz.real * period < (1e-9 - 1.0) * math.pi:
            kz += 2 * math.pi / period
        if kz.imag > -PROP_TOL / period:
            keep.append((kz, i))
    keep.sort(key=lambda t: (round(t[0].imag, 9), round(t[0].real, 9)))
    kz_list = np.array([t[0] for t in keep])
    vectors = vecs[:, [t[1] for t in keep]]
    return BandPoint(
        omega=float(omega),
        kpar=(float(kpar[0]), float(kpar[1])),
        period=float(period),
        kz_list=kz_list,
        vectors=vectors,
    )


def overlap_permutation(prev: BandPoint, cur: BandPoint) -> np.ndarray:
    """Column order of ``cur`` branches maximizing eigenvector overlap with ``prev``.

    Greedy assignment on |<v_prev, v_cur>|; used to keep band lines connected
    across a frequency scan instead of sorting by eigenvalue.  Branches with
    zero overlap (of different mirror sectors) are never paired.
    """
    p = prev.vectors / np.linalg.norm(prev.vectors, axis=0, keepdims=True)
    c = cur.vectors / np.linalg.norm(cur.vectors, axis=0, keepdims=True)
    ov = np.abs(p.conj().T @ c)
    nprev, ncur = ov.shape
    slot = np.full(nprev, -1, dtype=int)
    work = ov.copy()
    used = set()
    for _ in range(min(nprev, ncur)):
        i, j = np.unravel_index(np.argmax(work), work.shape)
        if work[i, j] <= 0:
            break
        slot[i] = j
        used.add(j)
        work[i, :] = -1.0
        work[:, j] = -1.0
    out = [j for j in slot if j >= 0]
    out += [j for j in range(ncur) if j not in used]
    return np.array(out, dtype=int)


def true_runs(mask) -> list[tuple[int, int]]:
    """(first, last) index of every maximal run of True in ``mask``, in order."""
    steps = np.diff(np.concatenate([[0], np.asarray(mask, dtype=np.int8), [0]]))
    starts = np.flatnonzero(steps == 1)
    ends = np.flatnonzero(steps == -1) - 1
    return list(zip(starts.tolist(), ends.tolist()))


def gap_edges(scan, refine=None, tol: float = 1e-4):
    """Maximal omega intervals of a monotone scan with no propagating branch.

    ``scan`` is a sequence of BandPoint at increasing omega.  When ``refine``
    (a callable omega -> BandPoint) is given, each edge is sharpened by
    bisection to ``tol`` in omega; otherwise edges sit at grid midpoints.
    """
    scan = list(scan)
    if any(scan[i].omega >= scan[i + 1].omega for i in range(len(scan) - 1)):
        raise InvalidArgumentError("scan must be strictly increasing in omega")
    in_gap = [not bp.propagating.any() for bp in scan]

    def edge(om_prop: float, om_gap: float) -> float:
        if refine is None:
            return 0.5 * (om_prop + om_gap)
        lo, hi = om_prop, om_gap
        while abs(hi - lo) > tol:
            mid = 0.5 * (lo + hi)
            if refine(mid).propagating.any():
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    gaps = []
    for i, j in true_runs(in_gap):
        lo = scan[i].omega if i == 0 else edge(scan[i - 1].omega, scan[i].omega)
        hi = scan[j].omega if j == len(scan) - 1 else edge(scan[j + 1].omega, scan[j].omega)
        gaps.append((lo, hi))
    return gaps


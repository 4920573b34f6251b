"""CSV and SVG artifact writers.

CSV is RFC-4180 (CRLF, minimal quoting) with 9 significant digits and a
fixed column order, so identical runs produce byte-identical files.  SVG
heatmaps and band plots are emitted natively (rectangles, lines, circles,
axis text) as SVG 1.1 — no plotting dependency.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import InvalidArgumentError


def fmt9(x) -> str:
    """9 significant digits; canonical text for NaN/inf."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.9g}"


def write_csv(path, header, rows) -> None:
    """RFC-4180 CSV; all numeric cells must already be formatted strings."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)  # csv default terminator is CRLF
        writer.writerow(header)
        writer.writerows(rows)


# piecewise-linear colormap anchors (dark blue -> teal -> yellow), value in [0,1]
_CMAP = (
    (0.0, (13, 8, 135)),
    (0.25, (92, 1, 166)),
    (0.5, (203, 71, 119)),
    (0.75, (249, 149, 64)),
    (1.0, (240, 249, 33)),
)


def _color(v: float) -> str:
    v = min(1.0, max(0.0, v))
    for (x0, c0), (x1, c1) in zip(_CMAP, _CMAP[1:]):
        if v <= x1:
            t = 0.0 if x1 == x0 else (v - x0) / (x1 - x0)
            r, g, b = (round(a + t * (b_ - a)) for a, b_ in zip(c0, c1))
            return f"#{r:02x}{g:02x}{b:02x}"
    return "#f0f921"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Svg:
    """Minimal SVG 1.1 document builder."""

    def __init__(self, width: int, height: int):
        self.w, self.h = width, height
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        ]

    def rect(self, x, y, w, h, fill):
        self.parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" fill="{fill}"/>'
        )

    def line(self, x1, y1, x2, y2, stroke="black", width=1.0):
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def circle(self, x, y, r, fill="black"):
        self.parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" fill="{fill}"/>')

    def text(self, x, y, s, size=11, anchor="start", rotate=None):
        extra = f' transform="rotate({rotate} {x:.2f} {y:.2f})"' if rotate is not None else ""
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-family="sans-serif" font-size="{size}" '
            f'text-anchor="{anchor}"{extra}>{_esc(s)}</text>'
        )

    def save(self, path):
        self.parts.append("</svg>")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.parts) + "\n")


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def write_heatmap_svg(
    path,
    x_grid,
    y_grid,
    values,
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """Heatmap of values[i, j] in [0, 1] over x_grid[i] (horizontal) and y_grid[j].

    The colorbar carries its numerical limits as text.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    y_grid = np.asarray(y_grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (x_grid.size, y_grid.size):
        raise InvalidArgumentError(
            f"values shape {values.shape} != grid shape {(x_grid.size, y_grid.size)}"
        )
    ml, mr, mt, mb = 70, 80, 40, 55
    pw, ph = 560, 380
    svg = _Svg(ml + pw + mr, mt + ph + mb)
    nx, ny = x_grid.size, y_grid.size
    cw, ch = pw / nx, ph / ny
    for i in range(nx):
        for j in range(ny):
            # y axis increases upward: row j=0 at the bottom
            svg.rect(
                ml + i * cw, mt + ph - (j + 1) * ch, cw + 0.5, ch + 0.5,
                _color(values[i, j]),
            )
    svg.text(ml + pw / 2, mt - 14, title, size=14, anchor="middle")
    # axes
    svg.line(ml, mt + ph, ml + pw, mt + ph)
    svg.line(ml, mt, ml, mt + ph)
    for tx in _ticks(float(x_grid[0]), float(x_grid[-1])):
        px = ml + (tx - x_grid[0]) / (x_grid[-1] - x_grid[0] or 1.0) * pw
        svg.line(px, mt + ph, px, mt + ph + 5)
        svg.text(px, mt + ph + 18, fmt9(round(tx, 6)), size=10, anchor="middle")
    for ty in _ticks(float(y_grid[0]), float(y_grid[-1])):
        py = mt + ph - (ty - y_grid[0]) / (y_grid[-1] - y_grid[0] or 1.0) * ph
        svg.line(ml - 5, py, ml, py)
        svg.text(ml - 8, py + 4, fmt9(round(ty, 6)), size=10, anchor="end")
    svg.text(ml + pw / 2, mt + ph + 38, x_label, size=12, anchor="middle")
    svg.text(ml - 45, mt + ph / 2, y_label, size=12, anchor="middle", rotate=-90)
    # colorbar
    cb_x, cb_w, n_cb = ml + pw + 25, 18, 64
    for k in range(n_cb):
        svg.rect(cb_x, mt + ph - (k + 1) * ph / n_cb, cb_w, ph / n_cb + 0.5, _color((k + 0.5) / n_cb))
    svg.text(cb_x + cb_w / 2, mt - 6, "1", size=10, anchor="middle")
    svg.text(cb_x + cb_w / 2, mt + ph + 14, "0", size=10, anchor="middle")
    svg.save(path)


def write_band_svg(
    path,
    omega_grid,
    kz_rows,
    period: float,
    gaps,
    title: str,
    y_label: str = "frequency",
) -> None:
    """Band plot: propagating Re(kz)d/pi vs omega dots, gap intervals shaded.

    kz_rows[i] is the (possibly empty) sequence of complex Bloch kz at
    omega_grid[i]; only near-propagating branches are drawn.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    ml, mr, mt, mb = 70, 30, 40, 55
    pw, ph = 420, 420
    svg = _Svg(ml + pw + mr, mt + ph + mb)
    olo, ohi = float(omega_grid[0]), float(omega_grid[-1])

    def py(om):
        return mt + ph - (om - olo) / (ohi - olo or 1.0) * ph

    def px(x):
        return ml + (x + 1.0) / 2.0 * pw  # x in [-1, 1]

    for lo, hi in gaps:
        svg.rect(ml, py(hi), pw, max(py(lo) - py(hi), 1.0), "#fde0dd")
        svg.text(ml + 6, py(hi) + 12, f"gap [{fmt9(lo)}, {fmt9(hi)}]", size=10)
    for om, kzs in zip(omega_grid, kz_rows):
        for kz in kzs:
            if abs(kz.imag) * period < 1e-3:
                x = kz.real * period / math.pi
                svg.circle(px(x), py(om), 1.6, "#1f3b99")
    svg.text(ml + pw / 2, mt - 14, title, size=14, anchor="middle")
    svg.line(ml, mt + ph, ml + pw, mt + ph)
    svg.line(ml, mt, ml, mt + ph)
    for tx in (-1.0, -0.5, 0.0, 0.5, 1.0):
        svg.line(px(tx), mt + ph, px(tx), mt + ph + 5)
        svg.text(px(tx), mt + ph + 18, fmt9(tx), size=10, anchor="middle")
    for ty in _ticks(olo, ohi):
        svg.line(ml - 5, py(ty), ml, py(ty))
        svg.text(ml - 8, py(ty) + 4, fmt9(round(ty, 6)), size=10, anchor="end")
    svg.text(ml + pw / 2, mt + ph + 38, "Re(kz) d / pi", size=12, anchor="middle")
    svg.text(ml - 45, mt + ph / 2, y_label, size=12, anchor="middle", rotate=-90)
    svg.save(path)

"""Minimal deterministic SVG line plots.

Hand-written polyline panels with a fixed viewBox so experiment figures are
dependency-free and byte-stable (golden-file testable). Coordinates are
formatted with fixed precision; no timestamps or random ids.

Curves are drawn at the plot's resolution. After clipping to the x range and
mapping to pixels, a polyline keeps its first and last points and each point
at which the path length, summed as |dx| + |dy| in pixels, enters a new
_TOLERANCE_PX cell. A dropped point is then less than _TOLERANCE_PX from the
last kept point, so the drawn polyline is within _TOLERANCE_PX (Hausdorff) of
the full one. Each kept point has the text "%.3f,%.3f" of the scalar pixel
arithmetic, and the points are joined with single spaces. The curve CSVs
written next to a panel keep every point.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["Curve", "render_panel"]

WIDTH = 640
HEIGHT = 480
MARGIN_L = 60
MARGIN_R = 15
MARGIN_T = 40
MARGIN_B = 45

PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


class Curve:
    def __init__(self, xs: Sequence[float], ys: Sequence[float],
                 color: str, width: float = 1.0) -> None:
        if len(xs) != len(ys):
            raise ValueError("xs and ys lengths differ")
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = np.asarray(ys, dtype=np.float64)
        self.color = color
        self.width = width


# a drawn polyline stays within this many pixels of the full curve
_TOLERANCE_PX = 0.5


def _fmt(v: float) -> str:
    return "%.3f" % v


def _thinned(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Mask of the pixel points a polyline keeps: the first, the last, and
    each one whose path length from the first, as |dx| + |dy|, enters a new
    _TOLERANCE_PX cell. A dropped point lies within a path length, and so a
    distance, of less than _TOLERANCE_PX from the last kept point."""
    keep = np.ones(xs.shape[0], dtype=bool)
    if xs.shape[0] > 2:
        path = np.cumsum(np.abs(np.diff(xs)) + np.abs(np.diff(ys)))
        keep[1:] = np.diff(np.floor(path / _TOLERANCE_PX), prepend=0.0) != 0.0
        keep[-1] = True
    return keep


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """The points as "x,y x,y ..." in "%.3f"."""
    return ("%.3f,%.3f " * xs.shape[0])[:-1] % tuple(
        np.column_stack((xs, ys)).ravel().tolist())


def render_panel(path, curves: Sequence[Curve], title: str,
                 x_range: tuple[float, float], y_range: tuple[float, float] = (0.0, 1.0),
                 x_ticks: Sequence[float] = (), y_ticks: Sequence[float] = ()) -> None:
    """Write one panel of polyline curves with axes and tick labels."""
    x0, x1 = x_range
    y0, y1 = y_range
    if not (x1 > x0 and y1 > y0):
        raise ValueError("ranges must be nonempty")
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float | np.ndarray) -> float | np.ndarray:
        return MARGIN_L + (x - x0) / (x1 - x0) * plot_w

    def py(y: float | np.ndarray) -> float | np.ndarray:
        return HEIGHT - MARGIN_B - (y - y0) / (y1 - y0) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for t in x_ticks:
        if not x0 <= t <= x1:
            continue
        xp = _fmt(px(t))
        yb = HEIGHT - MARGIN_B
        parts.append(f'<line x1="{xp}" y1="{yb}" x2="{xp}" y2="{yb + 5}" '
                     'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{xp}" y="{yb + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{t:.3g}</text>')
    for t in y_ticks:
        if not y0 <= t <= y1:
            continue
        yp = _fmt(py(t))
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{yp}" x2="{MARGIN_L}" y2="{yp}" '
                     'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{yp}" text-anchor="end" '
                     f'dominant-baseline="middle" font-family="sans-serif" '
                     f'font-size="11">{t:.3g}</text>')
    for curve in curves:
        # px and py run elementwise: the same float operations, in the same
        # order, as on one scalar, so each point keeps its bits and its text
        inside = (curve.xs >= x0) & (curve.xs <= x1)
        xs, ys = px(curve.xs[inside]), py(curve.ys[inside])
        keep = _thinned(xs, ys)
        pts = _points(xs[keep], ys[keep])
        if pts:
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{curve.color}" stroke-width="{curve.width:g}"/>')
    parts.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(parts) + "\n")

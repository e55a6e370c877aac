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

An EDF curve is given by its sorted values alone (ys None): the probability
of its k-th of m points is (k + 0.5)/m, computed from the point index one
chunk at a time with the float operations of midpoint_probs(m), so no
curve-length probability array exists.

A curve is clipped, mapped, thinned and formatted in chunks of _CHUNK
points. Three things cross a chunk boundary: the last inside pixel point,
the running path length (one sequential sum, so every partial sum has the
bits of a whole-curve cumsum) and its half-pixel cell. The kept points are
therefore those of one pass over the whole curve, and a panel's working
memory is O(_CHUNK + kept points) whatever the curve's length.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

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
    """The points (xs[k], ys[k]), or with ys None the EDF of the sorted
    values xs, at the midpoint probabilities (k + 0.5)/m."""

    def __init__(self, xs: Sequence[float], ys: Sequence[float] | None,
                 color: str, width: float = 1.0) -> None:
        if ys is not None and len(xs) != len(ys):
            raise ValueError("xs and ys lengths differ")
        self.xs = np.asarray(xs, dtype=np.float64)
        self.ys = None if ys is None else np.asarray(ys, dtype=np.float64)
        self.color = color
        self.width = width


# a drawn polyline stays within this many pixels of the full curve
_TOLERANCE_PX = 0.5
# points of a curve clipped, mapped, thinned and formatted at a time
_CHUNK = 8192


def _fmt(v: float) -> str:
    return "%.3f" % v


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """The points as "x,y x,y ..." in "%.3f"."""
    return ("%.3f,%.3f " * xs.shape[0])[:-1] % tuple(
        np.column_stack((xs, ys)).ravel().tolist())


def _polyline(xs: np.ndarray, ys: np.ndarray | None, x_range: tuple[float, float],
              px, py) -> str:
    """The kept points of the curve (xs, ys) as _points text (ys None: the
    EDF's midpoint probabilities, one chunk at a time): the points with
    x in x_range, mapped by px and py, thinned to the first, the last and each
    one whose path length from the first, as |dx| + |dy|, enters a new
    _TOLERANCE_PX cell. A dropped point lies within a path length, and so a
    distance, of less than _TOLERANCE_PX from the last kept point."""
    x0, x1 = x_range
    texts: list[str] = []
    # the last inside point, its path length and cell, and whether it is kept;
    # the first point, at path length 0 and no cell yet, is kept
    last_x = last_y = None
    path, cell = 0.0, -1.0
    last_kept = True
    m = xs.shape[0]
    for i in range(0, m, _CHUNK):
        chunk = xs[i:i + _CHUNK]
        inside = (chunk >= x0) & (chunk <= x1)
        # an EDF's ys are midpoint_probs(m)[i:i + len(chunk)], operation for operation
        chunk_ys = (np.arange(i, i + chunk.shape[0]) + 0.5) / m if ys is None else ys[i:i + _CHUNK]
        # px and py run elementwise: the same float operations, in the same
        # order, as on one scalar, so each point keeps its bits and its text
        cx, cy = px(chunk[inside]), py(chunk_ys[inside])
        if cx.shape[0] == 0:
            continue
        if last_x is None:  # the first point is its own predecessor
            last_x, last_y = cx[0], cy[0]
        steps = np.abs(np.diff(cx, prepend=last_x)) + np.abs(np.diff(cy, prepend=last_y))
        steps[0] += path  # the sum goes on from the carried length, term by term
        lengths = np.cumsum(steps, out=steps)
        cells = np.floor(lengths / _TOLERANCE_PX)
        keep = np.diff(cells, prepend=cell) != 0.0
        texts.append(_points(cx[keep], cy[keep]))
        last_x, last_y, path, cell, last_kept = cx[-1], cy[-1], lengths[-1], cells[-1], keep[-1]
    if not last_kept:
        texts.append("%.3f,%.3f" % (last_x, last_y))
    return " ".join(t for t in texts if t)


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
        pts = _polyline(curve.xs, curve.ys, (x0, x1), px, py)
        if pts:
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{curve.color}" stroke-width="{curve.width:g}"/>')
    parts.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(parts) + "\n")

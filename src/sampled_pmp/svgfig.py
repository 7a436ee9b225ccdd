"""Minimal deterministic SVG line plots (no plotting dependency).

Fixed 800x500 viewport, linear axes with tick labels, and three series
types: polylines, cross markers, and zero-order-hold staircases.  Output is
plain text with fixed numeric formatting, so identical data produces
byte-identical files.  A series is scaled as an array and formatted by one
``%`` over all its points.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

WIDTH = 800
HEIGHT = 500
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 40
MARGIN_B = 50
STROKE_WIDTH = 1.5      # of every series
CROSS_SIZE = 4.0        # half-width of a cross marker
TICK_TARGET = 6         # ticks per axis aimed at


def _nonempty(lo: float, hi: float) -> float:
    """hi, or for an empty range the end of a unit span, lo + 1, or of one
    float step where 1 is below the resolution of lo."""
    if hi > lo:
        return hi
    hi = lo + 1.0
    return hi if hi > lo else math.nextafter(lo, math.inf)


def _nice_ticks(lo: float, hi: float):
    """Round tick positions covering [lo, hi] with a 1/2/5 step."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    hi = _nonempty(lo, hi)
    span = hi - lo
    raw = span / (TICK_TARGET - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-15 * span else t)
        if t + step == t:  # a step below the resolution of t
            break
        t += step
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    return "%.6g" % v


def _rows(fmt: str, sep: str, *columns) -> str:
    """``fmt`` once per row of the equal-length ``columns``, joined by
    ``sep``: one ``%`` over the rows' cells."""
    cells = np.column_stack(columns).ravel().tolist()
    return sep.join([fmt] * len(columns[0])) % tuple(cells)


class SvgPlot:
    """Accumulates series, then renders one fixed-size SVG document."""

    def __init__(self, title: str = "", xlabel: str = "", ylabel: str = ""):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self._series: List[tuple] = []
        self._xmin = self._ymin = math.inf
        self._xmax = self._ymax = -math.inf

    def _grow(self, xs, ys):
        xs, ys = xs[np.isfinite(xs)], ys[np.isfinite(ys)]
        self._xmin = min(self._xmin, float(xs.min(initial=math.inf)))
        self._xmax = max(self._xmax, float(xs.max(initial=-math.inf)))
        self._ymin = min(self._ymin, float(ys.min(initial=math.inf)))
        self._ymax = max(self._ymax, float(ys.max(initial=-math.inf)))

    def _add(self, kind, xs, ys, color):
        xs = np.array(xs, dtype=float)
        ys = np.array(ys, dtype=float)
        self._grow(xs, ys)
        self._series.append((kind, xs, ys, color))

    def add_line(self, xs, ys, color: str = "red"):
        if len(xs) != len(ys):
            raise ValueError("a line needs len(xs) == len(ys)")
        self._add("line", xs, ys, color)

    def add_crosses(self, xs, ys, color: str = "blue"):
        if len(xs) != len(ys):
            raise ValueError("crosses need len(xs) == len(ys)")
        self._add("cross", xs, ys, color)

    def add_steps(self, edges, values, color: str = "blue"):
        """Zero-order hold: values[k] held on [edges[k], edges[k+1])."""
        if len(edges) != len(values) + 1 or not len(values):
            raise ValueError("steps need len(edges) == len(values) + 1 > 1")
        self._add("steps", edges, values, color)

    def _scales(self):
        xmin, xmax = self._xmin, self._xmax
        ymin, ymax = self._ymin, self._ymax
        if not math.isfinite(xmin):
            xmin, xmax = 0.0, 1.0
        if not math.isfinite(ymin):
            ymin, ymax = 0.0, 1.0
        xmax, ymax = _nonempty(xmin, xmax), _nonempty(ymin, ymax)
        padx = 0.05 * (xmax - xmin)
        pady = 0.08 * (ymax - ymin)
        xmin, xmax = xmin - padx, xmax + padx
        ymin, ymax = ymin - pady, ymax + pady
        iw = WIDTH - MARGIN_L - MARGIN_R
        ih = HEIGHT - MARGIN_T - MARGIN_B

        # on a float or elementwise on an array, with the same operations
        # in the same order, so either gives the same pixel
        def sx(x):
            return MARGIN_L + (x - xmin) / (xmax - xmin) * iw

        def sy(y):
            return HEIGHT - MARGIN_B - (y - ymin) / (ymax - ymin) * ih

        return sx, sy, (xmin, xmax, ymin, ymax)

    def render(self) -> str:
        sx, sy, (xmin, xmax, ymin, ymax) = self._scales()
        out = []
        out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
                   f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
        out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')

        x0, x1 = MARGIN_L, WIDTH - MARGIN_R
        y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
        out.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
                   f'stroke="black" stroke-width="1"/>')
        out.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
                   f'stroke="black" stroke-width="1"/>')
        for t in _nice_ticks(xmin, xmax):
            px = sx(t)
            if px < x0 - 0.5 or px > x1 + 0.5:
                continue
            out.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" '
                       f'y2="{y0 + 5}" stroke="black" stroke-width="1"/>')
            out.append(f'<text x="{px:.2f}" y="{y0 + 18}" font-size="11" '
                       f'text-anchor="middle">{_fmt(t)}</text>')
        for t in _nice_ticks(ymin, ymax):
            py = sy(t)
            if py > y0 + 0.5 or py < y1 - 0.5:
                continue
            out.append(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" '
                       f'y2="{py:.2f}" stroke="black" stroke-width="1"/>')
            out.append(f'<text x="{x0 - 8}" y="{py + 4:.2f}" font-size="11" '
                       f'text-anchor="end">{_fmt(t)}</text>')
        if self.title:
            out.append(f'<text x="{WIDTH / 2:.2f}" y="22" font-size="14" '
                       f'text-anchor="middle">{self.title}</text>')
        if self.xlabel:
            out.append(f'<text x="{(x0 + x1) / 2:.2f}" y="{HEIGHT - 12}" '
                       f'font-size="12" text-anchor="middle">{self.xlabel}</text>')
        if self.ylabel:
            out.append(f'<text x="16" y="{(y0 + y1) / 2:.2f}" font-size="12" '
                       f'text-anchor="middle" transform="rotate(-90 16 '
                       f'{(y0 + y1) / 2:.2f})">{self.ylabel}</text>')

        for kind, xs, ys, color in self._series:
            # a non-finite point maps to nan or inf, as a float would
            with np.errstate(invalid="ignore", over="ignore"):
                px, py = sx(xs), sy(ys)
            stroke = f'stroke="{color}" stroke-width="{STROKE_WIDTH}"/>'
            if kind == "line":
                pts = _rows("%.2f,%.2f", " ", px, py)
                out.append(f'<polyline points="{pts}" fill="none" {stroke}')
            elif kind == "cross" and len(xs):
                s = CROSS_SIZE
                out.append(_rows('<path d="M%.2f,%.2f L%.2f,%.2f '
                                 'M%.2f,%.2f L%.2f,%.2f" '
                                 + stroke.replace("%", "%%"), "\n",
                                 px - s, py - s, px + s, py + s,
                                 px - s, py + s, px + s, py - s))
            elif kind == "steps":
                # M x_0,y_0 H x_1 V y_1 ... V y_K-1 H x_K: each y_k
                # with the edge x_k+1 that ends its step
                d = "M%.2f," % px[0] + _rows("%.2f H%.2f", " V", py, px[1:])
                out.append(f'<path d="{d}" fill="none" {stroke}')
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())

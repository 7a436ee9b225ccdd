"""Minimal deterministic SVG line plots (no plotting dependency).

Fixed 800x500 viewport, linear axes with tick labels, and three series
types: polylines, cross markers, and zero-order-hold staircases.  Output is
plain text with fixed numeric formatting, so identical data produces
byte-identical files.
"""

from __future__ import annotations

import math
from typing import List

WIDTH = 800
HEIGHT = 500
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 40
MARGIN_B = 50
STROKE_WIDTH = 1.5      # of every series
CROSS_SIZE = 4.0        # half-width of a cross marker
TICK_TARGET = 6         # ticks per axis aimed at


def _nice_ticks(lo: float, hi: float):
    """Round tick positions covering [lo, hi] with a 1/2/5 step."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
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
        t += step
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    return "%.6g" % v


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
        xs = [x for x in xs if math.isfinite(x)]
        ys = [y for y in ys if math.isfinite(y)]
        self._xmin, self._xmax = min([self._xmin] + xs), max([self._xmax] + xs)
        self._ymin, self._ymax = min([self._ymin] + ys), max([self._ymax] + ys)

    def _add(self, kind, xs, ys, color):
        xs = [float(v) for v in xs]
        ys = [float(v) for v in ys]
        self._grow(xs, ys)
        self._series.append((kind, xs, ys, color))

    def add_line(self, xs, ys, color: str = "red"):
        self._add("line", xs, ys, color)

    def add_crosses(self, xs, ys, color: str = "blue"):
        self._add("cross", xs, ys, color)

    def add_steps(self, edges, values, color: str = "blue"):
        """Zero-order hold: values[k] held on [edges[k], edges[k+1])."""
        if len(edges) != len(values) + 1:
            raise ValueError("steps need len(edges) == len(values) + 1")
        self._add("steps", edges, values, color)

    def _scales(self):
        xmin, xmax = self._xmin, self._xmax
        ymin, ymax = self._ymin, self._ymax
        if not math.isfinite(xmin):
            xmin, xmax = 0.0, 1.0
        if not math.isfinite(ymin):
            ymin, ymax = 0.0, 1.0
        if xmax <= xmin:
            xmax = xmin + 1.0
        if ymax <= ymin:
            ymax = ymin + 1.0
        padx = 0.05 * (xmax - xmin)
        pady = 0.08 * (ymax - ymin)
        xmin, xmax = xmin - padx, xmax + padx
        ymin, ymax = ymin - pady, ymax + pady
        iw = WIDTH - MARGIN_L - MARGIN_R
        ih = HEIGHT - MARGIN_T - MARGIN_B

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
            if kind == "line":
                pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
                out.append(f'<polyline points="{pts}" fill="none" '
                           f'stroke="{color}" stroke-width="{STROKE_WIDTH}"/>')
            elif kind == "cross":
                for x, y in zip(xs, ys):
                    px, py, s = sx(x), sy(y), CROSS_SIZE
                    out.append(f'<path d="M{px - s:.2f},{py - s:.2f} '
                               f'L{px + s:.2f},{py + s:.2f} '
                               f'M{px - s:.2f},{py + s:.2f} '
                               f'L{px + s:.2f},{py - s:.2f}" '
                               f'stroke="{color}" stroke-width="{STROKE_WIDTH}"/>')
            elif kind == "steps":
                d = [f"M{sx(xs[0]):.2f},{sy(ys[0]):.2f}"]
                for k in range(len(ys)):
                    d.append(f"H{sx(xs[k + 1]):.2f}")
                    if k + 1 < len(ys):
                        d.append(f"V{sy(ys[k + 1]):.2f}")
                out.append(f'<path d="{" ".join(d)}" fill="none" '
                           f'stroke="{color}" stroke-width="{STROKE_WIDTH}"/>')
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())

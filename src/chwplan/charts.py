"""Deterministic SVG charts for simulation reports.

Hand-rolled on purpose: the outputs carry a byte-identical-rerun
contract, so nothing here may embed timestamps, generated ids, or
library version strings. Every chart is a fixed-size canvas with fixed
formatting; identical data yields identical bytes.
"""

import math
from typing import Dict, List, Optional, Sequence, Tuple

WIDTH, HEIGHT = 720, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 170, 48, 56

PALETTE = ("#1b6ca8", "#c23b22", "#2e8540", "#8a4f9e",
           "#b8860b", "#117a8b", "#d4547a", "#5c5c5c")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


class _Canvas:
    def __init__(self, title: str):
        self.parts: List[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}"'
            f' height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
            f'<text x="{WIDTH // 2}" y="26" text-anchor="middle"'
            f' font-family="sans-serif" font-size="15">{_escape(title)}</text>',
        ]

    def add(self, element: str) -> None:
        self.parts.append(element)

    def text(self, x: float, y: float, s: str, size: int = 11,
             anchor: str = "middle", color: str = "#222222") -> None:
        self.add(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}"'
            f' font-family="sans-serif" font-size="{size}"'
            f' fill="{color}">{_escape(s)}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _ticks(lo: float, hi: float, count: int = 5) -> List[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


class _Axes:
    """Maps data coordinates onto the fixed plot rectangle."""

    def __init__(self, canvas: _Canvas, x_range: Tuple[float, float],
                 y_range: Tuple[float, float], x_label: str, y_label: str):
        self.canvas = canvas
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        left, right = MARGIN_L, WIDTH - MARGIN_R
        top, bottom = MARGIN_T, HEIGHT - MARGIN_B
        canvas.add(
            f'<rect x="{left}" y="{top}" width="{right - left}"'
            f' height="{bottom - top}" fill="none" stroke="#444444"/>'
        )
        for tx in _ticks(self.x0, self.x1):
            px = self.px(tx)
            canvas.add(f'<line x1="{_fmt(px)}" y1="{bottom}" x2="{_fmt(px)}"'
                       f' y2="{bottom + 4}" stroke="#444444"/>')
            canvas.text(px, bottom + 18, _fmt(tx))
        for ty in _ticks(self.y0, self.y1):
            py = self.py(ty)
            canvas.add(f'<line x1="{left - 4}" y1="{_fmt(py)}" x2="{left}"'
                       f' y2="{_fmt(py)}" stroke="#444444"/>')
            canvas.text(left - 8, py + 4, _fmt(ty), anchor="end")
        canvas.text((left + right) / 2, HEIGHT - 14, x_label, size=12)
        canvas.add(
            f'<text x="20" y="{(top + bottom) / 2}" font-family="sans-serif"'
            f' font-size="12" text-anchor="middle" fill="#222222"'
            f' transform="rotate(-90 20 {(top + bottom) / 2})">'
            f'{_escape(y_label)}</text>'
        )

    def px(self, x: float) -> float:
        span = self.x1 - self.x0
        return MARGIN_L + (x - self.x0) / span * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y: float) -> float:
        span = self.y1 - self.y0
        return (HEIGHT - MARGIN_B) - (y - self.y0) / span * (HEIGHT - MARGIN_T - MARGIN_B)


def _legend(canvas: _Canvas, names: Sequence[str]) -> None:
    x = WIDTH - MARGIN_R + 16
    for i, name in enumerate(names):
        color = PALETTE[i % len(PALETTE)]
        y = MARGIN_T + 14 + 18 * i
        canvas.add(f'<rect x="{x}" y="{y - 9}" width="12" height="12"'
                   f' fill="{color}"/>')
        canvas.text(x + 18, y + 1, name, anchor="start")


def _segments(points: Sequence[Tuple[float, float]]) -> List[List[Tuple[float, float]]]:
    """Split a point list at NaNs so gaps stay gaps."""
    runs, current = [], []
    for x, y in points:
        if math.isnan(y):
            if current:
                runs.append(current)
            current = []
        else:
            current.append((x, y))
    if current:
        runs.append(current)
    return runs


def line_chart(
    path: str,
    title: str,
    x_label: str,
    y_label: str,
    series: Dict[str, List[Tuple[float, float]]],
    bands: Optional[Dict[str, List[Tuple[float, float, float]]]] = None,
) -> None:
    """Write one multi-series line chart.

    series maps a name to (x, y) points; bands optionally maps the same
    names to (x, low, high) triples drawn as a translucent ribbon.
    NaN y-values break the line rather than plotting. The y axis starts at
    0, or lower if a value is negative.
    """
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts if not math.isnan(y)]
    if bands:
        for triples in bands.values():
            for _, lo, hi in triples:
                ys.extend([lo, hi])
    if not xs or not ys:
        raise ValueError("nothing to plot")
    canvas = _Canvas(title)
    axes = _Axes(canvas, (min(xs), max(xs)), (min(0.0, min(ys)), max(ys)),
                 x_label, y_label)
    names = list(series)
    for i, name in enumerate(names):
        color = PALETTE[i % len(PALETTE)]
        if bands and name in bands:
            triples = [t for t in bands[name]
                       if not (math.isnan(t[1]) or math.isnan(t[2]))]
            if triples:
                upper = [(axes.px(x), axes.py(hi)) for x, _, hi in triples]
                lower = [(axes.px(x), axes.py(lo)) for x, lo, _ in reversed(triples)]
                pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in upper + lower)
                canvas.add(f'<polygon points="{pts}" fill="{color}"'
                           f' fill-opacity="0.15" stroke="none"/>')
        for run in _segments(series[name]):
            pts = " ".join(f"{_fmt(axes.px(x))},{_fmt(axes.py(y))}"
                           for x, y in run)
            if len(run) == 1:
                x, y = run[0]
                canvas.add(f'<circle cx="{_fmt(axes.px(x))}"'
                           f' cy="{_fmt(axes.py(y))}" r="2.5" fill="{color}"/>')
            else:
                canvas.add(f'<polyline points="{pts}" fill="none"'
                           f' stroke="{color}" stroke-width="1.8"/>')
    _legend(canvas, names)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(canvas.render())


def box_chart(
    path: str,
    title: str,
    y_label: str,
    stats: Dict[str, Tuple[float, float, float, float]],
    reference: Optional[Tuple[str, float]] = None,
) -> None:
    """Write a quartile chart: one glyph per name with (p25, p50, p75, p90).

    The box spans p25-p75 with a bar at the median and a whisker up to
    p90; an optional labeled reference line marks a threshold.
    """
    if not stats:
        raise ValueError("nothing to plot")
    values = [v for quad in stats.values() for v in quad]
    if reference:
        values.append(reference[1])
    canvas = _Canvas(title)
    names = list(stats)
    axes = _Axes(canvas, (0.0, float(len(names))), (min(values), max(values)),
                 "", y_label)
    for i, name in enumerate(names):
        p25, p50, p75, p90 = stats[name]
        color = PALETTE[i % len(PALETTE)]
        cx = i + 0.5
        x_left, x_right = axes.px(cx - 0.18), axes.px(cx + 0.18)
        canvas.add(
            f'<rect x="{_fmt(x_left)}" y="{_fmt(axes.py(p75))}"'
            f' width="{_fmt(x_right - x_left)}"'
            f' height="{_fmt(axes.py(p25) - axes.py(p75))}" fill="{color}"'
            f' fill-opacity="0.35" stroke="{color}"/>'
        )
        canvas.add(f'<line x1="{_fmt(x_left)}" y1="{_fmt(axes.py(p50))}"'
                   f' x2="{_fmt(x_right)}" y2="{_fmt(axes.py(p50))}"'
                   f' stroke="{color}" stroke-width="2.2"/>')
        mid = axes.px(cx)
        canvas.add(f'<line x1="{_fmt(mid)}" y1="{_fmt(axes.py(p75))}"'
                   f' x2="{_fmt(mid)}" y2="{_fmt(axes.py(p90))}"'
                   f' stroke="{color}" stroke-width="1.4"/>')
        canvas.text(mid, HEIGHT - MARGIN_B + 32, name, size=10)
    if reference:
        label, level = reference
        py = axes.py(level)
        canvas.add(f'<line x1="{MARGIN_L}" y1="{_fmt(py)}"'
                   f' x2="{WIDTH - MARGIN_R}" y2="{_fmt(py)}"'
                   f' stroke="#99333a" stroke-dasharray="6 4"/>')
        canvas.text(WIDTH - MARGIN_R - 6, py - 6, label, anchor="end",
                    color="#99333a")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(canvas.render())

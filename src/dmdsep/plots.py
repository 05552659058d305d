"""Log-log error plots rendered directly to SVG.

Figures only display harness output, so they are written as plain SVG
text (no plotting dependency).  One file per (suite, error kind), one
series per (method, tau), with a dashed reference-slope guide line
anchored just above the first series.
"""

import math
import os

from .experiments import SUITE_TABLE, mean_errors, read_records

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_KINDS = ("q_sq_error", "s_sq_error", "eig_sq_error")

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _decades(lo, hi):
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0**e for e in range(first, last + 1)]


class _LogCanvas:
    """Maps log-log data coordinates onto the SVG viewport."""

    def __init__(self, xlim, ylim):
        self.x0, self.x1 = math.log10(xlim[0]), math.log10(xlim[1])
        self.y0, self.y1 = math.log10(ylim[0]), math.log10(ylim[1])
        if self.x1 == self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 == self.y0:
            self.y1 = self.y0 + 1.0

    def x(self, v):
        f = (math.log10(v) - self.x0) / (self.x1 - self.x0)
        return _ML + f * (_W - _ML - _MR)

    def y(self, v):
        f = (math.log10(v) - self.y0) / (self.y1 - self.y0)
        return _H - _MB - f * (_H - _MT - _MB)


def _ticks(canvas, axis, lo, hi):
    """Tick marks and ``1eN`` labels at the decades of [lo, hi] that fall
    inside the canvas, below the plot (``axis="x"``) or left of it."""
    parts = []
    for tick in _decades(lo, hi):
        e = math.log10(tick)
        if axis == "x" and canvas.x0 <= e <= canvas.x1:
            v = f"{canvas.x(tick):.1f}"
            line, text = (v, _H - _MB, v, _H - _MB + 5), (v, _H - _MB + 18, "middle")
        elif axis == "y" and canvas.y0 <= e <= canvas.y1:
            v = canvas.y(tick)
            line = (_ML - 5, f"{v:.1f}", _ML, f"{v:.1f}")
            text = (_ML - 8, f"{v + 4:.1f}", "end")
        else:
            continue
        parts += [
            '<line x1="{}" y1="{}" x2="{}" y2="{}" stroke="black"/>'.format(*line),
            '<text x="{}" y="{}" text-anchor="{}" font-family="sans-serif" '
            'font-size="11">1e{}</text>'.format(*text, int(e)),
        ]
    return parts


def _svg_figure(title, xlabel, series, guide):
    """Assemble one SVG chart.

    ``series`` is a list of (label, [(x, y), ...]); ``guide`` is either
    None or (slope, [(x, y), (x, y)]).
    """
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    if guide:
        xs += [x for x, _ in guide[1]]
        ys += [y for _, y in guide[1]]
    canvas = _LogCanvas((min(xs), max(xs)), (min(ys) / 2.0, max(ys) * 2.0))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>',
        f'<text x="{_W / 2:.0f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<text x="{_W / 2:.0f}" y="{_H - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
    ]
    parts += _ticks(canvas, "x", min(xs), max(xs))
    parts += _ticks(canvas, "y", min(ys) / 2.0, max(ys) * 2.0)
    for idx, (label, pts) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        coords = " ".join(f"{canvas.x(x):.1f},{canvas.y(y):.1f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5" class="series"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{canvas.x(x):.1f}" cy="{canvas.y(y):.1f}" '
                f'r="3" fill="{color}"/>'
            )
        ly = _MT + 16 + 16 * idx
        parts.append(
            f'<line x1="{_W - _MR - 130}" y1="{ly}" x2="{_W - _MR - 105}" '
            f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 100}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    if guide:
        slope, pts = guide
        coords = " ".join(f"{canvas.x(x):.1f},{canvas.y(y):.1f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#555555" '
            f'stroke-width="1.2" stroke-dasharray="6,4" class="guide"/>'
        )
        gx, gy = pts[0]
        parts.append(
            f'<text x="{canvas.x(gx) + 6:.1f}" y="{canvas.y(gy) - 6:.1f}" '
            f'font-family="sans-serif" font-size="11" fill="#555555">'
            f"slope {slope:g}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


def emit_plots(records_path, out_dir):
    """Render one SVG per (suite, error kind) from a records CSV.

    The x-axis and the guide line's slope come from the suite's row of
    ``SUITE_TABLE``; the guide is anchored a factor of two above the first
    series' starting point and drawn only when the row has a slope and the
    grid has at least two distinct x values; a suite with no positive finite
    error gets no figure.  Nothing is written unless some figure is.
    Returns the written paths.
    """
    records = read_records(records_path)
    if not records:
        raise ValueError(f"records file {records_path} holds no records")
    files = {}  # file name -> text, in the order written
    for suite in sorted({rec.suite for rec in records}):
        suite_records = [r for r in records if r.suite == suite]
        row = SUITE_TABLE[suite]
        for kind in _KINDS:
            means = mean_errors(suite_records, field=kind)
            series = []
            for (method, tau), cells in sorted(means.items()):
                # positive and finite; NaN fails both comparisons
                pts = [(x, e) for x, e in cells.items() if 0.0 < e < math.inf]
                if pts:
                    series.append((f"{method} tau={tau}", pts))
            if not series:
                continue
            guide, first, slope = None, series[0][1], row.slope
            if slope is not None and len({x for _, pts in series for x, _ in pts}) >= 2:
                (x_lo, y_lo), (x_hi, _) = first[0], first[-1]
                y_lo *= 2.0
                guide = (slope, [(x_lo, y_lo), (x_hi, y_lo * (x_hi / x_lo) ** slope)])
            svg = _svg_figure(f"{suite}: {kind}", row.x, series, guide)
            files[f"{suite}_{kind}.svg"] = svg
    if not files:
        raise ValueError("records contain no positive finite errors to plot")
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
    return [os.path.join(out_dir, name) for name in files]

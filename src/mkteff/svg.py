"""Minimal self-contained SVG line plots; no plotting dependency at run time.

Renders the degree path as a solid line, band edges as dashed lines, an
optional dotted vertical event marker, and simple tick axes. NaN segments
break the polyline, so flagged dates show as gaps.
"""

from __future__ import annotations

import math
from datetime import date
from typing import Sequence

import numpy as np

__all__ = ["render_line_plot"]

_W, _H = 900, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [0.0, 1.0]
    span = hi - lo
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= target + 1:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(round(v, 12))
        v += step
    return ticks or [lo, hi]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _polylines(xs: np.ndarray, ys: np.ndarray, style: str) -> list[str]:
    """One <polyline> per finite run, so NaN renders as a gap."""
    out = []
    run: list[str] = []
    for x, y in zip(xs.tolist(), ys.tolist()):
        if math.isfinite(y):
            run.append(f"{x:.2f},{y:.2f}")
        elif run:
            out.append(f'<polyline fill="none" {style} points="{" ".join(run)}"/>')
            run = []
    if run:
        out.append(f'<polyline fill="none" {style} points="{" ".join(run)}"/>')
    return out


def render_line_plot(
    dates: Sequence[date],
    zeta: np.ndarray,
    band_low: np.ndarray | None = None,
    band_high: np.ndarray | None = None,
    event_date: date | None = None,
    title: str = "Joint degree of market efficiency",
) -> str:
    """Return a complete SVG document for the degree path and its bands."""
    n = len(dates)
    zeta = np.asarray(zeta, dtype=float)
    series = [zeta]
    if band_low is not None:
        series.append(np.asarray(band_low, dtype=float))
    if band_high is not None:
        series.append(np.asarray(band_high, dtype=float))
    finite = np.concatenate([s[np.isfinite(s)] for s in series]) if n else np.array([])
    ylo = float(finite.min()) if finite.size else 0.0
    yhi = float(finite.max()) if finite.size else 1.0
    if yhi <= ylo:
        yhi = ylo + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo = min(0.0, ylo - pad)
    yhi = yhi + pad

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(i):
        return _ML + (plot_w * i / max(n - 1, 1))

    def sy(v):  # a non-finite value maps to a non-finite coordinate, a gap
        return _MT + plot_h * (1.0 - (v - ylo) / (yhi - ylo))

    xs = sx(np.arange(n))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" fill="none" '
        f'stroke="#333" stroke-width="1"/>',
    ]
    for tick in _nice_ticks(ylo, yhi):
        y = sy(tick)
        if _MT - 1 <= y <= _MT + plot_h + 1:
            parts.append(
                f'<line x1="{_ML - 4}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="#333"/>'
            )
            parts.append(
                f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{_fmt(tick)}</text>'
            )
    n_xticks = min(6, n) if n else 0
    for j in range(n_xticks):
        i = round(j * (n - 1) / max(n_xticks - 1, 1))
        x = sx(i)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MT + plot_h}" x2="{x:.2f}" '
            f'y2="{_MT + plot_h + 4}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MT + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{dates[i].isoformat()}</text>'
        )

    band_style = 'stroke="#cc2222" stroke-width="1" stroke-dasharray="6 4"'
    for band in series[1:]:
        parts += _polylines(xs, sy(band), band_style)
    parts += _polylines(xs, sy(zeta), 'stroke="#1a1a1a" stroke-width="1.5"')
    if event_date is not None and n and dates[0] <= event_date <= dates[-1]:
        i = min(range(n), key=lambda k: abs((dates[k] - event_date).days))
        x = sx(i)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MT}" x2="{x:.2f}" y2="{_MT + plot_h}" '
            f'stroke="#2244cc" stroke-width="1" stroke-dasharray="2 3"/>'
        )
        parts.append(
            f'<text x="{x + 4:.2f}" y="{_MT + 14}" font-family="sans-serif" '
            f'font-size="11" fill="#2244cc">{event_date.isoformat()}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

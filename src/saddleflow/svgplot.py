"""Minimal deterministic SVG line plots (no plotting dependency).

Output is a plain polyline chart with axes, tick labels, and a legend.
Every float is rendered with a fixed format so identical inputs produce
byte-identical files.

Samples are handled as arrays.  A series keeps the samples that a numpy
mask passes: finite x and y, and y > 0 under ``log_y``.  The pixel
coordinates are array expressions with the same operations, in the same
order, as the per-point transform, so each rounds as that would; each
polyline is then one "%.3f,%.3f" format over its interleaved coordinates.
Under ``log_y`` the samples go through ``math.log10``, mapped over the
values, and not ``np.log10``: numpy's differs from it by one ulp on a few
percent of values, which can flip the last printed digit.  (Which zero a
tie of 0.0 and -0.0 makes an axis limit never shows: the ticks add 0.0 to
it and the transform subtracts it.)
"""
from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 760, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 30, 50

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _log_ticks(lo, hi):
    lo_exp = math.floor(math.log10(lo))
    hi_exp = math.ceil(math.log10(hi))
    exps = range(lo_exp, hi_exp + 1)
    step = max(1, (hi_exp - lo_exp) // 6)
    return [10.0 ** e for e in exps][::step]


@np.errstate(all="ignore")
def line_plot(series, title, x_label, y_label, log_y=False) -> str:
    """Render ``series`` = [(label, xs, ys), ...] as an SVG document string.

    With ``log_y`` the y axis is log10 and nonpositive samples are dropped.
    The arithmetic runs under np.errstate(all="ignore"): an overflow is inf,
    as in Python float arithmetic, under any errstate of the caller.
    """
    cleaned = []
    for label, xs, ys in series:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        if xs.shape != ys.shape:
            raise ValueError(f"series {label!r}: xs and ys differ in length")
        keep = np.isfinite(xs) & np.isfinite(ys)
        if log_y:
            keep &= ys > 0
        if keep.any():
            cleaned.append((label, xs[keep], ys[keep]))
    if not cleaned:
        raise ValueError("nothing to plot (no finite samples)")

    x_lo = min(float(xs.min()) for _, xs, _ in cleaned)
    x_hi = max(float(xs.max()) for _, xs, _ in cleaned)
    y_lo = min(float(ys.min()) for _, _, ys in cleaned)
    y_hi = max(float(ys.max()) for _, _, ys in cleaned)
    if log_y:
        y_lo, y_hi = math.log10(y_lo), math.log10(y_hi)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        yy = np.fromiter(map(math.log10, y.tolist()), float, y.size) if log_y else y
        return MARGIN_T + plot_h - (yy - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_L}" y="20" font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]

    x_ticks = _ticks(x_lo, x_hi)
    for xt, px in zip(x_ticks, sx(np.array(x_ticks)).tolist()):
        parts.append(
            f'<line x1="{px:.3f}" y1="{MARGIN_T + plot_h}" x2="{px:.3f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{px:.3f}" y="{MARGIN_T + plot_h + 18}" font-family="sans-serif" '
            f'font-size="10" text-anchor="middle">{xt:.4g}</text>'
        )
    y_ticks = _log_ticks(10.0 ** y_lo, 10.0 ** y_hi) if log_y else _ticks(y_lo, y_hi)
    for yt, py in zip(y_ticks, sy(np.array(y_ticks)).tolist()):
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py:.3f}" x2="{MARGIN_L}" y2="{py:.3f}" '
            f'stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{py:.3f}" font-family="sans-serif" font-size="10" '
            f'text-anchor="end" dominant-baseline="middle">{yt:.3g}</text>'
        )

    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 10}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">'
        f'{y_label}</text>'
    )

    for i, (label, xs, ys) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(["%.3f,%.3f"] * xs.size) % tuple(
            np.column_stack((sx(xs), sy(ys))).ravel().tolist())
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        ly = MARGIN_T + 14 + 18 * i
        lx = WIDTH - MARGIN_R + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="11">{label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"

"""Minimal hand-rolled SVG output for report figures.

Only what the reports need: a line plot with error bars per series, and a
scatter plot with a diverging blue/red color scale. Figures are plain
artifacts; no plotting dependency is worth carrying for them.
"""

from __future__ import annotations

from pathlib import Path

from .dataset import write_text

_WIDTH, _HEIGHT = 640, 440
_MARGIN = 64

_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in values]


def _axes(x_label: str, y_label: str, x_ticks, y_ticks, xlim, ylim) -> list[str]:
    left, right = _MARGIN, _WIDTH - _MARGIN // 2
    top, bottom = _MARGIN // 2, _HEIGHT - _MARGIN
    parts = [
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
        f'<text x="{(left + right) / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-size="13">{x_label}</text>',
        f'<text x="16" y="{(top + bottom) / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {(top + bottom) / 2:.1f})">{y_label}</text>',
    ]
    for t in x_ticks:
        (px,) = _scale([t], xlim[0], xlim[1], left, right)
        parts.append(f'<line x1="{px:.1f}" y1="{bottom}" x2="{px:.1f}" y2="{bottom + 4}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.1f}" y="{bottom + 18}" text-anchor="middle" font-size="11">{t:g}</text>'
        )
    for t in y_ticks:
        (py,) = _scale([t], ylim[0], ylim[1], bottom, top)
        parts.append(f'<line x1="{left - 4}" y1="{py:.1f}" x2="{left}" y2="{py:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{left - 8}" y="{py + 4:.1f}" text-anchor="end" font-size="11">{t:g}</text>'
        )
    return parts


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def line_plot_svg(
    x_values,
    series: dict[str, tuple[list[float], list[float]]],
    x_label: str,
    y_label: str,
) -> str:
    """Polyline per series with vertical error bars (mean, std pairs)."""
    left, right = _MARGIN, _WIDTH - _MARGIN // 2
    top, bottom = _MARGIN // 2, _HEIGHT - _MARGIN
    xlim = (min(x_values), max(x_values))
    all_lo = [m - s for means, stds in series.values() for m, s in zip(means, stds)]
    all_hi = [m + s for means, stds in series.values() for m, s in zip(means, stds)]
    ylim = (min(all_lo), max(all_hi))
    if ylim[0] == ylim[1]:
        ylim = (ylim[0] - 0.5, ylim[1] + 0.5)
    parts = _axes(x_label, y_label, x_values, _ticks(*ylim), xlim, ylim)
    for si, (name, (means, stds)) in enumerate(series.items()):
        color = _SERIES_COLORS[si % len(_SERIES_COLORS)]
        pxs = _scale(x_values, xlim[0], xlim[1], left, right)
        pys = _scale(means, ylim[0], ylim[1], bottom, top)
        pts = " ".join(f"{px:.1f},{py:.1f}" for px, py in zip(pxs, pys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for px, m, s in zip(pxs, means, stds):
            (y0,) = _scale([m - s], ylim[0], ylim[1], bottom, top)
            (y1,) = _scale([m + s], ylim[0], ylim[1], bottom, top)
            parts.append(f'<line x1="{px:.1f}" y1="{y0:.1f}" x2="{px:.1f}" y2="{y1:.1f}" stroke="{color}"/>')
            parts.append(f'<line x1="{px - 3:.1f}" y1="{y0:.1f}" x2="{px + 3:.1f}" y2="{y0:.1f}" stroke="{color}"/>')
            parts.append(f'<line x1="{px - 3:.1f}" y1="{y1:.1f}" x2="{px + 3:.1f}" y2="{y1:.1f}" stroke="{color}"/>')
        parts.append(
            f'<text x="{right - 6}" y="{top + 16 + 16 * si}" text-anchor="end" '
            f'font-size="12" fill="{color}">{name}</text>'
        )
    return _document(parts)


def scatter_plot_svg(
    xs, ys, color_values, x_label: str, y_label: str, title: str = ""
) -> str:
    """Scatter with a diverging color: positive values blue, negative red,
    intensity proportional to magnitude."""
    left, right = _MARGIN, _WIDTH - _MARGIN // 2
    top, bottom = _MARGIN // 2, _HEIGHT - _MARGIN
    xlim = (min(xs), max(xs)) if min(xs) < max(xs) else (min(xs) - 0.5, max(xs) + 0.5)
    ylim = (min(ys), max(ys)) if min(ys) < max(ys) else (min(ys) - 0.5, max(ys) + 0.5)
    parts = _axes(x_label, y_label, _ticks(*xlim), _ticks(*ylim), xlim, ylim)
    if title:
        parts.append(
            f'<text x="{(left + right) / 2:.1f}" y="20" text-anchor="middle" font-size="13">{title}</text>'
        )
    vmax = max((abs(c) for c in color_values), default=1.0) or 1.0
    pxs = _scale(xs, xlim[0], xlim[1], left, right)
    pys = _scale(ys, ylim[0], ylim[1], bottom, top)
    for px, py, c in zip(pxs, pys, color_values):
        frac = min(abs(c) / vmax, 1.0)
        shade = int(235 - 180 * frac)
        color = f"rgb({shade},{shade},235)" if c >= 0 else f"rgb(235,{shade},{shade})"
        parts.append(
            f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" fill="{color}" stroke="#555" stroke-width="0.4"/>'
        )
    return _document(parts)


def _document(parts: list[str]) -> str:
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">\n{body}\n</svg>\n'
    )


def write_svg(path: str | Path, content: str) -> None:
    write_text(path, content)

"""Deterministic CSV/JSON/SVG writers.

Numbers are rendered with 17 significant digits ('%.17g'), rows in input
order, metadata as '#'-prefixed header lines; identical inputs therefore
produce byte-identical files.  No timestamps, hostnames or locale-dependent
formatting anywhere.  The SVG renderer is intentionally minimal (line plots
and heatmaps) so no plotting dependency enters the contract.
"""

from __future__ import annotations

import json
import math
import numbers
from typing import Iterable, Sequence

__all__ = ["fmt", "write_table_csv", "write_table_json", "svg_line_plot", "svg_heatmap"]


def fmt(value) -> str:
    """Canonical 17-significant-digit rendering; round-trips every double."""
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return "nan"
    if isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return str(int(value))
    return format(float(value), ".17g")


def write_table_csv(path: str, columns: Sequence[str], rows: Iterable[Sequence],
                    metadata: dict) -> None:
    lines = []
    for key in metadata:
        lines.append(f"# {key} = {metadata[key]}")
    lines.append("# columns: " + ",".join(columns))
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonable(v):
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if v is None:
        return None
    if isinstance(v, str):
        return v
    if isinstance(v, numbers.Integral) and not isinstance(v, bool):
        return int(v)
    f = float(v)
    return f if math.isfinite(f) else None


def write_table_json(path: str, columns: Sequence[str], rows: Iterable[Sequence],
                     metadata: dict) -> None:
    doc = {
        "metadata": {k: (str(v) if not isinstance(v, (int, float, bool)) else v)
                     for k, v in metadata.items()},
        "columns": list(columns),
        "rows": [[_jsonable(v) for v in row] for row in rows],
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


_SVG_W, _SVG_H, _MARG = 720, 480, 56


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def svg_line_plot(path: str, x: Sequence[float], series: dict[str, Sequence[float]],
                  title: str, x_label: str) -> None:
    """Polyline plot of one or more series against x; NaNs break the line."""
    finite = [v for vals in series.values() for v in vals if v is not None and math.isfinite(v)]
    if not finite or not len(x):
        raise ValueError("nothing to plot")
    y_lo, y_hi = min(finite), max(finite)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    x_lo, x_hi = min(x), max(x)
    xs = _scale(x, x_lo, x_hi, _MARG, _SVG_W - _MARG)
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W // 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{title}</text>',
        f'<rect x="{_MARG}" y="{_MARG}" width="{_SVG_W - 2 * _MARG}" '
        f'height="{_SVG_H - 2 * _MARG}" fill="none" stroke="#444"/>',
        f'<text x="{_SVG_W // 2}" y="{_SVG_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="12" y="{_MARG - 8}" font-family="sans-serif" font-size="11">'
        f'{fmt(y_hi)}</text>',
        f'<text x="12" y="{_SVG_H - _MARG + 4}" font-family="sans-serif" font-size="11">'
        f'{fmt(y_lo)}</text>',
    ]
    for idx, (name, vals) in enumerate(series.items()):
        color = colors[idx % len(colors)]
        segs, cur = [], []
        for xi, v in zip(xs, vals):
            if v is None or not math.isfinite(v):
                if cur:
                    segs.append(cur)
                cur = []
                continue
            yi = _SVG_H - _MARG - (v - y_lo) / (y_hi - y_lo) * (_SVG_H - 2 * _MARG)
            cur.append((xi, yi))
        if cur:
            segs.append(cur)
        for seg in segs:
            pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in seg)
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        parts.append(f'<text x="{_SVG_W - _MARG + 4}" y="{_MARG + 16 * idx + 12}" '
                     f'font-family="sans-serif" font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _diverging_color(t: float) -> str:
    """t in [-1, 1] -> blue/white/red hex."""
    t = max(-1.0, min(1.0, 0.0 if not math.isfinite(t) else t))
    if t >= 0:
        r, g, b = 255, round(255 * (1 - t)), round(255 * (1 - t))
    else:
        r, g, b = round(255 * (1 + t)), round(255 * (1 + t)), 255
    return f"#{r:02x}{g:02x}{b:02x}"


def svg_heatmap(path: str, xs: Sequence[float], ys: Sequence[float], values,
                title: str) -> None:
    """Cell heatmap of values[i][j] at (xs[i], ys[j]), symmetric color scale."""
    nx, ny = len(xs), len(ys)
    vmax = 0.0
    for i in range(nx):
        for j in range(ny):
            v = values[i][j]
            if v is not None and math.isfinite(v):
                vmax = max(vmax, abs(v))
    vmax = vmax or 1.0
    cw = (_SVG_W - 2 * _MARG) / nx
    chh = (_SVG_H - 2 * _MARG) / ny
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W // 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{title}</text>',
    ]
    for i in range(nx):
        for j in range(ny):
            v = values[i][j]
            t = 0.0 if v is None or not math.isfinite(v) else v / vmax
            px = _MARG + i * cw
            py = _SVG_H - _MARG - (j + 1) * chh
            parts.append(f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw + 0.5:.2f}" '
                         f'height="{chh + 0.5:.2f}" fill="{_diverging_color(t)}"/>')
    parts.append(f'<rect x="{_MARG}" y="{_MARG}" width="{_SVG_W - 2 * _MARG}" '
                 f'height="{_SVG_H - 2 * _MARG}" fill="none" stroke="#444"/>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")

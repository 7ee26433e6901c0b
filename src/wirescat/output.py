"""Deterministic CSV/JSON/SVG writers.

A table is a structured array (``table``): one named field per float, int or
str column.  A 1-D table is one run of rows; a 2-D table of shape (n_runs,
run_len), such as a field map's (nx, ny) grid, is written row-major, run after
run.  CSV renders floats as '%.17g'; JSON renders them as ``float.__repr__``
and non-finite ones as null, in the layout of ``json.dump(indent=1,
sort_keys=True)``.

Rows are written in blocks of at most ``_BLOCK`` values: whole runs where a run
fits in a block, else pieces of one run.  Each column's rule is fixed once per
table: text that does not vary along the rows a template covers is formatted
once, as template text (never holding '%', as only float and int columns are
constant).  A float or int column is classed by bit pattern (so -0.0, NaN
payloads, inf and subnormals stay exact):
- in a table of two or more runs, a column equal in every run (a grid's y) is
  text of the run template that every block of whole runs reuses, and one
  constant along every run (a grid's x) is formatted once per run, into the run
  template's slots;
- in a one-run table, a column constant along the run (a gap-free sweep's NaN
  asymptotes and gap flag) is text of the row template.
Every other column goes through its '%' spec in the row template: '%.17g' for
CSV floats, '%s' for everything else.
Per-value texts are made only where '%s' would not give JSON: strings, and the
floats of a block that holds a non-finite value.
Metadata goes into '#' header lines or the "metadata" object.  Identical inputs
give byte-identical files: no timestamps, hostnames or locale-dependent
formatting.  The SVG renderer is minimal (line plots and heatmaps), so no
plotting dependency enters the contract.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Sequence

import numpy as np

__all__ = ["fmt", "table", "write_table_csv", "write_table_json", "svg_line_plot",
           "svg_heatmap"]

# values per block of rows
_BLOCK = 2 ** 12


def fmt(value: float) -> str:
    """Canonical 17-significant-digit rendering of a number; round-trips every double."""
    return format(float(value), ".17g")


def table(columns: dict) -> np.ndarray:
    """Structured array of named columns broadcast to one shape, in the dict's order.

    A 1-D table is one run of rows; a 2-D table of shape (n_runs, run_len) is
    written row-major, run after run."""
    return np.rec.fromarrays(np.broadcast_arrays(*map(np.asarray, columns.values())),
                             names=list(columns))


def _json_values(column: np.ndarray) -> list:
    """A column's values for '%s' in JSON: strings quoted, and where a float is
    not finite, every float as its repr or null."""
    if column.dtype.kind == "U":
        return list(map(json.dumps, column.tolist()))
    if column.dtype.kind == "f" and not np.isfinite(column).all():
        return [float.__repr__(v) if math.isfinite(v) else "null" for v in column.tolist()]
    return column.tolist()


# per format: the '%' spec of a float column (every other column's is '%s'),
# and the values of a column that the specs render
_CSV_RENDER = ("%.17g", np.ndarray.tolist)
_JSON_RENDER = ("%s", _json_values)


def _kind(column: np.ndarray, reuse: bool) -> str | None:
    """For a float or int column: "table" where a table of two or more runs has
    it equal in every run and the run template is reused, "run" where it is
    constant along every run of two or more rows (in a table of any number of
    runs); else None.  Values compare by bit pattern."""
    if column.dtype.kind not in "fi":
        return None
    bits = column.astype(np.float64, copy=False).view(np.int64) if column.dtype.kind == "f" else column
    if reuse and len(column) > 1 and (bits == bits[:1]).all():
        return "table"
    return "run" if bits.shape[1] > 1 and (bits == bits[:, :1]).all() else None


def _spec(render: tuple, column: np.ndarray) -> str:
    return render[0] if column.dtype.kind == "f" else "%s"


def _texts(render: tuple, column: np.ndarray) -> list[str]:
    return list(map(_spec(render, column).__mod__, render[1](column)))


def _blocks(rows: np.ndarray, render: tuple, row_template: str, separator: str):
    """Yield the rows as text, one block at a time, every row after the first
    preceded by separator.  row_template holds one '%s' per column."""
    if not rows.size:
        return
    names = rows.dtype.names
    runs = np.atleast_2d(rows.view(np.ndarray))  # a recarray's field access costs more
    n_runs, run_len = runs.shape
    step = max(1, _BLOCK // len(names))
    whole = run_len <= step  # blocks of whole runs share one run template
    kinds = [_kind(runs[name], whole) for name in names]
    other = [name for name, kind in zip(names, kinds) if kind is None]
    per_run = [runs[name][:, 0] for name, kind in zip(names, kinds) if kind == "run" and n_runs > 1]
    # what each column puts in the row template: text that does not vary along the rows it
    # covers (a "table" column's texts, a one-run table's "run" column's one text), a slot
    # "\0" for each run's text of any other "run" column, any other column its '%' spec
    fill = [_texts(render, runs[name][0]) if kind == "table" else "\0" if kind == "run" and n_runs > 1
            else _texts(render, runs[name][0, :1])[0] if kind == "run" else _spec(render, runs[name])
            for name, kind in zip(names, kinds)]
    k, m = max(1, step // run_len), min(step, run_len)  # runs per block, rows per piece of a run

    def frame_of(rows):  # the rows' template split at its "\0" slots, a slot (None) between each two texts
        return [t for text in separator.join(rows).split("\0") for t in (text, None)][:-1]

    if "table" in kinds:  # whole runs, each row with its own "table" texts
        frames = {run_len: frame_of(row_template % row for row in
                                    zip(*(f if isinstance(f, list) else itertools.repeat(f) for f in fill)))}
    else:  # alike rows: one frame per piece length
        row = row_template % tuple(fill)
        frames = {n: frame_of([row] * n) for n in {m, run_len % m} - {0}}
    pieces = ((i, min(i + k, n_runs), p, min(p + m, run_len))
              for i in range(0, n_runs, k) for p in range(0, run_len, m))
    for b, (i0, i1, p0, p1) in enumerate(pieces):
        block = runs[i0:i1, p0:p1].reshape(-1)  # a view: whole runs, or a piece of one
        cells = [None] * (block.size * len(other))  # row-major: other column o of each row at o::len(other)
        for o, name in enumerate(other):
            cells[o::len(other)] = render[1](block[name])
        # each run: its "run" columns' texts in the frame's odd slots (none without such columns)
        frame, parts = frames[p1 - p0], []
        for texts in zip(*(_texts(render, c[i0:i1]) for c in per_run)) if per_run else [()] * (i1 - i0):
            frame[1::2] = texts * (p1 - p0)
            parts.append("".join(frame))
        yield ((separator if b else "") + separator.join(parts)) % tuple(cells)


def write_table_csv(path: str, rows: np.ndarray, metadata: dict) -> None:
    """A ``table`` as CSV: metadata and column lines, then one line per row."""
    names = rows.dtype.names
    head = [f"# {key} = {value}" for key, value in metadata.items()]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(head + ["# columns: " + ",".join(names), ",".join(names)]) + "\n")
        fh.writelines(_blocks(rows, _CSV_RENDER, ",".join(["%s"] * len(names)) + "\n", ""))


def write_table_json(path: str, rows: np.ndarray, metadata: dict) -> None:
    """A ``table`` as {"columns", "metadata", "rows"}, laid out as
    json.dump(indent=1, sort_keys=True) lays it out."""
    names = rows.dtype.names
    doc = {"metadata": {k: (str(v) if not isinstance(v, (int, float, bool)) else v)
                        for k, v in metadata.items()},
           "columns": list(names)}
    # "rows" sorts last: it goes in before the closing brace
    row_template = "  [\n" + ",\n".join(["   %s"] * len(names)) + "\n  ]"
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True)[:-2] + ',\n "rows": ['
                 + ("\n" if rows.size else ""))
        fh.writelines(_blocks(rows, _JSON_RENDER, row_template, ",\n"))
        fh.write("\n ]\n}\n" if rows.size else "]\n}\n")


_SVG_W, _SVG_H, _MARG = 720, 480, 56


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def _finite(v) -> bool:
    return v is not None and math.isfinite(v)


def _write_svg(path: str, title: str, parts: list[str]) -> None:
    """Canvas, title, the given elements, closing tag."""
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W // 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{title}</text>',
    ]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(head + parts + ["</svg>"]) + "\n")


def svg_line_plot(path: str, x: Sequence[float], series: dict[str, Sequence[float]],
                  title: str, x_label: str) -> None:
    """Polyline plot of one or more series against x; NaNs break the line."""
    finite = [v for vals in series.values() for v in vals if _finite(v)]
    if not finite or not len(x):
        raise ValueError("nothing to plot")
    y_lo, y_hi = min(finite), max(finite)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    x_lo, x_hi = min(x), max(x)
    xs = _scale(x, x_lo, x_hi, _MARG, _SVG_W - _MARG)
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
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
        ys = [_SVG_H - _MARG - (v - y_lo) / (y_hi - y_lo) * (_SVG_H - 2 * _MARG)
              if _finite(v) else None for v in vals]
        for finite, seg in itertools.groupby(zip(xs, ys), key=lambda p: p[1] is not None):
            if finite:
                pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in seg)
                parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                             'stroke-width="1.2"/>')
        parts.append(f'<text x="{_SVG_W - _MARG + 4}" y="{_MARG + 16 * idx + 12}" '
                     f'font-family="sans-serif" font-size="11" fill="{color}">{name}</text>')
    _write_svg(path, title, parts)


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
    vmax = max((abs(v) for row in values for v in row if _finite(v)), default=0.0) or 1.0
    cw = (_SVG_W - 2 * _MARG) / nx
    chh = (_SVG_H - 2 * _MARG) / ny
    parts = []
    for i in range(nx):
        for j in range(ny):
            v = values[i][j]
            t = v / vmax if _finite(v) else 0.0
            px = _MARG + i * cw
            py = _SVG_H - _MARG - (j + 1) * chh
            parts.append(f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw + 0.5:.2f}" '
                         f'height="{chh + 0.5:.2f}" fill="{_diverging_color(t)}"/>')
    parts.append(f'<rect x="{_MARG}" y="{_MARG}" width="{_SVG_W - 2 * _MARG}" '
                 f'height="{_SVG_H - 2 * _MARG}" fill="none" stroke="#444"/>')
    _write_svg(path, title, parts)

"""Tabular and SVG output for the experiment runner.

CSV files carry '#'-prefixed metadata lines (tool version, experiment name,
config hash, any experiment-specific ``key: value`` lines, column names and
units) followed by comma-separated rows with 17-significant-digit floats,
which round-trip exactly.  Identical configs therefore produce
byte-identical files, whatever the number of CPUs or worker processes (BLAS
runs on one thread, see the package docstring); volatile quantities such as
wall time are reported on stdout, never written into the tables.

Both writers stream: a table or a heatmap is formatted and written
``BLOCK_CELLS`` cells at a time, so neither the file's text nor one string
per cell is ever held whole.

A float costs about a microsecond to format to 17 digits, so the writers
format each distinct number once where numbers repeat.  A table of at least
``DISTINCT_MIN_CELLS`` cells is sorted by bit pattern once; each pattern
that occurs more than once is formatted once and its string looked up per
block, and a pattern that occurs once is formatted where it stands, so a
table of nearly distinct numbers holds no string table.  Keying on bit
patterns keeps -0.0 apart from 0.0.  Smaller tables are formatted row by
row: for them the sort that finds the repeats (numpy code a run may
otherwise never touch) costs more than it can save.  A heatmap formats each
of its cell x's and y's once and picks each cell's fill from the 2 x 256 it
can have.  Either way the bytes are those of formatting every value in
place.

SVG plots are generated directly (no plotting toolkit): polyline charts for
curves and rect rasters for matrices, both 960x540.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SVG_SIZE = (960, 540)
#: cells per axis beyond which ``svg_heatmap`` strides its matrix down
HEATMAP_MAX_CELLS = 128
#: cells from which ``write_csv`` formats each distinct number of a table once
DISTINCT_MIN_CELLS = 1 << 15
#: cells of each block of rows that the writers format and write at a time
BLOCK_CELLS = 1 << 12
_MARGIN = 60
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def config_hash(resolved: dict) -> str:
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class ResultTable:
    columns: list[str]
    units: list[str]
    rows: np.ndarray  # (n_rows, n_cols)
    experiment: str
    provenance: dict = field(default_factory=dict)  # config_hash, code_version
    extra_meta: list[str] = field(default_factory=list)  # "key: value" lines after config_hash

    def __post_init__(self) -> None:
        self.rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if len(self.columns) != len(self.units):
            raise ValueError("columns and units must align")
        if self.rows.shape[1] != len(self.columns):
            raise ValueError(
                f"row width {self.rows.shape[1]} != column count {len(self.columns)}"
            )
        if "config_hash" not in self.provenance:
            raise ValueError("provenance must carry the config hash")

    def write_csv(self, path: Path) -> None:
        header = [
            f"# kvnlab {self.provenance.get('code_version', 'unknown')}",
            f"# experiment: {self.experiment}",
            f"# config_hash: {self.provenance['config_hash']}",
            *(f"# {line}" for line in self.extra_meta),
            f"# columns: {','.join(self.columns)}",
            f"# units: {','.join(self.units)}",
        ]
        repeats = _repeats(self.rows)
        step = max(1, BLOCK_CELLS // self.rows.shape[1])
        blocks = (_format_rows(self.rows[start : start + step], repeats)
                  for start in range(0, len(self.rows), step))
        _write_lines(path, header, blocks)


def _write_lines(path: Path, *groups) -> None:
    """Write each line of each iterable in ``groups`` to ``path``, each
    followed by a newline, as it comes: a line may be a block of lines."""
    with path.open("w") as f:
        for group in groups:
            for line in group:
                f.write(line)
                f.write("\n")


# ---------------------------------------------------------------------------
# SVG


def _map(v, lo, hi, out_lo, out_hi):
    """``v`` (a number or an array) mapped from [lo, hi] onto [out_lo, out_hi]."""
    if hi == lo:
        return np.full(np.shape(v), 0.5 * (out_lo + out_hi))[()]
    return out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)


def _bits(values: np.ndarray) -> np.ndarray:
    """The bit patterns of ``values`` as float64, keyed apart for -0.0 and 0.0."""
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def _repeats(values: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The bit patterns that occur more than once among ``values``, sorted,
    and ``"%.17g"`` of each, formatted once; None for fewer than
    ``DISTINCT_MIN_CELLS`` values, which are cheaper to format in place.
    A pattern that occurs once gets no string here: ``_format_rows``
    formats it where it stands."""
    if values.size < DISTINCT_MIN_CELLS:
        return None
    bits = np.sort(_bits(values), axis=None)
    twice = bits[1:][bits[1:] == bits[:-1]]  # each repeat after a pattern's first, sorted
    first = np.ones(len(twice), dtype=bool)
    first[1:] = twice[1:] != twice[:-1]
    patterns = twice[first]
    del bits, twice  # free the sorted copy before the strings are made
    return patterns, np.array(["%.17g" % v for v in patterns.view(float).tolist()], dtype=object)


def _format_rows(block: np.ndarray, repeats) -> str:
    """The CSV lines of the rows of ``block``, joined by newlines: each cell
    ``"%.17g"``, read from ``repeats`` (see ``_repeats``) where its pattern
    repeats in the table and formatted in place otherwise."""
    if repeats is None:
        row = ",".join(["%.17g"] * block.shape[1])
        return "\n".join([row % values for values in map(tuple, block.tolist())])
    patterns, strings = repeats
    bits = _bits(block).ravel()
    order = bits.argsort()  # the search is quicker for sorted keys
    where = np.empty_like(order)
    where[order] = np.searchsorted(patterns, bits[order])
    found = where < len(patterns)
    found[found] = patterns[where[found]] == bits[found]
    cells = np.empty(bits.shape, dtype=object)
    cells[found] = strings[where[found]]
    cells[~found] = ["%.17g" % v for v in block.ravel()[~found].tolist()]
    return "\n".join(map(",".join, cells.reshape(block.shape).tolist()))


def _format(template: str, sep: str, *columns: np.ndarray) -> str:
    """``template`` filled from each row of ``columns``, the rows joined by ``sep``."""
    values = np.column_stack(columns).ravel().tolist()
    return sep.join([template] * len(columns[0])) % tuple(values)


def _write_svg(path: Path, title: str, x_label: str, y_label: str, xlim, ylim,
               under=(), over=()) -> None:
    """A white SVG_SIZE page at ``path``: its title, the elements ``under``,
    the plot frame with its labels and ticks over ``xlim`` x ``ylim``, then
    the elements ``over``, each written as ``under`` and ``over`` yield it."""
    w, h = SVG_SIZE
    m = _MARGIN
    page = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w // 2}" y="28" text-anchor="middle" font-size="16">{title}</text>',
    ]
    parts = [
        f'<rect x="{m}" y="{m}" width="{w - 2 * m}" height="{h - 2 * m}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{w // 2}" y="{h - 12}" text-anchor="middle" '
        f'font-size="14">{x_label}</text>',
        f'<text x="16" y="{h // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 16 {h // 2})">{y_label}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = xlim[0] + frac * (xlim[1] - xlim[0])
        yv = ylim[0] + frac * (ylim[1] - ylim[0])
        px = _map(xv, *xlim, m, w - m)
        py = _map(yv, *ylim, h - m, m)
        parts.append(
            f'<text x="{px:.1f}" y="{h - m + 18}" text-anchor="middle" '
            f'font-size="11">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{m - 6}" y="{py:.1f}" text-anchor="end" '
            f'font-size="11">{yv:.4g}</text>'
        )
    _write_lines(path, page, under, parts, over, ["</svg>"])


def svg_line_plot(
    path: Path,
    x: np.ndarray,
    series: dict[str, np.ndarray],
    x_label: str = "x",
    y_label: str = "y",
    title: str = "",
) -> None:
    w, h = SVG_SIZE
    m = _MARGIN
    ys = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    xlim = (float(np.min(x)), float(np.max(x)))
    ylim = (float(np.min(ys)), float(np.max(ys)))
    if ylim[0] == ylim[1]:
        ylim = (ylim[0] - 1.0, ylim[1] + 1.0)
    curves = []
    px = _map(np.asarray(x, dtype=float), *xlim, m, w - m)
    for i, (label, y) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = _format("%.2f,%.2f", " ", px, _map(np.asarray(y, dtype=float), *ylim, h - m, m))
        curves.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        curves.append(
            f'<text x="{w - m - 8}" y="{m + 18 + 16 * i}" text-anchor="end" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    _write_svg(path, title, x_label, y_label, xlim, ylim, over=curves)


def svg_heatmap(
    path: Path,
    matrix: np.ndarray,
    extent: tuple[float, float, float, float],
    x_label: str = "q",
    y_label: str = "p",
    title: str = "",
) -> None:
    """Signed-diverging raster; matrix axis 0 runs along x, axis 1 along y."""
    w, h = SVG_SIZE
    m = _MARGIN
    mat = np.asarray(matrix, dtype=float)
    step0 = max(1, mat.shape[0] // HEATMAP_MAX_CELLS)
    step1 = max(1, mat.shape[1] // HEATMAP_MAX_CELLS)
    mat = mat[::step0, ::step1]
    vmax = float(np.max(np.abs(mat))) or 1.0
    if not np.isfinite(vmax):
        raise ValueError("svg_heatmap needs a finite matrix")
    nx, ny = mat.shape
    cw = (w - 2 * m) / nx
    ch = (h - 2 * m) / ny
    # cell (i, j) at x = m + i cw, y = h - m - (j + 1) ch; red above 0, blue
    # below, faded to white as 255 (1 - |v|) truncated, v the cell over vmax
    # (a fade level 0..255); each x, y and fill is formatted once, and the
    # cells are written a block of x columns at a time
    fills = np.array([f"rgb(255,{k},{k})" for k in range(256)]
                     + [f"rgb({k},{k},255)" for k in range(256)], dtype=object)
    xs = np.array(["%.2f" % x for x in (m + np.arange(nx) * cw).tolist()], dtype=object)
    ys = np.array(["%.2f" % y for y in (h - m - np.arange(1, ny + 1) * ch).tolist()], dtype=object)
    rect = f'<rect x="%s" y="%s" width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" fill="%s"/>'

    def cells(span: slice) -> str:
        v = (mat[span] / vmax).ravel()
        level = np.trunc(255 * (1 - np.abs(v))).astype(np.intp)
        return _format(rect, "\n", np.repeat(xs[span], ny), np.tile(ys, len(v) // ny),
                       fills[level + 256 * (v < 0)])

    step = max(1, BLOCK_CELLS // ny)
    blocks = (cells(slice(i, i + step)) for i in range(0, nx, step))
    _write_svg(path, title, x_label, y_label, extent[:2], extent[2:], under=blocks)

"""Tabular and SVG output for the experiment runner.

CSV files carry '#'-prefixed metadata lines (tool version, experiment name,
config hash, any experiment-specific ``key: value`` lines, column names and
units) followed by comma-separated rows with 17-significant-digit floats,
which round-trip exactly.  Identical configs therefore produce
byte-identical files; volatile quantities such as wall time are reported on
stdout, never written into the tables.

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
    provenance: dict = field(default_factory=dict)  # config_hash, code_version, wall_time_s
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
        lines = [
            f"# kvnlab {self.provenance.get('code_version', 'unknown')}",
            f"# experiment: {self.experiment}",
            f"# config_hash: {self.provenance['config_hash']}",
            *(f"# {line}" for line in self.extra_meta),
            f"# columns: {','.join(self.columns)}",
            f"# units: {','.join(self.units)}",
        ]
        row = ",".join(["%.17g"] * self.rows.shape[1])
        lines += [row % values for values in map(tuple, self.rows.tolist())]
        path.write_text("\n".join(lines) + "\n")


def read_table(path: Path) -> tuple[dict, np.ndarray]:
    """Read back a table written by :meth:`ResultTable.write_csv`."""
    meta: dict = {}
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, value = body.split(":", 1)
                meta[key.strip()] = value.strip()
        elif line.strip():
            rows.append([float(v) for v in line.split(",")])
    return meta, np.array(rows)


# ---------------------------------------------------------------------------
# SVG


def _map(v, lo, hi, out_lo, out_hi):
    """``v`` (a number or an array) mapped from [lo, hi] onto [out_lo, out_hi]."""
    if hi == lo:
        return np.full(np.shape(v), 0.5 * (out_lo + out_hi))[()]
    return out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)


def _format(template: str, sep: str, *columns: np.ndarray) -> str:
    """``template`` filled from each row of ``columns``, the rows joined by ``sep``."""
    values = np.column_stack(columns).ravel().tolist()
    return sep.join([template] * len(columns[0])) % tuple(values)


def _axes(x_label: str, y_label: str, xlim, ylim) -> list[str]:
    w, h = SVG_SIZE
    m = _MARGIN
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
    return parts


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
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w // 2}" y="28" text-anchor="middle" font-size="16">{title}</text>',
    ]
    parts += _axes(x_label, y_label, xlim, ylim)
    px = _map(np.asarray(x, dtype=float), *xlim, m, w - m)
    for i, (label, y) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = _format("%.2f,%.2f", " ", px, _map(np.asarray(y, dtype=float), *ylim, h - m, m))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{w - m - 8}" y="{m + 18 + 16 * i}" text-anchor="end" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


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
    nx, ny = mat.shape
    cw = (w - 2 * m) / nx
    ch = (h - 2 * m) / ny
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w // 2}" y="28" text-anchor="middle" font-size="16">{title}</text>',
    ]
    # cell (i, j) at x = m + i cw, y = h - m - (j + 1) ch; red above 0, blue
    # below, faded to white as 255 (1 - |v|) truncated, v the cell over vmax
    v = (mat / vmax).ravel()
    fade = np.trunc(255 * (1 - np.abs(v)))
    red = v >= 0
    parts.append(_format(
        f'<rect x="%.2f" y="%.2f" width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" '
        f'fill="rgb(%d,%d,%d)"/>', "\n",
        np.repeat(m + np.arange(nx) * cw, ny), np.tile(h - m - np.arange(1, ny + 1) * ch, nx),
        np.where(red, 255, fade), fade, np.where(red, fade, 255),
    ))
    parts += _axes(x_label, y_label, extent[:2], extent[2:])
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")

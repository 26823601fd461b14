import re

import numpy as np
import pytest

from kvnlab.report import _MARGIN, SVG_SIZE, ResultTable, read_table, svg_heatmap, svg_line_plot

PROV = {"config_hash": "0123456789abcdef", "code_version": "9.9"}


def test_write_csv_bytes_are_17_significant_digits(tmp_path):
    values = [-0.0, 5e-324, 1e-300, 0.1, 1 / 3, 1e16, 3.0]
    rows = np.column_stack([np.arange(len(values)), values])  # integer column first
    table = ResultTable(["case", "value"], ["id", "1"], rows, "demo", PROV)
    out = tmp_path / "t.csv"
    table.write_csv(out)
    assert out.read_bytes() == (
        b"# kvnlab 9.9\n"
        b"# experiment: demo\n"
        b"# config_hash: 0123456789abcdef\n"
        b"# columns: case,value\n"
        b"# units: id,1\n"
        b"0,-0\n"
        b"1,4.9406564584124654e-324\n"
        b"2,1e-300\n"
        b"3,0.10000000000000001\n"
        b"4,0.33333333333333331\n"
        b"5,10000000000000000\n"
        b"6,3\n"
    )
    _, back = read_table(out)
    np.testing.assert_array_equal(back, rows)
    assert np.signbit(back[0, 1])


def test_extra_meta_lines_follow_config_hash(tmp_path):
    table = ResultTable(
        ["x"], ["1"], np.array([[1.5]]), "demo", PROV,
        extra_meta=["q_axis: -1.0,1.0,8", "records: 1"],
    )
    out = tmp_path / "t.csv"
    table.write_csv(out)
    assert out.read_text().splitlines() == [
        "# kvnlab 9.9",
        "# experiment: demo",
        "# config_hash: 0123456789abcdef",
        "# q_axis: -1.0,1.0,8",
        "# records: 1",
        "# columns: x",
        "# units: 1",
        "1.5",
    ]
    meta, _ = read_table(out)
    assert meta["q_axis"] == "-1.0,1.0,8" and meta["records"] == "1"



# --- the writers against their per-element reference -------------------------

SPECIAL = [-0.0, 5e-324, 1e300, -1e300, 0.1, 1 / 3, -2.5]


def reference_map(v, lo, hi, out_lo, out_hi):
    if hi == lo:
        return 0.5 * (out_lo + out_hi)
    return out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)


def reference_points(x, y, xlim, ylim):
    w, h = SVG_SIZE
    m = _MARGIN
    return " ".join(
        f"{reference_map(xv, *xlim, m, w - m):.2f},{reference_map(yv, *ylim, h - m, m):.2f}"
        for xv, yv in zip(x, y)
    )


def reference_cells(mat):
    w, h = SVG_SIZE
    m = _MARGIN
    vmax = float(np.max(np.abs(mat))) or 1.0
    nx, ny = mat.shape
    cw, ch = (w - 2 * m) / nx, (h - 2 * m) / ny
    cells = []
    for i in range(nx):
        for j in range(ny):
            v = mat[i, j] / vmax
            if v >= 0:
                r, g, b = 255, int(255 * (1 - v)), int(255 * (1 - v))
            else:
                r, g, b = int(255 * (1 + v)), int(255 * (1 + v)), 255
            px, py = m + i * cw, h - m - (j + 1) * ch
            cells.append(
                f'<rect x="{px:.2f}" y="{py:.2f}" width="{cw + 0.5:.2f}" '
                f'height="{ch + 0.5:.2f}" fill="rgb({r},{g},{b})"/>'
            )
    return cells


def test_csv_rows_match_per_value_format(tmp_path):
    rows = np.array([SPECIAL, SPECIAL[::-1], np.linspace(-1, 1, len(SPECIAL))])
    ResultTable(list("abcdefg"), ["1"] * 7, rows, "demo", PROV).write_csv(tmp_path / "t.csv")
    body = (tmp_path / "t.csv").read_text().splitlines()[5:]
    assert body == [",".join(map("{:.17g}".format, row)) for row in rows.tolist()]


@pytest.mark.parametrize("x, y", [
    (np.arange(len(SPECIAL), dtype=float), SPECIAL),  # extreme values
    (np.linspace(0, 1, 40), np.full(40, 2.5)),  # flat series: y range widened by 1
    (np.full(5, 3.0), np.arange(5.0)),  # flat x: every point at mid-width
    (np.linspace(-3, 7, 301), np.sin(np.linspace(-3, 7, 301))),
])
def test_polyline_points_match_per_point_map(tmp_path, x, y):
    svg_line_plot(tmp_path / "l.svg", x, {"y": y, "-y": -np.asarray(y)})
    body = (tmp_path / "l.svg").read_text()
    xlim = (float(np.min(x)), float(np.max(x)))
    ys = np.concatenate([y, -np.asarray(y)])
    ylim = (float(np.min(ys)), float(np.max(ys)))
    if ylim[0] == ylim[1]:
        ylim = (ylim[0] - 1.0, ylim[1] + 1.0)
    got = re.findall(r'<polyline points="([^"]*)"', body)
    assert got == [reference_points(x, s, xlim, ylim) for s in (y, -np.asarray(y))]


@pytest.mark.parametrize("mat", [
    np.array([SPECIAL, SPECIAL[::-1]]),  # extreme values, negative cells among them
    -np.arange(12.0).reshape(3, 4),  # every cell at or below zero
    np.zeros((2, 3)),  # vmax 0 falls back to 1
    np.random.default_rng(3).standard_normal((40, 24)),
])
def test_heatmap_cells_match_per_cell_reference(tmp_path, mat):
    svg_heatmap(tmp_path / "h.svg", mat, (0, 1, 0, 1))
    lines = (tmp_path / "h.svg").read_text().splitlines()
    cells = [line for line in lines if 'fill="rgb(' in line]
    assert cells == reference_cells(mat)

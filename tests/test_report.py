import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import read_table
from kvnlab import report
from kvnlab.report import (
    _MARGIN,
    SVG_SIZE,
    ResultTable,
    _repeats,
    svg_heatmap,
    svg_line_plot,
)

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


SUBNORMAL = [5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -3.3e-320]
SIGNED_ZEROS = np.column_stack([np.tile([0.0, -0.0], 12), np.full(24, 1.5), np.arange(24.0) % 3])
ROW_CASES = {
    "special": np.array([SPECIAL, SPECIAL[::-1], np.linspace(-1, 1, len(SPECIAL))]),
    "repeated": np.tile(SPECIAL, (9, 2)),
    "signed-zeros": SIGNED_ZEROS,
    "subnormal": np.array([SUBNORMAL, np.multiply(SUBNORMAL, 3)]),
    "subnormal-repeated": np.tile(SUBNORMAL, (6, 1)),
}


def test_csv_rows_match_per_value_format(tmp_path, monkeypatch):
    for min_cells in (0, report.DISTINCT_MIN_CELLS):  # each distinct value once, then row-wise
        monkeypatch.setattr(report, "DISTINCT_MIN_CELLS", min_cells)
        for case, rows in ROW_CASES.items():
            assert (_repeats(rows) is None) == (min_cells > 0), case
            ncol = rows.shape[1]
            out = tmp_path / f"{case}.csv"
            ResultTable([f"c{j}" for j in range(ncol)], ["1"] * ncol, rows, "demo",
                        PROV).write_csv(out)
            body = out.read_text().splitlines()[5:]
            assert body == [",".join(map("{:.17g}".format, row)) for row in rows.tolist()], case
            _, back = read_table(out)
            assert np.array_equal(np.signbit(back), np.signbit(rows)), case  # -0.0 stays signed


def test_only_large_tables_format_each_distinct_number_once():
    repeated = np.tile([0.1, -0.0, 0.0], (report.DISTINCT_MIN_CELLS // 3 + 1, 1))
    assert _repeats(repeated[:-1]) is None  # one row short
    patterns, strings = _repeats(repeated)
    # one string per repeated bit pattern, sorted by pattern: 0.0, 0.1, -0.0
    assert strings.tolist() == ["0", "0.10000000000000001", "-0"]
    assert patterns.view(float).tolist() == [0.0, 0.1, -0.0]
    # a number that occurs once is formatted where it stands: no string is held for it
    distinct = np.arange(report.DISTINCT_MIN_CELLS, dtype=float).reshape(-1, 4) / 3
    patterns, strings = _repeats(distinct)
    assert len(patterns) == len(strings) == 0
    # mixed: exactly the patterns that occur more than once get a string
    mixed = np.concatenate([distinct, distinct[:100], -distinct[:7]])
    patterns, strings = _repeats(mixed)
    bits, counts = np.unique(mixed.view(np.uint64), return_counts=True)
    assert patterns.tolist() == bits[counts > 1].tolist()
    assert strings.tolist() == ["%.17g" % v for v in patterns.view(float).tolist()]


def test_streamed_csv_bytes_are_each_cell_formatted(tmp_path):
    # a table past DISTINCT_MIN_CELLS, written in several blocks: repeats,
    # signed zeros and numbers that occur once, each cell "%.17g" in place
    rng = np.random.default_rng(11)
    rows = np.round(rng.standard_normal((report.DISTINCT_MIN_CELLS // 4 + 5, 5)), 1)
    rows[:, 4] = rng.standard_normal(len(rows))  # distinct
    rows[::7, 1], rows[::11, 2] = 0.0, -0.0
    assert rows.size >= report.DISTINCT_MIN_CELLS and rows.size > 4 * report.BLOCK_CELLS
    assert np.signbit(rows[rows == 0]).any() and not np.signbit(rows[rows == 0]).all()
    out = tmp_path / "t.csv"
    ResultTable([f"c{j}" for j in range(5)], ["1"] * 5, rows, "demo", PROV).write_csv(out)
    head = (b"# kvnlab 9.9\n# experiment: demo\n# config_hash: 0123456789abcdef\n"
            b"# columns: c0,c1,c2,c3,c4\n# units: 1,1,1,1,1\n")
    body = "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows.tolist())
    assert out.read_bytes() == head + body.encode()


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
    np.tile([[0.5, -0.25, 1.0], [0.0, -1.0, 0.5]], (20, 10)),  # repeated values
    SIGNED_ZEROS,  # 0.0 and -0.0 in one column
    np.array([SUBNORMAL, SUBNORMAL[::-1]]),  # vmax subnormal
    np.vstack([np.tile(SUBNORMAL, (8, 1)), np.ones((1, 5))]),  # cells of ~1e-308 beside 1
])
def test_heatmap_cells_match_per_cell_reference(tmp_path, mat):
    svg_heatmap(tmp_path / "h.svg", mat, (0, 1, 0, 1))
    lines = (tmp_path / "h.svg").read_text().splitlines()
    cells = [line for line in lines if 'fill="rgb(' in line]
    assert cells == reference_cells(mat)


# --- both writers against the per-cell reference, on drawn inputs -----------

FORMAT_PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)
#: a few values, so that drawn cells repeat, among them -0.0 and a subnormal
POOL = st.sampled_from([0.0, -0.0, 5e-324, 1.0, -2.5, 1 / 3, 255.0, 1e300])


def drawn_row(n, finite=False):
    values = POOL | (st.floats(-1e300, 1e300) if finite else st.floats())
    return st.lists(values, min_size=n, max_size=n)


@FORMAT_PROPERTY
@given(st.integers(1, 12).flatmap(lambda n: st.lists(drawn_row(n), min_size=1, max_size=12)))
def test_write_csv_matches_per_cell_format(tmp_path_factory, rows):
    out = tmp_path_factory.mktemp("csv") / "t.csv"
    ncol = len(rows[0])
    for min_cells in (0, report.DISTINCT_MIN_CELLS):  # each distinct value once, and row-wise
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(report, "DISTINCT_MIN_CELLS", min_cells)
            ResultTable(["c"] * ncol, ["1"] * ncol, rows, "demo", PROV).write_csv(out)
        assert out.read_text().splitlines()[5:] == [",".join("%.17g" % v for v in row)
                                                    for row in rows]


@FORMAT_PROPERTY
@given(st.integers(1, 12).flatmap(lambda n: st.lists(drawn_row(n, finite=True), min_size=1,
                                                      max_size=12)))
def test_heatmap_matches_per_cell_reference(tmp_path_factory, rows):
    mat = np.array(rows)
    out = tmp_path_factory.mktemp("svg") / "h.svg"
    svg_heatmap(out, mat, (0, 1, 0, 1))
    assert [line for line in out.read_text().splitlines() if 'fill="rgb(' in line] == \
        reference_cells(mat)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_heatmap_refuses_a_non_finite_matrix(tmp_path, bad):
    with pytest.raises(ValueError):
        svg_heatmap(tmp_path / "h.svg", np.array([[1.0, bad]]), (0, 1, 0, 1))

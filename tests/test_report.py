import numpy as np

from kvnlab.report import ResultTable, read_table

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


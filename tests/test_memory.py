"""Working-set budgets: the tracemalloc peak of each default run of the
benchmark's ``lab-tables`` experiments, tables and plots written, and of
writing a large table of distinct numbers.

A budget fails when a change makes a run hold more fields at once: a real
state cast to complex, a split factor built over bins no step reads, a
table or plot built whole in memory before it is written.
"""

import json

import numpy as np
import pytest

from conftest import traced_peak
from kvnlab.cli import run
from kvnlab.report import ResultTable

MIB = 1 << 20

#: MiB per default run, tables and SVG plots included
BUDGETS = {"kernelcheck": 8.5, "wigner": 4.0, "uncertainty": 4.5, "doubleslit": 4.5}


@pytest.mark.parametrize("experiment", sorted(BUDGETS))
def test_default_run_stays_within_its_budget(tmp_path, capsys, experiment):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"experiment": experiment, "output": {"svg": True}}))
    peak = traced_peak(lambda: run(cfg))
    capsys.readouterr()
    assert peak <= BUDGETS[experiment] * MIB, f"{experiment} peaked at {peak / MIB:.2f} MiB"


def test_writing_a_table_of_distinct_numbers_stays_within_its_budget(tmp_path):
    # 1e5 x 3 distinct floats: 2.3 MiB of values, 5.6 MiB of CSV
    rows = np.random.default_rng(0).standard_normal((10**5, 3))
    table = ResultTable(["a", "b", "c"], ["1", "1", "1"], rows, "demo", {"config_hash": "0"})
    peak = traced_peak(lambda: table.write_csv(tmp_path / "t.csv"))
    assert peak <= 12 * MIB, f"write_csv peaked at {peak / MIB:.2f} MiB"

"""Working-set budgets: the tracemalloc peak of each default run of the
benchmark's ``lab-tables`` experiments, tables and plots written, and of
writing a large table of distinct numbers.

A budget fails when a change makes a run hold more fields at once: a real
state cast to complex, a generator part or split factor held over bins no
step reads, a table or plot built whole in memory before it is written.
The page-fault bound fails when a step's temporaries come from fresh
mappings of the system's instead of the heap.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kvnlab
from conftest import traced_peak
from kvnlab.cli import run
from kvnlab.report import ResultTable

MIB = 1 << 20

#: MiB per default run, tables and SVG plots included
BUDGETS = {"kernelcheck": 7.5, "wigner": 4.0, "uncertainty": 4.5, "doubleslit": 4.5}


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


#: 20 warm-up steps, then 200 whose minor page faults are counted
_FAULTS_PER_STEP = """
import resource
import numpy as np
from kvnlab.grid import Grid1D, PhaseGrid
from kvnlab.operators import unified_generator
from kvnlab.propagation import evolve_many
from kvnlab.states import Wavefunction
pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))
Q, P = pg.q.points[:, None], pg.p.points[None, :]
blob = Wavefunction(pg, np.exp(-(Q - 0.8) ** 2 / 0.49 - P**2 / 1.96)).normalize()
G = unified_generator(pg, lambda q: q**4 / 4, 1.0, vprime=lambda q: q**3)
evolve_many(blob, G, (1.0,), 0.02, 20)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
evolve_many(blob, G, (1.0,), 0.2, 200)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 200)
"""


def test_phase_step_takes_no_page_faults():
    # a 128^2 step's temporaries, of 128-130 KiB, come from the heap that the
    # package's thresholds keep: 0.0 faults per step, against 82 at glibc's
    # defaults, which map each temporary afresh.  A fresh interpreter, its
    # environment without the variables that would skip the thresholds
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    src = str(Path(kvnlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 0.5


class _Libc:
    def __init__(self, calls):
        self.mallopt = lambda option, value: calls.append((option, value))


@pytest.mark.parametrize("preset", [None, "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"])
def test_heap_thresholds_are_set_unless_the_environment_sets_one(monkeypatch, preset):
    calls = []
    monkeypatch.setattr(kvnlab.ctypes, "CDLL", lambda name: _Libc(calls))
    for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
        monkeypatch.delenv(name, raising=False)
    if preset is not None:
        monkeypatch.setenv(preset, "131072")
    kvnlab._fix_heap_thresholds()
    # M_MMAP_THRESHOLD (-3) at 4 MiB, M_TRIM_THRESHOLD (-1) at 32 MiB
    assert calls == ([] if preset else [(-3, 4 << 20), (-1, 32 << 20)])


def test_heap_thresholds_are_skipped_without_mallopt(monkeypatch):
    monkeypatch.setattr(kvnlab.ctypes, "CDLL", lambda name: object())
    monkeypatch.delenv("MALLOC_MMAP_THRESHOLD_", raising=False)
    monkeypatch.delenv("MALLOC_TRIM_THRESHOLD_", raising=False)
    kvnlab._fix_heap_thresholds()

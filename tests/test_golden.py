"""The default experiments' tables, pinned column by column.

``tests/golden`` holds the CSV tables that ``kvnlab run`` writes for each of
the eight experiments at its default config; ``wigner.csv`` keeps every 8th
row and column of the 256 x 256 table.  A change that moves a table on
purpose regenerates it in the same diff with
``python tests/test_golden.py NAME...`` (NAME a table such as
``oscillator_kvn.csv``; no name regenerates every table) and states the
largest change.

Each column is compared against its golden copy within a bound relative to
the column's largest magnitude, so entries at the rounding floor (a density
of 1e-34 at the screen edge) do not dominate the comparison.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

# conftest first, also when run as a script: it pins BLAS to one thread, as in
# a default kvnlab run, before kvnlab and numpy load
from conftest import read_table

from kvnlab.cli import SPECS, main

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
THIN = 8  # wigner.csv keeps rows and columns 0, 8, 16, ...

#: Ids, inputs and grid coordinates: the same arithmetic gives the same bits.
EXACT = 0.0
#: Closed forms through libm or LAPACK (cosines, Bessel zeros): a few ulps.
CLOSED_FORM = 1e-13
#: Values carried through FFT or Runge-Kutta chains of up to 2500 steps,
#: whose rounding follows the FFT library's plan.
EVOLVED = 1e-10
#: Residuals: differences of nearly equal quantities, where rounding in the
#: inputs shows amplified.
RESIDUAL = 1e-6

#: Table -> column -> bound.  Wigner's columns all take EVOLVED.
TOLERANCES = {
    "quantum_screen.csv": {"x": EXACT, "density": EVOLVED},
    "kvn_screen.csv": {"x": EXACT, "density": EVOLVED},
    "measure_sweep.csv": {
        "omega_tau": EXACT, "p_a_unmeasured": CLOSED_FORM, "p_a_nonselective": CLOSED_FORM,
    },
    "uncertainty.csv": {"case": EXACT, "lhs": EVOLVED, "rhs": EVOLVED, "satisfied": EXACT},
    "ehrenfest.csv": {
        "flavor": EXACT, "potential": EXACT, "kappa": EXACT,
        "r1_max": RESIDUAL, "r2_max": RESIDUAL, "r1_rel": RESIDUAL, "r2_rel": RESIDUAL,
    },
    "wigner.csv": {},
    "oscillator.csv": {
        "t": EXACT, "q": EVOLVED, "p": EVOLVED, "rho": EVOLVED, "invariant": EVOLVED,
    },
    "oscillator_kvn.csv": {"t": EXACT, "kvn_q": EVOLVED, "kvn_p": EVOLVED, "kvn_var_q": EVOLVED},
    "aharonov_bohm.csv": {
        "alpha": EXACT, "E_n0": CLOSED_FORM, "E_n1": CLOSED_FORM, "E_n2": CLOSED_FORM,
        "kvn_record_id": EXACT,
    },
    "kernelcheck.csv": {"check": EXACT, "residual": RESIDUAL},
}


def run_defaults(directory: Path) -> None:
    """Run every experiment at its default config, tables only, into ``directory``."""
    for name in SPECS:
        cfg = directory / f"{name}.json"
        cfg.write_text(json.dumps({"experiment": name, "output": {"svg": False}}))
        assert main(["run", str(cfg)]) == 0, name


def thin(meta: dict, rows: np.ndarray) -> tuple[dict, np.ndarray]:
    columns = meta["columns"].split(",")[::THIN]
    units = meta["units"].split(",")[::THIN]
    return dict(meta, columns=",".join(columns), units=",".join(units)), rows[::THIN, ::THIN]


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    directory = tmp_path_factory.mktemp("defaults")
    run_defaults(directory)
    return directory


@pytest.mark.parametrize("table", sorted(TOLERANCES))
def test_default_table_matches_golden(fresh, table):
    meta, rows = read_table(fresh / table)
    if table == "wigner.csv":
        meta, rows = thin(meta, rows)
    gold_meta, gold = read_table(GOLDEN / table)
    assert meta == gold_meta  # config hash, columns, units, axes
    assert rows.shape == gold.shape
    for j, column in enumerate(meta["columns"].split(",")):
        bound = TOLERANCES[table].get(column, EVOLVED)
        scale = np.max(np.abs(gold[:, j]))
        error = np.max(np.abs(rows[:, j] - gold[:, j]))
        assert error <= bound * scale, f"{table} {column}: {error:.3e} > {bound:.0e} x {scale:.3e}"


def regenerate(tables) -> None:
    """Rewrite the golden copies of ``tables`` from a fresh default run."""
    unknown = set(tables) - set(TOLERANCES)
    if unknown:
        raise SystemExit(f"no golden table named {', '.join(sorted(unknown))}")
    with tempfile.TemporaryDirectory() as scratch:
        run_defaults(Path(scratch))
        GOLDEN.mkdir(exist_ok=True)
        for table in tables:
            shutil.copyfile(Path(scratch) / table, GOLDEN / table)
    if "wigner.csv" not in tables:
        return
    text = (GOLDEN / "wigner.csv").read_text().splitlines()
    head = [line for line in text if line.startswith("#")]
    meta, rows = thin(*read_table(GOLDEN / "wigner.csv"))
    head = [f"# columns: {meta['columns']}" if line.startswith("# columns:")
            else f"# units: {meta['units']}" if line.startswith("# units:") else line
            for line in head]
    body = [",".join(map("{:.17g}".format, row)) for row in rows.tolist()]
    (GOLDEN / "wigner.csv").write_text("\n".join(head + body) + "\n")


if __name__ == "__main__":
    regenerate(sys.argv[1:] or list(TOLERANCES))

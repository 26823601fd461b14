"""The benchmark's fixed inputs and the correctness gates its outputs must pass.

Every workload is a list of ``kvnlab run`` configs.  The configs spell out
the parameters in full (today's defaults), so a later change of a default
does not silently change what the benchmark measures.  The seed goes into
each config's ``seed`` field and is the only thing that varies between
seeds; it drives the random states of ``uncertainty``.

The gate tolerances are the ones pinned in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

PARAMS = {
    "ehrenfest": {
        "potentials": ["harmonic", "quartic"],
        "kappas": [0.0, 0.5, 1.0],
        "t_final": 1.0, "dt": 1e-3,
        "grid": {"n": 256, "min": -16.0, "max": 16.0},
        "phase_grid": {"n": 128, "min": -8.0, "max": 8.0},
    },
    "oscillator": {
        "k_base": 1.0, "k_mod": 0.1, "t_final": 10.0, "n_steps": 2500,
        "q0": 1.0, "p0": 0.0,
        "phase_grid": {"n": 128, "min": -8.0, "max": 8.0},
        "sigma": 0.3,
    },
    "doubleslit": {
        "x_A": 3.0, "delta": 0.5, "sigma_x": 1.0, "sigma_p": 0.1,
        "mass": 1.0, "p0y": 50.0, "y_M": 50.0, "y_R": 150.0,
        "x_grid": {"n": 2048, "min": -64.0, "max": 64.0},
        "p_grid": {"n": 256, "min": -4.0, "max": 4.0},
    },
    "kernelcheck": {
        "points": [[0.7, -0.3], [1.2, 0.5], [0.0, 0.0]],
        "t1": 0.4, "t2": 0.4, "t_free": 1.0, "sigma": 1.0,
        "grid": {"n": 2048, "min": -32.0, "max": 32.0},
        "p_grid": {"n": 64, "min": -4.0, "max": 4.0},
    },
    "wigner": {
        "state": "gaussian", "center": 0.0, "sigma": 0.7071067811865476,
        "grid": {"n": 256, "min": -12.0, "max": 12.0},
        "p_grid": {"n": 256, "min": -8.0, "max": 8.0},
    },
    "uncertainty": {
        "sigma": 0.5, "kvn_sigma": 0.1, "n_random": 20,
        "grid": {"n": 512, "min": -16.0, "max": 16.0},
        "kvn_grid": {"n": 256, "min": -2.0, "max": 2.0},
    },
    "measure": {"omega_tau_max": 1.5707963267948966, "n_points": 65},
    "aharonov-bohm": {
        "alphas": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
        "n_values": [0, 1, 2],
        "pz0": 0.0, "ptheta0": 0.5, "mass": 1.0, "R_boundary": 1.0,
    },
}

# Why each workload exists is recorded in BENCHMARK.json.  The two evolution
# experiments share one workload: on a shared 2-vCPU host the oscillator's
# wall time alone drifted by up to 28% (quartile spread over ten runs), while
# the sum with the steadier ehrenfest sweep stayed near 13%.
WORKLOADS = {
    "evolutions": ["ehrenfest", "oscillator"],
    "lab-tables": ["doubleslit", "kernelcheck", "wigner", "uncertainty", "measure", "aharonov-bohm"],
}

COMPLEX_BYTES = 16


def write_configs(workload: str, seed: int, run_dir: Path) -> None:
    """Write ``<experiment>.json`` into ``run_dir`` for each experiment of ``workload``."""
    for exp in WORKLOADS[workload]:
        cfg = {
            "experiment": exp,
            "hbar": 1.0,
            "seed": seed,
            "params": PARAMS[exp],
            "output": {"directory": f"out/{exp}", "svg": True},
        }
        (run_dir / f"{exp}.json").write_text(json.dumps(cfg, indent=2) + "\n")


def largest_array_bytes(exp: str) -> int:
    """Bytes of the largest complex array the experiment builds, from its grids."""
    p = PARAMS[exp]
    n = lambda key: p[key]["n"]
    sizes = {
        "ehrenfest": lambda: max(n("phase_grid") ** 2, n("grid")),
        "oscillator": lambda: n("phase_grid") ** 2,
        "doubleslit": lambda: n("x_grid") * n("p_grid"),  # the phase-space field
        "kernelcheck": lambda: n("grid") ** 2,  # the dense quadrature kernel
        "wigner": lambda: n("grid") * n("p_grid"),  # W before its real part is taken
        "uncertainty": lambda: max(n("kvn_grid") ** 2, n("grid")),
        "measure": lambda: 4,  # 2x2 density matrices
        "aharonov-bohm": lambda: 1,
    }
    return sizes[exp]() * COMPLEX_BYTES


# ---------------------------------------------------------------------------
# tables and gates


def parse_table(path: Path) -> tuple[dict, list[list[float]]]:
    """Read a kvnlab CSV table; raise ValueError if it is malformed."""
    meta: dict = {}
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif line.strip():
            rows.append([float(v) for v in line.split(",")])
    if "columns" not in meta:
        raise ValueError("no columns header")
    width = len(meta["columns"].split(","))
    if not rows or any(len(r) != width for r in rows):
        raise ValueError(f"rows missing or not {width} wide")
    return meta, rows


def _number(pattern: str, summary: str) -> float:
    m = re.search(pattern, summary)
    if m is None:
        raise ValueError(f"summary has no match for {pattern!r}")
    return float(m.group(1))


def _column(meta: dict, rows: list[list[float]], name: str) -> list[float]:
    return [r[meta["columns"].split(",").index(name)] for r in rows]


class Gates:
    """Collects failed checks by name and the headline residual of a run."""

    def __init__(self) -> None:
        self.failed: list[str] = []
        self.residual_ratio: float | None = None

    def expect(self, name: str, ok: bool, value) -> None:
        if not ok:
            self.failed.append(f"{name} (got {value})")


def check_run(exp: str, rc: int, summary: str, written: list[Path]) -> Gates:
    """Check one ``kvnlab run`` of ``exp`` against the acceptance tolerances.

    ``residual_ratio`` is the headline gate's value as a share of its limit
    (1 means at the limit): the worst Ehrenfest relative residual over 1e-3,
    the oscillator centroid error over 1e-4, and for the double slit the
    contrast limit 0.2 over the measured fringe contrast.
    """
    g = Gates()
    g.expect("run.exit_code", rc == 0, rc)
    tables = {}
    for path in written:
        if path.suffix != ".csv":
            continue
        try:
            meta, rows = parse_table(path)
        except (OSError, ValueError) as exc:
            g.expect(f"table.parses[{path.name}]", False, exc)
            continue
        finite = all(math.isfinite(v) for r in rows for v in r)
        g.expect(f"table.finite[{path.name}]", finite, "NaN or inf")
        tables[path.stem] = (meta, rows)
    if rc != 0:
        return g
    try:
        _check_experiment(exp, g, summary, tables)
    except (KeyError, ValueError, IndexError) as exc:
        g.expect(f"{exp}.outputs_readable", False, repr(exc))
    return g


def _check_experiment(exp: str, g: Gates, summary: str, tables: dict) -> None:
    if exp == "ehrenfest":
        meta, rows = tables["ehrenfest"]
        worst = max(_column(meta, rows, "r1_rel") + _column(meta, rows, "r2_rel"))
        g.expect("ehrenfest.rows", len(rows) == 10, len(rows))
        g.expect("ehrenfest.r_rel<1e-3", worst < 1e-3, worst)
        g.residual_ratio = worst / 1e-3
    elif exp == "oscillator":
        drift = _number(r"invariant relative drift (\S+)", summary)
        centroid = _number(r"centroid error vs characteristics (\S+)", summary)
        g.expect("oscillator.invariant_drift<1e-6", drift < 1e-6, drift)
        g.expect("oscillator.centroid<1e-4", centroid < 1e-4, centroid)
        g.residual_ratio = centroid / 1e-4
    elif exp == "doubleslit":
        additivity = _number(r"additivity sup-residual: (\S+)", summary)
        maxima = _number(r"quantum fringes: (\d+) maxima", summary)
        contrast = _number(r"contrast (\S+)", summary)
        g.expect("doubleslit.additivity<1e-10", additivity < 1e-10, additivity)
        g.expect("doubleslit.maxima>=3", maxima >= 3, maxima)
        g.expect("doubleslit.contrast>0.2", contrast > 0.2, contrast)
        g.residual_ratio = 0.2 / contrast
        for name in ("quantum_screen", "kvn_screen"):
            g.expect(f"doubleslit.table[{name}]", name in tables, "missing")
    elif exp == "kernelcheck":
        meta, rows = tables["kernelcheck"]
        limits = {0: ("group", 1e-6), 1: ("quadrature", 1e-6), 2: ("shear", 1e-10)}
        for check, residual in zip(_column(meta, rows, "check"), _column(meta, rows, "residual")):
            name, limit = limits[int(check)]
            g.expect(f"kernelcheck.{name}<{limit:g}", residual < limit, residual)
        g.expect("kernelcheck.rows", len(rows) == 5, len(rows))
    elif exp == "wigner":
        q_err = _number(r"marginal errors: position (\S+),", summary)
        p_err = _number(r"momentum (\S+)", summary)
        g.expect("wigner.marginals<1e-6", max(q_err, p_err) < 1e-6, max(q_err, p_err))
        _, rows = tables["wigner"]
        w_min = min(min(r) for r in rows)
        g.expect("wigner.gaussian_min>=-1e-10", w_min >= -1e-10, w_min)
    elif exp == "uncertainty":
        meta, rows = tables["uncertainty"]
        unsatisfied = sum(1 for s in _column(meta, rows, "satisfied") if s != 1.0)
        g.expect("uncertainty.all_satisfied", unsatisfied == 0, f"{unsatisfied} rows")
    elif exp == "aharonov-bohm":
        meta, _ = tables["aharonov_bohm"]
        distinct = meta.get("kvn_distinct_records")
        g.expect("aharonov-bohm.kvn_distinct_records==1", distinct == "1", distinct)
    elif exp == "measure":
        meta, rows = tables["measure_sweep"]
        g.expect("measure.rows", len(rows) == PARAMS["measure"]["n_points"], len(rows))

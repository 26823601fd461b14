import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kvnlab.cli import SPECS, _pmap, _threads, load_config, main
from kvnlab.report import ResultTable, read_table, svg_heatmap, svg_line_plot


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code, *args, **env):
    """Run ``python -c code args`` on this checkout's sources, with ``env`` added."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, timeout=120)


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body) if isinstance(body, dict) else body)
    return path


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in SPECS:
        assert name in out


def test_verify_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "measure"})
    assert main(["verify", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK measure")
    assert '"n_points": 65' in out  # resolved parameter dump


def test_malformed_json_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "{not json")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err != ""


def test_unknown_experiment_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "teleportation"})
    assert main(["run", str(cfg)]) == 2


def test_unknown_keys_rejected(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "measure", "spin": 1})
    assert main(["verify", str(cfg)]) == 2
    cfg = write_config(tmp_path, {"experiment": "measure", "params": {"bogus": 1}})
    assert main(["verify", str(cfg)]) == 2


def test_overlapping_slits_exit_2_with_message(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"experiment": "doubleslit", "params": {"delta": 5.0}}
    )
    assert main(["verify", str(cfg)]) == 2
    assert "x_A > delta" in capsys.readouterr().err


def test_non_power_of_two_grid_exits_2(tmp_path):
    cfg = write_config(
        tmp_path,
        {"experiment": "wigner", "params": {"grid": {"n": 300, "min": -8.0, "max": 8.0}}},
    )
    assert main(["verify", str(cfg)]) == 2


@pytest.mark.parametrize(
    "experiment, params",
    [("ehrenfest", {"dt": 0}), ("oscillator", {"n_steps": 0})],
)
def test_degenerate_time_step_exits_2_with_one_line(tmp_path, capsys, experiment, params):
    cfg = write_config(tmp_path, {"experiment": experiment, "params": params})
    assert main(["run", str(cfg)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["verify", "run"])
# 0.15 does not divide 1; 0.5 gives 2 steps; 1e-7 gives 10^7, over MAX_COUNT
@pytest.mark.parametrize("dt", [0.15, 0.5, 1e-7])
def test_ehrenfest_bad_dt_exits_2_naming_dt(tmp_path, capsys, command, dt):
    cfg = write_config(tmp_path, {"experiment": "ehrenfest", "params": {"dt": dt}})
    assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "dt" in err[0]


@pytest.mark.parametrize(
    "body, key",
    [
        ('{"experiment": "ehrenfest", "hbar": NaN}', "hbar"),
        ('{"experiment": "ehrenfest", "hbar": Infinity}', "hbar"),
        ('{"experiment": "measure", "output": {"svg": "no"}}', "svg"),
        ('{"experiment": "aharonov-bohm", "params": {"n_values": []}}', "n_values"),
        ('{"experiment": "ehrenfest", "params": {"kappas": "0.5"}}', "kappas"),
        ('{"experiment": "ehrenfest", "params": {"potentials": "harmonic"}}', "potentials"),
    ],
    ids=["hbar-nan", "hbar-inf", "svg-string", "n_values-empty", "kappas-string",
         "potentials-string"],
)
def test_malformed_value_exits_2_naming_key(tmp_path, capsys, body, key):
    cfg = write_config(tmp_path, body)
    assert main(["verify", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and key in err[0]


_WIGNER_GRID = '{"experiment": "wigner", "params": {"grid": {"n": %s, "min": -12.0, "max": %s}}}'


@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize(
    "body, key",
    [
        (_WIGNER_GRID % ("256", "Infinity"), "max"),
        (_WIGNER_GRID % ("256", "NaN"), "max"),
        (_WIGNER_GRID.replace("-12.0", "-Infinity") % ("256", "12.0"), "min"),
        (_WIGNER_GRID % ("256.9", "12.0"), "n"),
        (_WIGNER_GRID % ("256.0", "12.0"), "n"),
        ('{"experiment": "measure", "seed": 1.7}', "seed"),
        ('{"experiment": "measure", "seed": "3"}', "seed"),
        ('{"experiment": "measure", "params": {"n_points": 1e9}}', "n_points"),
        ('{"experiment": "measure", "params": {"n_points": 65.0}}', "n_points"),
        ('{"experiment": "measure", "params": {"n_points": true}}', "n_points"),
        ('{"experiment": "wigner", "params": {"sigma": 0}}', "sigma"),
        ('{"experiment": "wigner", "params": {"sigma": "0.7"}}', "sigma"),
        ('{"experiment": "measure", "params": {"omega_tau_max": NaN, "n_points": 5}}',
         "omega_tau_max"),
        ('{"experiment": "uncertainty", "params": {"n_random": 2.7}}', "n_random"),
        ('{"experiment": "uncertainty", "params": {"sigma": 0}}', "sigma"),
        ('{"experiment": "kernelcheck", "params": {"sigma": 0}}', "sigma"),
        ('{"experiment": "oscillator", "params": {"sigma": 0}}', "sigma"),
        ('{"experiment": "uncertainty", "params": {"kvn_sigma": 0}}', "kvn_sigma"),
        ('{"experiment": "wigner", "params": {"center": NaN}}', "center"),
        ('{"experiment": "kernelcheck", "params": {"t_free": NaN}}', "t_free"),
        ('{"experiment": "oscillator", "params": {"k_base": "abc"}}', "k_base"),
        ('{"experiment": "oscillator", "params": {"k_base": "1.0"}}', "k_base"),
        ('{"experiment": "ehrenfest", "params": {"kappas": ["0.5"]}}', "kappas"),
        ('{"experiment": "ehrenfest", "params": {"t_final": "1.0"}}', "t_final"),
        ('{"experiment": "measure", "hbar": "2"}', "hbar"),
        ('{"experiment": "aharonov-bohm", "params": {"n_values": [0.5, 1]}}', "n_values"),
        ('{"experiment": "measure", "params": {"n_points": 1000000000}}', "n_points"),
        (_WIGNER_GRID % ("1073741824", "12.0"), "n"),
        (_WIGNER_GRID % ("8192", "12.0"), "n"),
        ('{"experiment": "kernelcheck", "params": {"points": [[1]]}}', "points"),
        ('{"experiment": "wigner", "params": {"grid": {"n": 256, "min": -12.0}}}', "grid"),
        ('{"experiment": "measure", "output": {"directory": 3}}', "directory"),
    ],
    ids=["grid-max-inf", "grid-max-nan", "grid-min-inf", "grid-n-fraction", "grid-n-float",
         "seed-fraction", "seed-string", "n_points-1e9", "n_points-float", "n_points-bool",
         "wigner-sigma-zero", "wigner-sigma-string", "omega_tau_max-nan", "n_random-fraction",
         "uncertainty-sigma-zero", "kernelcheck-sigma-zero", "oscillator-sigma-zero",
         "kvn_sigma-zero", "wigner-center-nan", "t_free-nan", "k_base-word",
         "k_base-numeric-string", "kappas-string-item", "t_final-string", "hbar-string",
         "n_values-fraction", "n_points-integer-1e9", "grid-n-2-30", "grid-n-8192",
         "points-short-pair", "grid-no-max", "directory-number"],
)
def test_non_integer_or_non_finite_exits_2_naming_key(tmp_path, capsys, command, body, key):
    cfg = write_config(tmp_path, body)
    assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and re.search(rf"\b{key}\b", err[0])
    assert list(tmp_path.iterdir()) == [cfg]  # no table written


@pytest.mark.parametrize(
    "body, message",
    [
        # the phase-space blob sits in one cell of a huge box; V and V' overflow on the grid
        ({"experiment": "ehrenfest", "params": {"t_final": 0.05, "potentials": ["quartic"],
          "phase_grid": {"n": 32, "min": -1e100, "max": 1e100}}}, "boundary mass nan"),
        ({"experiment": "oscillator", "params": {"phase_grid": {"n": 32, "min": -1e200,
                                                                 "max": 1e200}}},
         "boundary mass nan"),
        ({"experiment": "aharonov-bohm", "params": {"mass": 5e-324}}, "non-finite"),
        ({"experiment": "wigner", "params": {"center": 1e300}}, "non-finite"),
        ({"experiment": "aharonov-bohm", "params": {"R_boundary": 1e300}}, "out of range"),
    ],
    ids=["ehrenfest-nan-state", "oscillator-nan-state", "energies-overflow", "wigner-nan",
         "python-float-overflow"],
)
def test_non_finite_result_exits_3_writing_nothing(tmp_path, body, message):
    # a subprocess, so that numpy's floating-point warnings would reach stderr
    cfg = write_config(tmp_path, body)
    proc = run_python("import sys, kvnlab.cli as cli; sys.exit(cli.main(['run', sys.argv[1]]))",
                      str(cfg))
    assert proc.returncode == 3
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and message in err[0]
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("threads", ["two", "0", "-1", "2.5", ""])
def test_malformed_threads_env_exits_2(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setenv("KVNLAB_THREADS", threads)
    cfg = write_config(tmp_path, {"experiment": "measure", "output": {"svg": False}})
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "KVNLAB_THREADS" in err[0]
    assert not (tmp_path / "measure_sweep.csv").exists()


def test_threads_env_above_8_clamps(monkeypatch):
    monkeypatch.setenv("KVNLAB_THREADS", "64")
    assert _threads() == 8


def test_pmap_runs_in_forked_children_in_input_order(monkeypatch):
    monkeypatch.setenv("KVNLAB_THREADS", "2")
    out = _pmap(lambda x: (x, os.getpid()), range(4))
    assert [x for x, _ in out] == [0, 1, 2, 3]
    assert os.getpid() not in {pid for _, pid in out}
    monkeypatch.setenv("KVNLAB_THREADS", "1")
    assert _pmap(lambda _: os.getpid(), range(4)) == [os.getpid()] * 4


def test_dead_worker_exits_4_without_hanging(tmp_path):
    # every ehrenfest job ends its worker process at once
    cfg = write_config(
        tmp_path,
        {"experiment": "ehrenfest", "params": {"t_final": 0.05},
         "output": {"directory": ".", "svg": False}},
    )
    script = (
        "import os, sys, kvnlab.cli as cli\n"
        "parent = os.getpid()\n"
        "def die(*args, **kwargs):\n"
        "    assert os.getpid() != parent\n"
        "    os._exit(9)\n"
        "cli.evolve = die\n"
        "sys.exit(cli.main(['run', sys.argv[1]]))\n"
    )
    proc = run_python(script, str(cfg), KVNLAB_THREADS="2")
    assert proc.returncode == 4
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("worker error:")
    assert not (tmp_path / "ehrenfest.csv").exists()


def test_cli_import_leaves_scipy_unloaded():
    proc = run_python(
        "import sys, kvnlab.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_measure_run_and_determinism(tmp_path):
    cfg = write_config(
        tmp_path,
        {"experiment": "measure", "output": {"directory": "out", "svg": False}},
    )
    assert main(["run", str(cfg)]) == 0
    first = (tmp_path / "out" / "measure_sweep.csv").read_bytes()
    assert main(["run", str(cfg)]) == 0
    second = (tmp_path / "out" / "measure_sweep.csv").read_bytes()
    assert first == second


def test_measure_table_contents(tmp_path):
    cfg = write_config(
        tmp_path,
        {"experiment": "measure", "output": {"directory": ".", "svg": True}},
    )
    assert main(["run", str(cfg)]) == 0
    meta, rows = read_table(tmp_path / "measure_sweep.csv")
    assert meta["columns"] == "omega_tau,p_a_unmeasured,p_a_nonselective"
    assert "config_hash" in meta
    assert rows.shape == (65, 3)
    sq34 = np.sqrt(0.75)
    np.testing.assert_allclose(
        rows[:, 1], 0.5 * (1 + sq34 * np.cos(4 * rows[:, 0])), atol=1e-12
    )
    np.testing.assert_allclose(
        rows[:, 2], 0.5 * (1 + sq34 * np.cos(2 * rows[:, 0]) ** 2), atol=1e-12
    )
    assert (tmp_path / "measure_sweep.svg").exists()


def test_aharonov_bohm_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        {"experiment": "aharonov-bohm", "output": {"directory": ".", "svg": False}},
    )
    assert main(["run", str(cfg)]) == 0
    meta, rows = read_table(tmp_path / "aharonov_bohm.csv")
    assert meta["kvn_distinct_records"] == "1"
    assert np.all(rows[:, -1] == 0)  # one shared classical record id
    energies = rows[:, 1]  # n = 0 column over the alpha sweep
    assert (energies.max() - energies.min()) / energies[0] > 0.01


def test_kernelcheck_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "kernelcheck",
            "params": {"grid": {"n": 1024, "min": -32.0, "max": 32.0},
                        "points": [[0.7, -0.3]]},
            "output": {"directory": ".", "svg": False},
        },
    )
    assert main(["run", str(cfg)]) == 0
    _, rows = read_table(tmp_path / "kernelcheck.csv")
    group = rows[rows[:, 0] == 0, 1]
    assert np.all(group < 1e-6)
    quad = rows[rows[:, 0] == 1, 1]
    assert np.all(quad < 1e-5)  # n=1024 keeps the test fast; 2048 reaches 1e-6
    shear = rows[rows[:, 0] == 2, 1]
    assert np.all(shear < 1e-10)


def test_wigner_run_with_axis_metadata(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "wigner",
            "params": {"grid": {"n": 128, "min": -12.0, "max": 12.0},
                        "p_grid": {"n": 128, "min": -8.0, "max": 8.0}},
            "output": {"directory": ".", "svg": True},
        },
    )
    assert main(["run", str(cfg)]) == 0
    meta, rows = read_table(tmp_path / "wigner.csv")
    assert meta["q_axis"] == "-12.0,12.0,128"
    assert meta["p_axis"] == "-8.0,8.0,128"
    assert rows.shape == (128, 128)
    assert (tmp_path / "wigner.svg").read_text().startswith("<svg")


def test_doubleslit_run_writes_expected_files(tmp_path):
    # reduced grids keep the run fast; dp*T/dx stays integer so the
    # classical additivity remains exact
    cfg = write_config(
        tmp_path,
        {
            "experiment": "doubleslit",
            "params": {
                "x_grid": {"n": 512, "min": -64.0, "max": 64.0},
                "p_grid": {"n": 64, "min": -4.0, "max": 4.0},
            },
            "output": {"directory": ".", "svg": True},
        },
    )
    assert main(["run", str(cfg)]) == 0
    meta_q, rows_q = read_table(tmp_path / "quantum_screen.csv")
    meta_k, rows_k = read_table(tmp_path / "kvn_screen.csv")
    assert meta_q["columns"] == meta_k["columns"] == "x,density"
    assert rows_q.shape == rows_k.shape == (512, 2)
    dx = rows_q[1, 0] - rows_q[0, 0]
    assert np.sum(rows_q[:, 1]) * dx == pytest.approx(1.0, abs=1e-9)
    assert (tmp_path / "doubleslit_screens.svg").exists()


def test_ehrenfest_run_small(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "ehrenfest",
            "params": {"potentials": ["harmonic"], "kappas": [0.5], "t_final": 0.2},
            "output": {"directory": ".", "svg": False},
        },
    )
    assert main(["run", str(cfg)]) == 0
    _, rows = read_table(tmp_path / "ehrenfest.csv")
    assert rows.shape == (3, 7)  # quantum, classical, one interpolating run
    assert np.all(rows[:, 5] < 1e-3) and np.all(rows[:, 6] < 1e-3)


def test_oscillator_run_small(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "oscillator",
            "params": {"t_final": 2.0, "n_steps": 500,
                        "phase_grid": {"n": 64, "min": -8.0, "max": 8.0}},
            "output": {"directory": ".", "svg": True},
        },
    )
    assert main(["run", str(cfg)]) == 0
    meta, rows = read_table(tmp_path / "oscillator.csv")
    assert meta["columns"] == "t,q,p,rho,invariant"
    inv = rows[:, 4]
    assert np.max(np.abs(inv - inv[0])) / abs(inv[0]) < 1e-6


def test_uncertainty_run(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "uncertainty",
            "params": {"n_random": 5},
            "output": {"directory": ".", "svg": False},
        },
    )
    assert main(["run", str(cfg)]) == 0
    _, rows = read_table(tmp_path / "uncertainty.csv")
    assert np.all(rows[:, 3] == 1.0)  # every bound satisfied


def test_output_paths_relative_to_config(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    cfg = write_config(
        sub, {"experiment": "measure", "output": {"directory": "results", "svg": False}}
    )
    assert main(["run", str(cfg)]) == 0
    assert (sub / "results" / "measure_sweep.csv").exists()


def test_threads_env_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("KVNLAB_THREADS", "4")
    cfg = write_config(
        tmp_path, {"experiment": "measure", "output": {"directory": ".", "svg": False}}
    )
    assert main(["run", str(cfg)]) == 0
    first = (tmp_path / "measure_sweep.csv").read_bytes()
    monkeypatch.setenv("KVNLAB_THREADS", "1")
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "measure_sweep.csv").read_bytes() == first


def test_ehrenfest_table_independent_of_threads(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path,
        {"experiment": "ehrenfest", "params": {"t_final": 0.05},
         "output": {"directory": ".", "svg": False}},
    )
    tables = []
    for threads in ("1", "2"):
        monkeypatch.setenv("KVNLAB_THREADS", threads)
        assert main(["run", str(cfg)]) == 0
        tables.append((tmp_path / "ehrenfest.csv").read_bytes())
    assert tables[0] == tables[1]


def test_boundary_abort_in_pool_job_exits_3(tmp_path, monkeypatch, capsys):
    # the phase-space blob's p tails already sit on the edge of this box
    monkeypatch.setenv("KVNLAB_THREADS", "2")
    cfg = write_config(
        tmp_path,
        {"experiment": "ehrenfest",
         "params": {"t_final": 0.05, "phase_grid": {"n": 32, "min": -2.0, "max": 2.0}},
         "output": {"directory": ".", "svg": False}},
    )
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "boundary mass" in err
    assert "Traceback" not in err


def test_result_table_validation(tmp_path):
    with pytest.raises(ValueError):
        ResultTable(["a"], ["1", "2"], np.zeros((2, 1)), "x", {"config_hash": "h"})
    with pytest.raises(ValueError):
        ResultTable(["a", "b"], ["1", "1"], np.zeros((2, 1)), "x", {"config_hash": "h"})
    with pytest.raises(ValueError):
        ResultTable(["a"], ["1"], np.zeros((2, 1)), "x", {})


def test_csv_roundtrip_17_digits(tmp_path):
    value = 0.1234567890123456789
    t = ResultTable(["v"], ["1"], np.array([[value]]), "x", {"config_hash": "h"})
    out = tmp_path / "t.csv"
    t.write_csv(out)
    _, rows = read_table(out)
    assert rows[0, 0] == value


def test_svg_writers(tmp_path):
    x = np.linspace(0, 1, 50)
    svg_line_plot(tmp_path / "l.svg", x, {"sin": np.sin(x)}, title="demo")
    body = (tmp_path / "l.svg").read_text()
    assert body.startswith("<svg") and "polyline" in body and 'width="960"' in body
    svg_heatmap(tmp_path / "h.svg", np.eye(16), (0, 1, 0, 1))
    assert "<rect" in (tmp_path / "h.svg").read_text()


def test_load_config_resolved_hash_stable(tmp_path):
    cfg_path = write_config(tmp_path, {"experiment": "measure"})
    a = load_config(cfg_path)
    b = load_config(cfg_path)
    assert a.hash == b.hash
    cfg_path2 = write_config(tmp_path, {"experiment": "measure", "seed": 7}, "c2.json")
    assert load_config(cfg_path2).hash != a.hash

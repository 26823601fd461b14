import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import CallCounter, gaussian_phase, read_table
import kvnlab.cli as cli
import kvnlab.measurement as measurement
import kvnlab.oscillator as oscillator
from kvnlab.analysis import ehrenfest_residuals
from kvnlab.cli import SPECS, _pmap, _workers, load_config, main
from kvnlab.grid import Grid1D, PhaseGrid
from kvnlab.operators import koopman_generator, unified_generator
from kvnlab.propagation import evolve, evolve_many
from kvnlab.report import ResultTable, svg_heatmap, svg_line_plot


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
# 0.15 does not divide 1; 0.5 gives 2 steps; 1e-7 gives 10^7, over MAX_COUNT;
# 1/1000001 divides 1 into MAX_COUNT + 1 steps, refused by the count bound alone
@pytest.mark.parametrize("dt", [0.15, 0.5, 1e-7, 1 / 1000001])
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
        # a Python float overflows where no key is named: the run and the error are
        ({"experiment": "oscillator", "params": {"k_base": 1e300}},
         "the oscillator run left the float range (OverflowError: "),
        ({"experiment": "uncertainty", "params": {"sigma": 1e300}},
         "the uncertainty run left the float range (OverflowError: "),
    ],
    ids=["ehrenfest-nan-state", "oscillator-nan-state", "energies-overflow", "wigner-nan",
         "python-float-overflow", "oscillator-float-overflow", "uncertainty-float-overflow"],
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


@pytest.mark.parametrize(
    "body, key",
    [
        ({"experiment": "aharonov-bohm", "params": {"R_boundary": 1e300}}, "R_boundary"),
        ({"experiment": "aharonov-bohm", "hbar": 1e-300}, "hbar"),
        ({"experiment": "aharonov-bohm", "params": {"ptheta0": 1e300}}, "ptheta0"),
    ],
    ids=["R_boundary-overflow", "hbar-underflow", "ptheta0-overflow"],
)
def test_float_range_failure_exits_3_naming_key(tmp_path, body, key):
    # values inside their specs whose arithmetic leaves the float range
    cfg = write_config(tmp_path, body)
    proc = run_python("import sys, kvnlab.cli as cli; sys.exit(cli.main(['run', sys.argv[1]]))",
                      str(cfg))
    assert proc.returncode == 3
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and key in err[0]
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "command, hbar, code",
    [("verify", 0.1, 2), ("run", 0.1, 2), ("run", 1e-300, 2), ("run", 100.0, 3)],
)
def test_wigner_outside_its_momentum_window_names_hbar_and_p_grid(tmp_path, command, hbar, code):
    # W(p) repeats with period pi hbar/dx: at hbar 0.1 that is 3.35, inside
    # the default p_grid [-8, 8), which verify refuses.  At hbar 100 the
    # period fits but the state's momenta (spread ~70) do not, and the run
    # refuses the table whose momentum marginal misses by 5.7e-2.
    cfg = write_config(tmp_path, {"experiment": "wigner", "hbar": hbar})
    proc = run_python("import sys, kvnlab.cli as cli; sys.exit(cli.main(sys.argv[1:]))",
                      command, str(cfg))
    assert proc.returncode == code
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and "hbar" in err[0] and "p_grid" in err[0]
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("cpus, workers", [(1, 1), (16, 8)])
def test_workers_follow_cpu_affinity(monkeypatch, cpus, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert _workers() == workers
    if cpus == 1:  # one CPU: the jobs run in this process
        assert _pmap(lambda _: os.getpid(), range(4)) == [os.getpid()] * 4


def test_pmap_runs_in_forked_children_in_input_order(monkeypatch):
    monkeypatch.setattr(cli, "_workers", lambda: 2)
    out = _pmap(lambda x: (x, os.getpid()), range(4))
    assert [x for x, _ in out] == [0, 1, 2, 3]
    assert os.getpid() not in {pid for _, pid in out}
    monkeypatch.setattr(cli, "_workers", lambda: 1)
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
        "cli.evolve_many = die\n"
        "cli._workers = lambda: 2\n"
        "sys.exit(cli.main(['run', sys.argv[1]]))\n"
    )
    proc = run_python(script, str(cfg))
    assert proc.returncode == 4
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("worker error:")
    assert not (tmp_path / "ehrenfest.csv").exists()


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # kvnlab needs numpy alone: importing the CLI and running every default
    # config loads no scipy module
    proc = run_python(
        "import json, sys\n"
        "import kvnlab.cli as cli\n"
        "for name in cli.SPECS:\n"
        "    path = f'{sys.argv[1]}/{name}.json'\n"
        "    with open(path, 'w') as f:\n"
        "        json.dump({'experiment': name, 'output': {'directory': sys.argv[1]}}, f)\n"
        "    assert cli.main(['run', path]) == 0, name\n"
        "print(len(cli.SPECS), any(m.split('.')[0] == 'scipy' for m in sys.modules))",
        str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "8 False"


def test_cli_import_leaves_pool_modules_unloaded():
    # only a run that forks workers imports them (in ``_pmap``)
    proc = run_python(
        "import sys, kvnlab.cli; print(sorted({'multiprocessing', 'concurrent.futures'}"
        " & set(sys.modules)))"
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


#: the child's own BLAS setting dropped before kvnlab (and so numpy) is imported
UNSET_BLAS = ("import os\n"
              "for var in ('OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS'):\n"
              "    os.environ.pop(var, None)\n")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_wigner_tables_identical_on_one_cpu_and_on_all(tmp_path):
    # a threaded BLAS product rounds differently at each thread count
    script = UNSET_BLAS + (
        "import sys\n"
        "if sys.argv[2] == 'one':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "import kvnlab.cli as cli\n"
        "sys.exit(cli.main(['run', sys.argv[1]]))\n"
    )
    tables = {}
    for cpus in ("one", "all"):
        (tmp_path / cpus).mkdir()
        cfg = write_config(tmp_path / cpus, {"experiment": "wigner", "output": {"directory": "."}})
        proc = run_python(script, str(cfg), cpus)
        assert proc.returncode == 0, proc.stderr
        tables[cpus] = [(tmp_path / cpus / name).read_bytes() for name in ("wigner.csv", "wigner.svg")]
    assert tables["one"] == tables["all"]


def test_preset_blas_thread_count_is_left_alone():
    proc = run_python("import os, kvnlab; print(os.environ['OPENBLAS_NUM_THREADS'])",
                      OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0 and proc.stdout.strip() == "2"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc")
def test_blas_product_starts_no_thread():
    proc = run_python(UNSET_BLAS + (
        "import kvnlab.cli, numpy as np\n"
        "a = np.ones((256, 256), dtype=complex)\n"
        "a @ a\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    ))
    assert proc.returncode == 0 and proc.stdout.strip() == "1"


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


def test_planted_two_level_fault_exits_3_naming_the_first_point(tmp_path, capsys, monkeypatch):
    # omega x 1.02 on the |+> level only: the simulations leave the closed
    # forms from the second sweep point on, which the run must name
    monkeypatch.setattr(measurement, "_evolution",
                        lambda t: np.exp(np.multiply.outer(t, [-1.02j, 1j])))
    ts = np.linspace(0.0, np.pi / 2, 65)
    first = next(t for t in ts
                 if abs(measurement.simulate_p_a_unmeasured(t) - measurement.p_a_unmeasured(t)) > 1e-12
                 or abs(measurement.simulate_p_a_nonselective(t)
                        - measurement.p_a_nonselective(t)) > 1e-12)
    cfg = write_config(tmp_path, {"experiment": "measure"})
    assert main(["run", str(cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"physics precondition violated: simulation disagrees with closed form at omega*tau={first}"
    ]
    assert first == ts[1]
    assert list(tmp_path.iterdir()) == [cfg]


def test_measure_sweep_holds_a_few_stacks_at_a_time(tmp_path):
    # the sweep runs in stacks of MEASURE_BLOCK points: one stack of all
    # 1e5 points peaked at 40 MB
    cfg = load_config(write_config(
        tmp_path, {"experiment": "measure", "params": {"n_points": 10**5},
                   "output": {"svg": False}}))
    tracemalloc.start()
    try:
        results = cli._run_measure(cfg, cli._Output(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert results == {"points": 10**5}
    assert peak < 8e6


def test_uncertainty_transform_budget(tmp_path, call_counts):
    # 23 of the run's Robertson checks hold a spectral operator: its width,
    # <A> and <A^2> from one FFT, and a commutator of four transforms; each of
    # the 20 random states is drawn with one ifft
    cfg = write_config(tmp_path, {"experiment": "uncertainty"})
    assert main(["run", str(cfg)]) == 0
    assert call_counts["fft"] + call_counts["ifft"] == 135


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


@pytest.mark.parametrize("params", [{"t1": 1e-300}, {"points": [[1e6, -0.3]]}],
                         ids=["t1-1e-300", "x-1e6"])
def test_kernelcheck_unresolvable_group_law_exits_2_with_one_line(tmp_path, capsys, params):
    cfg = write_config(tmp_path, {"experiment": "kernelcheck", "params": params})
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "t1=" in err[0] and "t2=" in err[0] and "(x, x0)" in err[0]
    assert list(tmp_path.iterdir()) == [cfg]  # no table written


@pytest.mark.parametrize(
    "body, message",
    [
        ({"experiment": "kernelcheck", "params": {"t_free": 1e-3}},
         "quadrature residual 1.789e+01 is not below 1e-06"),
        ({"experiment": "kernelcheck", "params": {"t_free": 1e6}},
         "quadrature residual 9.986e-01 is not below 1e-06"),
        ({"experiment": "kernelcheck", "hbar": 1e300},
         "quadrature residual 1.000e+00 is not below 1e-06"),
        ({"experiment": "kernelcheck", "params": {"sigma": 1e-5}},
         "quadrature residual 8.258e-01 is not below 1e-06"),
        ({"experiment": "kernelcheck", "params": {"grid": {"n": 8, "min": -1, "max": 1}}},
         "quadrature residual 5.137e-01 is not below 1e-06"),
        ({"experiment": "kernelcheck", "params": {"t_free": 1e-300}},
         "quadrature residual 5.507e+149 is not below 1e-06"),
        # hbar^2 k^2 underflows, so case 0 reads a zero width product
        ({"experiment": "uncertainty", "hbar": 1e-300},
         "uncertainty case 0 misses the Robertson bound: lhs 0.000e+00 < rhs 5.000e-301 "
         "at hbar 1e-300"),
        # the quantum step's phase is -inf: <q> and <p> read the state frozen
        ({"experiment": "ehrenfest", "hbar": 1e-300, "params": {"dt": 1e-2}},
         "ehrenfest row (quantum, harmonic, kappa 1) has relative residual 1.000e+00, "
         "not below 0.001, at hbar 1e-300"),
    ],
    ids=["t_free-1e-3", "t_free-1e6", "hbar-1e300", "sigma-1e-5", "grid-8", "t_free-1e-300",
         "uncertainty-hbar-1e-300", "ehrenfest-hbar-1e-300"],
)
def test_missed_bound_exits_3_writing_nothing(tmp_path, capsys, body, message):
    # the run's own check fails: a kernelcheck row misses its criterion-6
    # bound, an ehrenfest row criterion 5's, or a Robertson row is not satisfied
    cfg = write_config(tmp_path, dict(body, output={"directory": ".", "svg": True}))
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]
    assert list(tmp_path.iterdir()) == [cfg]


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


@pytest.mark.parametrize("x_A", [12.0, 40.0])
def test_doubleslit_beam_missing_the_slits_exits_3_writing_nothing(tmp_path, capsys, x_A):
    cfg = write_config(tmp_path, {"experiment": "doubleslit", "params": {"x_A": x_A},
                                  "output": {"directory": ".", "svg": True}})
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"x_A={x_A:g}" in err[0] and "delta=0.5" in err[0]
    assert list(tmp_path.iterdir()) == [cfg]


def test_doubleslit_momentum_grid_missing_the_beam_exits_3_writing_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "doubleslit",
                                  "params": {"p_grid": {"n": 64, "min": 3, "max": 5}},
                                  "output": {"directory": ".", "svg": True}})
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "p_grid [3, 5)" in err[0] and "sigma_p=0.1" in err[0]
    assert list(tmp_path.iterdir()) == [cfg]


def test_doubleslit_position_grid_missing_the_beam_exits_3_writing_nothing(tmp_path, capsys):
    # the quantum run used to normalise the all-zero source to NaN
    cfg = write_config(tmp_path, {"experiment": "doubleslit",
                                  "params": {"x_grid": {"n": 256, "min": 100, "max": 200}},
                                  "output": {"directory": ".", "svg": True}})
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "x_grid [100, 200)" in err[0] and "sigma_x=1" in err[0]
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("key", ["sigma_x", "sigma_p"])
def test_doubleslit_width_whose_square_underflows_exits_2_naming_it(tmp_path, capsys, key):
    # 2 * 1e-300**2 is 0.0, so the source would be 0/0 = NaN at x = 0 or p = 0
    cfg = write_config(tmp_path, {"experiment": "doubleslit", "params": {key: 1e-300},
                                  "output": {"directory": ".", "svg": True}})
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and f"{key} 1e-300" in err[0]
    assert list(tmp_path.iterdir()) == [cfg]


def test_doubleslit_default_config_exits_0(tmp_path):
    cfg = write_config(tmp_path, {"experiment": "doubleslit",
                                  "output": {"directory": ".", "svg": False}})
    assert main(["run", str(cfg)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "kvn_screen.csv", "quantum_screen.csv"]


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


@pytest.mark.parametrize("n_steps, kvn_steps", [(2500, 50), (2501, 51), (7, 1)])
def test_oscillator_phase_steps_are_ceil_of_n_steps_over_max_stride(tmp_path, monkeypatch,
                                                                    n_steps, kvn_steps):
    # one phase-space step per at most 50 RK4 steps, whatever divides
    # n_steps: 2501 = 41 * 61 has no divisor in 2..50, yet takes 51 steps
    calls = []
    evolve = oscillator.kvn_tdho_evolve
    monkeypatch.setattr(oscillator, "kvn_tdho_evolve",
                        lambda *args: calls.append(args[3]) or evolve(*args))
    cfg = write_config(
        tmp_path,
        {
            "experiment": "oscillator",
            "params": {"t_final": 1.0, "n_steps": n_steps, "sigma": 0.5,
                        "phase_grid": {"n": 32, "min": -6.0, "max": 6.0}},
            "output": {"directory": ".", "svg": False},
        },
    )
    results = cli.run(cfg)
    assert calls == [kvn_steps]
    assert (results["kvn_steps"], results["stride"]) == (kvn_steps, 50)
    _, rows = read_table(tmp_path / "oscillator.csv")
    assert rows.shape == (n_steps + 1, 5)  # the RK4 table keeps every step
    meta, rows = read_table(tmp_path / "oscillator_kvn.csv")
    assert meta["columns"] == "t,kvn_q,kvn_p,kvn_var_q"
    assert rows.shape == (kvn_steps + 1, 4)  # the phase-space table keeps every step
    np.testing.assert_allclose(rows[:, 0], np.arange(kvn_steps + 1) / kvn_steps, atol=1e-12)


def test_oscillator_prime_n_steps_keeps_default_accuracy(tmp_path):
    # 2503 is prime: its 51 phase-space steps are compared with RK4 over
    # 2550 steps, and stay as close to the characteristics as the default's
    cfg = write_config(tmp_path, {"experiment": "oscillator", "params": {"n_steps": 2503},
                                  "output": {"directory": ".", "svg": False}})
    results = cli.run(cfg)
    assert (results["kvn_steps"], results["stride"]) == (51, 50)
    assert results["centroid_error"] <= 5e-7
    assert results["width_residual"] <= 5e-8
    _, rows = read_table(tmp_path / "oscillator.csv")
    assert rows.shape == (2504, 5)


def test_oscillator_default_summary_bounds(tmp_path):
    # the default run: the centroid within 5e-7 of the characteristics
    # (2.4e-7), the position variance within 5e-8 of sigma^2 rho^2 (Pinney;
    # 1.1e-8, where Strang at every RK4 step gave 3.7e-6) and the covariance
    # determinant within 1e-12 of sigma^4 (Liouville)
    cfg = write_config(tmp_path, {"experiment": "oscillator",
                                  "output": {"directory": ".", "svg": False}})
    results = cli.run(cfg)
    assert results["centroid_error"] <= 5e-7
    assert results["width_residual"] <= 5e-8
    assert results["area_residual"] <= 1e-12
    assert (results["kvn_steps"], results["stride"]) == (50, 50)
    _, rows = read_table(tmp_path / "oscillator_kvn.csv")
    assert rows.shape == (51, 4)


def test_ehrenfest_default_summary_counts_rows_and_evolutions(tmp_path, monkeypatch):
    # ten rows, but the kappa = 0 run (hbar K, the Koopman flow) serves both
    # kappa = 0 rows of each potential and every harmonic row but the
    # quantum one, so six evolutions, each building its one generator (in
    # this process, so that the builds are counted)
    monkeypatch.setattr(cli, "_workers", lambda: 1)
    builds = CallCounter(monkeypatch)
    for name in ("hamiltonian", "unified_generator", "koopman_generator"):
        builds.watch(cli, name)
    cfg = write_config(tmp_path, {"experiment": "ehrenfest",
                                  "output": {"directory": ".", "svg": False}})
    results = cli.run(cfg)
    assert (results["rows"], results["evolutions"]) == (10, 6)
    assert builds == {"hamiltonian": 2, "unified_generator": 4}


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


@pytest.mark.parametrize("hbar", [3e3, 1e5])
def test_uncertainty_at_large_hbar_satisfies_every_check(tmp_path, hbar):
    # <p^2> at these hbar is ~1e7 and ~1e10; the Robertson slack is relative,
    # so rounding on that scale fails no row
    cfg = write_config(tmp_path, {"experiment": "uncertainty", "hbar": hbar,
                                  "output": {"directory": ".", "svg": False}})
    results = cli.run(cfg)
    assert (results["satisfied"], results["checks"]) == (24, 24)


def test_output_paths_relative_to_config(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    cfg = write_config(
        sub, {"experiment": "measure", "output": {"directory": "results", "svg": False}}
    )
    assert main(["run", str(cfg)]) == 0
    assert (sub / "results" / "measure_sweep.csv").exists()


_SHORT_EHRENFEST = {"experiment": "ehrenfest", "params": {"t_final": 0.05},
                    "output": {"directory": ".", "svg": False}}


@pytest.fixture(scope="module")
def serial_ehrenfest_table(tmp_path_factory):
    """The short ehrenfest table with every job run in this process."""
    tmp = tmp_path_factory.mktemp("serial")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_workers", lambda: 1)
        assert main(["run", str(write_config(tmp, _SHORT_EHRENFEST))]) == 0
    return (tmp / "ehrenfest.csv").read_bytes()


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_ehrenfest_table_independent_of_workers(tmp_path, monkeypatch, serial_ehrenfest_table,
                                                 workers):
    monkeypatch.setattr(cli, "_workers", lambda: workers)
    assert main(["run", str(write_config(tmp_path, _SHORT_EHRENFEST))]) == 0
    assert (tmp_path / "ehrenfest.csv").read_bytes() == serial_ehrenfest_table


def test_ehrenfest_runs_each_distinct_evolution_once(tmp_path, monkeypatch):
    # rows: quantum, Koopman, then unified at kappa 0, 0.5, 0.5, 0; the
    # kappa = 0 evolution (hbar K, the Koopman flow) serves every kappa = 0
    # row, and for the harmonic potential (V''' = 0) every unified row too; a
    # repeated kappa is read once, and the phase-space jobs are dispatched
    # before the quantum one
    monkeypatch.setattr(cli, "_workers", lambda: 1)
    seen = []
    evolve_many = cli.evolve_many

    def spy(state, G, kappas, *args):
        seen.append((G.label, G.kappa, list(kappas)))
        return evolve_many(state, G, kappas, *args)

    monkeypatch.setattr(cli, "evolve_many", spy)
    expected = {
        "harmonic": [("unified", 0.0, [0.0, 0.5]), ("quantum", 1.0, [1.0])],
        "quartic": [("unified", 0.0, [0.0]), ("unified", 0.5, [0.5]), ("quantum", 1.0, [1.0])],
    }
    for potential, calls in expected.items():
        seen.clear()
        cfg = write_config(tmp_path, {"experiment": "ehrenfest",
                                      "params": {"potentials": [potential], "t_final": 0.05,
                                                 "kappas": [0.0, 0.5, 0.5, 0.0]},
                                      "output": {"directory": ".", "svg": False}})
        assert main(["run", str(cfg)]) == 0
        assert seen == calls, potential
        _, rows = read_table(tmp_path / "ehrenfest.csv")
        np.testing.assert_array_equal(rows[:, :3], [[0, 0, 1], [1, 0, 0], [2, 0, 0],
                                                    [2, 0, 0.5], [2, 0, 0.5], [2, 0, 0]])
        for same in ([1, 2, 5], [3, 4]):
            assert (rows[same, 3:] == rows[same[0], 3:]).all()


_PHASE_GRID = PhaseGrid(Grid1D(64, -8.0, 8.0), Grid1D(64, -8.0, 8.0))


@pytest.mark.parametrize("name", sorted(cli._POTENTIALS))
def test_quadratic_mark_holds_for_the_generators(name):
    # a potential marked quadratic has a unified generator that is hbar
    # times the Koopman one at every kappa and hbar; the others do not
    V, Vp, quadratic = cli._POTENTIALS[name]
    K = koopman_generator(_PHASE_GRID, Vp)
    for kappa, hbar in itertools.product((0.5, 1.0), (1.0, 2.0)):
        U = unified_generator(_PHASE_GRID, V, kappa, hbar=hbar, vprime=Vp)
        miss = {part: np.max(np.abs(getattr(U, part) / U.hbar - getattr(K, part)))
                / np.max(np.abs(getattr(K, part))) for part in ("position_part", "conjugate_part")}
        assert miss["conjugate_part"] <= 1e-14
        if quadratic:
            assert miss["position_part"] <= 1e-14, (kappa, hbar)
        else:
            assert miss["position_part"] > 0.1, (kappa, hbar)


@pytest.mark.parametrize("hbar", [1.0, 2.0])
def test_shared_harmonic_run_matches_separate_unified_runs(hbar):
    # the harmonic unified rows read the kappa = 0 run at their hbar, hbar K;
    # their own unified evolutions give the same residuals and the same state
    V, Vp, quadratic = cli._POTENTIALS["harmonic"]
    assert quadratic
    blob = gaussian_phase(_PHASE_GRID, q0=0.8, sigma_q=0.35, sigma_p=0.7)
    kappas = (0.5, 1.0)
    flow = unified_generator(_PHASE_GRID, V, 0.0, hbar=hbar, vprime=Vp)
    shared = evolve_many(blob, flow, kappas, 0.1, 100)
    for kappa, traj in zip(kappas, shared):
        U = unified_generator(_PHASE_GRID, V, kappa, hbar=hbar, vprime=Vp)
        alone = evolve(blob, U, 0.1, 100)
        mine, theirs = ehrenfest_residuals(traj), ehrenfest_residuals(alone)
        assert abs(mine.r2_relative - theirs.r2_relative) <= 1e-8 * theirs.r2_relative
        assert max(mine.r1_relative, theirs.r1_relative) <= 1e-10
        amp = alone.final_state.amplitudes
        assert np.max(np.abs(traj.final_state.amplitudes - amp)) <= 1e-12


def test_boundary_abort_in_pool_job_exits_3(tmp_path, monkeypatch, capsys):
    # the phase-space blob's p tails already sit on the edge of this box
    monkeypatch.setattr(cli, "_workers", lambda: 2)
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


def test_tables_written_to_two_directories_are_byte_identical(tmp_path, capsys):
    # the config hash covers the experiment, hbar, seed and params, not where
    # the tables go, so the same config gives the same bytes anywhere
    for sub in ("a", "b"):
        cfg = write_config(tmp_path, {"experiment": "measure", "output": {"directory": sub}},
                           f"{sub}.json")
        assert main(["run", str(cfg)]) == 0
    names = sorted(path.name for path in (tmp_path / "a").iterdir())
    assert "measure_sweep.csv" in names
    assert names == sorted(path.name for path in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    out = capsys.readouterr().out.splitlines()
    assert len({line.split()[2] for line in out if line.startswith("measure: config ")}) == 1


def test_load_config_resolved_hash_stable(tmp_path):
    cfg_path = write_config(tmp_path, {"experiment": "measure"})
    a = load_config(cfg_path)
    b = load_config(cfg_path)
    assert a.hash == b.hash
    cfg_path2 = write_config(tmp_path, {"experiment": "measure", "seed": 7}, "c2.json")
    assert load_config(cfg_path2).hash != a.hash

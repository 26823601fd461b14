"""Experiment runner: ``kvnlab run <config>``, ``kvnlab verify <config>``,
``kvnlab list``.

Configs are single JSON documents with one top-level experiment block::

    {
      "experiment": "measure",
      "hbar": 1.0,
      "seed": 1234,
      "params": { ... experiment-specific, see `kvnlab list` ... },
      "output": { "directory": "out", "svg": true }
    }

Unknown keys are rejected.  Output paths resolve relative to the config
file.  Exit codes: 0 success, 2 config parse/validation error, 3 physics
precondition violation, 4 I/O error or a worker process that died.  For a
fixed config and seed the tables are byte-identical across runs on one
platform; wall time is printed to stdout rather than written into the files.
``KVNLAB_THREADS`` (default 1, at most 8; larger values run 8) sets the
worker processes that run ehrenfest's independent evolutions side by side.
A value that is not an integer >= 1 is a config error (exit 2).  Results are
assembled in input order, so the tables do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import ehrenfest_residuals, momentum_density, robertson_check, wigner_transform
from .doubleslit import SlitConfig, fringe_stats, kvn_screens, run_quantum
from .errors import PhysicsError
from .gauge import SolenoidConfig, disc_ground_energy, kvn_radial_coeffs
from .grid import Grid1D, PhaseGrid
from .kernels import (
    free_kvn_propagate,
    free_quantum_kernel,
    free_quantum_propagate,
    kernel_convolution,
    kernel_propagate,
)
from .measurement import (
    p_a_nonselective,
    p_a_unmeasured,
    simulate_p_a_nonselective,
    simulate_p_a_unmeasured,
)
from .operators import (
    hamiltonian,
    koopman_generator,
    lambda_op,
    momentum_op,
    position_op,
    theta_op,
    unified_generator,
)
from .oscillator import (
    ErmakovState,
    integrate_ermakov,
    kvn_tdho_evolve,
    lewis_invariant_classical,
    solve_classical_tdho,
)
from .propagation import evolve, kvn_step
from .report import ResultTable, config_hash, svg_heatmap, svg_line_plot
from .states import KvNWavefunction, QWavefunction


def _threads() -> int:
    """Worker processes from ``KVNLAB_THREADS``: default 1, at most 8."""
    raw = os.environ.get("KVNLAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"KVNLAB_THREADS must be an integer >= 1, got {raw!r}")
    return min(8, n)


#: The ``(fn, items)`` of the running ``_pmap``; forked workers inherit it.
_JOB: tuple | None = None


def _run_job(index: int):
    fn, items = _JOB
    return fn(items[index])


def _pmap(fn, items) -> list:
    """``[fn(x) for x in items]`` on ``_threads()`` forked worker processes,
    in input order.

    The workers inherit ``fn`` and ``items`` and are handed indices, so
    neither needs pickling; only results and exceptions travel back.  The
    first failing job's exception is raised, and jobs not yet started are
    cancelled.  With one worker, where fork is unavailable, or while other
    threads run (a child forked then could inherit a lock one of them holds),
    the jobs run in this process.
    """
    global _JOB
    items = list(items)
    workers = min(_threads(), len(items))
    forkable = "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1
    if workers <= 1 or not forkable:
        return [fn(x) for x in items]
    _JOB = fn, items
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return list(pool.map(_run_job, range(len(items))))
    finally:
        pool.shutdown(cancel_futures=True)
        _JOB = None


def _grid(params: dict, key: str) -> Grid1D:
    """The grid ``params[key]``: an integer ``n`` and finite ``min``, ``max``."""
    spec = params[key]
    unknown = set(spec) - {"n", "min", "max"}
    if unknown:
        raise ValueError(f"unknown {key} keys: {sorted(unknown)}")
    if type(spec["n"]) is not int:
        raise ValueError(f"{key} n must be an integer, got {spec['n']!r}")
    lo, hi = float(spec["min"]), float(spec["max"])
    for name, value in (("min", lo), ("max", hi)):
        if not np.isfinite(value):
            raise ValueError(f"{key} {name} must be finite, got {value}")
    return Grid1D(spec["n"], lo, hi)


def _gaussian_1d(grid: Grid1D, center: float, sigma: float, k0: float = 0.0) -> QWavefunction:
    amp = np.exp(-((grid.points - center) ** 2) / (4 * sigma**2) + 1j * k0 * grid.points)
    return QWavefunction(grid, amp).normalize()


def _gaussian_phase(pg: PhaseGrid, q0: float, p0: float, sq: float, sp: float) -> KvNWavefunction:
    Q, P = pg.meshes()
    amp = np.exp(-((Q - q0) ** 2) / (4 * sq**2) - ((P - p0) ** 2) / (4 * sp**2))
    return KvNWavefunction(pg, amp.astype(complex)).normalize()


_POTENTIALS = {
    "harmonic": (lambda q: 0.5 * q**2, lambda q: q),
    "quartic": (lambda q: 0.25 * q**4, lambda q: q**3),
}


# ---------------------------------------------------------------------------
# experiment registry


DEFAULTS: dict[str, dict] = {
    "doubleslit": {
        "x_A": 3.0, "delta": 0.5, "sigma_x": 1.0, "sigma_p": 0.1,
        "mass": 1.0, "p0y": 50.0, "y_M": 50.0, "y_R": 150.0,
        "x_grid": {"n": 2048, "min": -64.0, "max": 64.0},
        "p_grid": {"n": 256, "min": -4.0, "max": 4.0},
    },
    "measure": {"omega_tau_max": np.pi / 2, "n_points": 65},
    "uncertainty": {
        "sigma": 0.5, "kvn_sigma": 0.1, "n_random": 20,
        "grid": {"n": 512, "min": -16.0, "max": 16.0},
        "kvn_grid": {"n": 256, "min": -2.0, "max": 2.0},
    },
    "ehrenfest": {
        "potentials": ["harmonic", "quartic"],
        "kappas": [0.0, 0.5, 1.0],
        "t_final": 1.0, "dt": 1e-3,
        "grid": {"n": 256, "min": -16.0, "max": 16.0},
        "phase_grid": {"n": 128, "min": -8.0, "max": 8.0},
    },
    "wigner": {
        "state": "gaussian", "center": 0.0, "sigma": 0.7071067811865476,
        "grid": {"n": 256, "min": -12.0, "max": 12.0},
        "p_grid": {"n": 256, "min": -8.0, "max": 8.0},
    },
    "oscillator": {
        "k_base": 1.0, "k_mod": 0.1, "t_final": 10.0, "n_steps": 2500,
        "q0": 1.0, "p0": 0.0,
        "phase_grid": {"n": 128, "min": -8.0, "max": 8.0},
        "sigma": 0.3,
    },
    "aharonov-bohm": {
        "alphas": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
        "n_values": [0, 1, 2],
        "pz0": 0.0, "ptheta0": 0.5, "mass": 1.0, "R_boundary": 1.0,
    },
    "kernelcheck": {
        "points": [[0.7, -0.3], [1.2, 0.5], [0.0, 0.0]],
        "t1": 0.4, "t2": 0.4, "t_free": 1.0, "sigma": 1.0,
        "grid": {"n": 2048, "min": -32.0, "max": 32.0},
        "p_grid": {"n": 64, "min": -4.0, "max": 4.0},
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    hbar: float
    seed: int
    params: dict
    output_dir: Path
    svg: bool
    resolved: dict  # canonical dict the config hash is computed from

    @property
    def hash(self) -> str:
        return config_hash(self.resolved)


def load_config(path: Path) -> ExperimentConfig:
    raw = json.loads(path.read_text())
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    allowed = {"experiment", "hbar", "seed", "params", "output"}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown top-level keys: {sorted(unknown)}")
    experiment = raw.get("experiment")
    if experiment not in DEFAULTS:
        raise ValueError(
            f"unknown experiment {experiment!r}; choose from {sorted(DEFAULTS)}"
        )
    params = dict(DEFAULTS[experiment])
    user_params = raw.get("params", {})
    if not isinstance(user_params, dict):
        raise ValueError("params must be an object")
    unknown = set(user_params) - set(params)
    if unknown:
        raise ValueError(f"unknown params for {experiment}: {sorted(unknown)}")
    params.update(user_params)
    output = {"directory": ".", "svg": True}
    user_output = raw.get("output", {})
    unknown = set(user_output) - set(output)
    if unknown:
        raise ValueError(f"unknown output keys: {sorted(unknown)}")
    output.update(user_output)
    hbar = float(raw.get("hbar", 1.0))
    if not (np.isfinite(hbar) and hbar > 0):
        raise ValueError(f"hbar must be positive and finite, got {hbar}")
    if not isinstance(output["svg"], bool):
        raise ValueError(f"output svg must be true or false, got {output['svg']!r}")
    seed = raw.get("seed", 0)
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    resolved = {
        "experiment": experiment,
        "hbar": hbar,
        "seed": seed,
        "params": json.loads(json.dumps(params)),
        "output": output,
    }
    return ExperimentConfig(
        experiment=experiment,
        hbar=hbar,
        seed=seed,
        params=params,
        output_dir=(path.parent / output["directory"]).resolve(),
        svg=bool(output["svg"]),
        resolved=resolved,
    )


# ---------------------------------------------------------------------------
# drivers: each returns (list of written files, stdout summary lines)


def _prov(cfg: ExperimentConfig) -> dict:
    return {"config_hash": cfg.hash, "code_version": __version__}


def _prepare_doubleslit(cfg: ExperimentConfig) -> SlitConfig:
    p = cfg.params
    return SlitConfig(
        x_A=p["x_A"], delta=p["delta"], sigma_x=p["sigma_x"], sigma_p=p["sigma_p"],
        mass=p["mass"], p0y=p["p0y"], y_M=p["y_M"], y_R=p["y_R"], hbar=cfg.hbar,
        x_grid=_grid(p, "x_grid"), p_grid=_grid(p, "p_grid"),
    )


def _run_doubleslit(cfg: ExperimentConfig):
    slit = _prepare_doubleslit(cfg)
    q = run_quantum(slit)
    k, k1, k2 = kvn_screens(slit, (None, 1, 2))
    w1, w2 = k1.transmitted_weight, k2.transmitted_weight
    additivity = float(
        np.max(np.abs(k.density - (w1 * k1.density + w2 * k2.density) / (w1 + w2)))
    )
    stats = fringe_stats(q.x, q.density)
    files = []
    for name, res in (("quantum_screen", q), ("kvn_screen", k)):
        table = ResultTable(
            columns=["x", "density"], units=["length", "1/length"],
            rows=np.column_stack([res.x, res.density]),
            experiment="doubleslit", provenance=_prov(cfg),
        )
        out = cfg.output_dir / f"{name}.csv"
        table.write_csv(out)
        files.append(out)
    if cfg.svg:
        out = cfg.output_dir / "doubleslit_screens.svg"
        svg_line_plot(
            out, q.x, {"quantum": q.density, "classical": k.density},
            x_label="x", y_label="density", title="screen densities",
        )
        files.append(out)
    summary = [
        f"quantum fringes: {stats.n_maxima} maxima, contrast {stats.max_contrast:.3f}",
        f"classical additivity sup-residual: {additivity:.3e}",
    ]
    return files, summary


def _run_measure(cfg: ExperimentConfig):
    p = cfg.params
    ts = np.linspace(0.0, float(p["omega_tau_max"]), int(p["n_points"]))

    def point(omega_tau: float):
        closed_u, closed_n = p_a_unmeasured(omega_tau), p_a_nonselective(omega_tau)
        sim_u, sim_n = simulate_p_a_unmeasured(omega_tau), simulate_p_a_nonselective(omega_tau)
        if abs(sim_u - closed_u) > 1e-12 or abs(sim_n - closed_n) > 1e-12:
            raise PhysicsError(
                f"simulation disagrees with closed form at omega*tau={omega_tau}"
            )
        return closed_u, closed_n

    values = [point(t) for t in ts]
    rows = np.column_stack([ts, [v[0] for v in values], [v[1] for v in values]])
    table = ResultTable(
        columns=["omega_tau", "p_a_unmeasured", "p_a_nonselective"],
        units=["rad", "1", "1"], rows=rows,
        experiment="measure", provenance=_prov(cfg),
    )
    out = cfg.output_dir / "measure_sweep.csv"
    table.write_csv(out)
    files = [out]
    if cfg.svg:
        plot = cfg.output_dir / "measure_sweep.svg"
        svg_line_plot(
            plot, ts,
            {"undisturbed": rows[:, 1], "non-selective": rows[:, 2]},
            x_label="omega*tau", y_label="P(a)", title="measurement disturbance",
        )
        files.append(plot)
    return files, [f"{len(ts)} sweep points, closed forms verified to 1e-12"]


def _run_uncertainty(cfg: ExperimentConfig):
    p = cfg.params
    hbar = cfg.hbar
    g = _grid(p, "grid")
    psi = _gaussian_1d(g, 0.0, float(p["sigma"]))
    rows = []
    rep = robertson_check(position_op(g), momentum_op(g, "quantum", hbar=hbar), psi)
    rows.append([0, rep.lhs, rep.rhs, float(rep.satisfied)])
    kg = _grid(p, "kvn_grid")
    pg = PhaseGrid(kg, Grid1D(kg.n, kg.x_min, kg.x_max))
    s = float(p["kvn_sigma"])
    phi = _gaussian_phase(pg, 0.0, 0.0, s, s)
    pairs = [
        (position_op(pg), momentum_op(pg, "kvn")),
        (position_op(pg), theta_op(pg)),
        (momentum_op(pg, "kvn"), lambda_op(pg)),
    ]
    for case, (a, b) in enumerate(pairs, start=1):
        rep = robertson_check(a, b, phi)
        rows.append([case, rep.lhs, rep.rhs, float(rep.satisfied)])
    rng = np.random.default_rng(cfg.seed)
    q_op, p_op = position_op(g), momentum_op(g, "quantum", hbar=hbar)
    for i in range(p["n_random"]):
        coeff = np.zeros(g.n, dtype=complex)
        coeff[:8] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        coeff[-8:] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f = np.fft.ifft(coeff) * np.exp(-(g.points**2) / (2 * (g.length / 16) ** 2))
        state = QWavefunction(g, f).normalize()
        rep = robertson_check(q_op, p_op, state)
        rows.append([10 + i, rep.lhs, rep.rhs, float(rep.satisfied)])
    table = ResultTable(
        columns=["case", "lhs", "rhs", "satisfied"],
        units=["id", "hbar", "hbar", "bool"], rows=np.array(rows),
        experiment="uncertainty", provenance=_prov(cfg),
    )
    out = cfg.output_dir / "uncertainty.csv"
    table.write_csv(out)
    n_ok = int(sum(r[3] for r in rows))
    return [out], [f"{n_ok}/{len(rows)} uncertainty checks satisfied"]


def _run_ehrenfest(cfg: ExperimentConfig):
    p = cfg.params
    hbar = cfg.hbar
    t_final = float(p["t_final"])
    n_steps = time_step_check(p["dt"], t_final)
    g = _grid(p, "grid")
    pgrid = _grid(p, "phase_grid")
    pg = PhaseGrid(pgrid, Grid1D(pgrid.n, pgrid.x_min, pgrid.x_max))
    psi = _gaussian_1d(g, 0.8, np.sqrt(0.5))
    # blob shape chosen so the quartic runs keep their tails off the
    # energy contours that cross the p boundary, for every kappa
    blob = _gaussian_phase(pg, 0.8, 0.0, 0.35, 0.7)
    jobs = []
    for pot_code in range(len(p["potentials"])):
        jobs += [(0, pot_code, 1.0), (1, pot_code, 0.0)]
        jobs += [(2, pot_code, float(kappa)) for kappa in p["kappas"]]

    def row(job):
        # each job builds its own generator, so only the running ones hold arrays
        flavor, pot_code, kappa = job
        V, Vp = _POTENTIALS[p["potentials"][pot_code]]
        if flavor == 0:
            traj = evolve(psi, hamiltonian(g, V, hbar=hbar, vprime=Vp), t_final, n_steps)
        elif flavor == 1:
            traj = evolve(blob, koopman_generator(pg, Vp), t_final, n_steps)
        else:
            G = unified_generator(pg, V, kappa, hbar=hbar, vprime=Vp)
            traj = evolve(blob, G, t_final, n_steps)
        res = ehrenfest_residuals(traj)
        return [flavor, pot_code, kappa, res.r1_max, res.r2_max, res.r1_relative, res.r2_relative]

    rows = _pmap(row, jobs)
    table = ResultTable(
        columns=["flavor", "potential", "kappa", "r1_max", "r2_max", "r1_rel", "r2_rel"],
        units=["0q_1kvn_2uni", "0harm_1quart", "1", "mixed", "mixed", "1", "1"],
        rows=np.array(rows), experiment="ehrenfest", provenance=_prov(cfg),
    )
    out = cfg.output_dir / "ehrenfest.csv"
    table.write_csv(out)
    worst = max(max(r[5], r[6]) for r in rows)
    return [out], [f"worst relative residual {worst:.3e} across {len(rows)} runs"]


def _run_wigner(cfg: ExperimentConfig):
    p = cfg.params
    g = _grid(p, "grid")
    pg = PhaseGrid(g, _grid(p, "p_grid"))
    if p["state"] == "gaussian":
        psi = _gaussian_1d(g, float(p["center"]), float(p["sigma"]))
    elif p["state"] == "fock1":
        amp = g.points * np.exp(-g.points**2 / 2)
        psi = QWavefunction(g, amp.astype(complex)).normalize()
    else:
        raise ValueError(f"unknown wigner state {p['state']!r}")
    W = wigner_transform(psi, pg, hbar=cfg.hbar)
    q_err = float(np.max(np.abs(W.sum(axis=1) * pg.p.dx - np.abs(psi.amplitudes) ** 2)))
    p_err = float(
        np.max(np.abs(W.sum(axis=0) * pg.q.dx - momentum_density(psi, pg.p.points, cfg.hbar)))
    )
    table = ResultTable(
        columns=[f"p{j}" for j in range(pg.p.n)],
        units=["1/area"] * pg.p.n, rows=W,
        experiment="wigner", provenance=_prov(cfg),
        extra_meta=[
            f"q_axis: {g.x_min},{g.x_max},{g.n}",
            f"p_axis: {pg.p.x_min},{pg.p.x_max},{pg.p.n}",
        ],
    )
    out = cfg.output_dir / "wigner.csv"
    table.write_csv(out)
    files = [out]
    if cfg.svg:
        plot = cfg.output_dir / "wigner.svg"
        svg_heatmap(
            plot, W, (g.x_min, g.x_max, pg.p.x_min, pg.p.x_max),
            title=f"phase-space density ({p['state']})",
        )
        files.append(plot)
    return files, [
        f"marginal errors: position {q_err:.3e}, momentum {p_err:.3e}",
        f"minimum value {W.min():.6f}",
    ]


def _run_oscillator(cfg: ExperimentConfig):
    p = cfg.params
    k_base, k_mod = float(p["k_base"]), float(p["k_mod"])
    stiffness = lambda t: k_base + k_mod * np.sin(t)
    t_final, n_steps = float(p["t_final"]), int(p["n_steps"])
    dt = t_final / n_steps
    aux = integrate_ermakov(stiffness, ErmakovState(rho=1.0, rho_dot=0.0, C=1.0), t_final, dt)
    cl = solve_classical_tdho(stiffness, float(p["q0"]), float(p["p0"]), 1.0, t_final, dt)
    I = lewis_invariant_classical(cl.q, cl.p, aux.rho, aux.rho_dot)
    pgrid = _grid(p, "phase_grid")
    pg = PhaseGrid(pgrid, Grid1D(pgrid.n, pgrid.x_min, pgrid.x_max))
    blob = _gaussian_phase(pg, float(p["q0"]), float(p["p0"]), float(p["sigma"]), float(p["sigma"]))
    run = kvn_tdho_evolve(blob, stiffness, t_final, n_steps)
    centroid_err = float(
        max(np.max(np.abs(run.q_mean - cl.q)), np.max(np.abs(run.p_mean - cl.p)))
    )
    table = ResultTable(
        columns=["t", "q", "p", "rho", "invariant"],
        units=["time", "length", "momentum", "length", "energy"],
        rows=np.column_stack([cl.t, cl.q, cl.p, aux.rho, I]),
        experiment="oscillator", provenance=_prov(cfg),
    )
    out = cfg.output_dir / "oscillator.csv"
    table.write_csv(out)
    files = [out]
    if cfg.svg:
        plot = cfg.output_dir / "oscillator.svg"
        svg_line_plot(
            plot, cl.t,
            {"q": cl.q, "rho": aux.rho, "invariant": I},
            x_label="t", y_label="value", title="driven oscillator",
        )
        files.append(plot)
    drift = float(np.max(np.abs(I - I[0])) / abs(I[0]))
    return files, [
        f"invariant relative drift {drift:.3e}",
        f"phase-space centroid error vs characteristics {centroid_err:.3e}",
    ]


def _run_aharonov_bohm(cfg: ExperimentConfig):
    p = cfg.params
    alphas = [float(a) for a in p["alphas"]]
    n_values = [int(n) for n in p["n_values"]]

    def point(alpha: float):
        energies = [
            disc_ground_energy(
                SolenoidConfig(
                    alpha=alpha, n=n, pz0=float(p["pz0"]), ptheta0=float(p["ptheta0"]),
                    mass=float(p["mass"]), R_boundary=float(p["R_boundary"]), hbar=cfg.hbar,
                )
            )
            for n in n_values
        ]
        record = kvn_radial_coeffs(
            SolenoidConfig(
                alpha=alpha, n=n_values[0], pz0=float(p["pz0"]), ptheta0=float(p["ptheta0"]),
                mass=float(p["mass"]), R_boundary=float(p["R_boundary"]), hbar=cfg.hbar,
            ),
            1.0,
        )
        return energies, record

    results = [point(alpha) for alpha in alphas]
    records = [r for _, r in results]
    distinct = []
    ids = []
    for rec in records:
        if rec not in distinct:
            distinct.append(rec)
        ids.append(distinct.index(rec))
    rows = np.column_stack(
        [alphas] + [[e[i] for e, _ in results] for i in range(len(n_values))] + [ids]
    )
    table = ResultTable(
        columns=["alpha"] + [f"E_n{n}" for n in n_values] + ["kvn_record_id"],
        units=["1"] + ["energy"] * len(n_values) + ["id"],
        rows=rows, experiment="aharonov-bohm", provenance=_prov(cfg),
        # the classical records collapse to a single id when flux-independent
        extra_meta=[f"kvn_distinct_records: {len(distinct)}"],
    )
    out = cfg.output_dir / "aharonov_bohm.csv"
    table.write_csv(out)
    files = [out]
    if cfg.svg:
        plot = cfg.output_dir / "aharonov_bohm.svg"
        svg_line_plot(
            plot, np.array(alphas),
            {f"n={n}": rows[:, 1 + i] for i, n in enumerate(n_values)},
            x_label="alpha", y_label="disc ground energy", title="flux dependence",
        )
        files.append(plot)
    return files, [f"{len(distinct)} distinct classical coefficient record(s)"]


def _run_kernelcheck(cfg: ExperimentConfig):
    p = cfg.params
    hbar = cfg.hbar
    t1, t2 = float(p["t1"]), float(p["t2"])
    rows = []
    for x, x0 in p["points"]:
        direct = free_quantum_kernel(float(x), float(x0), t1 + t2, hbar=hbar)
        conv = kernel_convolution(float(x), float(x0), t1, t2, hbar=hbar)
        rows.append([0, abs(conv - direct)])
    g = _grid(p, "grid")
    psi = _gaussian_1d(g, 0.0, float(p["sigma"]))
    t_free = float(p["t_free"])
    via_kernel = kernel_propagate(psi, t_free, hbar=hbar)
    via_fft = free_quantum_propagate(psi, t_free, hbar=hbar)
    l2 = float(
        np.sqrt(np.sum(np.abs(via_kernel.amplitudes - via_fft.amplitudes) ** 2) * g.dx)
    )
    rows.append([1, l2])
    pgrid = _grid(p, "p_grid")
    pg = PhaseGrid(g, pgrid)
    blob = _gaussian_phase(pg, 0.0, 0.5, float(p["sigma"]), 0.3)
    a = free_kvn_propagate(blob, t_free)
    b = kvn_step(blob, koopman_generator(pg, lambda q: np.zeros_like(q)), t_free)
    rows.append([2, float(np.max(np.abs(a.amplitudes - b.amplitudes)))])
    table = ResultTable(
        columns=["check", "residual"],
        units=["0group_1quad_2shear", "mixed"],
        rows=np.array(rows), experiment="kernelcheck", provenance=_prov(cfg),
    )
    out = cfg.output_dir / "kernelcheck.csv"
    table.write_csv(out)
    return [out], [f"max residual {max(r[1] for r in rows):.3e}"]


RUNNERS = {
    "doubleslit": _run_doubleslit,
    "measure": _run_measure,
    "uncertainty": _run_uncertainty,
    "ehrenfest": _run_ehrenfest,
    "wigner": _run_wigner,
    "oscillator": _run_oscillator,
    "aharonov-bohm": _run_aharonov_bohm,
    "kernelcheck": _run_kernelcheck,
}

_VALIDATORS = {
    "doubleslit": _prepare_doubleslit,
    "uncertainty": lambda cfg: (
        _grid(cfg.params, "grid"), _grid(cfg.params, "kvn_grid"),
        count_check(cfg.params, "n_random", 0),
    ),
    "ehrenfest": lambda cfg: (
        _grid(cfg.params, "grid"),
        _grid(cfg.params, "phase_grid"),
        [_POTENTIALS[name] for name in list_check(cfg.params, "potentials")],
        [unified_kappa_check(k) for k in list_check(cfg.params, "kappas", nonempty=False)],
        time_step_check(cfg.params["dt"], cfg.params["t_final"]),
    ),
    "wigner": lambda cfg: (
        _grid(cfg.params, "grid"), _grid(cfg.params, "p_grid"),
        wigner_state_check(cfg.params["state"]),
        finite_check(cfg.params, "sigma", positive=True),
    ),
    "oscillator": lambda cfg: (_grid(cfg.params, "phase_grid"),
                               count_check(cfg.params, "n_steps", 1)),
    "aharonov-bohm": lambda cfg: [
        SolenoidConfig(
            alpha=float(a), n=int(list_check(cfg.params, "n_values")[0]),
            pz0=float(cfg.params["pz0"]),
            ptheta0=float(cfg.params["ptheta0"]), mass=float(cfg.params["mass"]),
            R_boundary=float(cfg.params["R_boundary"]), hbar=cfg.hbar,
        )
        for a in list_check(cfg.params, "alphas")
    ],
    "kernelcheck": lambda cfg: (_grid(cfg.params, "grid"), _grid(cfg.params, "p_grid")),
    "measure": lambda cfg: (
        count_check(cfg.params, "n_points", 2), finite_check(cfg.params, "omega_tau_max"),
    ),
}


def list_check(params: dict, key: str, nonempty: bool = True) -> list:
    value = params[key]
    if not isinstance(value, list) or (nonempty and not value):
        need = "a non-empty list" if nonempty else "a list"
        raise ValueError(f"{key} must be {need}, got {value!r}")
    return value


def unified_kappa_check(kappa) -> float:
    k = float(kappa)
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"kappa must lie in [0, 1], got {k}")
    return k


def time_step_check(dt, t_final) -> int:
    """The step count of ``dt`` over ``t_final``: dt must divide t_final
    (relative 1e-9) into at least 4 steps, the 5 samples the residuals need."""
    dt, t_final = float(dt), float(t_final)
    if not (np.isfinite(t_final) and 0.0 < dt <= t_final):
        raise ValueError(f"dt must lie in (0, t_final] with both finite, got {dt} and {t_final}")
    n_steps = round(t_final / dt)
    if abs(n_steps * dt - t_final) > 1e-9 * t_final:
        raise ValueError(f"dt {dt} does not divide t_final {t_final} into whole steps")
    if n_steps < 4:
        raise ValueError(f"dt {dt} gives {n_steps} steps to t_final {t_final}; need at least 4")
    return n_steps


def wigner_state_check(state: str) -> str:
    if state not in ("gaussian", "fock1"):
        raise ValueError(f"unknown wigner state {state!r}")
    return state


def count_check(params: dict, key: str, least: int) -> int:
    n = params[key]
    if type(n) is not int or n < least:
        raise ValueError(f"{key} must be an integer >= {least}, got {n!r}")
    return n


def finite_check(params: dict, key: str, positive: bool = False) -> float:
    value = params[key]
    if type(value) not in (int, float) or not np.isfinite(value) or (positive and value <= 0):
        need = "a positive finite number" if positive else "a finite number"
        raise ValueError(f"{key} must be {need}, got {value!r}")
    return value


def verify(cfg: ExperimentConfig) -> None:
    _VALIDATORS[cfg.experiment](cfg)


# ---------------------------------------------------------------------------
# entry points


def run(config_path: str | Path) -> int:
    cfg = load_config(Path(config_path))
    verify(cfg)
    _threads()  # a malformed KVNLAB_THREADS stops every run, not only the pooled ones
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    files, summary = RUNNERS[cfg.experiment](cfg)
    wall = time.perf_counter() - start
    print(f"{cfg.experiment}: config {cfg.hash}, wall time {wall:.2f} s")
    for line in summary:
        print(f"  {line}")
    for f in files:
        print(f"  wrote {f}")
    return 0


def verify_cmd(config_path: str | Path) -> int:
    cfg = load_config(Path(config_path))
    verify(cfg)
    print(f"OK {cfg.experiment} (config {cfg.hash})")
    print(json.dumps(cfg.resolved, indent=2, sort_keys=True))
    return 0


def list_cmd() -> int:
    for name in sorted(DEFAULTS):
        print(name)
        print(
            "  defaults:",
            json.dumps(DEFAULTS[name], sort_keys=True, default=float),
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kvnlab",
        description="quantum vs classical wavefunction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_ver = sub.add_parser("verify", help="validate a config without running")
    p_ver.add_argument("config")
    sub.add_parser("list", help="list experiments and their defaults")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run(args.config)
        if args.command == "verify":
            return verify_cmd(args.config)
        return list_cmd()
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PhysicsError as exc:
        print(f"physics precondition violated: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except BrokenExecutor as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

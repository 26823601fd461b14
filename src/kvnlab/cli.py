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

``SPECS`` declares each experiment's parameters once: a default and a field
type per key (finite JSON number, JSON integer, choice, list, grid) whose
``parse`` gives the runner its value or a ``ValueError`` naming the key.
Numbers must be JSON numbers, not strings; ``MAX_GRID_N`` and ``MAX_COUNT``
bound every array and loop before anything is allocated.  Unknown keys are
rejected.  Output paths resolve relative to the config file.  Exit codes: 0
success, 2 config error, 3 physics precondition violation (a non-finite table,
a kernelcheck row not below its ``KERNEL_BOUNDS`` entry and an unsatisfied
Robertson row among them; nothing is written), 4 I/O error or a worker
process that died.
For a fixed config and seed the tables are byte-identical across runs on one
platform; wall time is printed to stdout rather than written into the files.
Each runner writes its tables and returns its results, a dict of named
numbers that ``run`` returns too; the printed summary is the templates of
``SUMMARY`` filled from it, the one place the summary text is written.
Ehrenfest's distinct evolutions, each run once however many rows read it,
run side by side in forked worker processes, one per CPU the process may use,
at most ``MAX_WORKERS`` (limit them with ``taskset``).  Results are assembled
in input order, so the tables do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .analysis import ehrenfest_residuals, momentum_density, robertson_check, wigner_transform
from .doubleslit import SlitConfig, fringe_stats, kvn_screens, run_quantum
from .errors import PhysicsError, WorkerError
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
from .oscillator import kvn_tdho_residuals
from .propagation import evolve_many, kvn_step
from .report import ResultTable, config_hash, svg_heatmap, svg_line_plot
from .states import Wavefunction


#: Most worker processes ``_pmap`` starts.
MAX_WORKERS = 8


def _workers() -> int:
    """Worker processes for ``_pmap``: the CPUs this process may use, at most
    ``MAX_WORKERS``."""
    if hasattr(os, "sched_getaffinity"):
        return min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    return min(MAX_WORKERS, os.cpu_count() or 1)


#: The ``(fn, items)`` of the running ``_pmap``; forked workers inherit it.
_JOB: tuple | None = None


def _run_job(index: int):
    fn, items = _JOB
    return fn(items[index])


def _pmap(fn, items) -> list:
    """``[fn(x) for x in items]`` on ``_workers()`` forked worker processes,
    in input order.

    The workers inherit ``fn`` and ``items`` and are handed indices, so
    neither needs pickling; only results and exceptions travel back.  The
    first failing job's exception is raised, and jobs not yet started are
    cancelled; a worker process that dies raises WorkerError.  With one
    worker, where fork is unavailable, or while other threads run (a child
    forked then could inherit a lock one of them holds), the jobs run in this
    process.  The pool's modules are imported here, so that runs which never
    fork do not pay for their import.
    """
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    global _JOB
    items = list(items)
    workers = min(_workers(), len(items))
    forkable = "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1
    if workers <= 1 or not forkable:
        return [fn(x) for x in items]
    _JOB = fn, items
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        return list(pool.map(_run_job, range(len(items))))
    except BrokenExecutor as exc:
        raise WorkerError(str(exc)) from exc
    finally:
        pool.shutdown(cancel_futures=True)
        _JOB = None


def _gaussian_1d(grid: Grid1D, center: float, sigma: float) -> Wavefunction:
    amp = np.exp(-((grid.points - center) ** 2) / (4 * sigma**2) + 0j)  # the goldens' complex exp
    return Wavefunction(grid, amp).normalize()


def _gaussian_phase(pg: PhaseGrid, q0: float, p0: float, sq: float, sp: float) -> Wavefunction:
    Q, P = pg.meshes()
    amp = np.exp(-((Q - q0) ** 2) / (4 * sq**2) - ((P - p0) ** 2) / (4 * sp**2))
    return Wavefunction(pg, amp.astype(complex)).normalize()


#: name -> (V, V', quadratic); quadratic means V''' = 0, where the Moyal
#: bracket is the Poisson one and the interpolating generator at every kappa
#: is hbar times the Koopman one
_POTENTIALS = {
    "harmonic": (lambda q: 0.5 * q**2, lambda q: q, True),
    "quartic": (lambda q: 0.25 * q**4, lambda q: q**3, False),
}


# ---------------------------------------------------------------------------
# parameter specs: each key's default and its parse into the value a runner uses

#: Largest grid ``n`` a config may ask for; a 4096 x 4096 complex
#: phase-space field takes 256 MB.
MAX_GRID_N = 4096
#: Largest count or step count a config may ask for.
MAX_COUNT = 10**6
#: Sweep points that ``measure`` simulates as one stack of 2x2 density
#: matrices (256 kB each), so a MAX_COUNT sweep holds a few MB at a time.
MEASURE_BLOCK = 4096


class Num(NamedTuple):
    """A finite JSON number in ``[lo, hi]``, and above 0 if ``positive``."""

    default: float | None = None
    lo: float = -np.inf
    hi: float = np.inf
    positive: bool = False

    def parse(self, key: str, value) -> float:
        # a bool is not a JSON number, nor is an int beyond float range finite
        finite = type(value) in (int, float) and abs(value) <= sys.float_info.max
        if not (finite and self.lo <= value <= self.hi and (value > 0 or not self.positive)):
            bound = " > 0" if self.positive else f" in [{self.lo}, {self.hi}]"
            raise ValueError(f"{key} must be a finite number{bound}, got {value!r}")
        return float(value)


Positive = partial(Num, positive=True)


class Int(NamedTuple):
    """A JSON integer in ``[lo, hi]``."""

    default: int | None = None
    lo: int = 0
    hi: float = MAX_COUNT

    def parse(self, key: str, value) -> int:
        if type(value) is not int or not self.lo <= value <= self.hi:
            raise ValueError(f"{key} must be an integer in [{self.lo}, {self.hi}], got {value!r}")
        return value


class Choice(NamedTuple):
    """One of the strings ``names``."""

    default: str | None = None
    names: tuple[str, ...] = ()

    def parse(self, key: str, value) -> str:
        if value not in self.names:
            raise ValueError(f"{key} must be one of {list(self.names)}, got {value!r}")
        return value


class ListOf(NamedTuple):
    """A JSON list of ``least`` to ``most`` values of ``item``."""

    default: list | None = None
    item: Num | Int | Choice | ListOf | None = None
    least: int = 0
    most: int = MAX_COUNT

    def parse(self, key: str, value) -> list:
        if not isinstance(value, list) or not self.least <= len(value) <= self.most:
            raise ValueError(f"{key} needs {self.least} to {self.most} list items, got {value!r}")
        return [self.item.parse(f"{key}[{i}]", v) for i, v in enumerate(value)]


class Grid(NamedTuple):
    """Exactly ``n``, ``min``, ``max``: n a power of two in [8, MAX_GRID_N], min < max."""

    default: dict | None = None

    def parse(self, key: str, value) -> Grid1D:
        if not isinstance(value, dict) or set(value) != {"n", "min", "max"}:
            raise ValueError(f"{key} must have exactly the keys n, min, max, got {value!r}")
        n = Int(lo=8, hi=MAX_GRID_N).parse(f"{key} n", value["n"])
        lo, hi = (Num().parse(f"{key} {end}", value[end]) for end in ("min", "max"))
        if n & (n - 1) or not 0 < hi - lo < np.inf:
            raise ValueError(f"{key} needs n a power of two and min < max, got {value!r}")
        return Grid1D(n, lo, hi)


class Is(NamedTuple):
    """A JSON value of Python type ``kind``, described to the user as ``what``."""

    default: object
    kind: type
    what: str

    def parse(self, key: str, value):
        if type(value) is not self.kind:
            raise ValueError(f"{key} must be {self.what}, got {value!r}")
        return value


#: Each experiment's parameters: key -> field holding the default and the parse.
SPECS: dict[str, dict] = {
    "doubleslit": {
        "x_A": Num(3.0), "delta": Positive(0.5), "sigma_x": Positive(1.0),
        "sigma_p": Positive(0.1), "mass": Positive(1.0), "p0y": Positive(50.0),
        "y_M": Positive(50.0), "y_R": Positive(150.0),
        "x_grid": Grid({"n": 2048, "min": -64.0, "max": 64.0}),
        "p_grid": Grid({"n": 256, "min": -4.0, "max": 4.0}),
    },
    "measure": {"omega_tau_max": Num(np.pi / 2), "n_points": Int(65, lo=2)},
    "uncertainty": {
        "sigma": Positive(0.5), "kvn_sigma": Positive(0.1), "n_random": Int(20),
        "grid": Grid({"n": 512, "min": -16.0, "max": 16.0}),
        "kvn_grid": Grid({"n": 256, "min": -2.0, "max": 2.0}),
    },
    "ehrenfest": {
        "potentials": ListOf(["harmonic", "quartic"], Choice(names=tuple(_POTENTIALS)), least=1),
        "kappas": ListOf([0.0, 0.5, 1.0], Num(lo=0.0, hi=1.0)),
        "t_final": Positive(1.0), "dt": Positive(1e-3),
        "grid": Grid({"n": 256, "min": -16.0, "max": 16.0}),
        "phase_grid": Grid({"n": 128, "min": -8.0, "max": 8.0}),
    },
    "wigner": {
        "state": Choice("gaussian", ("gaussian", "fock1")), "center": Num(0.0),
        "sigma": Positive(0.7071067811865476),
        "grid": Grid({"n": 256, "min": -12.0, "max": 12.0}),
        "p_grid": Grid({"n": 256, "min": -8.0, "max": 8.0}),
    },
    "oscillator": {
        "k_base": Num(1.0), "k_mod": Num(0.1), "t_final": Positive(10.0),
        "n_steps": Int(2500, lo=1), "q0": Num(1.0), "p0": Num(0.0),
        "phase_grid": Grid({"n": 128, "min": -8.0, "max": 8.0}),
        "sigma": Positive(0.3),
    },
    "aharonov-bohm": {
        "alphas": ListOf([0.0, 0.1, 0.2, 0.3, 0.4, 0.5], Num(), least=1),
        "n_values": ListOf([0, 1, 2], Int(lo=-MAX_COUNT), least=1),
        "pz0": Num(0.0), "ptheta0": Num(0.5), "mass": Positive(1.0), "R_boundary": Positive(1.0),
    },
    "kernelcheck": {
        "points": ListOf([[0.7, -0.3], [1.2, 0.5], [0.0, 0.0]],
                         ListOf(item=Num(), least=2, most=2)),
        "t1": Positive(0.4), "t2": Positive(0.4), "t_free": Positive(1.0), "sigma": Positive(1.0),
        "grid": Grid({"n": 2048, "min": -32.0, "max": 32.0}),
        "p_grid": Grid({"n": 64, "min": -4.0, "max": 4.0}),
    },
}

#: A config's top level; ``params`` and ``output`` are then read by their own specs.
_TOP = {
    "experiment": Choice(None, tuple(SPECS)), "hbar": Positive(1.0), "seed": Int(0, hi=np.inf),
    "params": Is({}, dict, "an object"), "output": Is({}, dict, "an object"),
}
_OUTPUT = {"directory": Is(".", str, "a string"), "svg": Is(True, bool, "true or false")}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    hbar: float
    seed: int
    params: dict  # parsed values, keyed as in the experiment's spec
    output_dir: Path
    svg: bool
    resolved: dict  # canonical dict: the whole config with every default filled in

    @property
    def hash(self) -> str:  # what the results depend on, not where they are written
        return config_hash({key: value for key, value in self.resolved.items() if key != "output"})


def _merge(spec: dict, user, section: str) -> tuple[dict, dict]:
    """``user`` over the defaults of ``spec``: the merged JSON and its parsed values."""
    if not isinstance(user, dict):
        raise ValueError(f"{section} must be an object")
    unknown = set(user) - set(spec)
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    merged = {key: user.get(key, entry.default) for key, entry in spec.items()}
    return merged, {key: entry.parse(key, merged[key]) for key, entry in spec.items()}


def load_config(path: Path) -> ExperimentConfig:
    _, top = _merge(_TOP, json.loads(path.read_text()), "config")
    params, parsed = _merge(SPECS[top["experiment"]], top["params"], "params")
    output, _ = _merge(_OUTPUT, top["output"], "output")
    return ExperimentConfig(
        experiment=top["experiment"],
        hbar=top["hbar"],
        seed=top["seed"],
        params=parsed,
        output_dir=(path.parent / output["directory"]).resolve(),
        svg=output["svg"],
        resolved=dict(top, params=json.loads(json.dumps(params)), output=output),
    )


def time_step_check(dt: float, t_final: float) -> int:
    """The step count of ``dt`` over ``t_final``: dt must divide t_final (relative
    1e-9) into 4 to MAX_COUNT steps; 4 give the 5 samples the residuals need."""
    n_steps = round(min(t_final / dt, MAX_COUNT + 1))
    if not 4 <= n_steps <= MAX_COUNT or abs(n_steps * dt - t_final) > 1e-9 * t_final:
        raise ValueError(f"dt {dt} must divide t_final {t_final} into 4 to {MAX_COUNT} whole steps")
    return n_steps


def verify(cfg: ExperimentConfig) -> None:
    """The checks that span several keys; ``load_config`` parsed each key alone."""
    if cfg.experiment == "ehrenfest":
        time_step_check(cfg.params["dt"], cfg.params["t_final"])
    if cfg.experiment == "doubleslit":
        SlitConfig(**cfg.params, hbar=cfg.hbar)
    if cfg.experiment == "wigner":
        # separations come in steps of 2 dx/hbar, so W(p) repeats with period pi hbar/dx
        span, period = cfg.params["p_grid"].length, np.pi * cfg.hbar / cfg.params["grid"].dx
        if span > period:
            raise ValueError(
                f"p_grid span {span:g} exceeds the period pi*hbar/dx = {period:.4g} of W(p) "
                f"at hbar {cfg.hbar:g}, so the Wigner table would alias"
            )


# ---------------------------------------------------------------------------
# drivers: each adds its tables and plots to an _Output and returns its results,
# named numbers that its SUMMARY templates read


@dataclass
class _Output:
    """One run's tables and plots, written together by ``write``.

    Each table is checked as it is added, so a run that fails the check, or
    fails later, leaves no file behind.
    """

    cfg: ExperimentConfig
    writers: list = field(default_factory=list)  # (file name, writer taking its path)

    def table(self, name: str, columns: list, units: list, rows, extra_meta=()) -> None:
        provenance = {"config_hash": self.cfg.hash, "code_version": __version__}
        table = ResultTable(columns, units, rows, self.cfg.experiment, provenance, list(extra_meta))
        if not np.isfinite(table.rows).all():
            raise PhysicsError(f"the {name} table holds non-finite values")
        self.writers.append((f"{name}.csv", table.write_csv))

    def plot(self, name: str, draw, *args, **kwargs) -> None:
        if self.cfg.svg:
            self.writers.append((f"{name}.svg", lambda path: draw(path, *args, **kwargs)))

    def write(self) -> list[Path]:
        self.cfg.output_dir.mkdir(parents=True, exist_ok=True)
        paths = [self.cfg.output_dir / name for name, _ in self.writers]
        for path, (_, write) in zip(paths, self.writers):
            write(path)
        return paths


def _run_doubleslit(cfg: ExperimentConfig, out: _Output):
    slit = SlitConfig(**cfg.params, hbar=cfg.hbar)
    q = run_quantum(slit)
    k, k1, k2 = kvn_screens(slit, (None, 1, 2))
    w1, w2 = k1.transmitted_weight, k2.transmitted_weight
    additivity = float(
        np.max(np.abs(k.density - (w1 * k1.density + w2 * k2.density) / (w1 + w2)))
    )
    stats = fringe_stats(q.x, q.density)
    for name, res in (("quantum_screen", q), ("kvn_screen", k)):
        rows = np.column_stack([res.x, res.density])
        out.table(name, ["x", "density"], ["length", "1/length"], rows)
    out.plot(
        "doubleslit_screens", svg_line_plot, q.x, {"quantum": q.density, "classical": k.density},
        x_label="x", y_label="density", title="screen densities",
    )
    return {"maxima": stats.n_maxima, "contrast": stats.max_contrast, "additivity": additivity}


def _run_measure(cfg: ExperimentConfig, out: _Output):
    ts = np.linspace(0.0, cfg.params["omega_tau_max"], cfg.params["n_points"])
    rows = np.empty((len(ts), 3))
    rows[:, 0] = ts
    for start in range(0, len(ts), MEASURE_BLOCK):
        block = slice(start, start + MEASURE_BLOCK)
        omega_tau = ts[block]
        closed_u, closed_n = p_a_unmeasured(omega_tau), p_a_nonselective(omega_tau)
        miss = ((np.abs(simulate_p_a_unmeasured(omega_tau) - closed_u) > 1e-12)
                | (np.abs(simulate_p_a_nonselective(omega_tau) - closed_n) > 1e-12))
        if miss.any():
            raise PhysicsError(
                f"simulation disagrees with closed form at omega*tau={omega_tau[miss.argmax()]}"
            )
        rows[block, 1], rows[block, 2] = closed_u, closed_n
    out.table("measure_sweep", ["omega_tau", "p_a_unmeasured", "p_a_nonselective"],
              ["rad", "1", "1"], rows)
    out.plot(
        "measure_sweep", svg_line_plot, ts,
        {"undisturbed": rows[:, 1], "non-selective": rows[:, 2]},
        x_label="omega*tau", y_label="P(a)", title="measurement disturbance",
    )
    return {"points": len(ts)}


def _run_uncertainty(cfg: ExperimentConfig, out: _Output):
    p = cfg.params
    g = p["grid"]
    psi = _gaussian_1d(g, 0.0, p["sigma"])
    rows = []
    q_op, p_op = position_op(g), momentum_op(g, hbar=cfg.hbar)
    rep = robertson_check(q_op, p_op, psi)
    rows.append([0, rep.lhs, rep.rhs, float(rep.satisfied)])
    pg = PhaseGrid(p["kvn_grid"], p["kvn_grid"])
    phi = _gaussian_phase(pg, 0.0, 0.0, p["kvn_sigma"], p["kvn_sigma"])
    pairs = [
        (position_op(pg), momentum_op(pg)),
        (position_op(pg), theta_op(pg)),
        (momentum_op(pg), lambda_op(pg)),
    ]
    for case, (a, b) in enumerate(pairs, start=1):
        rep = robertson_check(a, b, phi)
        rows.append([case, rep.lhs, rep.rhs, float(rep.satisfied)])
    rng = np.random.default_rng(cfg.seed)
    for i in range(p["n_random"]):
        coeff = np.zeros(g.n, dtype=complex)
        coeff[:8] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        coeff[-8:] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f = np.fft.ifft(coeff) * np.exp(-(g.points**2) / (2 * (g.length / 16) ** 2))
        state = Wavefunction(g, f).normalize()
        rep = robertson_check(q_op, p_op, state)
        rows.append([10 + i, rep.lhs, rep.rhs, float(rep.satisfied)])
    out.table("uncertainty", ["case", "lhs", "rhs", "satisfied"],
              ["id", "hbar", "hbar", "bool"], rows)
    for case, lhs, rhs, satisfied in rows:
        if not satisfied:
            raise PhysicsError(f"uncertainty case {case} misses the Robertson bound: "
                               f"lhs {lhs:.3e} < rhs {rhs:.3e} at hbar {cfg.hbar:g}")
    return {"satisfied": int(sum(r[3] for r in rows)), "checks": len(rows)}


def _run_ehrenfest(cfg: ExperimentConfig, out: _Output):
    p = cfg.params
    t_final = p["t_final"]
    n_steps = time_step_check(p["dt"], t_final)
    g = p["grid"]
    pg = PhaseGrid(p["phase_grid"], p["phase_grid"])
    psi = _gaussian_1d(g, 0.8, np.sqrt(0.5))
    # blob shape chosen so the quartic runs keep their tails off the
    # energy contours that cross the p boundary, for every kappa
    blob = _gaussian_phase(pg, 0.8, 0.0, 0.35, 0.7)
    # the flow each row reads, keyed (potential, kappa), None if quantum: at kappa = 0,
    # or any kappa on a quadratic potential, it is hbar K, whose evolution
    # exp(-i hbar K t / hbar) is the Koopman one; its rows record their Bopp means along it
    plan = []  # (flavor, potential code, kappa, flow) per row
    for pot_code, potential in enumerate(p["potentials"]):
        *_, quadratic = _POTENTIALS[potential]
        plan += [(0, pot_code, 1.0, (potential, None)), (1, pot_code, 0.0, (potential, 0.0))]
        plan += [(2, pot_code, kappa, (potential, 0.0 if quadratic else kappa))
                 for kappa in p["kappas"]]
    observed = {}  # flow -> the kappas its rows read, each once
    for *_, kappa, flow in plan:
        observed.setdefault(flow, {})[kappa] = None
    # one job per flow, the phase-space ones, the costliest, dispatched first
    jobs = sorted(((flow, tuple(kappas)) for flow, kappas in observed.items()),
                  key=lambda job: job[0][1] is None)

    def residuals(job):
        # each job builds its own generator, so only the running ones hold arrays
        (potential, kappa), kappas = job
        V, Vp, _ = _POTENTIALS[potential]
        if kappa is None:
            state, G = psi, hamiltonian(g, V, hbar=cfg.hbar, vprime=Vp)
        else:
            state, G = blob, unified_generator(pg, V, kappa, hbar=cfg.hbar, vprime=Vp)
        trajectories = evolve_many(state, G, kappas, t_final, n_steps)
        return [[res.r1_max, res.r2_max, res.r1_relative, res.r2_relative]
                for res in map(ehrenfest_residuals, trajectories)]

    done = {}
    for (flow, kappas), results in zip(jobs, _pmap(residuals, jobs)):
        done.update(((flow, k), r) for k, r in zip(kappas, results))
    rows = [[flavor, pot_code, kappa, *done[flow, kappa]] for flavor, pot_code, kappa, flow in plan]
    out.table(
        "ehrenfest", ["flavor", "potential", "kappa", "r1_max", "r2_max", "r1_rel", "r2_rel"],
        ["0q_1kvn_2uni", "0harm_1quart", "1", "mixed", "mixed", "1", "1"], rows,
    )
    return {"worst_relative": float(max(max(r[5], r[6]) for r in rows)), "rows": len(rows),
            "evolutions": len(jobs)}


#: Largest miss of the Wigner table's momentum marginal that a run accepts.
MARGINAL_TOL = 1e-6


def _run_wigner(cfg: ExperimentConfig, out: _Output):
    p = cfg.params
    g = p["grid"]
    pg = PhaseGrid(g, p["p_grid"])
    if p["state"] == "gaussian":
        psi = _gaussian_1d(g, p["center"], p["sigma"])
    else:  # fock1
        amp = g.points * np.exp(-g.points**2 / 2)
        psi = Wavefunction(g, amp.astype(complex)).normalize()
    W = wigner_transform(psi, pg, hbar=cfg.hbar)
    q_err = float(np.max(np.abs(W.sum(axis=1) * pg.p.dx - np.abs(psi.amplitudes) ** 2)))
    p_err = float(
        np.max(np.abs(W.sum(axis=0) * pg.q.dx - momentum_density(psi, pg.p.points, cfg.hbar)))
    )
    out.table(
        "wigner", [f"p{j}" for j in range(pg.p.n)], ["1/area"] * pg.p.n, W,
        [f"q_axis: {g.x_min},{g.x_max},{g.n}", f"p_axis: {pg.p.x_min},{pg.p.x_max},{pg.p.n}"],
    )
    out.plot(
        "wigner", svg_heatmap, W, (g.x_min, g.x_max, pg.p.x_min, pg.p.x_max),
        title=f"phase-space density ({p['state']})",
    )
    if not p_err <= MARGINAL_TOL:
        raise PhysicsError(
            f"Wigner momentum marginal misses |psi(p)|^2 by {p_err:.3e} at hbar {cfg.hbar:g}: "
            f"p_grid [{pg.p.x_min:g}, {pg.p.x_max:g}) does not hold the state's momenta"
        )
    return {"q_error": q_err, "p_error": p_err, "minimum": float(W.min())}


def _run_oscillator(cfg: ExperimentConfig, out: _Output):
    p = cfg.params
    stiffness = lambda t: p["k_base"] + p["k_mod"] * np.sin(t)
    pg = PhaseGrid(p["phase_grid"], p["phase_grid"])
    blob = _gaussian_phase(pg, p["q0"], p["p0"], p["sigma"], p["sigma"])
    cl, aux, I, run, results = kvn_tdho_residuals(
        blob, stiffness, p["t_final"], p["n_steps"], p["q0"], p["p0"], p["sigma"])
    out.table(
        "oscillator", ["t", "q", "p", "rho", "invariant"],
        ["time", "length", "momentum", "length", "energy"],
        np.column_stack([cl.t, cl.q, cl.p, aux.rho, I]),
    )
    out.table(
        "oscillator_kvn", ["t", "kvn_q", "kvn_p", "kvn_var_q"],
        ["time", "length", "momentum", "length^2"],
        np.column_stack([run.times, run.q_mean, run.p_mean, run.covariance[:, 0, 0]]),
    )
    out.plot(
        "oscillator", svg_line_plot, cl.t, {"q": cl.q, "rho": aux.rho, "invariant": I},
        x_label="t", y_label="value", title="driven oscillator",
    )
    return results


def _run_aharonov_bohm(cfg: ExperimentConfig, out: _Output):
    p = cfg.params
    alphas, n_values = p["alphas"], p["n_values"]

    def point(alpha: float):
        base = SolenoidConfig(
            alpha=alpha, n=n_values[0], pz0=p["pz0"], ptheta0=p["ptheta0"],
            mass=p["mass"], R_boundary=p["R_boundary"], hbar=cfg.hbar,
        )
        energies = [disc_ground_energy(replace(base, n=n)) for n in n_values]
        return energies, kvn_radial_coeffs(base, 1.0)

    energies, records = zip(*(point(alpha) for alpha in alphas))
    distinct = list(dict.fromkeys(records))
    rows = np.column_stack(
        [alphas] + [[e[i] for e in energies] for i in range(len(n_values))]
        + [[distinct.index(r) for r in records]]
    )
    out.table(
        "aharonov_bohm", ["alpha"] + [f"E_n{n}" for n in n_values] + ["kvn_record_id"],
        ["1"] + ["energy"] * len(n_values) + ["id"], rows,
        # the classical records collapse to a single id when flux-independent
        [f"kvn_distinct_records: {len(distinct)}"],
    )
    out.plot(
        "aharonov_bohm", svg_line_plot, np.array(alphas),
        {f"n={n}": rows[:, 1 + i] for i, n in enumerate(n_values)},
        x_label="alpha", y_label="disc ground energy", title="flux dependence",
    )
    return {"distinct_records": len(distinct)}


#: Criterion 6's bound on each kernelcheck row, by its check code.
KERNEL_BOUNDS = {0: ("group law", 1e-6), 1: ("quadrature", 1e-6), 2: ("shear", 1e-10)}


def _run_kernelcheck(cfg: ExperimentConfig, out: _Output):
    p = cfg.params
    hbar = cfg.hbar
    t1, t2, t_free = p["t1"], p["t2"], p["t_free"]
    rows = []
    for x, x0 in p["points"]:
        direct = free_quantum_kernel(x, x0, t1 + t2, hbar=hbar)
        conv = kernel_convolution(x, x0, t1, t2, hbar=hbar)
        rows.append([0, abs(conv - direct)])
    g = p["grid"]
    psi = _gaussian_1d(g, 0.0, p["sigma"])
    via_kernel = kernel_propagate(psi, t_free, hbar=hbar)
    via_fft = free_quantum_propagate(psi, t_free, hbar=hbar)
    l2 = float(
        np.sqrt(np.sum(np.abs(via_kernel.amplitudes - via_fft.amplitudes) ** 2) * g.dx)
    )
    rows.append([1, l2])
    pg = PhaseGrid(g, p["p_grid"])
    blob = _gaussian_phase(pg, 0.0, 0.5, p["sigma"], 0.3)
    a = free_kvn_propagate(blob, t_free)
    b = kvn_step(blob, koopman_generator(pg, lambda q: np.zeros_like(q)), t_free)
    rows.append([2, float(np.max(np.abs(a.amplitudes - b.amplitudes)))])
    out.table("kernelcheck", ["check", "residual"], ["0group_1quad_2shear", "mixed"], rows)
    for check, residual in rows:
        name, bound = KERNEL_BOUNDS[check]
        if not residual < bound:
            raise PhysicsError(f"kernelcheck {name} residual {residual:.3e} is not below {bound:g}")
    return {"max_residual": float(max(r[1] for r in rows))}


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

#: Each experiment's summary lines, filled from its runner's results.  The
#: benchmark's gates read these lines, so their text stays fixed.
SUMMARY = {
    "doubleslit": ["quantum fringes: {maxima} maxima, contrast {contrast:.3f}",
                   "classical additivity sup-residual: {additivity:.3e}"],
    "measure": ["{points} sweep points, closed forms verified to 1e-12"],
    "uncertainty": ["{satisfied}/{checks} uncertainty checks satisfied"],
    "ehrenfest": ["worst relative residual {worst_relative:.3e} across {rows} rows "
                  "from {evolutions} evolutions"],
    "wigner": ["marginal errors: position {q_error:.3e}, momentum {p_error:.3e}",
               "minimum value {minimum:.6f}"],
    "oscillator": ["invariant relative drift {invariant_drift:.3e}",
                   "phase-space centroid error vs characteristics {centroid_error:.3e}",
                   "phase-space steps {kvn_steps}, one per {stride} RK4 steps",
                   "Ermakov width residual {width_residual:.3e}, "
                   "Liouville area residual {area_residual:.3e}"],
    "aharonov-bohm": ["{distinct_records} distinct classical coefficient record(s)"],
    "kernelcheck": ["max residual {max_residual:.3e}"],
}


# ---------------------------------------------------------------------------
# entry points


def run(config_path: str | Path) -> dict:
    """Run one config: write its files, print its summary, return its results."""
    cfg = load_config(Path(config_path))
    verify(cfg)
    out = _Output(cfg)
    start = time.perf_counter()
    with np.errstate(all="ignore"):  # a non-finite result stops the run once, as exit 3
        results = RUNNERS[cfg.experiment](cfg, out)
    files = out.write()
    wall = time.perf_counter() - start
    print(f"{cfg.experiment}: config {cfg.hash}, wall time {wall:.2f} s")
    for template in SUMMARY[cfg.experiment]:
        print("  " + template.format(**results))
    for f in files:
        print(f"  wrote {f}")
    return results


def verify_cmd(config_path: str | Path) -> int:
    cfg = load_config(Path(config_path))
    verify(cfg)
    print(f"OK {cfg.experiment} (config {cfg.hash})")
    print(json.dumps(cfg.resolved, indent=2, sort_keys=True))
    return 0


def list_cmd() -> int:
    for name, spec in sorted(SPECS.items()):
        print(name)
        print("  defaults:", json.dumps({k: f.default for k, f in spec.items()}, sort_keys=True))
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
            run(args.config)
            return 0
        if args.command == "verify":
            return verify_cmd(args.config)
        return list_cmd()
    except ValueError as exc:  # json.JSONDecodeError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PhysicsError, ArithmeticError) as exc:  # ArithmeticError: a float left its range
        print(f"physics precondition violated: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except WorkerError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

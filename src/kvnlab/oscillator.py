"""Time-dependent harmonic oscillator: auxiliary-equation integration,
invariant bookkeeping, classical characteristics, and phase-space evolution
under the unit-mass generator p theta - k(t) q lambda.

The auxiliary equation

    rho'' + k(t) rho = C / rho^3

turns the time-dependent oscillator q'' + k(t) q = 0 into a conserved
quantity; the observable part of that invariant is

    I = (1/2) [ (q / rho)^2 + (rho' q - rho p)^2 ],

constant along coupled (rho, q, p) trajectories when C = 1 (the form above
carries no C, so the auxiliary solution must be run with C = 1; unit mass
likewise).  The auxiliary equation and the characteristics are integrated
by fixed-step RK4; the phase-space evolution takes fourth-order split steps
(Blanes and Moan's RKN splitting SRKN6b, see ``propagate``), so one of its
steps can span many RK4 steps at the same accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PhysicsError
from .operators import koopman_generator
from .propagation import propagate
from .states import Wavefunction

Stiffness = Callable[[float], float]


@dataclass(frozen=True)
class ErmakovState:
    rho: float
    rho_dot: float
    C: float = 1.0
    t: float = 0.0

    def __post_init__(self) -> None:
        if self.rho <= 0:
            raise ValueError("auxiliary amplitude rho must be positive")
        if self.C <= 0:
            raise ValueError("Ermakov constant C must be positive")


@dataclass
class ErmakovTrajectory:
    t: np.ndarray
    rho: np.ndarray
    rho_dot: np.ndarray
    C: float


def _rk4(rhs, x: float, y: float, t: float, dt: float) -> tuple[float, float]:
    """One classical RK4 step of the pair (x, y) under ``rhs(t, x, y) -> (x', y')``.

    The pair and the rates are Python floats: numpy scalars would give the
    same bits at several times the cost per operation."""
    h = 0.5 * dt
    a1, b1 = rhs(t, x, y)
    a2, b2 = rhs(t + h, x + h * a1, y + h * b1)
    a3, b3 = rhs(t + h, x + h * a2, y + h * b2)
    a4, b4 = rhs(t + dt, x + dt * a3, y + dt * b3)
    s = dt / 6.0
    return x + s * (a1 + 2 * a2 + 2 * a3 + a4), y + s * (b1 + 2 * b2 + 2 * b3 + b4)


def integrate_ermakov(
    k: Stiffness, init: ErmakovState, t_final: float, dt: float
) -> ErmakovTrajectory:
    """Integrate the auxiliary equation, aborting if rho approaches zero."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = int(round((t_final - init.t) / dt))
    C = init.C

    def rhs(t, rho, rho_dot):
        return rho_dot, C / rho**3 - float(k(t)) * rho

    ts = init.t + dt * np.arange(n + 1)
    times = ts.tolist()
    rho, rho_dot = [float(init.rho)], [float(init.rho_dot)]
    for i in range(n):
        x, y = _rk4(rhs, rho[i], rho_dot[i], times[i], dt)
        if x <= 10 * dt * abs(y) or x <= 1e-12:
            raise PhysicsError(f"auxiliary amplitude approaching zero at t={times[i + 1]:.6g}")
        rho.append(x)
        rho_dot.append(y)
    return ErmakovTrajectory(ts, np.array(rho), np.array(rho_dot), C)


@dataclass
class ClassicalTrajectory:
    t: np.ndarray
    q: np.ndarray
    p: np.ndarray


def solve_classical_tdho(
    k: Stiffness, q0: float, p0: float, t_final: float, dt: float
) -> ClassicalTrajectory:
    """Characteristics q' = p, p' = -k(t) q (unit mass) by fixed-step RK4."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = int(round(t_final / dt))
    ts = dt * np.arange(n + 1)

    def rhs(t, q, p):
        return p, -float(k(t)) * q

    times = ts.tolist()
    q, p = [float(q0)], [float(p0)]
    for i in range(n):
        x, y = _rk4(rhs, q[i], p[i], times[i], dt)
        q.append(x)
        p.append(y)
    return ClassicalTrajectory(ts, np.array(q), np.array(p))


def lewis_invariant_classical(q, p, rho, rho_dot) -> np.ndarray | float:
    """Observable part of the oscillator invariant (C = 1, unit mass)."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("rho must be positive")
    return 0.5 * ((np.asarray(q) / rho) ** 2 + (rho_dot * np.asarray(q) - rho * np.asarray(p)) ** 2)


@dataclass
class KvnOscillatorTrajectory:
    times: np.ndarray
    q_mean: np.ndarray
    p_mean: np.ndarray
    covariance: np.ndarray  # (n_samples, 2, 2) second central moments
    final_state: Wavefunction
    norms: np.ndarray


def _phase_moments(rho: np.ndarray, q: np.ndarray, p: np.ndarray):
    """Means and covariance of (q, p) under rho = |psi|^2 * cell area."""
    rho_q, rho_p = rho.sum(axis=1), rho.sum(axis=0)
    qm, pm = q @ rho_q, rho_p @ p
    dq, dp = q - qm, p - pm
    cqq, cpp, cqp = dq**2 @ rho_q, rho_p @ dp**2, dq @ rho @ dp
    return qm, pm, np.array([[cqq, cqp], [cqp, cpp]])


def kvn_tdho_evolve(
    psi0: Wavefunction, k: Stiffness, t_final: float, n_steps: int
) -> KvnOscillatorTrajectory:
    """Phase-space evolution in ``n_steps`` fourth-order steps, sampled
    before the first and after each.

    Unit mass; each step is a ``propagate`` SRKN6b step: seven force kicks,
    each the unit-stiffness generator's force part scaled by k at the time
    the conjugate drifts before it have reached, between six drifts.  Aborts
    like ``evolve`` when probability reaches the domain edge.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    q, p = psi0.grid.q.points, psi0.grid.p.points
    qs, ps = np.empty((2, n_steps + 1))
    covs = np.empty((n_steps + 1, 2, 2))

    def record(i, amp, rho, spec):
        qs[i], ps[i], covs[i] = _phase_moments(rho, q, p)

    G = koopman_generator(psi0.grid, lambda x: x)
    final, times, norms, _ = propagate(psi0, G, t_final / n_steps, n_steps, record,
                                       position_scale=k)
    return KvnOscillatorTrajectory(times, qs, ps, covs, final, norms)


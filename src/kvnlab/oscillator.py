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
steps can span many RK4 steps at the same accuracy.  ``kvn_tdho_residuals``
runs a Gaussian blob so, one step per at most ``KVN_MAX_STRIDE`` RK4 steps,
and measures it against both: the centroid against the characteristics, the
position variance against the auxiliary width (Pinney), the covariance
determinant against its start (Liouville).
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


def _rk4_series(rhs, x0: float, y0: float, t_final: float, dt: float, check=None):
    """Classical RK4 steps of the pair (x, y) under ``rhs(t, x, y) -> (x', y')``
    from t = 0 to ``t_final``: the sample times and both series, as arrays.
    ``check(t, x, y)``, if given, sees each new sample and may raise.

    The pair and the rates are Python floats: numpy scalars would give the
    same bits at several times the cost per operation."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    ts = dt * np.arange(int(round(t_final / dt)) + 1)
    times = ts.tolist()
    x, y = float(x0), float(y0)
    xs, ys = [x], [y]
    h, s = 0.5 * dt, dt / 6.0
    for t, t_next in zip(times, times[1:]):
        a1, b1 = rhs(t, x, y)
        a2, b2 = rhs(t + h, x + h * a1, y + h * b1)
        a3, b3 = rhs(t + h, x + h * a2, y + h * b2)
        a4, b4 = rhs(t + dt, x + dt * a3, y + dt * b3)
        x, y = x + s * (a1 + 2 * a2 + 2 * a3 + a4), y + s * (b1 + 2 * b2 + 2 * b3 + b4)
        if check is not None:
            check(t_next, x, y)
        xs.append(x)
        ys.append(y)
    return ts, np.array(xs), np.array(ys)


def integrate_ermakov(
    k: Stiffness, init: ErmakovState, t_final: float, dt: float
) -> ErmakovTrajectory:
    """Integrate the auxiliary equation, aborting if rho approaches zero."""
    C = init.C

    def rhs(t, rho, rho_dot):
        return rho_dot, C / rho**3 - float(k(t)) * rho

    def check(t, rho, rho_dot):
        if rho <= 10 * dt * abs(rho_dot) or rho <= 1e-12:
            raise PhysicsError(f"auxiliary amplitude approaching zero at t={t:.6g}")

    ts, rho, rho_dot = _rk4_series(rhs, init.rho, init.rho_dot, t_final, dt, check)
    return ErmakovTrajectory(ts, rho, rho_dot, C)


@dataclass
class ClassicalTrajectory:
    t: np.ndarray
    q: np.ndarray
    p: np.ndarray


def solve_classical_tdho(
    k: Stiffness, q0: float, p0: float, t_final: float, dt: float
) -> ClassicalTrajectory:
    """Characteristics q' = p, p' = -k(t) q (unit mass) by fixed-step RK4."""

    def rhs(t, q, p):
        return p, -float(k(t)) * q

    return ClassicalTrajectory(*_rk4_series(rhs, q0, p0, t_final, dt))


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

    def record(i, parts, rho, spec):
        qs[i], ps[i], covs[i] = _phase_moments(rho, q, p)

    G = koopman_generator(psi0.grid, lambda x: x)
    final, times, norms, _ = propagate(psi0, G, t_final / n_steps, n_steps, record,
                                       position_scale=k)
    return KvnOscillatorTrajectory(times, qs, ps, covs, final, norms)


#: The driven oscillator takes one fourth-order phase-space step per at most
#: this many RK4 steps.  At the default dt = 4e-3 the centroid error is
#: 7.0e-6 for a Strang step per RK4 step; SRKN6b steps at stride 50 (dt 0.2)
#: give 2.4e-7 with an Ermakov width residual of 1.1e-8, and stride 100
#: gives 3.9e-6.
KVN_MAX_STRIDE = 50


def kvn_tdho_residuals(psi0: Wavefunction, k: Stiffness, t_final: float, n_steps: int,
                       q0: float, p0: float, sigma: float):
    """The driven oscillator's checks: ``psi0``, a Gaussian centred at
    (q0, p0) with covariance sigma^2 I, evolved by ``kvn_tdho_evolve`` and
    compared with RK4 in ``n_steps`` steps.

    The phase-space run takes ceil(n_steps / KVN_MAX_STRIDE) steps; when the
    stride does not divide ``n_steps`` the comparisons take their RK4 samples
    from a run of that many whole strides.  Returns the characteristics, the
    auxiliary solution (rho = 1, rho' = 0, C = 1), the invariant along them,
    the phase-space run, and the residuals by name: the invariant's relative
    drift, the centroid's distance from the characteristics, the position
    variance's relative miss of sigma^2 rho^2 (Pinney) and the covariance
    determinant's of sigma^4 (Liouville).
    """

    def characteristics(n: int):
        dt = t_final / n
        aux = integrate_ermakov(k, ErmakovState(rho=1.0, rho_dot=0.0, C=1.0), t_final, dt)
        return aux, solve_classical_tdho(k, q0, p0, t_final, dt)

    m = KVN_MAX_STRIDE
    aux, cl = characteristics(n_steps)
    I = lewis_invariant_classical(cl.q, cl.p, aux.rho, aux.rho_dot)
    n_kvn = -(-n_steps // m)
    run = kvn_tdho_evolve(psi0, k, t_final, n_kvn)
    ref_aux, ref = (aux, cl) if n_kvn * m == n_steps else characteristics(n_kvn * m)
    centroid = max(np.max(np.abs(run.q_mean - ref.q[::m])), np.max(np.abs(run.p_mean - ref.p[::m])))
    # the blob starts at covariance sigma^2 I and the auxiliary solution at
    # rho = 1, rho' = 0, C = 1, so var q = sigma^2 rho^2 (Pinney) and the
    # covariance keeps its determinant sigma^4 (Liouville)
    s2, cov = sigma**2, run.covariance
    var_q = s2 * ref_aux.rho[::m] ** 2
    det = cov[:, 0, 0] * cov[:, 1, 1] - cov[:, 0, 1] * cov[:, 1, 0]
    return cl, aux, I, run, {
        "invariant_drift": float(np.max(np.abs(I - I[0])) / abs(I[0])),
        "centroid_error": float(centroid), "kvn_steps": n_kvn, "stride": m,
        "width_residual": float(np.max(np.abs(cov[:, 0, 0] - var_q)) / np.max(var_q)),
        "area_residual": float(np.max(np.abs(det / s2**2 - 1.0))),
    }

import numpy as np
import pytest

from conftest import gaussian_phase
import kvnlab.oscillator
from kvnlab.errors import BoundaryMassError, PhysicsError
from kvnlab.grid import Grid1D, PhaseGrid
from kvnlab.oscillator import (
    ErmakovState,
    integrate_ermakov,
    kvn_tdho_evolve,
    lewis_invariant_classical,
    solve_classical_tdho,
)


def wobble(t):
    return 1.0 + 0.1 * np.sin(t)


def ermakov_residual(traj, k):
    """Max interior defect of rho'' + k rho - C/rho^3 by centered differences."""
    dt = traj.t[1] - traj.t[0]
    rho = traj.rho
    dd = (rho[2:] - 2 * rho[1:-1] + rho[:-2]) / dt**2
    kt = np.array([k(t) for t in traj.t[1:-1]])
    resid = dd + kt * rho[1:-1] - traj.C / rho[1:-1] ** 3
    return float(np.max(np.abs(resid)))


def monodromy_matrix(k, t_final, dt):
    """Fundamental solution of the unit-mass flow d(q,p)/dt = (p, -k(t) q): its
    columns are the characteristics from (1, 0) and from (0, 1) at t_final."""
    starts = (1.0, 0.0), (0.0, 1.0)
    ends = [solve_classical_tdho(k, q0, p0, t_final, dt) for q0, p0 in starts]
    return np.array([[end.q[-1] for end in ends], [end.p[-1] for end in ends]])


# --- auxiliary equation ------------------------------------------------------


def test_ermakov_fixed_point_unit():
    traj = integrate_ermakov(lambda t: 1.0, ErmakovState(rho=1.0, rho_dot=0.0, C=1.0), 10.0, 1e-3)
    assert np.max(np.abs(traj.rho - 1.0)) < 1e-10
    assert np.max(np.abs(traj.rho_dot)) < 1e-10


def test_ermakov_fixed_point_scaled():
    C = 2.3
    rho0 = (C / 4.0) ** 0.25  # k rho = C / rho^3 at k = 4
    traj = integrate_ermakov(lambda t: 4.0, ErmakovState(rho=rho0, rho_dot=0.0, C=C), 10.0, 1e-3)
    assert np.max(np.abs(traj.rho - rho0)) < 1e-10


def test_ermakov_residual_small():
    traj = integrate_ermakov(wobble, ErmakovState(rho=1.0, rho_dot=0.0, C=1.0), 5.0, 1e-3)
    assert ermakov_residual(traj, wobble) < 1e-6


def test_ermakov_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ErmakovState(rho=-1.0, rho_dot=0.0)
    with pytest.raises(ValueError):
        ErmakovState(rho=1.0, rho_dot=0.0, C=0.0)
    with pytest.raises(ValueError):
        integrate_ermakov(lambda t: 1.0, ErmakovState(rho=1.0, rho_dot=0.0), 1.0, -0.1)


def test_ermakov_aborts_near_zero():
    # strong stiffness with free-fall initial conditions collapses rho
    with pytest.raises(PhysicsError):
        integrate_ermakov(
            lambda t: 100.0, ErmakovState(rho=1.0, rho_dot=-10.0, C=1e-8), 2.0, 1e-3
        )


# --- classical characteristics -----------------------------------------------


def test_classical_constant_k_cosine():
    traj = solve_classical_tdho(lambda t: 1.0, 1.0, 0.0, 2 * np.pi, 1e-3)
    assert abs(traj.q[-1] - np.cos(2 * np.pi)) < 1e-6
    assert abs(traj.q[-1] - 1.0) < 1e-6


def test_classical_energy_conserved_constant_k():
    traj = solve_classical_tdho(lambda t: 1.0, 1.0, 0.5, 20.0, 1e-3)
    E = traj.p**2 / 2 + traj.q**2 / 2
    assert np.max(np.abs(E - E[0])) < 1e-8


def test_classical_richardson_convergence():
    a = solve_classical_tdho(wobble, 1.0, 0.0, 10.0, 2e-3)
    b = solve_classical_tdho(wobble, 1.0, 0.0, 10.0, 1e-3)
    assert abs(a.q[-1] - b.q[-1]) < 1e-7


# --- invariant ---------------------------------------------------------------


def test_invariant_reduces_to_energy_for_static_rho():
    q, p = 0.7, -0.4
    assert lewis_invariant_classical(q, p, 1.0, 0.0) == pytest.approx(
        0.5 * (q**2 + p**2), abs=1e-14
    )


def test_invariant_scaling_quadratic():
    base = lewis_invariant_classical(0.7, -0.4, 1.2, 0.3)
    scaled = lewis_invariant_classical(2.1, -1.2, 1.2, 0.3)
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)


def test_invariant_conserved_along_coupled_trajectories():
    dt = 1e-3
    t_final = 20.0
    aux = integrate_ermakov(wobble, ErmakovState(rho=1.0, rho_dot=0.0, C=1.0), t_final, dt)
    cl = solve_classical_tdho(wobble, 1.0, 0.0, t_final, dt)
    I = lewis_invariant_classical(cl.q, cl.p, aux.rho, aux.rho_dot)
    drift = np.max(np.abs(I - I[0])) / abs(I[0])
    assert drift < 1e-6


def test_invariant_rejects_nonpositive_rho():
    with pytest.raises(ValueError):
        lewis_invariant_classical(1.0, 0.0, 0.0, 0.0)


def test_invariant_time_dependence_removed_in_transformed_frame():
    # (q / rho, rho' q - rho p) traces a circle: the transformed-frame motion
    # carries no time-dependent stiffness
    dt = 1e-3
    aux = integrate_ermakov(wobble, ErmakovState(rho=1.0, rho_dot=0.0, C=1.0), 20.0, dt)
    cl = solve_classical_tdho(wobble, 1.0, 0.0, 20.0, dt)
    u = cl.q / aux.rho
    v = aux.rho_dot * cl.q - aux.rho * cl.p
    r2 = u**2 + v**2
    assert np.max(np.abs(r2 - r2[0])) / r2[0] < 1e-6


# --- phase-space evolution ----------------------------------------------------


# the CLI's default: 2500 RK4 steps of 4e-3, one fourth-order phase-space
# step per STRIDE of them
N_STEPS, STRIDE = 2500, 50


@pytest.fixture(scope="module")
def kvn_run():
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))
    psi = gaussian_phase(pg, q0=1.0, p0=0.0, sigma_q=0.3, sigma_p=0.3)
    return kvn_tdho_evolve(psi, wobble, 10.0, N_STEPS // STRIDE)


def test_kvn_centroid_tracks_characteristics(kvn_run):
    cl = solve_classical_tdho(wobble, 1.0, 0.0, 10.0, 10.0 / N_STEPS)
    assert np.max(np.abs(kvn_run.q_mean - cl.q[::STRIDE])) < 1e-4
    assert np.max(np.abs(kvn_run.p_mean - cl.p[::STRIDE])) < 1e-4


def test_kvn_centroid_invariant_conserved(kvn_run):
    aux = integrate_ermakov(wobble, ErmakovState(rho=1.0, rho_dot=0.0, C=1.0), 10.0, 10.0 / N_STEPS)
    I = lewis_invariant_classical(kvn_run.q_mean, kvn_run.p_mean, aux.rho[::STRIDE],
                                  aux.rho_dot[::STRIDE])
    assert np.max(np.abs(I - I[0])) < 1e-4


def test_kvn_norm_conserved(kvn_run):
    assert abs(kvn_run.final_state.norm_squared() - 1.0) < 1e-10


def test_kvn_covariance_follows_monodromy(kvn_run):
    M = monodromy_matrix(wobble, 10.0, 10.0 / N_STEPS)
    expected = M @ kvn_run.covariance[0] @ M.T
    assert np.max(np.abs(kvn_run.covariance[-1] - expected)) < 1e-3


def test_kvn_centroid_error_is_fourth_order():
    # against RK4 at dt 1/160, whose own error (1e-10) is far below the
    # finest run's 1.5e-8; the errors fall 16x per halving, while a
    # second-order step (every kick at its step's midpoint, or plain Strang)
    # falls 4x
    pg = PhaseGrid(Grid1D(64, -8.0, 8.0), Grid1D(64, -8.0, 8.0))
    psi = gaussian_phase(pg, q0=1.0, p0=0.0, sigma_q=0.5, sigma_p=0.5)
    cl = solve_classical_tdho(wobble, 1.0, 0.0, 10.0, 10.0 / 1600)

    def error(n_steps):
        run = kvn_tdho_evolve(psi, wobble, 10.0, n_steps)
        m = 1600 // n_steps
        return max(np.max(np.abs(run.q_mean - cl.q[::m])), np.max(np.abs(run.p_mean - cl.p[::m])))

    errors = [error(n) for n in (25, 50, 100)]
    assert errors[0] / errors[1] >= 12 and errors[1] / errors[2] >= 12


def test_kvn_step_budget(call_counts):
    # per SRKN6b step: one exp over the q rows for each of its seven kicks
    # (six once the closing kick is reused to open the next step), no
    # generator rebuild, and 25 transforms (each of the six drifts takes
    # two, the seven kicks between and around them take two apiece but the
    # first, which opens from the carried spectrum)
    pg = PhaseGrid(Grid1D(32, -8.0, 8.0), Grid1D(32, -8.0, 8.0))
    psi = gaussian_phase(pg, q0=1.0, p0=0.0, sigma_q=0.6, sigma_p=0.6)
    call_counts.watch(kvnlab.oscillator, "koopman_generator")

    def counts(n_steps):
        call_counts.clear()
        kvn_tdho_evolve(psi, wobble, 0.04 * n_steps, n_steps)
        return dict(call_counts)

    short, long = counts(10), counts(20)
    per_step = {name: (long.get(name, 0) - short.get(name, 0)) / 10 for name in long}
    assert per_step["exp"] <= 7
    assert per_step["koopman_generator"] == 0
    assert 0 < sum(per_step.get(name, 0) for name in ("fft", "ifft", "rfft", "irfft")) <= 25


def test_kvn_run_aborts_when_mass_reaches_edge():
    # stiffness 4 swings p out to -4 at t = pi/4; the tail reaches the edge first
    pg = PhaseGrid(Grid1D(64, -4.0, 4.0), Grid1D(64, -4.0, 4.0))
    psi = gaussian_phase(pg, q0=2.0, p0=0.0, sigma_q=0.2, sigma_p=0.2)
    with pytest.raises(BoundaryMassError, match=r"at t=0\.\d+$"):
        kvn_tdho_evolve(psi, lambda t: 4.0, 1.0, 100)

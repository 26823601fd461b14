import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    assert_runs_its_parts_apart,
    full_parts,
    gaussian_1d,
    gaussian_phase,
    meshes,
)
from kvnlab.errors import BoundaryMassError, GridMismatchError
from kvnlab.grid import Grid1D, PhaseGrid, edge_mass, wavenumbers
from kvnlab.operators import hamiltonian, koopman_generator, unified_generator
from kvnlab.oscillator import kvn_tdho_evolve
from kvnlab.propagation import (
    _kicks,
    _theta_mean,
    evolve,
    evolve_many,
    kvn_step,
    propagate,
)
from kvnlab.states import Wavefunction


def density_l2(a, b, measure):
    return float(np.sqrt(np.sum((np.abs(a) ** 2 - np.abs(b) ** 2) ** 2) * measure))


def test_free_gaussian_variance_matches_closed_form():
    g = Grid1D(512, -32.0, 32.0)
    s = 1.0  # density std at t = 0
    psi = gaussian_1d(g, sigma=s)
    H = hamiltonian(g, lambda q: np.zeros_like(q), vprime=np.zeros_like)
    t = 1.0
    traj = evolve(psi, H, t, 10)
    rho = np.abs(traj.final_state.amplitudes) ** 2 * g.dx
    var = float(np.sum(g.points**2 * rho) - np.sum(g.points * rho) ** 2)
    expected = s**2 + t**2 / (4 * s**2)  # hbar = m = 1
    assert var == pytest.approx(expected, abs=1e-6)


def test_schrodinger_step_preserves_norm():
    g = Grid1D(256, -16.0, 16.0)
    psi = gaussian_1d(g)
    H = hamiltonian(g, lambda q: 0.5 * q**2, vprime=lambda q: q)
    _, _, norms, _ = propagate(psi, H, 1e-2, 50)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_richardson_halving_second_order():
    g = Grid1D(256, -16.0, 16.0)
    H = hamiltonian(g, lambda q: 0.5 * q**2, vprime=lambda q: q)
    x0, t = 1.0, 1.0
    psi = gaussian_1d(g, center=x0, sigma=np.sqrt(0.5))
    exact = x0 * np.cos(t)

    def q_error(dt):
        traj = evolve(psi, H, t, int(round(t / dt)))
        return abs(traj.q_mean[-1] - exact)

    ratio = q_error(0.02) / q_error(0.01)
    assert 3.5 < ratio < 4.5


def test_coherent_state_revival():
    g = Grid1D(256, -16.0, 16.0)
    H = hamiltonian(g, lambda q: 0.5 * q**2, vprime=lambda q: q)
    psi = gaussian_1d(g, center=1.5, sigma=np.sqrt(0.5))
    period = 2 * np.pi
    traj = evolve(psi, H, period, 6300)
    assert density_l2(traj.final_state.amplitudes, psi.amplitudes, g.dx) < 1e-4


def test_kvn_step_free_is_exact_shear():
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(64, -2.0, 2.0))
    sq, sp = 0.8, 0.3
    psi = gaussian_phase(pg, sigma_q=sq, sigma_p=sp)
    G = koopman_generator(pg, lambda q: np.zeros_like(q))
    dt = 0.7
    out = kvn_step(psi, G, dt)
    Q, P = meshes(pg)
    target = np.exp(
        -((Q - P * dt) ** 2) / (4 * sq**2) - P**2 / (4 * sp**2)
    ).astype(complex)
    target = Wavefunction(pg, target).normalize()
    assert np.max(np.abs(out.amplitudes - target.amplitudes)) < 1e-8


def test_kvn_harmonic_density_returns_after_period():
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))
    psi = gaussian_phase(pg, q0=1.0, p0=0.0, sigma_q=0.6, sigma_p=0.6)
    G = koopman_generator(pg, lambda q: q)
    traj = evolve(psi, G, 2 * np.pi, 2000)
    assert density_l2(traj.final_state.amplitudes, psi.amplitudes, pg.cell_area) < 1e-4


def test_kvn_norm_drift_many_steps():
    pg = PhaseGrid(Grid1D(64, -8.0, 8.0), Grid1D(64, -8.0, 8.0))
    psi = gaussian_phase(pg, sigma_q=0.8, sigma_p=0.8)
    G = koopman_generator(pg, lambda q: np.zeros_like(q))
    _, _, norms, _ = propagate(psi, G, 1e-3, 10_000, boundary_limit=np.inf)
    assert len(norms) == 10_001
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_evolve_zero_time_is_identity():
    g = Grid1D(256, -16.0, 16.0)
    psi = gaussian_1d(g)
    H = hamiltonian(g, lambda q: 0.5 * q**2, vprime=lambda q: q)
    traj = evolve(psi, H, 0.0, 1)
    np.testing.assert_allclose(traj.final_state.amplitudes, psi.amplitudes, atol=1e-14)


def test_evolve_group_product():
    g = Grid1D(256, -16.0, 16.0)
    psi = gaussian_1d(g, center=0.5, sigma=np.sqrt(0.5))
    H = hamiltonian(g, lambda q: 0.5 * q**2, vprime=lambda q: q)
    first = evolve(psi, H, 0.3, 300)
    second = evolve(first.final_state, H, 0.5, 500)
    direct = evolve(psi, H, 0.8, 800)
    diff = second.final_state.amplitudes - direct.final_state.amplitudes
    assert np.sqrt(np.sum(np.abs(diff) ** 2) * g.dx) < 1e-9


def test_free_particle_momentum_conserved():
    g = Grid1D(512, -32.0, 32.0)
    k0 = 2 * np.pi / g.length * 32
    psi = gaussian_1d(g, k0=k0)
    H = hamiltonian(g, lambda q: np.zeros_like(q), vprime=np.zeros_like)
    traj = evolve(psi, H, 1.0, 100)
    assert np.max(np.abs(traj.p_mean - traj.p_mean[0])) < 1e-10


def test_check_unitarity_quantum_harmonic():
    g = Grid1D(256, -16.0, 16.0)
    psi = gaussian_1d(g, center=1.0, sigma=np.sqrt(0.5))
    H = hamiltonian(g, lambda q: 0.5 * q**2, vprime=lambda q: q)
    mid, _, forward, _ = propagate(psi, H, 1e-3, 100, boundary_limit=np.inf)
    end, _, backward, _ = propagate(mid, H, -1e-3, 100, boundary_limit=np.inf)
    assert np.max(np.abs(np.concatenate([forward, backward]) - 1.0)) < 1e-12
    assert np.sqrt(np.sum(np.abs(end.amplitudes - psi.amplitudes) ** 2) * g.dx) < 1e-8


def test_check_unitarity_kvn_free():
    pg = PhaseGrid(Grid1D(64, -8.0, 8.0), Grid1D(64, -4.0, 4.0))
    psi = gaussian_phase(pg, sigma_q=0.8, sigma_p=0.5)
    G = koopman_generator(pg, lambda q: np.zeros_like(q))
    mid, _, forward, _ = propagate(psi, G, 0.05, 200, boundary_limit=np.inf)
    end, _, backward, _ = propagate(mid, G, -0.05, 200, boundary_limit=np.inf)
    assert np.max(np.abs(np.concatenate([forward, backward]) - 1.0)) < 1e-12
    diff = end.amplitudes - psi.amplitudes
    assert np.sqrt(np.sum(np.abs(diff) ** 2) * pg.cell_area) < 1e-10


def test_boundary_mass_monitor_triggers():
    g = Grid1D(128, -8.0, 8.0)
    k0 = 2 * np.pi / g.length * 40  # fast packet, reaches the edge quickly
    psi = gaussian_1d(g, center=4.0, sigma=0.5, k0=k0)
    assert edge_mass(np.abs(psi.amplitudes) ** 2 * g.dx) < 1e-8  # clean start
    H = hamiltonian(g, lambda q: np.zeros_like(q), vprime=np.zeros_like)
    with pytest.raises(BoundaryMassError, match=r"at t=") as caught:
        evolve(psi, H, 2.0, 200)
    assert float(str(caught.value).rsplit("t=", 1)[1]) > 0


def test_nan_state_stops_the_run_at_t0_whatever_the_limit():
    g = Grid1D(64, -8.0, 8.0)
    psi = Wavefunction(g, np.full(g.n, np.nan, dtype=complex))
    H = hamiltonian(g, lambda q: 0.5 * q**2, vprime=lambda q: q)
    for limit in (1e-8, np.inf):
        with pytest.raises(BoundaryMassError, match=r"at t=0$"):
            propagate(psi, H, 1e-2, 5, boundary_limit=limit)
    # kvn_step bounds no edge mass but stops a NaN state all the same
    pg = PhaseGrid(g, g)
    blob = Wavefunction(pg, np.full(pg.shape, np.nan, dtype=complex))
    with pytest.raises(BoundaryMassError, match=r"at t=0$"):
        kvn_step(blob, koopman_generator(pg, lambda q: q), 1e-2)


def test_amplitude_phase_decoupling_kvn():
    # resolution must track the quartic shear: filaments stretch like 3 q^2 t
    pg = PhaseGrid(Grid1D(256, -8.0, 8.0), Grid1D(256, -8.0, 8.0))
    phase = lambda Q, P: 0.5 * np.sin(2 * np.pi * Q / 16 * 2) * np.cos(2 * np.pi * P / 16 * 2)
    psi = gaussian_phase(pg, q0=0.8, sigma_q=0.4, sigma_p=0.4, phase=phase)
    amp_only = gaussian_phase(pg, q0=0.8, sigma_q=0.4, sigma_p=0.4)
    G = koopman_generator(pg, lambda q: q**3)
    a = evolve(psi, G, 0.2, 200).final_state
    b = evolve(amp_only, G, 0.2, 200).final_state
    assert np.max(np.abs(np.abs(a.amplitudes) - np.abs(b.amplitudes))) < 1e-8


def test_amplitude_phase_coupling_quantum():
    # documented negative control: the quantum propagator mixes R and S
    g = Grid1D(256, -16.0, 16.0)
    k0 = 2 * np.pi / g.length * 8
    psi = gaussian_1d(g, k0=k0)
    amp_only = gaussian_1d(g)
    H = hamiltonian(g, lambda q: q**4 / 4, vprime=lambda q: q**3)
    a = evolve(psi, H, 0.5, 500).final_state
    b = evolve(amp_only, H, 0.5, 500).final_state
    assert np.max(np.abs(np.abs(a.amplitudes) - np.abs(b.amplitudes))) > 1e-3


def test_liouville_pde_residual():
    # evolved |psi|^2 satisfies d rho/dt + (p/m) d rho/dq - V'(q) d rho/dp = 0;
    # the check is limited by the 4th-order space stencils, ~5e-6 at this dx
    pg = PhaseGrid(Grid1D(256, -8.0, 8.0), Grid1D(256, -8.0, 8.0))
    psi = gaussian_phase(pg, q0=0.8, sigma_q=0.7, sigma_p=0.7)
    G = koopman_generator(pg, lambda q: q)
    dt = 1e-3
    s1 = evolve(psi, G, 0.2, 200).final_state
    s0 = evolve(psi, G, 0.2 - dt, 199).final_state
    s2 = evolve(psi, G, 0.2 + dt, 201).final_state
    rho0, rho1, rho2 = (np.abs(s.amplitudes) ** 2 for s in (s0, s1, s2))
    drho_dt = (rho2 - rho0) / (2 * dt)

    def d4(f, axis, h):
        return (
            -np.roll(f, -2, axis) + 8 * np.roll(f, -1, axis)
            - 8 * np.roll(f, 1, axis) + np.roll(f, 2, axis)
        ) / (12 * h)

    Q, P = meshes(pg)
    resid = drho_dt + P * d4(rho1, 0, pg.q.dx) - Q * d4(rho1, 1, pg.p.dx)
    interior = resid[16:-16, 16:-16]
    assert np.max(np.abs(interior)) < 1e-5


def test_quartic_koopman_density_is_pulled_back_initial_density():
    # Liouville: rho(z, t) = rho0(Phi_-t z), Phi the flow of q' = p, p' = -q^3.
    # The reference pulls every grid point back by vectorised RK4 and reads
    # the analytic Gaussian there, with no FFT; the miss is second order in
    # the Strang dt (5.3e-6 at 200 steps) and a 1% force error gives 6.7e-3.
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))
    q0, sq, sp, t = 0.8, 0.35, 0.7, 1.0
    blob = gaussian_phase(pg, q0=q0, sigma_q=sq, sigma_p=sp)
    rho = np.abs(evolve(blob, koopman_generator(pg, lambda q: q**3), t, 200)
                 .final_state.amplitudes) ** 2

    def field(z):
        return np.stack([z[1], -z[0] ** 3])

    Q, P = meshes(pg)
    z, h = np.stack(np.broadcast_arrays(Q, P)), -t / 200
    for _ in range(200):
        k1 = field(z)
        k2 = field(z + 0.5 * h * k1)
        k3 = field(z + 0.5 * h * k2)
        k4 = field(z + h * k3)
        z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    ref = np.exp(-((z[0] - q0) ** 2) / (2 * sq**2) - z[1] ** 2 / (2 * sp**2))
    rho, ref = rho / rho.sum(), ref / ref.sum()
    assert np.max(np.abs(rho - ref)) / ref.max() < 1e-5


def test_unified_kappa_changes_quartic_evolution():
    # kappa = 1 and kappa = 0 disagree measurably on an anharmonic potential
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))
    blob = gaussian_phase(pg, q0=0.8, sigma_q=0.35, sigma_p=0.7)
    V, Vp = (lambda q: 0.25 * q**4), (lambda q: q**3)
    u0 = evolve(blob, unified_generator(pg, V, 0.0, vprime=Vp), 1.0, 1000).final_state
    u1 = evolve(blob, unified_generator(pg, V, 1.0, vprime=Vp), 1.0, 1000).final_state
    l2 = np.sqrt(
        np.sum((np.abs(u0.amplitudes) ** 2 - np.abs(u1.amplitudes) ** 2) ** 2)
        * pg.cell_area
    )
    assert l2 > 1e-3


@pytest.mark.parametrize("hbar", [1.0, 0.5, 2.0, 0.3])
def test_unified_kappa_0_is_koopman(hbar):
    # at kappa = 0 the interpolating generator is hbar K and a step divides it
    # by hbar, so it takes the Koopman steps: bit for bit where the scaling is
    # exact (hbar a power of two), within rounding otherwise.  Ehrenfest runs
    # this evolution once for its Koopman and its unified kappa = 0 rows.
    pg = PhaseGrid(Grid1D(64, -8.0, 8.0), Grid1D(64, -8.0, 8.0))
    V, Vp = POTENTIALS["quartic"]
    blob = gaussian_phase(pg, q0=0.8, sigma_q=0.35, sigma_p=0.7)
    koopman = evolve(blob, koopman_generator(pg, Vp), 1.0, 1000)
    unified = evolve(blob, unified_generator(pg, V, 0.0, hbar=hbar, vprime=Vp), 1.0, 1000)
    means = lambda traj: np.array([traj.q_mean, traj.p_mean, traj.vprime_mean])
    if hbar == 0.3:
        assert np.max(np.abs(means(unified) - means(koopman))) <= 1e-13
    else:
        assert means(unified).tobytes() == means(koopman).tobytes()
        assert unified.final_state.amplitudes.tobytes() == koopman.final_state.amplitudes.tobytes()


# --- the engine against a plain Strang loop ----------------------------------


def reference_step(amp, G, dt, real=False):
    """One Strang step, every factor exponentiated and transformed afresh; with
    ``real``, the real part is taken after each inverse transform."""
    conjugate_part, position_part = full_parts(G)
    half_pos = np.exp(-0.5j * position_part * dt / G.hbar)
    full_conj = np.exp(-1j * conjugate_part * dt / G.hbar)

    def inverse(f, axis):
        out = np.fft.ifft(f, axis=axis)
        return np.real(out) if real else out

    def position_half(f):
        if isinstance(G.grid, Grid1D):
            return half_pos * f
        return inverse(half_pos * np.fft.fft(f, axis=1), 1)

    amp = position_half(amp)
    amp = inverse(full_conj * np.fft.fft(amp, axis=0), 0)
    return position_half(amp)


def reference_means(amp, G, grid):
    """<q>, <p>, <V'> computed from scratch (Bopp-shifted for kappa > 0)."""
    if isinstance(grid, Grid1D):
        rho = np.abs(amp) ** 2 * grid.dx
        w = np.abs(np.fft.fft(amp)) ** 2
        p_mean = np.sum(G.hbar * wavenumbers(grid) * w) / w.sum()
        return np.sum(grid.points * rho), p_mean, np.sum(G.potential_prime(grid.points) * rho)
    rho = np.abs(amp) ** 2 * grid.cell_area
    q, p = grid.q.points[:, None], grid.p.points[None, :]
    if G.kappa == 0.0:
        return np.sum(q * rho), np.sum(p * rho), np.sum(G.potential_prime(q) * rho)
    kq, kp = wavenumbers(grid.q)[:, None], wavenumbers(grid.p)[None, :]
    w_lam = np.abs(np.fft.fft(amp, axis=1)) ** 2
    w_th = np.abs(np.fft.fft(amp, axis=0)) ** 2
    s = 0.5 * G.hbar * G.kappa
    return (
        np.sum(q * rho) - s * np.sum(kp * w_lam) / w_lam.sum(),
        np.sum(p * rho) + s * np.sum(kq * w_th) / w_th.sum(),
        np.sum(G.potential_prime(q - s * kp) * w_lam) / w_lam.sum(),
    )


POTENTIALS = {
    "harmonic": (lambda q: 0.5 * q**2, lambda q: q),
    "quartic": (lambda q: 0.25 * q**4, lambda q: q**3),
}
WOBBLE = lambda q, p: 0.3 * np.sin(2 * np.pi * q / 16) * np.cos(2 * np.pi * p / 16)


def engine_cases():
    """(id, grid, generator, phase of the initial state); phase-space cases
    run a real blob (phase None) and a complex one."""
    g = Grid1D(256, -16.0, 16.0)
    pg = PhaseGrid(Grid1D(64, -8.0, 8.0), Grid1D(64, -8.0, 8.0))
    for name, (V, Vp) in POTENTIALS.items():
        yield f"quantum-{name}", g, hamiltonian(g, V, vprime=Vp), None
        phase_cases = [(f"koopman-{name}", koopman_generator(pg, Vp))]
        for kappa in (0.0, 0.5, 1.0):
            phase_cases.append(
                (f"unified-{kappa}-{name}", unified_generator(pg, V, kappa, vprime=Vp))
            )
        for case_id, G in phase_cases:
            yield case_id, pg, G, None
            yield f"{case_id}-complex", pg, G, WOBBLE


@pytest.mark.parametrize("case", list(engine_cases()), ids=lambda c: c[0])
def test_evolve_matches_reference_strang_loop(case):
    _, grid, G, phase = case
    if isinstance(grid, Grid1D):
        psi = gaussian_1d(grid, center=0.8, sigma=np.sqrt(0.5))
    else:
        psi = gaussian_phase(grid, q0=0.8, sigma_q=0.35, sigma_p=0.7, phase=phase)
    # a phase-space state steps as its real and imaginary parts, each with
    # the real part taken after every inverse transform; a 1-D one whole
    real = isinstance(grid, PhaseGrid)
    parts = [psi.amplitudes.real, psi.amplitudes.imag] if real else [psi.amplitudes]
    n_steps, dt = 200, 1e-3
    traj = evolve(psi, G, n_steps * dt, n_steps)
    amp = psi.amplitudes
    for i in range(n_steps + 1):
        if i:
            parts = [reference_step(part, G, dt, real) for part in parts]
            amp = parts[0] + 1j * parts[1] if real else parts[0]
        expected = reference_means(amp, G, grid)
        got = (traj.q_mean[i], traj.p_mean[i], traj.vprime_mean[i])
        assert np.max(np.abs(np.subtract(got, expected))) <= 1e-12
        assert abs(traj.norms[i] - np.sum(np.abs(amp) ** 2) * psi.measure) <= 1e-12
    assert np.max(np.abs(traj.final_state.amplitudes - amp)) <= 1e-12
    assert traj.final_state.time == pytest.approx(n_steps * dt, abs=1e-12)


@pytest.mark.parametrize("phase", [None, WOBBLE], ids=["real", "complex"])
def test_observers_of_one_run_record_as_if_alone(phase):
    # the reductions a sample shares between the kappas it reads give each
    # kappa the bits its own single-kappa record gives
    pg = PhaseGrid(Grid1D(32, -8.0, 8.0), Grid1D(32, -8.0, 8.0))
    V, Vp = POTENTIALS["quartic"]
    blob = gaussian_phase(pg, q0=0.8, sigma_q=0.7, sigma_p=0.7, phase=phase)
    G = unified_generator(pg, V, 0.5, hbar=2.0, vprime=Vp)
    kappas = (0.0, 0.5, 1.0)
    shared = evolve_many(blob, G, kappas, 0.02, 20)
    for kappa, traj in zip(kappas, shared):
        alone = evolve_many(blob, G, (kappa,), 0.02, 20)[0]
        for name in ("times", "q_mean", "p_mean", "vprime_mean", "norms", "boundary_mass"):
            assert getattr(traj, name).tobytes() == getattr(alone, name).tobytes(), name
        assert traj.final_state.amplitudes.tobytes() == alone.final_state.amplitudes.tobytes()


def test_shared_record_adds_no_transform(call_counts):
    # two Bopp kappas read the spectrum the Koopman step already holds
    pg = PhaseGrid(Grid1D(32, -8.0, 8.0), Grid1D(32, -8.0, 8.0))
    blob = gaussian_phase(pg, q0=0.8, sigma_q=0.7, sigma_p=0.7)
    K = koopman_generator(pg, POTENTIALS["harmonic"][1])

    def transforms(n_steps):
        call_counts.clear()
        evolve_many(blob, K, (0.0, 0.5, 1.0), 1e-3 * n_steps, n_steps)
        return sum(call_counts[name] for name in ("fft", "ifft", "rfft", "irfft"))

    assert 0 < (transforms(20) - transforms(10)) / 10 <= 5


#: SRKN6b (Blanes & Moan 2002): drift weights a1 a2 a3 a3 a2 a1 and kick
#: weights b1 b2 b3 b4 b3 b2 b1.
A = [0.245298957184271, 0.604872665711080]
A = A + [0.5 - sum(A)]
B = [0.0829844064174052, 0.396309801498368, -0.0390563049223486]
B = B + [1.0 - 2.0 * sum(B)]
DRIFTS, KICKS = A + A[::-1], B + B[-2::-1]


def kick_times(t, dt):
    """Where SRKN6b's kicks of the step from t are taken: after the drifts
    before them, the last at t + dt."""
    return [t + sum(DRIFTS[:j]) * dt for j in range(6)] + [t + dt]


def srkn_reference_step(amp, pg, k, t, dt):
    """One SRKN6b step by FFTs of the full field, with the Koopman generator
    rebuilt at each kick's stiffness, on the real and imaginary parts of
    ``amp`` apart, the real part taken after each inverse transform."""
    drift_part = full_parts(koopman_generator(pg, lambda q: q))[0]
    parts = [amp.real, amp.imag]
    for j, t_kick in enumerate(kick_times(t, dt)):
        G = koopman_generator(pg, lambda q: k(t_kick) * q)
        kick = np.exp(-1j * KICKS[j] * dt * full_parts(G)[1])
        parts = [np.fft.ifft(kick * np.fft.fft(a, axis=1), axis=1).real for a in parts]
        if j < 6:
            drift = np.exp(-1j * DRIFTS[j] * dt * drift_part)
            parts = [np.fft.ifft(drift * np.fft.fft(a, axis=0), axis=0).real for a in parts]
    return parts[0] + 1j * parts[1]


def test_tdho_evolve_matches_reference_kick_drift_loop():
    # the reference takes each step's seven kicks and six drifts as separate
    # full-field shears of the real and imaginary parts, the generator
    # rebuilt at each kick's stiffness; the real blob and the phased one
    # both step as real parts.
    pg = PhaseGrid(Grid1D(64, -8.0, 8.0), Grid1D(64, -8.0, 8.0))
    k = lambda t: 1.0 + 0.1 * np.sin(t)
    n_steps, dt = 20, 0.2
    Q, P = meshes(pg)
    for phase in (None, WOBBLE):
        psi = gaussian_phase(pg, q0=1.0, sigma_q=0.5, sigma_p=0.5, phase=phase)
        run = kvn_tdho_evolve(psi, k, n_steps * dt, n_steps)
        amp, t = psi.amplitudes, 0.0
        for i in range(n_steps + 1):
            if i:
                amp, t = srkn_reference_step(amp, pg, k, t, dt), t + dt
            rho = np.abs(amp) ** 2 * pg.cell_area
            assert abs(run.times[i] - t) <= 1e-12
            assert abs(run.q_mean[i] - np.sum(Q * rho)) <= 1e-12
            assert abs(run.p_mean[i] - np.sum(P * rho)) <= 1e-12
            assert abs(run.norms[i] - np.sum(rho)) <= 1e-12
        assert np.max(np.abs(run.final_state.amplitudes - amp)) <= 1e-12


def test_strang_order_quartic_kappa_half():
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))
    blob = gaussian_phase(pg, q0=0.8, sigma_q=0.35, sigma_p=0.7)
    V, Vp = POTENTIALS["quartic"]
    G = unified_generator(pg, V, 0.5, vprime=Vp)
    t, n = 0.5, 25
    reference = evolve(blob, G, t, 8 * n).final_state.amplitudes

    def error(n_steps):
        diff = evolve(blob, G, t, n_steps).final_state.amplitudes - reference
        return np.sqrt(np.sum(np.abs(diff) ** 2) * pg.cell_area)

    ratio = error(n) / error(2 * n)
    assert 3.5 < ratio < 4.5


@pytest.mark.parametrize("kappa, budget", [(0.0, 5), (0.5, 5)])
def test_phase_step_fft_budget(call_counts, kappa, budget):
    # per-step cost is the difference of two run lengths, so one-time
    # transforms of the initial state do not count against it
    pg = PhaseGrid(Grid1D(32, -8.0, 8.0), Grid1D(32, -8.0, 8.0))
    blob = gaussian_phase(pg, q0=0.8, sigma_q=0.7, sigma_p=0.7)
    V, Vp = POTENTIALS["quartic"]
    G = unified_generator(pg, V, kappa, vprime=Vp)

    def transforms(n_steps):
        call_counts.clear()
        evolve(blob, G, 1e-3 * n_steps, n_steps)
        return sum(call_counts[name] for name in ("fft", "ifft", "rfft", "irfft"))

    assert 0 < (transforms(20) - transforms(10)) / 10 <= budget
    assert call_counts["fft"] + call_counts["ifft"] == 0  # the real blob runs on rfft/irfft


@pytest.mark.parametrize(
    "variant",
    ["real", "complex-state", "asymmetric-conjugate-part", "asymmetric-position-part"],
)
def test_real_field_path_selection(call_counts, variant):
    # every phase-space state runs on rfft/irfft, a complex one as its two
    # real parts; a part that is nonzero on bin 0, where an odd part is zero,
    # is not a real operator's and is refused, named, when the generator is built
    pg = PhaseGrid(Grid1D(32, -8.0, 8.0), Grid1D(32, -8.0, 8.0))
    G = koopman_generator(pg, lambda q: q)
    if variant.startswith("asymmetric"):
        name = variant.removeprefix("asymmetric-").replace("-", "_")
        call_counts.clear()
        with pytest.raises(ValueError, match=f"the koopman generator is not a real operator: "
                                             f"its {name} is nonzero on bin 0"):
            replace(G, **{name: getattr(G, name) + 0.1})
        assert not call_counts
        return
    psi = gaussian_phase(pg, q0=0.8, sigma_q=0.7, sigma_p=0.7,
                         phase=WOBBLE if variant == "complex-state" else None)
    call_counts.clear()
    final = propagate(psi, G, 1e-2, 1)[0]
    # per part: the opening rfft along p, then irfft along p, the drift's
    # rfft/irfft pair along q, rfft along p, and the closing irfft
    parts = 2 if variant == "complex-state" else 1
    assert call_counts["rfft"] == call_counts["irfft"] == 3 * parts
    assert call_counts["fft"] == call_counts["ifft"] == 0
    # a real state stays real: only the phased one is joined into complex
    assert final.amplitudes.dtype == (np.complex128 if variant == "complex-state" else np.float64)


def test_nan_generator_stops_the_run_at_the_edge_check():
    # a NaN part, on bin 0 too, is let through when the generator is built,
    # so that the NaN state it makes stops at the edge check (exit 3, not 2)
    pg = PhaseGrid(Grid1D(32, -8.0, 8.0), Grid1D(32, -8.0, 8.0))
    G = koopman_generator(pg, lambda q: q)
    G = replace(G, position_part=np.where(meshes(pg)[0] > 7.0, np.nan, G.position_part))
    psi = gaussian_phase(pg, q0=0.8, sigma_q=0.7, sigma_p=0.7)
    with pytest.raises(BoundaryMassError, match="boundary mass nan"):
        propagate(psi, G, 1e-2, 1)


@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_complex_evolve_is_its_parts_evolved(call_counts, kappa):
    # the generators are real operators, so a complex state's evolution is
    # that of its real part plus i times that of its imaginary part, to the
    # bit; the record of the Bopp means takes no complex transform either
    pg = PhaseGrid(Grid1D(64, -8.0, 8.0), Grid1D(64, -8.0, 8.0))
    V, Vp = POTENTIALS["quartic"]
    G = unified_generator(pg, V, kappa, vprime=Vp)
    psi = gaussian_phase(pg, q0=0.8, sigma_q=0.35, sigma_p=0.7, phase=WOBBLE)
    call_counts.clear()
    assert_runs_its_parts_apart(lambda s: evolve(s, G, 0.1, 20).final_state, psi)
    assert call_counts["fft"] == call_counts["ifft"] == 0 < call_counts["rfft"]


@pytest.mark.parametrize("kappa", [None, 1.0], ids=["koopman", "unified-1"])
def test_vanishing_imaginary_part_changes_no_density(kappa):
    # ehrenfest's blob and the same blob times (1 + 1e-300 i), 100 quartic
    # steps of its dt to t = 0.1 at 128^2: the imaginary part, subnormal, is
    # a second part that the step never mixes into the first
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))
    V, Vp = POTENTIALS["quartic"]
    G = koopman_generator(pg, Vp) if kappa is None else unified_generator(pg, V, kappa, vprime=Vp)
    blob = gaussian_phase(pg, q0=0.8, sigma_q=0.35, sigma_p=0.7)
    tiny = Wavefunction(pg, blob.amplitudes * (1 + 1e-300j))
    assert tiny.amplitudes.imag.any()
    a, b = (evolve(psi, G, 0.1, 100).final_state.amplitudes for psi in (blob, tiny))
    assert np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2)) == 0.0
    assert np.max(np.abs(b.imag)) < 1e-290


def test_evolve_records_boundary_mass():
    g = Grid1D(128, -8.0, 8.0)
    psi = gaussian_1d(g, center=3.0, sigma=0.5, k0=2 * np.pi / g.length * 10)
    H = hamiltonian(g, lambda q: np.zeros_like(q), vprime=np.zeros_like)
    final, _, _, edges = propagate(psi, H, 0.3 / 30, 30, boundary_limit=np.inf)
    rho = np.abs(final.amplitudes) ** 2 * g.dx
    assert edges[-1] == pytest.approx(rho[:4].sum() + rho[-4:].sum(), rel=1e-12)
    assert edges[-1] > edges[0]


def test_propagate_refuses_a_state_on_another_grid(call_counts):
    # a quartic flow built on a grid twice as wide, of the same size, would
    # step the state with the wrong physics and no error (<q> at t = 1 ends
    # at -0.398, against -0.0070 on the state's own grid); a harmonic one
    # hides the fault, the two grids' scalings cancelling
    psi = gaussian_1d(Grid1D(256, -8.0, 8.0), center=1.0)
    H = hamiltonian(Grid1D(256, -16.0, 16.0), lambda q: q**4 / 4, vprime=lambda q: q**3)
    pg = PhaseGrid(Grid1D(32, -8.0, 8.0), Grid1D(32, -8.0, 8.0))
    blob = gaussian_phase(pg, sigma_q=0.7, sigma_p=0.7)
    K = koopman_generator(PhaseGrid(pg.q, Grid1D(32, -4.0, 4.0)), lambda q: q**3)
    runs = (lambda: evolve(psi, H, 1.0, 1000), lambda: propagate(psi, H, 1e-3, 1),
            lambda: evolve_many(blob, K, (0.0,), 1.0, 10), lambda: kvn_step(blob, K, 1e-2))
    for run in runs:
        call_counts.clear()
        with pytest.raises(GridMismatchError):
            run()
        assert not call_counts  # refused before any factor is built


def _half_position_arg(G, dt):
    return 0.5 * (-1j * dt / G.hbar) * G.position_part


def test_real_path_position_factor_is_head_of_exp():
    # the driven oscillator's generator: the seven kicks built from one
    # lambda column are the lambda columns 0..n/2 of exp(c * arg), with
    # c = 2 b_j k_j and k_j the scale at kick j's time, at the step times
    # ``propagate`` accumulates (a scale linear in t shows a time off by one ulp)
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))
    G, dt = koopman_generator(pg, lambda q: q), 10.0 / 250
    arg = _half_position_arg(G, dt)
    scales = [lambda t: 1.0 + 0.1 * np.sin(t), lambda t: t]
    scales += [lambda t, s=s: s for s in (0.0, -1.3, 40.0)]
    for scale in scales:
        kicks, t = _kicks(arg, dt, scale, pg), 0.0
        for i in range(250):
            if i % 5 == 0:
                coeffs = [2 * b * scale(s) for b, s in zip(KICKS, kick_times(t, dt))]
                heads = tuple(kicks(t))
                assert len(heads) == 7
                for c, head in zip(coeffs, heads):
                    assert head.shape == (128, 65)
                    assert np.max(np.abs(head - np.exp(c * arg))) <= 1e-13
            t = t + dt


def test_position_part_not_linear_in_lambda_refuses_scale(call_counts):
    pg = PhaseGrid(Grid1D(32, -8.0, 8.0), Grid1D(32, -8.0, 8.0))
    V, Vp = POTENTIALS["quartic"]
    G = koopman_generator(pg, lambda q: q)
    psi = gaussian_phase(pg, q0=0.8, sigma_q=0.7, sigma_p=0.7)
    # an offset is nonzero on lambda bin 0: no real operator's part, refused when built
    with pytest.raises(ValueError, match="the koopman generator is not a real operator"):
        replace(G, position_part=G.position_part + 0.1)
    cubic = replace(G, position_part=G.position_part * (1 + 1e-9 * G.position_part**2))
    unified, quantum = unified_generator(pg, V, 0.5, vprime=Vp), hamiltonian(pg.q, V, vprime=Vp)
    for G in (cubic, unified, quantum):
        state = gaussian_1d(pg.q) if G is quantum else psi
        call_counts.clear()
        with pytest.raises(ValueError, match="linear in lambda"):
            propagate(state, G, 1e-2, 1, position_scale=lambda t: 1.05)
        assert not call_counts  # refused before any transform
    propagate(psi, unified_generator(pg, V, 0.0, vprime=Vp), 1e-2, 1,
              position_scale=lambda t: 1.05)


def test_phased_state_with_scale_steps_real_parts(call_counts, monkeypatch):
    pg = PhaseGrid(Grid1D(32, -8.0, 8.0), Grid1D(32, -8.0, 8.0))
    G, k = koopman_generator(pg, lambda q: q), lambda t: 1.05
    real = gaussian_phase(pg, q0=0.8, sigma_q=0.7, sigma_p=0.7)
    phased = gaussian_phase(pg, q0=0.8, sigma_q=0.7, sigma_p=0.7, phase=WOBBLE)
    sizes, exp = [], np.exp
    monkeypatch.setattr(np, "exp", lambda x, *a, **kw: sizes.append(np.size(x)) or exp(x, *a, **kw))
    for psi in (real, phased):
        sizes.clear()
        call_counts.clear()
        final = propagate(psi, G, 1e-2, 3, position_scale=k)[0]
        # the three distinct half-spectrum drifts, rows 0..n/2, then one exp
        # over the q rows per kick, the first step's seven and six in each
        # later one, whose opening kick is the last one's closing: the two
        # parts of the phased state share every factor
        assert sizes == [17 * 32] * 3 + [32] * (7 + 6 + 6)
        assert call_counts["fft"] == call_counts["ifft"] == 0
    assert_runs_its_parts_apart(lambda psi: propagate(psi, G, 1e-2, 3, position_scale=k)[0],
                                phased)
    reference = phased.amplitudes
    for i in range(3):  # the same steps with every factor exponentiated in full
        reference = srkn_reference_step(reference, pg, k, i * 1e-2, 1e-2)
    assert np.max(np.abs(final.amplitudes - reference)) < 1e-13


def test_driven_oscillator_leaves_threads_unchanged():
    pg = PhaseGrid(Grid1D(64, -4.0, 4.0), Grid1D(64, -4.0, 4.0))
    psi = gaussian_phase(pg, q0=2.0, sigma_q=0.2, sigma_p=0.2)
    before = threading.enumerate()
    with pytest.raises(BoundaryMassError):
        kvn_tdho_evolve(psi, lambda t: 4.0, 1.0, 100)
    assert threading.enumerate() == before
    kvn_tdho_evolve(psi, lambda t: 4.0, 0.2, 20)  # and a run that completes
    assert threading.enumerate() == before


def test_theta_mean_without_fft_matches_fft_formula():
    # on a real field only the Nyquist bin survives the folded kq weights;
    # both real fields carry enough of it for <theta> to sit far above
    # round-off.  A complex field's two parts add their cross term
    rng = np.random.default_rng(5)
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(64, -8.0, 8.0))
    kq = wavenumbers(pg.q)
    blob = gaussian_phase(pg, q0=0.8).amplitudes.real
    zigzag = (-1.0) ** np.arange(128)[:, None] * np.exp(-meshes(pg)[1] ** 2)
    noise = rng.standard_normal((128, 64))
    fields = (noise, blob + 0.01 * zigzag, noise + 1j * rng.standard_normal((128, 64)),
              (blob + 0.01 * zigzag) * np.exp(1j * WOBBLE(*meshes(pg))))
    for amp in fields:
        w_th = (np.abs(np.fft.fft(amp, axis=0)) ** 2).sum(axis=1)
        expected = (kq @ w_th) / w_th.sum()
        parts = [amp.real, amp.imag] if np.iscomplexobj(amp) else [amp]
        assert _theta_mean(parts, kq) == pytest.approx(expected, rel=1e-12, abs=0)


def test_kvn_step_setup_holds_few_fields():
    # kernelcheck's shear check: one free Koopman step on a tall 2048 x 64 grid
    pg = PhaseGrid(Grid1D(2048, -32.0, 32.0), Grid1D(64, -4.0, 4.0))
    psi = gaussian_phase(pg, p0=0.5, sigma_p=0.3)
    G = koopman_generator(pg, lambda q: np.zeros_like(q))
    tracemalloc.start()
    try:
        kvn_step(psi, G, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2.6 complex fields; holding the last sample's rho and the stale spectrum
    # through the drift, and the factors through the return, took it to 3.6,
    # and the symmetry check's full copies to 5.0
    assert peak < 3 * 16 * pg.q.n * pg.p.n

import threading
from dataclasses import replace

import numpy as np
import pytest

from conftest import gaussian_1d, gaussian_phase
from kvnlab.errors import BoundaryMassError
from kvnlab.grid import Grid1D, PhaseGrid, edge_mass, wavenumbers
from kvnlab.operators import hamiltonian, koopman_generator, unified_generator
from kvnlab.oscillator import kvn_tdho_evolve
from kvnlab.propagation import (
    FACTOR_CHUNK,
    Propagator,
    _theta_mean,
    check_unitarity,
    evolve,
    kvn_step,
    schrodinger_step,
)
from kvnlab.states import KvNWavefunction, QWavefunction


def density_l2(a, b, measure):
    return float(np.sqrt(np.sum((np.abs(a) ** 2 - np.abs(b) ** 2) ** 2) * measure))


def test_free_gaussian_variance_matches_closed_form():
    g = Grid1D(512, -32.0, 32.0)
    s = 1.0  # density std at t = 0
    psi = gaussian_1d(g, sigma=s)
    H = hamiltonian(g, lambda q: np.zeros_like(q))
    t = 1.0
    traj = evolve(psi, H, t, 10)
    rho = np.abs(traj.final_state.amplitudes) ** 2 * g.dx
    var = float(np.sum(g.points**2 * rho) - np.sum(g.points * rho) ** 2)
    expected = s**2 + t**2 / (4 * s**2)  # hbar = m = 1
    assert var == pytest.approx(expected, abs=1e-6)


def test_schrodinger_step_preserves_norm():
    g = Grid1D(256, -16.0, 16.0)
    psi = gaussian_1d(g)
    H = hamiltonian(g, lambda q: 0.5 * q**2)
    out = psi
    for _ in range(50):
        out = schrodinger_step(out, H, 1e-2)
    assert abs(out.norm_squared() - 1.0) < 1e-12


def test_richardson_halving_second_order():
    g = Grid1D(256, -16.0, 16.0)
    H = hamiltonian(g, lambda q: 0.5 * q**2)
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
    H = hamiltonian(g, lambda q: 0.5 * q**2)
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
    Q, P = pg.meshes()
    target = np.exp(
        -((Q - P * dt) ** 2) / (4 * sq**2) - P**2 / (4 * sp**2)
    ).astype(complex)
    target = KvNWavefunction(pg, target).normalize()
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
    _, _, norms, _ = Propagator(G, 1e-3).run(psi, 10_000, boundary_limit=np.inf)
    assert len(norms) == 10_001
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_evolve_zero_time_is_identity():
    g = Grid1D(256, -16.0, 16.0)
    psi = gaussian_1d(g)
    H = hamiltonian(g, lambda q: 0.5 * q**2)
    traj = evolve(psi, H, 0.0, 1)
    np.testing.assert_allclose(traj.final_state.amplitudes, psi.amplitudes, atol=1e-14)


def test_evolve_group_product():
    g = Grid1D(256, -16.0, 16.0)
    psi = gaussian_1d(g, center=0.5, sigma=np.sqrt(0.5))
    H = hamiltonian(g, lambda q: 0.5 * q**2)
    first = evolve(psi, H, 0.3, 300)
    second = evolve(first.final_state, H, 0.5, 500)
    direct = evolve(psi, H, 0.8, 800)
    diff = second.final_state.amplitudes - direct.final_state.amplitudes
    assert np.sqrt(np.sum(np.abs(diff) ** 2) * g.dx) < 1e-9


def test_free_particle_momentum_conserved():
    g = Grid1D(512, -32.0, 32.0)
    k0 = 2 * np.pi / g.length * 32
    psi = gaussian_1d(g, k0=k0)
    H = hamiltonian(g, lambda q: np.zeros_like(q))
    traj = evolve(psi, H, 1.0, 100)
    assert np.max(np.abs(traj.p_mean - traj.p_mean[0])) < 1e-10


def test_check_unitarity_quantum_harmonic():
    g = Grid1D(256, -16.0, 16.0)
    psi = gaussian_1d(g, center=1.0, sigma=np.sqrt(0.5))
    H = hamiltonian(g, lambda q: 0.5 * q**2)
    report = check_unitarity(H, psi, 1e-3, 100)
    assert report.reversibility_residual < 1e-8
    assert report.max_norm_drift < 1e-12


def test_check_unitarity_kvn_free():
    pg = PhaseGrid(Grid1D(64, -8.0, 8.0), Grid1D(64, -4.0, 4.0))
    psi = gaussian_phase(pg, sigma_q=0.8, sigma_p=0.5)
    G = koopman_generator(pg, lambda q: np.zeros_like(q))
    report = check_unitarity(G, psi, 0.05, 200)
    assert report.reversibility_residual < 1e-10
    assert report.max_norm_drift < 1e-12


def test_boundary_mass_monitor_triggers():
    g = Grid1D(128, -8.0, 8.0)
    k0 = 2 * np.pi / g.length * 40  # fast packet, reaches the edge quickly
    psi = gaussian_1d(g, center=4.0, sigma=0.5, k0=k0)
    assert edge_mass(np.abs(psi.amplitudes) ** 2 * g.dx) < 1e-8  # clean start
    H = hamiltonian(g, lambda q: np.zeros_like(q))
    with pytest.raises(BoundaryMassError, match=r"at t=") as caught:
        evolve(psi, H, 2.0, 200)
    assert float(str(caught.value).rsplit("t=", 1)[1]) > 0


def test_nan_state_stops_the_run_at_t0_whatever_the_limit():
    g = Grid1D(64, -8.0, 8.0)
    psi = QWavefunction(g, np.full(g.n, np.nan, dtype=complex))
    H = hamiltonian(g, lambda q: 0.5 * q**2)
    for limit in (1e-8, np.inf):
        with pytest.raises(BoundaryMassError, match=r"at t=0$"):
            Propagator(H, 1e-2).run(psi, 5, boundary_limit=limit)


def test_koopman_constant_does_not_alter_density():
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))
    psi = gaussian_phase(pg, q0=0.5, sigma_q=0.7, sigma_p=0.7)
    base = koopman_generator(pg, lambda q: q)
    hooked = koopman_generator(
        pg, lambda q: q,
        constant=lambda Q, P: 0.3 * np.sin(2 * np.pi * Q / 16) * np.cos(2 * np.pi * P / 16),
    )
    t1 = evolve(psi, base, 1.0, 500)
    t2 = evolve(psi, hooked, 1.0, 500)
    d1 = np.abs(t1.final_state.amplitudes) ** 2
    d2 = np.abs(t2.final_state.amplitudes) ** 2
    assert np.max(np.abs(d1 - d2)) < 1e-12


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
    H = hamiltonian(g, lambda q: q**4 / 4)
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

    Q, P = pg.meshes()
    resid = drho_dt + P * d4(rho1, 0, pg.q.dx) - Q * d4(rho1, 1, pg.p.dx)
    interior = resid[16:-16, 16:-16]
    assert np.max(np.abs(interior)) < 1e-5


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


# --- the engine against a plain Strang loop ----------------------------------


def reference_step(amp, G, dt, real=False):
    """One Strang step, every factor exponentiated and transformed afresh; with
    ``real``, the real part is taken after each inverse transform."""
    scale = G.phase_scale
    half_pos = np.exp(-0.5j * G.position_part * dt / scale)
    full_conj = np.exp(-1j * G.conjugate_part * dt / scale)

    def inverse(f, axis):
        out = np.fft.ifft(f, axis=axis)
        return np.real(out) if real else out

    def position_half(f):
        if G.position_axis is None:
            return half_pos * f
        spec = np.fft.fft(f, axis=G.position_axis)
        return inverse(half_pos * spec, G.position_axis)

    if G.constant_part is not None:
        amp = np.exp(-0.5j * G.constant_part * dt / scale) * amp
    amp = position_half(amp)
    amp = inverse(full_conj * np.fft.fft(amp, axis=G.conjugate_axis), G.conjugate_axis)
    amp = position_half(amp)
    if G.constant_part is not None:
        amp = np.exp(-0.5j * G.constant_part * dt / scale) * amp
    return amp


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
        phase_cases = [
            (f"koopman-{name}", koopman_generator(pg, Vp)),
            (f"koopman-constant-{name}", koopman_generator(pg, Vp, constant=WOBBLE)),
        ]
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
    # a real blob takes the real-field path unless a constant part forbids it
    real = isinstance(grid, PhaseGrid) and phase is None and G.constant_part is None
    n_steps, dt = 200, 1e-3
    traj = evolve(psi, G, n_steps * dt, n_steps)
    amp = psi.amplitudes
    for i in range(n_steps + 1):
        if i:
            amp = reference_step(amp, G, dt, real)
        expected = reference_means(amp, G, grid)
        got = (traj.q_mean[i], traj.p_mean[i], traj.vprime_mean[i])
        assert np.max(np.abs(np.subtract(got, expected))) <= 1e-12
        assert abs(traj.norms[i] - np.sum(np.abs(amp) ** 2) * psi.measure) <= 1e-12
    assert np.max(np.abs(traj.final_state.amplitudes - amp)) <= 1e-12
    assert traj.final_state.time == pytest.approx(n_steps * dt, abs=1e-12)


def test_tdho_evolve_matches_reference_strang_loop():
    # the reference rebuilds the generator with the midpoint stiffness every
    # step; the real blob takes the real-field path, the complex one the full exp
    pg = PhaseGrid(Grid1D(64, -8.0, 8.0), Grid1D(64, -8.0, 8.0))
    k = lambda t: 1.0 + 0.1 * np.sin(t)
    n_steps, dt = 250, 4e-3
    Q, P = pg.meshes()
    for phase in (None, WOBBLE):
        psi = gaussian_phase(pg, q0=1.0, sigma_q=0.3, sigma_p=0.3, phase=phase)
        run = kvn_tdho_evolve(psi, k, n_steps * dt, n_steps)
        amp, t = psi.amplitudes, 0.0
        for i in range(n_steps + 1):
            if i:
                k_mid = k(t + 0.5 * dt)
                G = koopman_generator(pg, lambda q: k_mid * q)
                amp = reference_step(amp, G, dt, real=phase is None)
                t = t + dt
            rho = np.abs(amp) ** 2 * pg.cell_area
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
    ["real", "complex-state", "constant-part", "asymmetric-conjugate-part",
     "asymmetric-position-part"],
)
def test_real_field_path_selection(call_counts, variant):
    # only a real state under conjugate-symmetric factors and no constant
    # part runs on rfft/irfft; everything else keeps the complex transforms
    pg = PhaseGrid(Grid1D(32, -8.0, 8.0), Grid1D(32, -8.0, 8.0))
    G = koopman_generator(pg, lambda q: q, constant=WOBBLE if variant == "constant-part" else None)
    if variant == "asymmetric-conjugate-part":
        G = replace(G, conjugate_part=G.conjugate_part + 0.1)
    if variant == "asymmetric-position-part":
        G = replace(G, position_part=G.position_part + 0.1)
    psi = gaussian_phase(pg, q0=0.8, sigma_q=0.7, sigma_p=0.7,
                         phase=WOBBLE if variant == "complex-state" else None)
    prop = Propagator(G, 1e-2)
    call_counts.clear()
    finals = [prop.run(psi, 3)[0], prop.step(psi)]
    real = call_counts["rfft"] + call_counts["irfft"]
    full = call_counts["fft"] + call_counts["ifft"]
    assert (real > 0, full > 0) == ((True, False) if variant == "real" else (False, True))
    assert all(f.amplitudes.dtype == complex for f in finals)


def test_evolve_records_boundary_mass():
    g = Grid1D(128, -8.0, 8.0)
    psi = gaussian_1d(g, center=3.0, sigma=0.5, k0=2 * np.pi / g.length * 10)
    H = hamiltonian(g, lambda q: np.zeros_like(q))
    traj = evolve(psi, H, 0.3, 30, boundary_limit=np.inf)
    rho = np.abs(traj.final_state.amplitudes) ** 2 * g.dx
    assert traj.boundary_mass[-1] == pytest.approx(rho[:4].sum() + rho[-4:].sum(), rel=1e-12)
    assert traj.boundary_mass[-1] > traj.boundary_mass[0]


def _half_position_arg(G, dt):
    return 0.5 * (-1j * dt / G.phase_scale) * G.position_part


def test_real_path_position_factor_is_head_of_exp():
    # the driven oscillator's generator and step; the argument is odd in lambda,
    # so the real-field path exponentiates only lambda columns 0..n/2, in
    # chunks of FACTOR_CHUNK steps that must equal exponentiating each alone
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))
    G, dt = koopman_generator(pg, lambda q: q), 10.0 / 2500
    arg = _half_position_arg(G, dt)
    k = lambda t: 1.0 + 0.1 * np.sin(t)
    starts = list(np.arange(0, 2500, 25) * dt)
    cases = [(k, starts[c : c + FACTOR_CHUNK]) for c in range(0, len(starts), FACTOR_CHUNK)]
    cases += [(lambda t, s=s: s, [0.0, dt]) for s in (0.0, -1.3, 40.0)]
    for scale, chunk in cases:
        prop = Propagator(G, dt, position_scale=scale)
        assert prop._real is not None
        real, full = prop._position_factors(True, chunk), prop._position_factors(False, chunk)
        assert real.shape == (len(chunk), 128, 65)
        for j, t in enumerate(chunk):
            expected = np.exp(scale(t + 0.5 * dt) * arg)
            assert real[j].tobytes() == expected[:, :65].tobytes()
            assert full[j].tobytes() == expected.tobytes()
    # what ``run`` consumes: 19 steps from t = 0.3, two full chunks and a
    # part, at the step times ``run`` accumulates (a scale linear in t shows
    # a time off by one ulp)
    for scale in (k, lambda t: t):
        prop, t = Propagator(G, dt, position_scale=scale), 0.3
        ahead = list(prop._factors_ahead(True, t, 19))
        assert len(ahead) == 19
        for factor in ahead:
            assert factor.tobytes() == np.exp(scale(t + 0.5 * dt) * arg)[:, :65].tobytes()
            t = t + dt


def test_non_odd_position_factor_takes_complex_path(call_counts):
    pg = PhaseGrid(Grid1D(32, -8.0, 8.0), Grid1D(32, -8.0, 8.0))
    G = koopman_generator(pg, lambda q: q)
    G = replace(G, position_part=G.position_part + 0.1)
    prop = Propagator(G, 1e-2, position_scale=lambda t: 1.05)
    assert prop._real is None
    expected = np.exp(1.05 * _half_position_arg(G, 1e-2))
    assert prop._position_factors(False, [0.0])[0].tobytes() == expected.tobytes()
    blob = gaussian_phase(pg, q0=0.8, sigma_q=0.7, sigma_p=0.7)
    call_counts.clear()
    prop.run(blob, 3)
    assert call_counts["rfft"] + call_counts["irfft"] == 0
    assert call_counts["exp"] == 1  # the three steps' factors form one chunk


def _helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("kvnlab-factors")]


def test_factor_helper_shut_down_on_boundary_abort():
    pg = PhaseGrid(Grid1D(64, -4.0, 4.0), Grid1D(64, -4.0, 4.0))
    psi = gaussian_phase(pg, q0=2.0, sigma_q=0.2, sigma_p=0.2)
    prop = Propagator(koopman_generator(pg, lambda q: q), 1e-2, position_scale=lambda t: 4.0)
    with pytest.raises(BoundaryMassError) as aborted:
        prop.run(psi, 100)
    # shut down by the run itself, not when the traceback holding it is freed
    assert aborted.value.__traceback__ is not None and _helper_threads() == []
    prop.run(psi, 20)  # and after a run that completes
    assert _helper_threads() == []


def test_theta_mean_without_fft_matches_fft_formula():
    # on a real field only the Nyquist bin survives the folded kq weights;
    # both fields carry enough of it for <theta> to sit far above round-off
    rng = np.random.default_rng(5)
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(64, -8.0, 8.0))
    kq = wavenumbers(pg.q)
    blob = gaussian_phase(pg, q0=0.8).amplitudes.real
    zigzag = (-1.0) ** np.arange(128)[:, None] * np.exp(-pg.meshes()[1] ** 2)
    for amp in (rng.standard_normal((128, 64)), blob + 0.01 * zigzag):
        w_th = (np.abs(np.fft.fft(amp, axis=0)) ** 2).sum(axis=1)
        expected = (kq @ w_th) / w_th.sum()
        assert _theta_mean(amp, kq) == pytest.approx(expected, rel=1e-12, abs=0)
        assert _theta_mean(amp.astype(complex), kq) == pytest.approx(expected, rel=1e-12, abs=0)

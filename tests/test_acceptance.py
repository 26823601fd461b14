"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and match the module-level contracts; nothing is
calibrated at runtime.
"""

import time

import numpy as np

from conftest import (
    gaussian_1d,
    gaussian_phase,
    random_bandlimited_1d,
    random_bandlimited_phase,
)
from kvnlab.analysis import (
    ehrenfest_residuals,
    momentum_density,
    robertson_check,
    wigner_transform,
)
from kvnlab.cli import KVN_MAX_STRIDE
from kvnlab.doubleslit import SlitConfig, fringe_stats, kvn_screens, run_quantum
from kvnlab.gauge import SolenoidConfig, disc_ground_energy, kvn_radial_coeffs
from kvnlab.grid import Grid1D, PhaseGrid
from kvnlab.kernels import (
    free_kvn_propagate,
    free_quantum_kernel,
    free_quantum_propagate,
    kernel_convolution,
    kernel_propagate,
)
from kvnlab.measurement import (
    p_a_nonselective,
    p_a_unmeasured,
    phase_discard_disturbance,
    simulate_p_a_nonselective,
    simulate_p_a_unmeasured,
)
from kvnlab.operators import (
    commutator_apply,
    hamiltonian,
    koopman_generator,
    lambda_op,
    momentum_op,
    position_op,
    theta_op,
    unified_generator,
)
from kvnlab.oscillator import (
    ErmakovState,
    integrate_ermakov,
    kvn_tdho_evolve,
    lewis_invariant_classical,
    solve_classical_tdho,
)
from kvnlab.propagation import evolve, kvn_step
from kvnlab.states import Wavefunction


def report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


HARMONIC = (lambda q: 0.5 * q**2, lambda q: q)
QUARTIC = (lambda q: 0.25 * q**4, lambda q: q**3)


def test_criterion_1_measurement_formulas():
    start = time.perf_counter()
    sq34 = np.sqrt(0.75)
    for omega_tau in np.linspace(0.0, np.pi / 2, 65):
        closed_pure = 0.5 * (1 + sq34 * np.cos(4 * omega_tau))
        closed_meas = 0.5 * (1 + sq34 * np.cos(2 * omega_tau) ** 2)
        assert abs(simulate_p_a_unmeasured(omega_tau) - closed_pure) <= 1e-12
        assert abs(simulate_p_a_nonselective(omega_tau) - closed_meas) <= 1e-12
        assert abs(p_a_unmeasured(omega_tau) - closed_pure) <= 1e-12
        assert abs(p_a_nonselective(omega_tau) - closed_meas) <= 1e-12
    gap = abs(p_a_nonselective(np.pi / 4) - p_a_unmeasured(np.pi / 4))
    assert gap >= 0.43
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"65-point sweep within 1e-12, disturbance gap {gap:.4f}, {elapsed:.2f}s")


def test_criterion_2_double_slit():
    start = time.perf_counter()
    cfg = SlitConfig()  # frozen default: 2048 x 256
    both = kvn_screens(cfg, (None,))[0]
    s1 = kvn_screens(cfg, (1,))[0]
    s2 = kvn_screens(cfg, (2,))[0]
    w1, w2 = s1.transmitted_weight, s2.transmitted_weight
    combo = (w1 * s1.density + w2 * s2.density) / (w1 + w2)
    additivity = float(np.max(np.abs(both.density - combo)))
    assert additivity < 1e-10
    phased = kvn_screens(cfg, (None,), lambda Q, P: np.sin(Q) * np.cos(P))[0]
    phase_dep = float(np.max(np.abs(phased.density - both.density)))
    assert phase_dep < 1e-10
    q = run_quantum(cfg)
    stats = fringe_stats(q.x, q.density)
    assert stats.n_maxima >= 3
    assert stats.max_contrast > 0.2
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        2,
        f"additivity {additivity:.1e}, phase dependence {phase_dep:.1e}, "
        f"{stats.n_maxima} fringes at contrast {stats.max_contrast:.2f}, {elapsed:.1f}s",
    )


def test_criterion_3_commutator_table():
    hbar = 1.0
    g = Grid1D(256, -16.0, 16.0)
    rng = np.random.default_rng(2024)
    q1, p1 = position_op(g), momentum_op(g, hbar=hbar)
    worst_quantum = 0.0
    for _ in range(100):
        psi = random_bandlimited_1d(g, rng)
        resid = commutator_apply(q1, p1, psi.amplitudes) - 1j * hbar * psi.amplitudes
        worst_quantum = max(worst_quantum, np.sqrt(np.sum(np.abs(resid) ** 2) * g.dx))
    assert worst_quantum < 1e-8

    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))
    q, p = position_op(pg), momentum_op(pg)
    th, lam = theta_op(pg), lambda_op(pg)
    worst_i = 0.0
    worst_zero = 0.0
    for _ in range(100):
        psi = random_bandlimited_phase(pg, rng)
        a = psi.amplitudes
        assert np.all(commutator_apply(q, p, a) == 0)  # classical commutator, exact
        for op1, op2 in ((q, th), (p, lam)):
            resid = commutator_apply(op1, op2, a) - 1j * a
            worst_i = max(worst_i, np.sqrt(np.sum(np.abs(resid) ** 2) * pg.cell_area))
        for op1, op2 in ((q, lam), (p, th), (th, lam)):
            resid = commutator_apply(op1, op2, a)
            worst_zero = max(worst_zero, np.sqrt(np.sum(np.abs(resid) ** 2) * pg.cell_area))
    assert worst_i < 1e-8
    assert worst_zero < 1e-10
    report(
        3,
        f"100 states/family: [q,p]q residual {worst_quantum:.1e}, [q,p]c exact 0, "
        f"auxiliary pairs {worst_i:.1e}, null entries {worst_zero:.1e}",
    )


def test_criterion_4_uncertainty():
    hbar = 1.0
    g = Grid1D(512, -16.0, 16.0)
    psi = gaussian_1d(g, sigma=0.5)
    rep_q = robertson_check(position_op(g), momentum_op(g, hbar=hbar), psi)
    assert abs(rep_q.lhs - hbar / 2) <= 1e-6

    pg = PhaseGrid(Grid1D(256, -2.0, 2.0), Grid1D(256, -2.0, 2.0))
    phi = gaussian_phase(pg, sigma_q=0.1, sigma_p=0.1)
    rep_qp = robertson_check(position_op(pg), momentum_op(pg), phi)
    assert rep_qp.lhs <= hbar / 20
    rep_qt = robertson_check(position_op(pg), theta_op(pg), phi)
    rep_pl = robertson_check(momentum_op(pg), lambda_op(pg), phi)
    assert rep_qt.lhs >= 0.5 - 1e-6
    assert rep_pl.lhs >= 0.5 - 1e-6
    report(
        4,
        f"quantum saturation {rep_q.lhs:.8f}, classical qp product {rep_qp.lhs:.4f}, "
        f"auxiliary products {rep_qt.lhs:.6f}, {rep_pl.lhs:.6f}",
    )


def test_criterion_5_ehrenfest_odm():
    hbar = 1.0
    t_final, dt = 1.0, 1e-3
    n_steps = int(round(t_final / dt))
    g = Grid1D(256, -16.0, 16.0)
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))
    worst = 0.0
    for V, Vp in (HARMONIC, QUARTIC):
        psi = gaussian_1d(g, center=0.8, sigma=np.sqrt(0.5))
        res = ehrenfest_residuals(evolve(psi, hamiltonian(g, V, vprime=Vp), t_final, n_steps))
        worst = max(worst, res.r1_relative, res.r2_relative)
        blob = gaussian_phase(pg, q0=0.8, sigma_q=0.35, sigma_p=0.7)
        res = ehrenfest_residuals(evolve(blob, koopman_generator(pg, Vp), t_final, n_steps))
        worst = max(worst, res.r1_relative, res.r2_relative)
        for kappa in (0.0, 0.5, 1.0):
            G = unified_generator(pg, V, kappa, hbar=hbar, vprime=Vp)
            res = ehrenfest_residuals(evolve(blob, G, t_final, n_steps))
            worst = max(worst, res.r1_relative, res.r2_relative)
    assert worst < 1e-3

    # halving study on an integrator-dominated residual
    psi = gaussian_1d(g, center=0.8, sigma=np.sqrt(0.5))
    H = hamiltonian(g, *[HARMONIC[0]], vprime=HARMONIC[1])
    r_coarse = ehrenfest_residuals(evolve(psi, H, t_final, 1000)).r2_max
    r_fine = ehrenfest_residuals(evolve(psi, H, t_final, 2000)).r2_max
    ratio = r_coarse / r_fine
    assert 3.5 < ratio < 4.5
    report(5, f"worst relative residual {worst:.1e} over 10 runs, halving ratio {ratio:.2f}")


def test_criterion_6_kernels():
    hbar = 1.0
    worst_group = 0.0
    for x, x0 in ((0.7, -0.3), (1.2, 0.5), (0.0, 0.0)):
        direct = free_quantum_kernel(x, x0, 0.8, hbar=hbar)
        conv = kernel_convolution(x, x0, 0.4, 0.4, hbar=hbar)
        worst_group = max(worst_group, abs(conv - direct))
    assert worst_group < 1e-6

    g = Grid1D(2048, -32.0, 32.0)
    psi = gaussian_1d(g, sigma=1.0)
    via_kernel = kernel_propagate(psi, 1.0, hbar=hbar)
    via_fft = free_quantum_propagate(psi, 1.0, hbar=hbar)
    l2 = float(np.sqrt(np.sum(np.abs(via_kernel.amplitudes - via_fft.amplitudes) ** 2) * g.dx))
    assert l2 < 1e-6

    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(64, -4.0, 4.0))
    blob = gaussian_phase(pg, q0=-0.5, p0=0.7, sigma_q=0.5, sigma_p=0.3)
    a = free_kvn_propagate(blob, 0.9)
    b = kvn_step(blob, koopman_generator(pg, lambda q: np.zeros_like(q)), 0.9)
    shear = float(np.max(np.abs(a.amplitudes - b.amplitudes)))
    assert shear < 1e-10
    report(
        6,
        f"group law {worst_group:.1e}, quadrature-vs-spectral L2 {l2:.1e}, "
        f"shear match {shear:.1e}",
    )


def test_criterion_7_wigner():
    g = Grid1D(256, -12.0, 12.0)
    pg = PhaseGrid(g, Grid1D(256, -8.0, 8.0))
    psi = gaussian_1d(g, center=0.7, sigma=0.9, k0=2 * np.pi / g.length * 8)
    W = wigner_transform(psi, pg)
    q_err = float(np.max(np.abs(W.sum(axis=1) * pg.p.dx - np.abs(psi.amplitudes) ** 2)))
    p_err = float(np.max(np.abs(W.sum(axis=0) * pg.q.dx - momentum_density(psi, pg.p.points))))
    assert q_err < 1e-6
    assert p_err < 1e-6

    ground = gaussian_1d(g, sigma=np.sqrt(0.5))
    W0 = wigner_transform(ground, pg)
    assert W0.min() >= -1e-10

    amp = g.points * np.exp(-g.points**2 / 2)
    fock1 = Wavefunction(g, amp.astype(complex)).normalize()
    W1 = wigner_transform(fock1, pg)
    i0 = np.argmin(np.abs(pg.q.points))
    j0 = np.argmin(np.abs(pg.p.points))
    assert abs(W1[i0, j0] - (-1 / np.pi)) < 1e-4
    assert W1.min() < -0.25
    report(
        7,
        f"marginals {max(q_err, p_err):.1e}, Gaussian min {W0.min():.1e}, "
        f"excited-state origin {W1[i0, j0]:.6f}",
    )


def test_criterion_8_oscillator():
    drift1 = integrate_ermakov(
        lambda t: 1.0, ErmakovState(rho=1.0, rho_dot=0.0, C=1.0), 10.0, 1e-3
    )
    assert np.max(np.abs(drift1.rho - 1.0)) < 1e-10
    rho0 = (2.3 / 4.0) ** 0.25
    drift2 = integrate_ermakov(
        lambda t: 4.0, ErmakovState(rho=rho0, rho_dot=0.0, C=2.3), 10.0, 1e-3
    )
    assert np.max(np.abs(drift2.rho - rho0)) < 1e-10

    k = lambda t: 1.0 + 0.1 * np.sin(t)
    dt = 1e-3
    aux = integrate_ermakov(k, ErmakovState(rho=1.0, rho_dot=0.0, C=1.0), 20.0, dt)
    cl = solve_classical_tdho(k, 1.0, 0.0, 20.0, dt)
    I = lewis_invariant_classical(cl.q, cl.p, aux.rho, aux.rho_dot)
    drift = float(np.max(np.abs(I - I[0])) / abs(I[0]))
    assert drift < 1e-6

    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))
    blob = gaussian_phase(pg, q0=1.0, p0=0.0, sigma_q=0.3, sigma_p=0.3)
    # as the CLI runs it: 2500 RK4 steps, one fourth-order phase-space step
    # per KVN_MAX_STRIDE of them
    n_steps, stride = 2500, KVN_MAX_STRIDE
    run = kvn_tdho_evolve(blob, k, 10.0, n_steps // stride)
    cl10 = solve_classical_tdho(k, 1.0, 0.0, 10.0, 10.0 / n_steps)
    centroid = float(
        max(np.max(np.abs(run.q_mean - cl10.q[::stride])),
            np.max(np.abs(run.p_mean - cl10.p[::stride])))
    )
    assert centroid < 1e-4
    report(
        8,
        f"fixed points stationary, invariant drift {drift:.1e}, "
        f"phase-space centroid error {centroid:.1e}",
    )


def test_criterion_9_aharonov_bohm():
    alphas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    records = [
        kvn_radial_coeffs(SolenoidConfig(alpha=a, n=0, pz0=0.3, ptheta0=0.9), 1.5)
        for a in alphas
    ]
    assert all(rec == records[0] for rec in records)  # bit-identical dataclasses

    energies = [disc_ground_energy(SolenoidConfig(alpha=a, n=0)) for a in alphas]
    variation = (max(energies) - min(energies)) / energies[0]
    assert variation > 0.01

    worst_period = 0.0
    for a in (0.0, 0.2, 0.4):
        for n in (0, 1):
            e1 = disc_ground_energy(SolenoidConfig(alpha=a, n=n))
            e2 = disc_ground_energy(SolenoidConfig(alpha=a + 1.0, n=n + 1))
            worst_period = max(worst_period, abs(e1 - e2))
    assert worst_period < 1e-10
    report(
        9,
        f"classical records identical, quantum variation {variation:.1%}, "
        f"gauge periodicity {worst_period:.1e}",
    )


def test_criterion_10_nondisturbance_contrast():
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))
    phase = lambda Q, P: 0.4 * np.sin(2 * np.pi * Q / 16) * np.cos(2 * np.pi * P / 16)
    blob = gaussian_phase(pg, q0=0.8, sigma_q=0.5, sigma_p=0.5, phase=phase)
    G = koopman_generator(pg, lambda q: q)
    change_kvn = phase_discard_disturbance(blob, G, tau=1.0, t_final=2.0, n_steps=2000)
    assert change_kvn < 1e-8

    g = Grid1D(256, -16.0, 16.0)
    psi = gaussian_1d(g, center=1.0, sigma=0.7, k0=2 * np.pi / g.length * 8)
    H = hamiltonian(g, QUARTIC[0], vprime=QUARTIC[1])
    change_q = phase_discard_disturbance(psi, H, tau=0.5, t_final=1.0, n_steps=1000)
    assert change_q > 1e-2
    report(
        10,
        f"classical change {change_kvn:.1e}, "
        f"quantum change {change_q:.1e}",
    )


def test_criterion_11_amplitude_phase_decoupling():
    pg = PhaseGrid(Grid1D(256, -8.0, 8.0), Grid1D(256, -8.0, 8.0))
    phase = lambda Q, P: 0.5 * np.sin(2 * np.pi * Q / 16 * 2) * np.cos(2 * np.pi * P / 16 * 2)
    psi = gaussian_phase(pg, q0=0.8, sigma_q=0.4, sigma_p=0.4, phase=phase)
    amp = gaussian_phase(pg, q0=0.8, sigma_q=0.4, sigma_p=0.4)
    G = koopman_generator(pg, QUARTIC[1])
    a = evolve(psi, G, 0.2, 200).final_state
    b = evolve(amp, G, 0.2, 200).final_state
    kvn_diff = float(np.max(np.abs(np.abs(a.amplitudes) - np.abs(b.amplitudes))))
    assert kvn_diff < 1e-8

    g = Grid1D(256, -16.0, 16.0)
    kicked = gaussian_1d(g, k0=2 * np.pi / g.length * 8)
    plain = gaussian_1d(g)
    H = hamiltonian(g, QUARTIC[0], vprime=QUARTIC[1])
    qa = evolve(kicked, H, 0.5, 500).final_state
    qb = evolve(plain, H, 0.5, 500).final_state
    q_diff = float(np.max(np.abs(np.abs(qa.amplitudes) - np.abs(qb.amplitudes))))
    assert q_diff > 1e-3
    report(11, f"classical phase independence {kvn_diff:.1e}, quantum coupling {q_diff:.1e}")

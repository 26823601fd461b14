import numpy as np
import pytest

from conftest import random_bandlimited_1d, random_bandlimited_phase
from kvnlab.grid import Grid1D, PhaseGrid
from kvnlab.operators import (
    commutator_apply,
    hamiltonian,
    koopman_generator,
    lambda_op,
    momentum_op,
    operator_square,
    position_op,
    theta_op,
    unified_generator,
)
from kvnlab.states import Wavefunction


@pytest.fixture
def pg():
    return PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))


def l2(field, measure):
    return float(np.sqrt(np.sum(np.abs(field) ** 2) * measure))


# --- elementary operators ----------------------------------------------------


def test_quantum_momentum_on_plane_wave():
    g = Grid1D(64, 0.0, 2 * np.pi)
    hbar = 0.7
    k0 = 5.0
    f = np.exp(1j * k0 * g.points)
    p = momentum_op(g, hbar=hbar)
    np.testing.assert_allclose(p.apply(f), hbar * k0 * f, atol=1e-10)


def test_kvn_momentum_is_multiplication(pg):
    psi = random_bandlimited_phase(pg, np.random.default_rng(0))
    p = momentum_op(pg)
    np.testing.assert_allclose(
        p.apply(psi.amplitudes), pg.p.points[None, :] * psi.amplitudes, atol=0
    )


def test_position_expectation_of_sharp_peak():
    g = Grid1D(256, -16.0, 16.0)
    # delta-like peak: expectation should localize at q0 within one cell
    q0 = 3.2
    amp = np.exp(-((g.points - q0) ** 2) / (2 * (2 * g.dx) ** 2))
    psi = Wavefunction(g, amp).normalize()
    q = position_op(g)
    # oracle: direct weighted sum
    oracle = float(np.sum(g.points * np.abs(psi.amplitudes) ** 2) * g.dx)
    got = float(np.real(np.sum(np.conj(psi.amplitudes) * q.apply(psi.amplitudes)) * g.dx))
    assert got == pytest.approx(oracle, abs=1e-12)
    assert abs(got - q0) < g.dx


def test_theta_on_grid_mode_times_p_profile(pg):
    k0 = 2 * np.pi / pg.q.length * 4
    Q, P = pg.meshes()
    f = np.exp(1j * k0 * Q) * np.exp(-(P**2))
    np.testing.assert_allclose(theta_op(pg).apply(f), k0 * f, atol=1e-10)


def test_lambda_on_q_only_field_is_zero(pg):
    Q, _ = pg.meshes()
    f = (np.exp(-(Q**2)) * np.ones(pg.shape)).astype(complex)
    assert np.max(np.abs(lambda_op(pg).apply(f))) < 1e-12


def test_theta_matches_finite_difference_oracle(pg):
    Q, P = pg.meshes()
    f = (np.exp(-(Q**2) / 2 - P**2 / 2)).astype(complex)
    got = theta_op(pg).apply(f)
    # oracle: 4th-order stencil on a 4x refined q sampling of the analytic field
    fine_q = Grid1D(4 * pg.q.n, pg.q.x_min, pg.q.x_max)
    ff = np.exp(-(fine_q.points[:, None] ** 2) / 2 - pg.p.points[None, :] ** 2 / 2)
    fd = (
        -np.roll(ff, -2, 0) + 8 * np.roll(ff, -1, 0) - 8 * np.roll(ff, 1, 0) + np.roll(ff, 2, 0)
    ) / (12 * fine_q.dx)
    np.testing.assert_allclose(got, -1j * fd[::4], atol=1e-6)


# --- commutators -------------------------------------------------------------


def test_quantum_canonical_commutator():
    g = Grid1D(256, -16.0, 16.0)
    rng = np.random.default_rng(21)
    hbar = 1.0
    q, p = position_op(g), momentum_op(g, hbar=hbar)
    for _ in range(5):
        psi = random_bandlimited_1d(g, rng)
        resid = commutator_apply(q, p, psi.amplitudes) - 1j * hbar * psi.amplitudes
        assert l2(resid, g.dx) < 1e-8


def test_kvn_position_momentum_commute_exactly(pg):
    psi = random_bandlimited_phase(pg, np.random.default_rng(3))
    out = commutator_apply(position_op(pg), momentum_op(pg), psi.amplitudes)
    assert np.all(out == 0)


def test_koopman_algebra_nontrivial_entries(pg):
    rng = np.random.default_rng(17)
    q, p = position_op(pg), momentum_op(pg)
    th, lam = theta_op(pg), lambda_op(pg)
    for _ in range(3):
        psi = random_bandlimited_phase(pg, rng)
        a = psi.amplitudes
        r1 = commutator_apply(q, th, a) - 1j * a
        r2 = commutator_apply(p, lam, a) - 1j * a
        assert l2(r1, pg.cell_area) < 1e-8
        assert l2(r2, pg.cell_area) < 1e-8


def test_koopman_algebra_vanishing_entries(pg):
    rng = np.random.default_rng(29)
    q, p = position_op(pg), momentum_op(pg)
    th, lam = theta_op(pg), lambda_op(pg)
    psi = random_bandlimited_phase(pg, rng)
    a = psi.amplitudes
    for left, right in [(q, lam), (p, th), (th, lam)]:
        assert l2(commutator_apply(left, right, a), pg.cell_area) < 1e-10


def test_commutator_antisymmetry(pg):
    rng = np.random.default_rng(31)
    psi = random_bandlimited_phase(pg, rng)
    q, th = position_op(pg), theta_op(pg)
    ab = commutator_apply(q, th, psi.amplitudes)
    ba = commutator_apply(th, q, psi.amplitudes)
    np.testing.assert_allclose(ab, -ba, atol=1e-14)


def test_elementary_operators_hermitian(pg):
    rng = np.random.default_rng(37)
    ops = [position_op(pg), momentum_op(pg), theta_op(pg), lambda_op(pg)]
    f = random_bandlimited_phase(pg, rng)
    h = random_bandlimited_phase(pg, rng)
    for op in ops:
        lhs = np.sum(np.conj(f.amplitudes) * op.apply(h.amplitudes)) * pg.cell_area
        rhs = np.sum(np.conj(op.apply(f.amplitudes)) * h.amplitudes) * pg.cell_area
        assert abs(lhs - rhs) / max(abs(lhs), 1e-30) < 1e-9


def test_operator_square_applies_twice(pg):
    rng = np.random.default_rng(41)
    g = Grid1D(256, -16.0, 16.0)
    cases = [(momentum_op(g, hbar=0.7), random_bandlimited_1d(g, rng))]
    phase_ops = [position_op(pg), momentum_op(pg), theta_op(pg), lambda_op(pg)]
    cases += [(op, random_bandlimited_phase(pg, rng)) for op in phase_ops]
    for op, psi in cases:
        square = operator_square(op)
        assert square.fft_axis == op.fft_axis
        f = psi.amplitudes
        assert np.max(np.abs(square.apply(f) - op.apply(op.apply(f)))) <= 1e-12


# --- generators ----------------------------------------------------------------


def test_hamiltonian_on_plane_wave():
    # free dispersion (hbar k)^2 / 2 at unit mass, hbar away from 1
    g = Grid1D(64, 0.0, 2 * np.pi)
    k0 = 3.0
    H = hamiltonian(g, lambda q: np.zeros_like(q), hbar=0.5, vprime=np.zeros_like)
    f = np.exp(1j * k0 * g.points)
    np.testing.assert_allclose(H.apply(f), ((0.5 * k0) ** 2 / 2.0) * f, atol=1e-10)


def test_hamiltonian_on_harmonic_ground_state():
    g = Grid1D(256, -16.0, 16.0)
    H = hamiltonian(g, lambda q: 0.5 * q**2, vprime=lambda q: q)
    amp = np.exp(-g.points**2 / 2).astype(complex)
    psi = Wavefunction(g, amp).normalize()
    resid = H.apply(psi.amplitudes) - 0.5 * psi.amplitudes
    assert l2(resid, g.dx) < 1e-6


def test_generator_hermiticity_random_states():
    g = Grid1D(256, -16.0, 16.0)
    rng = np.random.default_rng(41)
    H = hamiltonian(g, lambda q: 0.1 * q**4, vprime=lambda q: 0.4 * q**3)
    for _ in range(3):
        f = random_bandlimited_1d(g, rng)
        h = random_bandlimited_1d(g, rng)
        lhs = np.sum(np.conj(f.amplitudes) * H.apply(h.amplitudes)) * g.dx
        rhs = np.sum(np.conj(H.apply(f.amplitudes)) * h.amplitudes) * g.dx
        assert abs(lhs - rhs) / max(abs(lhs), 1e-30) < 1e-9


def test_liouvillian_annihilates_functions_of_h(pg):
    # stationarity: L f(H) = 0 since the Poisson bracket {H, f(H)} vanishes
    L = koopman_generator(pg, lambda q: q)  # V = q^2/2
    Q, P = pg.meshes()
    H = P**2 / 2 + Q**2 / 2
    f = np.exp(-H).astype(complex)
    assert np.max(np.abs(L.apply(f))) < 1e-6


def test_liouvillian_advection_on_plane_wave(pg):
    L = koopman_generator(pg, lambda q: np.zeros_like(q))
    k0 = 2 * np.pi / pg.q.length * 3
    Q, P = pg.meshes()
    f = np.exp(1j * k0 * Q) * np.exp(-(P**2) / 2)
    np.testing.assert_allclose(L.apply(f), (P * k0) * f, atol=1e-10)


def test_liouvillian_hermitian_on_phase_states(pg):
    rng = np.random.default_rng(43)
    L = koopman_generator(pg, lambda q: q)
    f = random_bandlimited_phase(pg, rng)
    h = random_bandlimited_phase(pg, rng)
    lhs = np.sum(np.conj(f.amplitudes) * L.apply(h.amplitudes)) * pg.cell_area
    rhs = np.sum(np.conj(L.apply(f.amplitudes)) * h.amplitudes) * pg.cell_area
    assert abs(lhs - rhs) / max(abs(lhs), 1e-30) < 1e-9


def test_koopman_equals_liouvillian(pg):
    # K against the Liouvillian p theta - V'(q) lambda spelled out from
    # the elementary operators
    rng = np.random.default_rng(47)
    K = koopman_generator(pg, lambda q: q**3)
    psi = random_bandlimited_phase(pg, rng)
    f = psi.amplitudes
    Q, P = pg.meshes()
    L_f = P * theta_op(pg).apply(f) - Q**3 * lambda_op(pg).apply(f)
    diff = K.apply(f) - L_f
    assert l2(diff, pg.cell_area) < 1e-12


def test_koopman_vprime_zero_reduces_to_advection(pg):
    K = koopman_generator(pg, lambda q: np.zeros_like(q))
    assert np.max(np.abs(K.position_part)) == 0.0


def test_unified_kappa_range(pg):
    with pytest.raises(ValueError):
        unified_generator(pg, lambda q: q**2 / 2, kappa=1.5, vprime=lambda q: q)
    with pytest.raises(ValueError):
        unified_generator(pg, lambda q: q**2 / 2, kappa=-0.1, vprime=lambda q: q)


def test_unified_small_kappa_matches_scaled_koopman(pg):
    hbar = 1.0
    V = lambda q: q**4 / 4
    Vp = lambda q: q**3
    G_eps = unified_generator(pg, V, kappa=1e-6, hbar=hbar, vprime=Vp)
    K = koopman_generator(pg, Vp)
    psi = random_bandlimited_phase(pg, np.random.default_rng(53))
    diff = G_eps.apply(psi.amplitudes) - hbar * K.apply(psi.amplitudes)
    assert l2(diff, pg.cell_area) < 1e-8


def test_unified_kappa_zero_uses_analytic_limit(pg):
    V = lambda q: q**2 / 2
    G0 = unified_generator(pg, V, kappa=0.0, vprime=lambda q: q)
    K = koopman_generator(pg, lambda q: q)
    np.testing.assert_allclose(G0.position_part, K.position_part * np.ones(pg.shape))


def test_unified_kappa_independent_for_quadratic_potential(pg):
    V = lambda q: 0.7 * q**2 / 2
    parts = [
        unified_generator(pg, V, kappa=k, vprime=lambda q: 0.7 * q).position_part
        for k in (0.0, 0.3, 1.0)
    ]
    np.testing.assert_allclose(parts[1], parts[0], atol=1e-9)
    np.testing.assert_allclose(parts[2], parts[0], atol=1e-9)

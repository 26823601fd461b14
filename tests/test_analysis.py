import numpy as np
import pytest

from conftest import (
    gaussian_1d,
    gaussian_phase,
    random_bandlimited_1d,
    random_bandlimited_phase,
)
import kvnlab.analysis as analysis
from kvnlab.analysis import (
    ehrenfest_residuals,
    momentum_density,
    robertson_check,
    std_dev,
    wigner_transform,
)
from kvnlab.errors import GridMismatchError
from kvnlab.grid import Grid1D, PhaseGrid
from kvnlab.operators import (
    hamiltonian,
    koopman_generator,
    lambda_op,
    momentum_op,
    position_op,
    theta_op,
    unified_generator,
)
from kvnlab.propagation import evolve, propagate
from kvnlab.states import Wavefunction


# --- standard deviations -----------------------------------------------------


def test_std_dev_position_of_gaussian():
    g = Grid1D(512, -16.0, 16.0)
    s = 0.8
    psi = gaussian_1d(g, sigma=s)
    assert std_dev(position_op(g), psi) == pytest.approx(s, abs=1e-8)


def test_std_dev_momentum_of_gaussian():
    g = Grid1D(512, -16.0, 16.0)
    s, hbar = 0.8, 0.7
    psi = gaussian_1d(g, sigma=s)
    # oracle: Fourier transform of a Gaussian is Gaussian with width hbar/(2s)
    assert std_dev(momentum_op(g, hbar=hbar), psi) == pytest.approx(
        hbar / (2 * s), abs=1e-6
    )


def test_std_dev_vanishes_on_eigenstate():
    g = Grid1D(64, 0.0, 2 * np.pi)
    psi = Wavefunction(g, np.exp(1j * 3 * g.points)).normalize()
    assert std_dev(momentum_op(g), psi) < 1e-10


# --- Robertson bound ---------------------------------------------------------


def test_robertson_quantum_gaussian_saturates():
    g = Grid1D(512, -16.0, 16.0)
    psi = gaussian_1d(g, sigma=0.5)
    rep = robertson_check(position_op(g), momentum_op(g), psi)
    assert rep.lhs == pytest.approx(0.5, abs=1e-6)
    assert rep.rhs == pytest.approx(0.5, abs=1e-6)
    assert rep.satisfied


def test_robertson_kvn_position_momentum_unconstrained():
    pg = PhaseGrid(Grid1D(256, -2.0, 2.0), Grid1D(256, -2.0, 2.0))
    psi = gaussian_phase(pg, sigma_q=0.1, sigma_p=0.1)
    rep = robertson_check(position_op(pg), momentum_op(pg), psi)
    assert rep.rhs == 0.0
    assert rep.lhs == pytest.approx(0.01, abs=1e-6)
    assert rep.lhs <= 1.0 / 20.0
    assert rep.satisfied


def test_robertson_kvn_auxiliary_pairs():
    pg = PhaseGrid(Grid1D(256, -2.0, 2.0), Grid1D(256, -2.0, 2.0))
    psi = gaussian_phase(pg, sigma_q=0.1, sigma_p=0.1)
    for pair in [
        (position_op(pg), theta_op(pg)),
        (momentum_op(pg), lambda_op(pg)),
    ]:
        rep = robertson_check(*pair, psi)
        assert rep.rhs == pytest.approx(0.5, abs=1e-6)
        assert rep.lhs >= 0.5 - 1e-6
        assert rep.satisfied


def test_robertson_holds_on_random_states():
    g = Grid1D(256, -16.0, 16.0)
    rng = np.random.default_rng(61)
    q, p = position_op(g), momentum_op(g)
    for _ in range(100):
        psi = random_bandlimited_1d(g, rng)
        assert robertson_check(q, p, psi).satisfied
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))
    pairs = [
        (position_op(pg), momentum_op(pg)),
        (position_op(pg), theta_op(pg)),
        (momentum_op(pg), lambda_op(pg)),
    ]
    for _ in range(100):
        psi = random_bandlimited_phase(pg, rng)
        for a, b in pairs:
            assert robertson_check(a, b, psi).satisfied


@pytest.mark.parametrize("hbar", [1.0, 1e-6, 1e-9])
def test_robertson_refuses_a_quarter_of_the_bound_at_any_hbar(monkeypatch, hbar):
    # both widths halved leave lhs = rhs/4, which no hbar may pass: an
    # absolute slack of 1e-8 passed it once hbar/2 fell below 1e-8
    g = Grid1D(512, -16.0, 16.0)
    psi = gaussian_1d(g, sigma=0.5)
    monkeypatch.setattr(analysis, "std_dev", lambda op, state: 0.5 * std_dev(op, state))
    rep = robertson_check(position_op(g), momentum_op(g, hbar=hbar), psi)
    assert rep.lhs == pytest.approx(rep.rhs / 4, rel=1e-6)
    assert not rep.satisfied


# --- expectation-value equations of motion -----------------------------------


def test_ehrenfest_free_particle():
    g = Grid1D(512, -32.0, 32.0)
    k0 = 2 * np.pi / g.length * 32
    psi = gaussian_1d(g, k0=k0)
    H = hamiltonian(g, lambda q: np.zeros_like(q), vprime=np.zeros_like)
    res = ehrenfest_residuals(evolve(psi, H, 1.0, 100))
    assert res.r1_max < 1e-8
    assert res.r2_max < 1e-8


def test_ehrenfest_quantum_harmonic():
    g = Grid1D(256, -16.0, 16.0)
    psi = gaussian_1d(g, center=1.0, sigma=np.sqrt(0.5))
    H = hamiltonian(g, lambda q: 0.5 * q**2, vprime=lambda q: q)
    res = ehrenfest_residuals(evolve(psi, H, 1.0, 1000))
    assert res.r1_max < 1e-4
    assert res.r2_max < 1e-4


def test_ehrenfest_kvn_quartic():
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))
    psi = gaussian_phase(pg, q0=1.0, sigma_q=0.35, sigma_p=0.35)
    G = koopman_generator(pg, lambda q: q**3)
    res = ehrenfest_residuals(evolve(psi, G, 1.0, 1000))
    assert res.r1_relative < 1e-3
    assert res.r2_relative < 1e-3


def test_ehrenfest_second_order_in_dt():
    # for a quadratic potential the split-step moment map satisfies the first
    # relation to roundoff, so the dt^2 convergence shows on r2
    g = Grid1D(256, -16.0, 16.0)
    psi = gaussian_1d(g, center=1.0, sigma=np.sqrt(0.5))
    H = hamiltonian(g, lambda q: 0.5 * q**2, vprime=lambda q: q)

    def resid(dt):
        return ehrenfest_residuals(evolve(psi, H, 1.0, int(round(1.0 / dt)))).r2_max

    ratio = resid(2e-3) / resid(1e-3)
    assert 3.5 < ratio < 4.5


def test_ehrenfest_rejects_short_series():
    g = Grid1D(256, -16.0, 16.0)
    psi = gaussian_1d(g)
    H = hamiltonian(g, lambda q: 0.5 * q**2, vprime=lambda q: q)
    with pytest.raises(ValueError):
        ehrenfest_residuals(evolve(psi, H, 0.01, 2))


# --- Wigner transform --------------------------------------------------------


@pytest.fixture
def wigner_setup():
    # separations are truncated at half the domain width, so the domain must
    # leave the correlation tail ~exp(-(L/4)^2/(2 s^2)) below 1e-10
    g = Grid1D(256, -12.0, 12.0)
    pg = PhaseGrid(g, Grid1D(256, -8.0, 8.0))
    return g, pg


def test_wigner_gaussian_matches_analytic_oracle(wigner_setup):
    g, pg = wigner_setup
    s = 1.0 / np.sqrt(2)  # ground state of the unit oscillator
    psi = gaussian_1d(g, sigma=s)
    W = wigner_transform(psi, pg)
    Q, P = pg.meshes()
    analytic = np.exp(-(Q**2) / (2 * s**2) - (2 * s**2) * P**2) / np.pi
    np.testing.assert_allclose(W, analytic, atol=1e-8)
    assert W.min() >= -1e-10


def test_wigner_first_excited_negative_at_origin(wigner_setup):
    g, pg = wigner_setup
    amp = g.points * np.exp(-g.points**2 / 2)
    psi = Wavefunction(g, amp.astype(complex)).normalize()
    W = wigner_transform(psi, pg)
    i0 = np.argmin(np.abs(pg.q.points))
    j0 = np.argmin(np.abs(pg.p.points))
    # oracle: direct quadrature of the transform at the origin
    lam = np.linspace(-12, 12, 4001)
    f = lambda x: np.sqrt(2) * (1 / np.pi) ** 0.25 * x * np.exp(-(x**2) / 2)
    oracle = np.trapezoid(f(-lam / 2) * f(lam / 2), lam) / (2 * np.pi)
    assert abs(oracle - (-1 / np.pi)) < 1e-6
    assert W[i0, j0] == pytest.approx(-1 / np.pi, abs=1e-4)
    assert W.min() < -0.25


def test_wigner_marginals(wigner_setup):
    g, pg = wigner_setup
    psi = gaussian_1d(g, center=0.7, sigma=0.9, k0=2 * np.pi / g.length * 8)
    W = wigner_transform(psi, pg)
    q_marginal = W.sum(axis=1) * pg.p.dx
    np.testing.assert_allclose(q_marginal, np.abs(psi.amplitudes) ** 2, atol=1e-6)
    p_marginal = W.sum(axis=0) * pg.q.dx
    np.testing.assert_allclose(p_marginal, momentum_density(psi, pg.p.points), atol=1e-6)


def test_wigner_total_integral_is_one(wigner_setup):
    g, pg = wigner_setup
    psi = gaussian_1d(g, center=-0.4, sigma=1.2)
    W = wigner_transform(psi, pg)
    assert np.sum(W) * pg.cell_area == pytest.approx(1.0, abs=1e-12)


def test_wigner_grid_mismatch(wigner_setup):
    g, pg = wigner_setup
    psi = gaussian_1d(Grid1D(128, -12.0, 12.0))
    with pytest.raises(GridMismatchError):
        wigner_transform(psi, pg)


@pytest.mark.parametrize("kappa", [1.0, 0.0])
def test_moyal_evolution_of_wigner_matches_schrodinger(kappa):
    # at kappa = 1 the unified generator is the Bopp-operator form of the
    # Moyal equation, so evolving W0 as a phase-space field gives the Wigner
    # transform of the Schrodinger-evolved state (Bondar et al., PRL 109,
    # 190403, 2012).  The kappa = 1 mismatch is a grid floor of 1.0e-6 that
    # does not shrink with dt; kappa = 0 misses by 9.5e-2.
    g = Grid1D(128, -8.0, 8.0)
    pg = PhaseGrid(g, g)
    V, Vp = (lambda q: q**4 / 4), (lambda q: q**3)
    psi0 = gaussian_1d(g, center=1.0, sigma=0.5)
    W0 = Wavefunction(pg, wigner_transform(psi0, pg))
    G = unified_generator(pg, V, kappa, vprime=Vp)
    W = propagate(W0, G, 1.0 / 250, 250)[0].amplitudes
    target = wigner_transform(evolve(psi0, hamiltonian(g, V, vprime=Vp), 1.0, 250).final_state, pg)
    mismatch = np.max(np.abs(W - target))
    assert mismatch <= 1e-5 if kappa == 1.0 else mismatch >= 1e-2

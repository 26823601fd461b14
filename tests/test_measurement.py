import numpy as np
import pytest

from conftest import gaussian_1d, gaussian_phase
from kvnlab.grid import Grid1D, PhaseGrid
from kvnlab.measurement import (
    AB_BASIS,
    PSI0,
    SQ34,
    TwoLevelSystem,
    p_a_nonselective,
    p_a_unmeasured,
    phase_discard_disturbance,
    simulate_p_a_nonselective,
    simulate_p_a_unmeasured,
)
from kvnlab.operators import hamiltonian, koopman_generator
from kvnlab.states import dephase, measure_probability, pure_density, purity


def test_evolve_pure_identity_at_zero():
    sys = TwoLevelSystem(omega=1.3)
    np.testing.assert_allclose(sys.evolve_pure(PSI0, 0.0), PSI0, atol=1e-15)


def test_evolve_pure_global_phase_on_eigenstate():
    sys = TwoLevelSystem(omega=2.0)
    plus = np.array([1.0, 0.0], dtype=complex)
    out = sys.evolve_pure(plus, 0.7)
    assert out[0] == pytest.approx(np.exp(-1j * 2.0 * 0.7), abs=1e-14)
    assert abs(out[1]) == 0.0
    assert abs(np.abs(out[0]) - 1.0) < 1e-14


def test_evolved_superposition_coefficients():
    sys = TwoLevelSystem(omega=1.0)
    tau = 0.37
    out = sys.evolve_pure(PSI0, 2 * tau)
    assert out[0] == pytest.approx(0.5 * np.exp(-2j * tau), abs=1e-14)
    assert out[1] == pytest.approx(SQ34 * np.exp(2j * tau), abs=1e-14)


@pytest.mark.parametrize(
    "omega_tau,expected",
    [
        (0.0, 0.5 * (1 + SQ34)),  # ~0.9330127
        (np.pi / 8, 0.5),
        (np.pi / 4, 0.5 * (1 - SQ34)),  # ~0.0669873
    ],
)
def test_p_a_unmeasured_closed_form_points(omega_tau, expected):
    assert p_a_unmeasured(omega_tau) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "omega_tau,expected",
    [
        (0.0, 0.5 * (1 + SQ34)),
        (np.pi / 4, 0.5),
        (np.pi / 8, 0.5 + SQ34 / 4),  # ~0.7165064
    ],
)
def test_p_a_nonselective_closed_form_points(omega_tau, expected):
    assert p_a_nonselective(omega_tau) == pytest.approx(expected, abs=1e-12)


def test_simulation_matches_closed_forms_everywhere():
    for omega_tau in np.linspace(0.0, np.pi / 2, 65):
        assert abs(simulate_p_a_unmeasured(omega_tau) - p_a_unmeasured(omega_tau)) < 1e-12
        assert abs(simulate_p_a_nonselective(omega_tau) - p_a_nonselective(omega_tau)) < 1e-12


def test_measurable_disturbance_at_quarter_pi():
    # the pure and dephased predictions visibly disagree
    assert abs(p_a_nonselective(np.pi / 4) - p_a_unmeasured(np.pi / 4)) > 0.43


def weights_at_tau(omega_tau):
    """Populations of |a> and |b> after the unread collapse at tau: the
    diagonal of the dephased two-level state."""
    rho = dephase(pure_density(TwoLevelSystem().evolve_pure(PSI0, omega_tau)), AB_BASIS)
    return measure_probability(rho, AB_BASIS[:, 0]), measure_probability(rho, AB_BASIS[:, 1])


def test_weights_at_quarter_pi():
    pa, pb = weights_at_tau(np.pi / 4)
    assert pa == pytest.approx(0.5, abs=1e-12)
    assert pb == pytest.approx(0.5, abs=1e-12)


def test_weights_match_born_rule_simulation():
    # closed form (1 +/- sqrt(3/4) cos(2 omega tau)) / 2 against the dephased state
    for omega_tau in np.linspace(0, np.pi / 2, 33):
        pa, pb = weights_at_tau(omega_tau)
        closed = 0.5 * (1.0 + SQ34 * np.cos(2.0 * omega_tau))
        assert pa == pytest.approx(closed, abs=1e-12)
        assert pb == pytest.approx(1.0 - closed, abs=1e-12)


def test_interval_bounds_and_coincidence_points():
    lo, hi = 0.5 * (1 - SQ34), 0.5 * (1 + SQ34)
    ts = np.linspace(0, np.pi / 2, 201)
    for omega_tau in ts:
        for f in (p_a_unmeasured, p_a_nonselective):
            assert lo - 1e-12 <= f(omega_tau) <= hi + 1e-12
    # the two expressions agree exactly where cos(4wt) = cos^2(2wt)
    agree = [t for t in ts if abs(p_a_unmeasured(t) - p_a_nonselective(t)) < 1e-9]
    for t in agree:
        assert abs(np.cos(4 * t) - np.cos(2 * t) ** 2) < 1e-8


def test_nonselective_purity_degenerate_iff_cos_is_unit():
    for omega_tau in (0.0, np.pi / 2):
        rho = dephase(
            pure_density(TwoLevelSystem().evolve_pure(PSI0, omega_tau)), AB_BASIS
        )
        assert abs(np.cos(2 * omega_tau)) == pytest.approx(1.0, abs=1e-12)
        assert purity(rho) < 1.0  # weights (1±sq34)/2 are not 0/1: still mixed
    rho = dephase(pure_density(TwoLevelSystem().evolve_pure(PSI0, np.pi / 4)), AB_BASIS)
    assert purity(rho) == pytest.approx(0.5, abs=1e-12)


def test_instantaneous_nondisturbance_of_position_density():
    # |psi| -> born density unchanged at the instant of the measurement
    g = Grid1D(128, -8.0, 8.0)
    psi = gaussian_1d(g, k0=2 * np.pi / g.length * 5)
    measured = np.abs(psi.amplitudes)
    np.testing.assert_allclose(
        np.abs(psi.amplitudes) ** 2, measured**2, atol=1e-12
    )


def test_kvn_nondisturbance_free_particle():
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(64, -4.0, 4.0))
    phase = lambda Q, P: 0.4 * np.sin(2 * np.pi * Q / 16) * np.cos(2 * np.pi * P / 8)
    psi = gaussian_phase(pg, sigma_q=0.5, sigma_p=0.3, phase=phase)
    G = koopman_generator(pg, lambda q: np.zeros_like(q))
    assert phase_discard_disturbance(psi, G, tau=0.5, t_final=1.0, n_steps=100) < 1e-10


def test_quantum_protocol_disturbs_quartic_system():
    g = Grid1D(256, -16.0, 16.0)
    psi = gaussian_1d(g, center=1.0, sigma=0.7, k0=2 * np.pi / g.length * 8)
    H = hamiltonian(g, lambda q: q**4 / 4, vprime=lambda q: q**3)
    assert phase_discard_disturbance(psi, H, tau=0.5, t_final=1.0, n_steps=1000) > 1e-2


def test_phase_discard_validates_tau():
    pg = PhaseGrid(Grid1D(64, -8.0, 8.0), Grid1D(64, -4.0, 4.0))
    psi = gaussian_phase(pg, sigma_q=0.5, sigma_p=0.3)
    G = koopman_generator(pg, lambda q: np.zeros_like(q))
    with pytest.raises(ValueError):
        phase_discard_disturbance(psi, G, tau=2.0, t_final=1.0, n_steps=10)
    with pytest.raises(ValueError):
        phase_discard_disturbance(psi, G, tau=0.05, t_final=1.0, n_steps=3)
    # within 1e-12 of the step boundaries 0 and t_final, or no steps at all:
    # a leg would have no step
    for tau, n_steps in ((1e-13, 100), (1.0 - 1e-13, 100), (0.5, 0)):
        with pytest.raises(ValueError, match="tau"):
            phase_discard_disturbance(psi, G, tau=tau, t_final=1.0, n_steps=n_steps)

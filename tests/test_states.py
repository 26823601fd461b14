import numpy as np
import pytest

from conftest import gaussian_1d, gaussian_phase, purity
from kvnlab.errors import GridMismatchError
from kvnlab.grid import Grid1D
from kvnlab.operators import hamiltonian, momentum_op, position_op
from kvnlab.states import (
    DensityMatrix,
    Wavefunction,
    dephase,
    expectation,
    measure_probability,
    pure_density,
)

HALF = 1 / np.sqrt(2)


def test_normalize_unit_mass(grid_small):
    psi = gaussian_1d(grid_small, sigma=1.5)
    assert abs(psi.norm_squared() - 1.0) < 1e-12


def test_normalize_idempotent(grid_small):
    psi = gaussian_1d(grid_small)
    again = psi.normalize()
    np.testing.assert_allclose(again.amplitudes, psi.amplitudes, atol=1e-14)


def test_kvn_normalize(phase_small):
    psi = gaussian_phase(phase_small, sigma_q=0.7, sigma_p=1.2)
    assert abs(psi.norm_squared() - 1.0) < 1e-12


def test_expectation_position_gaussian(grid_small):
    psi = gaussian_1d(grid_small, center=2.5)
    q = position_op(grid_small)
    assert expectation(q, psi).real == pytest.approx(2.5, abs=1e-8)


def test_expectation_momentum_kicked_gaussian():
    g = Grid1D(512, -16.0, 16.0)
    hbar = 0.7
    k0 = 2 * np.pi / g.length * 16  # exact grid mode
    psi = gaussian_1d(g, k0=k0)
    p = momentum_op(g, hbar=hbar)
    # oracle: quadrature of the analytic integrand psi* (-i hbar d/dq) psi
    # reduces to hbar * k0 for a kicked Gaussian
    assert expectation(p, psi).real == pytest.approx(hbar * k0, abs=1e-8)


def test_expectation_harmonic_ground_energy(grid_small):
    # hbar = m = omega = 1: sigma^2 = 1/2, E0 = 0.5
    psi = gaussian_1d(grid_small, sigma=np.sqrt(0.5))
    H = hamiltonian(grid_small, lambda q: 0.5 * q**2, vprime=lambda q: q)
    assert expectation(H, psi).real == pytest.approx(0.5, abs=1e-8)


def test_expectation_refuses_an_operator_on_another_grid():
    # same size, twice the length: read on psi's grid it gave <q> = 2.0 and
    # <H> = 4.031 for this state instead of 1.0 and 1.125
    g, other = Grid1D(256, -8.0, 8.0), Grid1D(256, -16.0, 16.0)
    psi = gaussian_1d(g, center=1.0)
    H = hamiltonian(other, lambda q: 0.5 * q**2, vprime=lambda q: q)
    for op in (position_op(other), H):
        with pytest.raises(GridMismatchError):
            expectation(op, psi)


def test_expectation_guards_hermitian_flag(grid_small):
    from kvnlab.errors import PhysicsError
    from kvnlab.operators import GridOperator

    psi = gaussian_1d(grid_small)
    # a complex diagonal is not Hermitian and must be caught
    bogus = GridOperator(grid_small, 1j * (grid_small.points**2 + 1.0))
    with pytest.raises(PhysicsError):
        expectation(bogus, psi)


def test_born_density_plane_wave():
    g = Grid1D(64, 0.0, 2 * np.pi)
    psi = Wavefunction(g, np.exp(1j * 4 * g.points)).normalize()
    rho = np.abs(psi.amplitudes) ** 2
    np.testing.assert_allclose(rho, 1.0 / g.length, atol=1e-12)


def test_born_density_gaussian_peak(grid_small):
    sigma_rho = 1.0  # |psi|^2 is a normal density with this std
    psi = gaussian_1d(grid_small, sigma=sigma_rho)
    rho = np.abs(psi.amplitudes) ** 2
    assert rho.max() == pytest.approx(1 / (sigma_rho * np.sqrt(2 * np.pi)), abs=1e-8)
    assert np.all(rho >= 0)
    assert np.sum(rho) * grid_small.dx == pytest.approx(1.0, abs=1e-12)


# --- density matrices ------------------------------------------------------


def test_purity_pure_state():
    rho = pure_density(np.array([0.6, 0.8j]))
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)


def test_purity_maximally_mixed():
    rho = DensityMatrix(0.5 * np.eye(2, dtype=complex))
    assert purity(rho) == pytest.approx(0.5, abs=1e-12)


def test_purity_equal_mixture_orthogonal():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0], dtype=complex)
    rho = DensityMatrix(0.5 * np.outer(a, a.conj()) + 0.5 * np.outer(b, b.conj()))
    assert purity(rho) == pytest.approx(0.5, abs=1e-12)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.4, 0.5]], dtype=complex))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2, dtype=complex))  # trace 2
    bad = np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex)
    with pytest.raises(ValueError):
        DensityMatrix(bad)  # negative eigenvalue


def test_measure_probability_projectors():
    a = np.array([HALF, HALF], dtype=complex)
    b = np.array([HALF, -HALF], dtype=complex)
    rho_a = pure_density(a)
    assert measure_probability(rho_a, a) == pytest.approx(1.0, abs=1e-12)
    assert measure_probability(rho_a, b) == pytest.approx(0.0, abs=1e-12)


def test_measure_probability_matches_matrix_element_oracle():
    rng = np.random.default_rng(5)
    v1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v1, v2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
    rho = DensityMatrix(
        0.3 * np.outer(v1, v1.conj()) + 0.7 * np.outer(v2, v2.conj())
    )
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a = a / np.linalg.norm(a)
    oracle = float(np.real(a.conj() @ rho.entries @ a))
    assert measure_probability(rho, a) == pytest.approx(oracle, abs=1e-12)


def test_measure_probability_rejects_unnormalized():
    rho = pure_density(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        measure_probability(rho, np.array([2.0, 0.0], dtype=complex))


def test_dephase_rejects_non_orthonormal():
    basis = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="not orthonormal"):
        dephase(pure_density(np.array([1.0, 0.0])), basis)


def test_dephase_diagonal_unchanged():
    rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    out = dephase(rho, np.eye(2, dtype=complex))
    np.testing.assert_allclose(out.entries, rho.entries, atol=1e-14)


def test_dephase_superposition():
    plus = np.array([HALF, HALF], dtype=complex)
    rho = pure_density(plus)
    basis = np.eye(2, dtype=complex)
    out = dephase(rho, basis)
    np.testing.assert_allclose(out.entries, 0.5 * np.eye(2), atol=1e-14)


def test_dephase_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(9)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rho = pure_density(v)
    theta = 0.3
    basis = np.eye(4, dtype=complex)
    basis[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    out = dephase(rho, basis)
    assert abs(np.trace(out.entries) - 1.0) < 1e-12
    assert np.max(np.abs(out.entries - out.entries.conj().T)) < 1e-13


def test_dephase_idempotent_and_purity_decreasing():
    rng = np.random.default_rng(13)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    rho = pure_density(v)
    basis = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    once = dephase(rho, basis)
    twice = dephase(once, basis)
    np.testing.assert_allclose(twice.entries, once.entries, atol=1e-13)
    assert purity(once) <= purity(rho) + 1e-12

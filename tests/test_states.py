import dataclasses

import numpy as np
import pytest

from conftest import (
    apply_generator,
    gaussian_1d,
    gaussian_phase,
    meshes,
    purity,
    random_bandlimited_1d,
    random_bandlimited_phase,
)
from kvnlab.analysis import std_dev
from kvnlab.errors import GridMismatchError
from kvnlab.grid import Grid1D, PhaseGrid
from kvnlab.operators import (
    GridOperator,
    hamiltonian,
    lambda_op,
    momentum_op,
    position_op,
    theta_op,
)
from kvnlab.states import (
    DensityMatrix,
    Wavefunction,
    dephase,
    expectation,
    join_parts,
    measure_probability,
    pure_density,
    real_parts,
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


@pytest.mark.parametrize("dtype, kept", [(float, np.float64), (np.int64, np.float64),
                                          (np.float32, np.float64), (complex, np.complex128)])
def test_a_state_keeps_its_kind(phase_small, dtype, kept):
    # a real state is held as float64 and a complex one as complex128
    amp = np.ones(phase_small.shape, dtype=dtype)
    psi = Wavefunction(phase_small, amp)
    assert psi.amplitudes.dtype == kept
    assert psi.normalize().amplitudes.dtype == kept


@pytest.mark.parametrize("grid", ["grid_small", "phase_small"])
def test_real_normalize_is_the_real_part_of_the_complex_one(request, grid):
    # bit for bit: a real state takes the complex path's product with 1/sqrt(norm)
    g = request.getfixturevalue(grid)
    amp = np.random.default_rng(3).standard_normal(g.shape) * 1e-3
    real = Wavefunction(g, amp).normalize().amplitudes
    whole = Wavefunction(g, amp.astype(complex)).normalize().amplitudes
    assert real.dtype == np.float64 and whole.dtype == np.complex128
    assert real.tobytes() == whole.real.tobytes()
    assert not whole.imag.any()


def test_real_parts_round_trip_keeps_a_real_field_real(phase_small):
    amp = gaussian_phase(phase_small).amplitudes
    (part,) = real_parts(amp)
    assert join_parts([part]) is part  # a lone real part, as it is
    phased = amp * np.exp(1j * meshes(phase_small)[0])
    joined = join_parts(real_parts(phased))
    assert joined.dtype == np.complex128 and joined.tobytes() == phased.tobytes()


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
    energy = np.sum(np.conj(psi.amplitudes) * apply_generator(H, psi.amplitudes)) * psi.measure
    assert energy.real == pytest.approx(0.5, abs=1e-8)


def test_expectation_refuses_an_operator_on_another_grid():
    # same size, twice the length: read on psi's grid it gave <q> = 2.0 for
    # this state instead of 1.0
    g, other = Grid1D(256, -8.0, 8.0), Grid1D(256, -16.0, 16.0)
    psi = gaussian_1d(g, center=1.0)
    with pytest.raises(GridMismatchError):
        expectation(position_op(other), psi)


def test_expectation_guards_hermitian_flag(grid_small):
    # a complex diagonal is not Hermitian: it is refused when it is built
    with pytest.raises(ValueError, match="payload must be real"):
        GridOperator(grid_small, 1j * (grid_small.points**2 + 1.0))


def _operators():
    """Every grid-operator builder on the grids of
    ``test_robertson_holds_on_random_states``, with its square."""
    g = Grid1D(256, -16.0, 16.0)
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))
    ops = {
        "q": position_op(g), "p": momentum_op(g), "p-hbar-1e-6": momentum_op(g, hbar=1e-6),
        "q-phase": position_op(pg), "p-phase": momentum_op(pg),
        "theta": theta_op(pg), "lambda": lambda_op(pg),
    }
    ops.update({f"{name}^2": dataclasses.replace(op, payload=op.payload * op.payload)
                for name, op in list(ops.items())})
    return ops


OPERATORS = _operators()


def _random_state(grid, rng):
    """A random band-limited state, as in ``test_robertson_holds_on_random_states``."""
    if isinstance(grid, Grid1D):
        return random_bandlimited_1d(grid, rng)
    return random_bandlimited_phase(grid, rng)


@pytest.mark.parametrize("name", list(OPERATORS))
def test_expectation_matches_applied_operator(name):
    # reference: the applied-operator formula sum(conj(psi) * A psi) * measure
    op = OPERATORS[name]
    rng = np.random.default_rng(61)
    for _ in range(10):
        psi = _random_state(op.grid, rng)
        reference = np.sum(np.conj(psi.amplitudes) * op.apply(psi.amplitudes)) * psi.measure
        value = expectation(op, psi)
        assert type(value) is float
        assert abs(value - reference) <= 1e-13 * np.max(np.abs(op.payload))


@pytest.mark.parametrize("name", [name for name in OPERATORS if not name.endswith("^2")])
def test_std_dev_matches_applied_operator(name):
    # reference: sqrt(||A psi||^2 measure - <psi|A psi>^2) from the applied operator
    op = OPERATORS[name]
    rng = np.random.default_rng(67)
    for _ in range(10):
        psi = _random_state(op.grid, rng)
        applied = op.apply(psi.amplitudes)
        second = np.sum(np.abs(applied) ** 2) * psi.measure
        mean = np.sum(np.conj(psi.amplitudes) * applied).real * psi.measure
        reference = np.sqrt(second - mean**2)
        assert std_dev(op, psi) == pytest.approx(reference, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "name, fft_calls",
    [("p", 1), ("p^2", 1), ("theta", 1), ("lambda^2", 1), ("q", 0), ("q-phase^2", 0),
     ("p-phase", 0)],
)
def test_expectation_transform_budget(call_counts, name, fft_calls):
    # a spectral mean is one forward FFT of the state, by Parseval; a
    # position-diagonal one needs none
    op = OPERATORS[name]
    psi = _random_state(op.grid, np.random.default_rng(3))
    call_counts.clear()
    expectation(op, psi)
    assert dict(call_counts) == ({"fft": fft_calls} if fft_calls else {})


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


def _stack_members(rng, count=5, dim=3):
    """``count`` valid mixed states of dimension ``dim``."""
    members = []
    for _ in range(count):
        v = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        w = rng.uniform(0.2, 0.8)
        members.append(w * np.outer(v[0], v[0].conj()) + (1 - w) * np.outer(v[1], v[1].conj()))
    return np.array(members)


@pytest.mark.parametrize(
    "fault, match",
    [
        (lambda m: m + np.array([[0, 0.1, 0], [0, 0, 0], [0, 0, 0]]), "not Hermitian"),
        (lambda m: 2 * m, "trace must be 1"),
        (lambda m: np.diag([1.5, -0.25, -0.25]).astype(complex), "negative eigenvalue -2.500e-01"),
        # Hermitian with unit trace, and no eigenvalue below -1e-10, but
        # Tr rho^2 = 1 + 3e-10 > 1 + 1e-10
        (lambda m: np.diag([1 + 1.5e-10, -0.75e-10, -0.75e-10]).astype(complex), "purity"),
    ],
    ids=["hermitian", "trace", "negative-eigenvalue", "purity"],
)
def test_density_matrix_stack_refuses_one_bad_member(fault, match):
    members = _stack_members(np.random.default_rng(17))
    for m in members:
        DensityMatrix(m)  # every member is valid alone
    stack = DensityMatrix(members.reshape(5, 1, 3, 3))
    assert stack.entries.shape == (5, 1, 3, 3)
    bad = members.copy()
    bad[3] = fault(members[3])
    with pytest.raises(ValueError, match=match) as alone:
        DensityMatrix(bad[3])
    assert "stack index" not in str(alone.value)  # one matrix reads as before stacks
    with pytest.raises(ValueError, match=match) as stacked:
        DensityMatrix(bad)
    assert str(stacked.value).endswith("at stack index (3,)")


def test_measure_probability_of_a_stack_matches_each_member():
    rng = np.random.default_rng(23)
    members = _stack_members(rng, count=7)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a /= np.linalg.norm(a)
    stacked = measure_probability(DensityMatrix(members), a)
    one_by_one = [measure_probability(DensityMatrix(m), a) for m in members]
    assert all(type(p) is float for p in one_by_one)
    assert stacked.shape == (7,)
    np.testing.assert_allclose(stacked, one_by_one, rtol=0, atol=1e-15)


def test_pure_density_and_dephase_act_on_each_member():
    rng = np.random.default_rng(29)
    vectors = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    basis = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    stacked = dephase(pure_density(vectors), basis).entries
    for v, member in zip(vectors, stacked):
        np.testing.assert_allclose(member, dephase(pure_density(v), basis).entries,
                                   rtol=0, atol=1e-15)


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

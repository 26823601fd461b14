import tracemalloc

import numpy as np
import pytest

from conftest import assert_runs_its_parts_apart, gaussian_1d, gaussian_phase
from kvnlab import kernels
from kvnlab.errors import DegenerateInputError
from kvnlab.grid import Grid1D, PhaseGrid, wavenumbers
from kvnlab.kernels import (
    free_kvn_propagate,
    free_quantum_kernel,
    free_quantum_propagate,
    kernel_convolution,
    kernel_propagate,
)
from kvnlab.operators import koopman_generator
from kvnlab.oscillator import solve_classical_tdho
from kvnlab.propagation import kvn_step


def test_kernel_modulus_is_position_independent():
    t, m, hbar = 0.7, 1.3, 0.9
    x = np.linspace(-5, 5, 11)
    K = free_quantum_kernel(x, 0.2, t, m, hbar)
    np.testing.assert_allclose(np.abs(K) ** 2, m / (2 * np.pi * hbar * t), atol=1e-12)


def test_kernel_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        free_quantum_kernel(0.0, 0.0, 0.0)


def test_kernel_quadrature_matches_spectral_free_evolution():
    g = Grid1D(2048, -32.0, 32.0)
    psi = gaussian_1d(g, sigma=1.0)
    t = 1.0
    via_kernel = kernel_propagate(psi, t)
    via_fft = free_quantum_propagate(psi, t)
    diff = via_kernel.amplitudes - via_fft.amplitudes
    assert np.sqrt(np.sum(np.abs(diff) ** 2) * g.dx) < 1e-6


def test_kernel_propagate_matches_dense_quadrature_off_dyadic_grid():
    g = Grid1D(128, -3.3, 4.1)  # dx = 7.4/128: offsets x_i - x_j round differently
    psi = gaussian_1d(g, center=0.4, sigma=0.6, k0=1.3)
    t, m, hbar = 0.37, 1.3, 0.9
    K = free_quantum_kernel(g.points[:, None], g.points[None, :], t, m, hbar)
    dense = K @ psi.amplitudes * g.dx
    got = kernel_propagate(psi, t, m, hbar)
    assert got.time == psi.time + t
    assert np.max(np.abs(got.amplitudes - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_kernel_propagate_forms_no_dense_kernel():
    g = Grid1D(2048, -32.0, 32.0)
    psi = gaussian_1d(g, sigma=1.0)
    tracemalloc.start()
    try:
        kernel_propagate(psi, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.n * g.n  # a dense complex kernel takes 16 n^2 bytes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("t1, x", [(1e-3, 0.7), (5e-324, 0.7), (0.4, 1e6), (0.015, 0.7),
                                   (1e-300, 0.7)])
def test_kernel_convolution_refuses_oversized_quadrature(call_counts, t1, x):
    # t1 = 1e-3 and 0.015 take the same 64 nodes as t1 = 0.4 on the steepest-descent
    # line (a quadrature on the real line needs 7e7 samples at t1 = 1e-3), so they
    # are summed.  t1 = 5e-324 makes a1 infinite; unchecked, t1 = 1e-300 collapses
    # the nodes onto one float (relative miss 0.9) and x = 1e6 overflows a factor (NaN).
    x0, t2 = -0.3, 0.4
    if t1 in (1e-3, 0.015):
        direct = free_quantum_kernel(x, x0, t1 + t2)
        assert abs(kernel_convolution(x, x0, t1, t2) - direct) <= 1e-14 * abs(direct)
        return
    with pytest.raises(DegenerateInputError, match=r"t1=.*t2=0\.4 at \(x, x0\) = .*phase scale"):
        kernel_convolution(x, x0, t1, t2)
    assert call_counts["exp"] == 0


def test_kernel_group_law_numeric_convolution():
    m, hbar = 1.0, 1.0
    for (x, x0, t1, t2) in [(0.7, -0.3, 0.4, 0.4), (1.2, 0.5, 0.3, 0.6), (0.0, 0.0, 0.5, 0.5)]:
        direct = free_quantum_kernel(x, x0, t1 + t2, m, hbar)
        conv = kernel_convolution(x, x0, t1, t2, m, hbar)
        assert abs(conv - direct) < 1e-6


@pytest.mark.parametrize("fault", [None, "phase", "prefactor"])
def test_group_law_catches_a_planted_kernel_fault(monkeypatch, fault):
    """Criterion 6's group residual, at its three points, is at the rounding
    floor for the exact kernel and over its 1e-6 bound when the kernel's phase
    or its prefactor is scaled by 1.01."""
    exact = kernels.free_quantum_kernel
    faulty = {
        None: exact,
        # K(t / 1.01) / sqrt(1.01) is K with its phase alone scaled by 1.01
        "phase": lambda x, x0, t, m=1.0, hbar=1.0: exact(x, x0, t / 1.01, m, hbar) / np.sqrt(1.01),
        "prefactor": lambda x, x0, t, m=1.0, hbar=1.0: 1.01 * exact(x, x0, t, m, hbar),
    }[fault]
    monkeypatch.setattr(kernels, "free_quantum_kernel", faulty)
    worst = max(
        abs(kernel_convolution(x, x0, 0.4, 0.4) - faulty(x, x0, 0.8))
        for x, x0 in ((0.7, -0.3), (1.2, 0.5), (0.0, 0.0))
    )
    assert worst <= 1e-14 if fault is None else worst > 1e-6


# --- classical kernel --------------------------------------------------------


def test_free_kvn_propagate_zero_time_is_identity():
    pg = PhaseGrid(Grid1D(64, -8.0, 8.0), Grid1D(64, -4.0, 4.0))
    psi = gaussian_phase(pg, sigma_q=0.8, sigma_p=0.5)
    out = free_kvn_propagate(psi, 0.0)
    np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-14)


def test_free_kvn_propagate_moves_centroid_classically():
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(64, -4.0, 4.0))
    p0, t, m = 1.2, 1.5, 1.0
    psi = gaussian_phase(pg, q0=0.0, p0=p0, sigma_q=0.5, sigma_p=0.3)
    out = free_kvn_propagate(psi, t, m)
    rho = np.abs(out.amplitudes) ** 2 * pg.cell_area
    q_mean = np.sum(pg.q.points[:, None] * rho)
    p_mean = np.sum(pg.p.points[None, :] * rho)
    assert q_mean == pytest.approx(p0 * t / m, abs=1e-8)
    assert p_mean == pytest.approx(p0, abs=1e-10)


def test_free_kvn_propagate_agrees_with_kvn_step():
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(64, -4.0, 4.0))
    psi = gaussian_phase(pg, q0=-0.5, p0=0.7, sigma_q=0.5, sigma_p=0.3)
    G = koopman_generator(pg, lambda q: np.zeros_like(q))
    t = 0.9
    a = free_kvn_propagate(psi, t)
    b = kvn_step(psi, G, t)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-10


def _complex_shear(psi, t, m):
    kq = wavenumbers(psi.grid.q)[:, None]
    factor = np.exp(-1j * kq * psi.grid.p.points[None, :] * t / m)
    return np.fft.ifft(factor * np.fft.fft(psi.amplitudes, axis=0), axis=0)


@pytest.mark.parametrize("phased", [False, True], ids=["real", "phased"])
def test_free_kvn_propagate_transform_path(call_counts, phased):
    # a real and a phased state alike are sheared on rfft/irfft, the phased
    # one as its real and imaginary parts, both with the one factor
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(64, -4.0, 4.0))
    phase = (lambda Q, P: np.sin(Q) * np.cos(P)) if phased else None
    psi = gaussian_phase(pg, q0=-0.5, p0=0.7, sigma_q=0.5, sigma_p=0.3, phase=phase)
    t, m = 0.9, 1.3
    want = _complex_shear(psi, t, m)
    call_counts.clear()
    got = free_kvn_propagate(psi, t, m)
    assert call_counts["fft"] == call_counts["ifft"] == 0
    assert call_counts["rfft"] == call_counts["irfft"] == (2 if phased else 1)
    assert call_counts["exp"] == 1
    assert got.amplitudes.dtype == (np.complex128 if phased else np.float64)
    assert np.max(np.abs(got.amplitudes - want)) <= 1e-13


def test_free_kvn_propagate_of_a_complex_state_is_that_of_its_parts():
    # the shear is a real operator: the sheared state is, bit for bit, the
    # sheared real part plus i times the sheared imaginary part
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(64, -4.0, 4.0))
    psi = gaussian_phase(pg, q0=-0.5, p0=0.7, sigma_q=0.5, sigma_p=0.3,
                         phase=lambda Q, P: np.sin(Q) * np.cos(P))
    assert_runs_its_parts_apart(lambda s: free_kvn_propagate(s, 0.9, 1.3), psi)


def test_kvn_shear_group_law():
    pg = PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(64, -4.0, 4.0))
    psi = gaussian_phase(pg, q0=-0.5, p0=0.7, sigma_q=0.5, sigma_p=0.3)
    once = free_kvn_propagate(free_kvn_propagate(psi, 0.4), 0.6)
    direct = free_kvn_propagate(psi, 1.0)
    assert np.max(np.abs(once.amplitudes - direct.amplitudes)) < 1e-10


# --- delta-law residuals along the oscillator's RK4 characteristics ----------


def delta_law_residuals(traj, vprime):
    """Largest violations of the discretized classical laws along ``traj``:
    p_j = (q_{j+1} - q_j) / dt, the forward difference form of p = v at unit
    mass, and (p_{j+1} - p_j) / dt = -V'(q_j).  Both vanish with dt for a
    consistent integrator."""
    dt = np.diff(traj.t)
    r1 = np.max(np.abs(traj.p[:-1] - np.diff(traj.q) / dt))
    r2 = np.max(np.abs(np.diff(traj.p) / dt + vprime(traj.q[:-1])))
    return r1, r2


def test_delta_laws_exact_free_trajectory():
    dt = 1e-2
    traj = solve_classical_tdho(lambda t: 0.0, 0.3, 1.1, 199 * dt, dt)
    np.testing.assert_allclose(traj.q, 0.3 + 1.1 * traj.t, atol=1e-13)
    r1, r2 = delta_law_residuals(traj, np.zeros_like)
    assert r1 < 1e-12
    assert r2 < 1e-12


def test_delta_laws_harmonic_rk4():
    # the forward-difference residual of a smooth trajectory is
    # dt/2 * max|second derivative| to leading order; RK4's own error is
    # negligible next to that
    dt = 1e-3
    traj = solve_classical_tdho(lambda t: 1.0, 1.0, 0.0, 1.0, dt)
    r1, r2 = delta_law_residuals(traj, lambda x: x)
    assert r1 == pytest.approx(dt / 2 * np.max(np.abs(traj.q)), rel=0.05)
    assert r2 == pytest.approx(dt / 2 * np.max(np.abs(traj.p)), rel=0.05)
    assert r1 < 6e-4 and r2 < 6e-4


def test_delta_law_residual_scales_linearly_with_dt():
    r = []
    for dt in (2e-3, 1e-3):
        traj = solve_classical_tdho(lambda t: 1.0, 1.0, 0.0, 1.0, dt)
        r.append(delta_law_residuals(traj, lambda x: x)[0])
    assert 1.8 < r[0] / r[1] < 2.2

import numpy as np
import pytest

from conftest import meshes
from kvnlab.grid import Grid1D, PhaseGrid, dft_powers, wavenumbers
from kvnlab.operators import momentum_op


def spectral_derivative(f, g):
    """d/dq through the quantum momentum operator -i d/dq (hbar = 1), which
    multiplies by the grid's wavenumbers between an FFT and its inverse."""
    return 1j * momentum_op(g).apply(f)


def fd4_derivative(f, dx):
    """4th-order centered finite differences on a periodic array (oracle)."""
    return (
        -np.roll(f, -2) + 8 * np.roll(f, -1) - 8 * np.roll(f, 1) + np.roll(f, 2)
    ) / (12 * dx)


def test_grid_construction_and_points():
    g = Grid1D(16, -8.0, 8.0)
    assert g.dx == pytest.approx(1.0)
    assert g.points[0] == -8.0
    assert g.points[-1] == 7.0
    np.testing.assert_allclose(g.points, -8.0 + np.arange(16.0))


@pytest.mark.parametrize("n", [7, 12, 100])
def test_grid_rejects_non_power_of_two(n):
    with pytest.raises(ValueError):
        Grid1D(n, 0.0, 1.0)


def test_grid_rejects_empty_domain():
    with pytest.raises(ValueError):
        Grid1D(16, 1.0, 1.0)


def test_wavenumbers_n8_ordering():
    g = Grid1D(8, 0.0, 8.0)  # dx = 1
    k = wavenumbers(g)
    expected = np.array([0, 1, 2, 3, 4, -3, -2, -1]) * (2 * np.pi / 8)
    np.testing.assert_allclose(k, expected, atol=1e-15)


def test_wavenumber_spacing_halves_when_n_doubles():
    # doubling n at fixed dx halves the spacing 2*pi/(n*dx)
    k1 = wavenumbers(Grid1D(16, 0.0, 16.0))
    k2 = wavenumbers(Grid1D(32, 0.0, 32.0))
    assert k2[1] == pytest.approx(k1[1] / 2)


def test_wavenumbers_max_frequency():
    g = Grid1D(16, -8.0, 8.0)
    assert np.max(np.abs(wavenumbers(g))) == pytest.approx(np.pi, abs=1e-15)


def test_derivative_of_exact_grid_mode():
    g = Grid1D(64, 0.0, 2 * np.pi)
    k0 = 5.0
    f = np.sin(k0 * g.points)
    df = spectral_derivative(f, g)
    np.testing.assert_allclose(df.real, k0 * np.cos(k0 * g.points), atol=1e-10)
    assert np.max(np.abs(df.imag)) < 1e-12


def test_derivative_of_constant_is_zero():
    g = Grid1D(32, -1.0, 1.0)
    df = spectral_derivative(np.ones(g.n, dtype=complex), g)
    assert np.max(np.abs(df)) < 1e-13


def test_derivative_matches_finite_difference_oracle():
    # oracle: 4th-order stencil evaluated on a 4x refined sampling of the
    # same analytic Gaussian, read off at the coarse points
    g = Grid1D(256, -16.0, 16.0)
    fine = Grid1D(1024, -16.0, 16.0)
    f = np.exp(-g.points**2 / 2).astype(complex)
    oracle = fd4_derivative(np.exp(-fine.points**2 / 2), fine.dx)[::4]
    df = spectral_derivative(f, g)
    np.testing.assert_allclose(df.real, oracle, atol=1e-6)
    assert np.max(np.abs(df.imag)) < 1e-12


def test_parseval_roundtrip():
    rng = np.random.default_rng(7)
    g = Grid1D(128, -4.0, 4.0)
    f = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    before = np.sum(np.abs(f) ** 2) * g.dx
    back = np.fft.ifft(np.fft.fft(f))
    after = np.sum(np.abs(back) ** 2) * g.dx
    assert abs(after - before) / before < 1e-12


def test_derivative_linearity():
    rng = np.random.default_rng(11)
    g = Grid1D(64, -2.0, 2.0)
    f = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    h = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    a, b = 1.3 - 0.2j, -0.7 + 2.1j
    lhs = spectral_derivative(a * f + b * h, g)
    rhs = a * spectral_derivative(f, g) + b * spectral_derivative(h, g)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_first_derivative_anti_hermitian():
    # band-limited test fields: low-mode Fourier content only
    rng = np.random.default_rng(3)
    g = Grid1D(128, -4.0, 4.0)
    def bandlimited():
        c = np.zeros(g.n, dtype=complex)
        c[:8] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        c[-8:] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        return np.fft.ifft(c)
    f, h = bandlimited(), bandlimited()
    df, dh = spectral_derivative(f, g), spectral_derivative(h, g)
    lhs = np.sum(np.conj(f) * dh) * g.dx
    rhs = -np.sum(np.conj(df) * h) * g.dx
    assert abs(lhs - rhs) / max(abs(lhs), 1e-30) < 1e-10


def test_phase_grid_cell_area():
    pg = PhaseGrid(Grid1D(32, -4.0, 4.0), Grid1D(16, -2.0, 2.0))
    assert pg.cell_area == pytest.approx(0.25 * 0.25)
    assert pg.shape == (32, 16)
    Q, P = meshes(pg)
    assert Q.shape == (32, 1) and P.shape == (1, 16)


@pytest.mark.parametrize("n", [8, 2048])
@pytest.mark.parametrize("columns", [slice(None), slice(96, 128)], ids=["p_axis", "slab"])
def test_dft_powers_match_direct_shear_phase(n, columns):
    # the bins 0..n/2 that rfft keeps
    q, p = Grid1D(n, -64.0, 64.0), Grid1D(256, -8.0, 8.0).points[columns]
    t, m = 2.0, 1.3
    kq = wavenumbers(q)
    want = np.exp(-1j * kq[: n // 2 + 1, None] * p[None, :] * t / m)
    got = dft_powers(-1j * kq[1] * p * t / m, n, 0)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12

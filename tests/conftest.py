from collections import Counter

import numpy as np
import pytest

from kvnlab.grid import Grid1D, PhaseGrid
from kvnlab.states import Wavefunction


def gaussian_1d(grid, center=0.0, sigma=1.0, k0=0.0, hbar=1.0):
    """Normalized Gaussian wave packet, optionally momentum-kicked."""
    x = grid.points
    amp = np.exp(-((x - center) ** 2) / (4 * sigma**2)) * np.exp(
        1j * k0 * x / 1.0
    )
    psi = Wavefunction(grid, amp).normalize()
    return psi


def gaussian_phase(pg, q0=0.0, p0=0.0, sigma_q=1.0, sigma_p=1.0, phase=None):
    """Normalized product Gaussian on a phase grid, with optional phase field."""
    Q, P = pg.meshes()
    amp = np.exp(
        -((Q - q0) ** 2) / (4 * sigma_q**2) - ((P - p0) ** 2) / (4 * sigma_p**2)
    ).astype(complex)
    if phase is not None:
        amp = amp * np.exp(1j * phase(Q, P))
    return Wavefunction(pg, amp).normalize()


def random_bandlimited_1d(grid, rng, n_modes=8, envelope_sigma=None):
    """Random smooth state localized away from the periodic boundary."""
    coeff = np.zeros(grid.n, dtype=complex)
    coeff[:n_modes] = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    coeff[-n_modes:] = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    f = np.fft.ifft(coeff)
    if envelope_sigma is None:
        # boundary amplitude ~exp(-32): keeps sawtooth-position commutators clean
        envelope_sigma = grid.length / 16.0
    mid = 0.5 * (grid.x_min + grid.x_max)
    f = f * np.exp(-((grid.points - mid) ** 2) / (2 * envelope_sigma**2))
    return Wavefunction(grid, f).normalize()


def random_bandlimited_phase(pg, rng, n_modes=5):
    """Random smooth phase-space state localized away from all boundaries."""
    coeff = np.zeros(pg.shape, dtype=complex)
    sl = list(range(n_modes)) + list(range(-n_modes, 0))
    idx = np.ix_(sl, sl)
    coeff[idx] = rng.standard_normal((2 * n_modes, 2 * n_modes)) + 1j * rng.standard_normal(
        (2 * n_modes, 2 * n_modes)
    )
    f = np.fft.ifft2(coeff)
    Q, P = pg.meshes()
    mq = 0.5 * (pg.q.x_min + pg.q.x_max)
    mp = 0.5 * (pg.p.x_min + pg.p.x_max)
    sq, sp = pg.q.length / 16.0, pg.p.length / 16.0
    f = f * np.exp(-((Q - mq) ** 2) / (2 * sq**2) - ((P - mp) ** 2) / (2 * sp**2))
    return Wavefunction(pg, f).normalize()


@pytest.fixture
def grid_small():
    return Grid1D(256, -16.0, 16.0)


@pytest.fixture
def phase_small():
    return PhaseGrid(Grid1D(128, -8.0, 8.0), Grid1D(128, -8.0, 8.0))


class CallCounter(Counter):
    """Calls made to watched functions, keyed by attribute name."""

    def __init__(self, monkeypatch):
        super().__init__()
        self._monkeypatch = monkeypatch

    def watch(self, owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self[name] += 1
            return original(*args, **kwargs)

        self._monkeypatch.setattr(owner, name, counted)


@pytest.fixture
def call_counts(monkeypatch):
    """Counts calls to np.fft.fft, ifft, rfft, irfft and np.exp; ``watch`` adds more."""
    counter = CallCounter(monkeypatch)
    for name in ("fft", "ifft", "rfft", "irfft"):
        counter.watch(np.fft, name)
    counter.watch(np, "exp")
    return counter

"""Closed-form free-particle propagators.

The quantum free kernel K(x, x0, t) = sqrt(m/(2 pi i hbar t))
exp[i m (x-x0)^2 / (2 hbar t)] propagates configuration-space states by
quadrature.  On a uniform grid K(x_i, x_j) depends only on i - j, so the
quadrature sum_j K(x_i - x_j) psi_j dx is a direct linear convolution with
the kernel sampled at the 2n - 1 offsets (i - j) dx: no n x n matrix is
formed, and on a dyadic grid the kernel values are bit-identical to the
dense matrix's.  Its classical counterpart is a pair of delta constraints
that reduce to the exact shear psi(x, p, t) = psi0(x - p t / m, p),
realized spectrally.  Oscillatory (Fresnel) integrals are defined by the
principal branch square root, i.e. the standard damping prescription with
the damping sent to zero.

Real-field shear: the shear maps a real field to a real field.  A state
whose imaginary part is exactly zero is sheared as float64 with rfft/irfft
along q and the factor over rows 0..n/2 only; other states take the complex
fft/ifft path.  As in :mod:`kvnlab.propagation`, the two differ by round-off
and by the Nyquist bin: its wavenumber +pi/dx has no -pi/dx partner, so the
complex path leaks an imaginary part there that the real path drops.  The
real path equals the real part of the complex one.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError
from .grid import Grid1D, wavenumbers
from .states import Wavefunction

#: Most samples one damped quadrature of ``kernel_convolution`` may take; the
#: count grows as 1/t for short times and as (x, x0) move off the origin.
MAX_QUADRATURE_SAMPLES = 2**22

#: ``kernel_convolution``'s damping ladder, eps = DAMPING_EPS0 / 2**j for j < DAMPING_LEVELS,
#: and its samples per period of the integrand's fastest oscillation.
DAMPING_EPS0 = 0.02
DAMPING_LEVELS = 5
POINTS_PER_CYCLE = 8.0


def _kernel_prefactor(t: float, mass: float, hbar: float) -> complex:
    if t <= 0:
        raise ValueError(f"kernel needs t > 0, got {t}")
    return np.sqrt(mass / (2j * np.pi * hbar * t))


def free_quantum_kernel(
    x: np.ndarray | float, x0: np.ndarray | float, t: float,
    mass: float = 1.0, hbar: float = 1.0,
) -> np.ndarray | complex:
    """Free-particle propagator amplitude from x0 to x in time t > 0."""
    pref = _kernel_prefactor(t, mass, hbar)
    return pref * np.exp(1j * mass * (np.asarray(x) - np.asarray(x0)) ** 2 / (2 * hbar * t))


def kernel_propagate(
    psi: Wavefunction, t: float, mass: float = 1.0, hbar: float = 1.0
) -> Wavefunction:
    """Propagate a compactly supported state by quadrature against the kernel.

    out_i = sum_j K(x_i - x_j) psi_j dx, summed directly as a linear
    convolution with K at the offsets (i - j) dx, i - j = 1-n .. n-1.
    """
    g = psi.grid
    half = free_quantum_kernel(g.points - g.points[0], 0.0, t, mass, hbar)
    kern = np.concatenate([half[:0:-1], half])  # K is even in the offset
    out = np.convolve(kern, psi.amplitudes, "valid") * g.dx
    return Wavefunction(g, out, time=psi.time + t)


def free_quantum_propagate(
    psi: Wavefunction, t: float, mass: float = 1.0, hbar: float = 1.0
) -> Wavefunction:
    """Exact free evolution in the Fourier representation (any t, one step)."""
    g = psi.grid
    k = wavenumbers(g)
    phase = np.exp(-1j * hbar * k**2 * t / (2 * mass))
    out = np.fft.ifft(phase * np.fft.fft(psi.amplitudes))
    return Wavefunction(g, out, time=psi.time + t)


def free_kvn_propagate(psi: Wavefunction, t: float, mass: float = 1.0) -> Wavefunction:
    """Exact classical shear psi(x - p t / m, p), realized spectrally; a real
    state runs on rfft/irfft (see the module docstring)."""
    if t < 0:
        raise ValueError(f"shear propagation needs t >= 0, got {t}")
    amp = real_if_real(psi.amplitudes)
    pg = psi.grid
    out = shear(amp, shear_factor(pg.q, pg.p.points, t, mass, real=np.isrealobj(amp)))
    return Wavefunction(psi.grid, out, time=psi.time + t)


def real_if_real(amp: np.ndarray) -> np.ndarray:
    """``amp`` as float64 when its imaginary part is exactly zero, else as is."""
    if np.iscomplexobj(amp) and not amp.imag.any():
        return amp.real
    return amp


def shear_factor(
    q: Grid1D, p: np.ndarray, t: float, mass: float = 1.0, real: bool = False
) -> np.ndarray:
    """The spectral shear factor exp(-i k_q p t / m) of the q grid ``q`` for
    the momenta ``p``: axis 0 in k_q order, one column per momentum (a whole
    p axis or any slab of it); with ``real``, only rows 0..n/2, the bins that
    rfft keeps."""
    kq = wavenumbers(q)
    if real:
        kq = kq[: q.n // 2 + 1]
    return np.exp(-1j * kq[:, None] * p[None, :] * t / mass)


def shear(amp: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Apply a :func:`shear_factor` along q: rfft/irfft for a real ``amp``
    (with the ``real`` factor), fft/ifft for a complex one."""
    if np.isrealobj(amp):
        return np.fft.irfft(factor * np.fft.rfft(amp, axis=0), n=amp.shape[0], axis=0)
    return np.fft.ifft(factor * np.fft.fft(amp, axis=0), axis=0)


def kernel_convolution(
    x: float, x0: float, t1: float, t2: float,
    mass: float = 1.0, hbar: float = 1.0,
) -> complex:
    """integral K(x, y, t2) K(y, x0, t1) dy by damped quadrature.

    The bare integrand oscillates without decaying, so each quadrature runs
    with a Gaussian damping exp(-eps y^2); the ladder of eps values
    (``DAMPING_LEVELS`` of them, halving from ``DAMPING_EPS0``) is
    extrapolated polynomially to eps = 0.  The group law says the result
    equals K(x, x0, t1 + t2).
    The two Fresnel phases and the damping share one exponential per sample.
    """
    pref = _kernel_prefactor(t2, mass, hbar) * _kernel_prefactor(t1, mass, hbar)
    a1, a2 = mass / (2 * hbar * t1), mass / (2 * hbar * t2)
    eps_values = [DAMPING_EPS0 / 2**j for j in range(DAMPING_LEVELS)]
    estimates = []
    slope_scale = mass * (1.0 / t1 + 1.0 / t2) / hbar
    for eps in eps_values:
        half_width = 6.0 / np.sqrt(eps) + abs(x) + abs(x0)
        dy = 2 * np.pi / (slope_scale * half_width) / POINTS_PER_CYCLE
        n = np.ceil(2 * half_width / dy)
        if not n <= MAX_QUADRATURE_SAMPLES:
            raise DegenerateInputError(
                f"kernel_convolution needs {n:.3g} samples per quadrature, more than "
                f"{MAX_QUADRATURE_SAMPLES}: t1, t2 too short or x, x0 too far out"
            )
        y = np.linspace(-half_width, half_width, int(n), endpoint=False)
        exponent = 1j * (a2 * (x - y) ** 2 + a1 * (y - x0) ** 2) - eps * y**2
        estimates.append(pref * np.sum(np.exp(exponent)) * (y[1] - y[0]))
    return _neville_at_zero(eps_values, estimates)


def _neville_at_zero(xs, ys) -> complex:
    vals = list(ys)
    n = len(vals)
    for level in range(1, n):
        for i in range(n - level):
            x_i, x_j = xs[i], xs[i + level]
            vals[i] = (x_i * vals[i + 1] - x_j * vals[i]) / (x_i - x_j)
    return vals[0]

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
principal branch square root.

The group law is checked by one trapezoid sum.  The integrand
K(x, y, t2) K(y, x0, t1) is an entire Gaussian chirp in y; on the line
y = y_c + e^{i pi/4} s through its stationary point y_c it is a real
Gaussian in s, on which the trapezoid rule converges exponentially
(Trefethen & Weideman, SIAM Rev. 56, 385, 2014).  The damped definition of
the oscillatory integral and the sum along this line agree by Cauchy's
theorem: the integrand is entire and decays in the sector between the real
axis and the line.

The shear factor exp(-i k_q p t / m) is linear in the q wavenumber, so its
rows are the powers of its bin-1 row (``grid.dft_powers``).

The shear is a real operator: it maps a real field to a real field.  A
state is sheared as its real parts (``states.real_parts``): its real part,
and its imaginary part unless that is exactly zero, each as float64 with
rfft/irfft along q and the factor over rows 0..n/2, the bins rfft keeps.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError
from .grid import Grid1D, dft_powers, wavenumbers
from .states import Wavefunction, join_parts, real_parts

#: Nodes of ``kernel_convolution``'s trapezoid sum, over |s| <= 7 / sqrt(a1 + a2),
#: where the Gaussian in s falls to e^-49.
CONVOLUTION_NODES = 64

#: Largest phase scale ``kernel_convolution`` accepts (see there): below it no
#: kernel factor's modulus exceeds e^500 and rounding costs about 1e3 ulps.
MAX_PHASE = 1e3


def free_quantum_kernel(
    x: np.ndarray | float, x0: np.ndarray | float, t: float,
    mass: float = 1.0, hbar: float = 1.0,
) -> np.ndarray | complex:
    """Free-particle propagator amplitude from x0 to x in time t > 0."""
    if t <= 0:
        raise ValueError(f"kernel needs t > 0, got {t}")
    pref = np.sqrt(mass / (2j * np.pi * hbar * t))
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
    """Exact classical shear psi(x - p t / m, p), realized spectrally on the
    state's real parts (see the module docstring)."""
    if t < 0:
        raise ValueError(f"shear propagation needs t >= 0, got {t}")
    pg = psi.grid
    factor = shear_factor(pg.q, pg.p.points, t, mass)
    parts = [shear(part, factor) for part in real_parts(psi.amplitudes)]
    del factor  # free it before the complex result is made
    return Wavefunction(psi.grid, join_parts(parts), time=psi.time + t)


def shear_factor(q: Grid1D, p: np.ndarray, t: float, mass: float = 1.0) -> np.ndarray:
    """The spectral shear factor exp(-i k_q p t / m) of the q grid ``q`` for
    the momenta ``p``: rows 0..n/2 in k_q order, the bins that rfft keeps,
    one column per momentum (a whole p axis or any slab of it).  The rows are
    the powers of the bin-1 row (``dft_powers``)."""
    return dft_powers(-1j * wavenumbers(q)[1] * p * t / mass, q.n, 0)


def shear(amp: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Apply a :func:`shear_factor` along q to the real field ``amp``."""
    return np.fft.irfft(factor * np.fft.rfft(amp, axis=0), n=amp.shape[0], axis=0)


def kernel_convolution(
    x: float, x0: float, t1: float, t2: float,
    mass: float = 1.0, hbar: float = 1.0,
) -> complex:
    """integral K(x, y, t2) K(y, x0, t1) dy, which the group law says equals
    K(x, x0, t1 + t2), as one trapezoid sum along y = y_c + e^{i pi/4} s (see
    the module docstring).

    With a_i = m / (2 hbar t_i), the phase scale a_i (|u| + |v|)^2 over each
    factor's positions u, v at the nodes bounds its phase, twice the log of
    its modulus and, times the float64 epsilon, its phase's rounding error.
    If a1 + a2 is not finite or the phase scale exceeds ``MAX_PHASE``, raises
    ``DegenerateInputError`` before any kernel is evaluated.
    """
    a1, a2 = mass / (2 * hbar * t1), mass / (2 * hbar * t2)
    y_c = (a2 * x + a1 * x0) / (a1 + a2)
    half_width = 7.0 / np.sqrt(a1 + a2)
    y_max = abs(y_c) + half_width
    phase_scale = max(a2 * (abs(x) + y_max) ** 2, a1 * (y_max + abs(x0)) ** 2)
    if not (np.isfinite(a1 + a2) and phase_scale <= MAX_PHASE):
        raise DegenerateInputError(
            f"kernel_convolution cannot resolve t1={t1:g}, t2={t2:g} at (x, x0) = "
            f"({x:g}, {x0:g}): phase scale {phase_scale:.3g}, over {MAX_PHASE:g}"
        )
    s, h = np.linspace(-half_width, half_width, CONVOLUTION_NODES, retstep=True)
    rot = np.exp(0.25j * np.pi)
    y = y_c + rot * s
    f = free_quantum_kernel(x, y, t2, mass, hbar) * free_quantum_kernel(y, x0, t1, mass, hbar)
    # the end terms weigh e^-49, so the plain sum is the trapezoid rule
    return f.sum() * rot * h

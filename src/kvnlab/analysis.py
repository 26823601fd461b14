"""Uncertainty products, expectation-value equation-of-motion residuals,
and the Wigner transform.

The Robertson bound sigma_A sigma_B >= |<[A, B]>| / 2 holds in any inner
product space for Hermitian A, B, so it is checked with the operators'
actual grid realizations; which commutator sits on the right-hand side is
what separates the quantum from the classical flavor.  A width reads <A> and
<A^2> from one density, where A is diagonal; the right-hand side applies the
commutator, so the two sides are not read from the same numbers.

The Wigner transform maps a configuration-space state to a real phase-space
field whose marginals are the position and momentum densities.  It is
computed as a quadrature over the separation variable,

    W(q, p) ~ integral dlam psi(q - hbar lam/2) conj(psi)(q + hbar lam/2)
              exp(i p lam),

with the separation sampled on the position grid (so the shifted evaluations
are index rolls) and the result normalized to unit total integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, PhysicsError
from .grid import PhaseGrid
from .operators import GridOperator, commutator_apply
from .states import Wavefunction, _diagonal_density


def std_dev(op: GridOperator, psi: Wavefunction) -> float:
    """sqrt(<A^2> - <A>^2) on a normalized state, both means read from one
    density where A is diagonal; a variance below -1e-10 <A^2>, more than
    rounding at any scale of A, raises PhysicsError."""
    rho, scale = _diagonal_density(op, psi)
    mean = float(np.sum(op.payload * rho) * scale)
    second = float(np.sum(op.payload * op.payload * rho) * scale)
    radicand = second - mean * mean
    if radicand < -1e-10 * second:
        raise PhysicsError(f"variance came out negative: {radicand:.3e}")
    return float(np.sqrt(max(radicand, 0.0)))


@dataclass(frozen=True)
class RobertsonReport:
    lhs: float  # sigma_A * sigma_B
    rhs: float  # |<[A, B]>| / 2
    satisfied: bool


def robertson_check(a: GridOperator, b: GridOperator, psi: Wavefunction) -> RobertsonReport:
    """Evaluate both sides of the uncertainty bound for a Hermitian pair;
    satisfied within a relative slack of 1e-8, so it reads the same at any hbar."""
    lhs = std_dev(a, psi) * std_dev(b, psi)
    comm_field = commutator_apply(a, b, psi.amplitudes)
    comm_mean = np.sum(np.conj(psi.amplitudes) * comm_field) * psi.measure
    rhs = 0.5 * abs(comm_mean)
    return RobertsonReport(lhs=lhs, rhs=rhs, satisfied=bool(lhs >= rhs * (1 - 1e-8)))


@dataclass(frozen=True)
class EhrenfestResiduals:
    r1_max: float  # max |d<q>/dt - <p>|
    r2_max: float  # max |d<p>/dt + <V'>|
    r1_scale: float  # max |<p>| over the series
    r2_scale: float  # max |<V'>| over the series

    @property
    def r1_relative(self) -> float:
        return self.r1_max / max(self.r1_scale, 1e-12)

    @property
    def r2_relative(self) -> float:
        return self.r2_max / max(self.r2_scale, 1e-12)


def _time_derivative(series: np.ndarray, dt: float) -> np.ndarray:
    """Centered differences at the interior samples, series[1:-1]."""
    return (series[2:] - series[:-2]) / (2 * dt)


def ehrenfest_residuals(trajectory) -> EhrenfestResiduals:
    """Violations of d<q>/dt = <p> and d<p>/dt = -<V'> (unit mass, as the
    generators) along a trajectory, at its interior samples."""
    t = trajectory.times
    if len(t) < 5:
        raise ValueError("need at least 5 time samples")
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=1e-9, atol=1e-12):
        raise ValueError("time samples must be uniform")
    interior = slice(1, -1)
    r1 = np.abs(_time_derivative(trajectory.q_mean, dt) - trajectory.p_mean[interior])
    r2 = np.abs(_time_derivative(trajectory.p_mean, dt) + trajectory.vprime_mean[interior])
    return EhrenfestResiduals(
        r1_max=float(np.max(r1)),
        r2_max=float(np.max(r2)),
        r1_scale=float(np.max(np.abs(trajectory.p_mean))),
        r2_scale=float(np.max(np.abs(trajectory.vprime_mean))),
    )


def wigner_transform(psi: Wavefunction, pg: PhaseGrid, hbar: float = 1.0) -> np.ndarray:
    """Real phase-space field W(q, p) of a configuration-space state.

    ``pg.q`` must equal the state's grid (else GridMismatchError); the
    momentum axis is free.  The output is normalized so that
    sum(W) * dq * dp = 1; the discarded imaginary residue must be below 1e-10.
    """
    g = psi.grid
    if pg.q != g:
        raise GridMismatchError("phase grid position axis must match the state's grid")
    n = g.n
    amp = psi.amplitudes
    # separations hbar*lam = 2*j*dx over the domain width: shifted
    # evaluations are periodic index rolls.  Larger separations would pick
    # up interference between periodic images (a ghost blob at the domain
    # edge); the symmetric range keeps the result real.
    j = np.arange(-n // 4, n // 4 + 1)
    lam = 2.0 * g.dx * j / hbar
    dlam = 2.0 * g.dx / hbar
    idx = np.arange(n)
    minus = amp[(idx[:, None] - j[None, :]) % n]  # psi(q - hbar lam/2)
    plus = np.conj(amp[(idx[:, None] + j[None, :]) % n])  # conj psi(q + hbar lam/2)
    phases = np.exp(1j * lam[:, None] * pg.p.points[None, :])
    W = (minus * plus) @ phases * (dlam / (2 * np.pi))
    imag_residue = float(np.max(np.abs(W.imag)))
    if imag_residue > 1e-10:
        raise PhysicsError(f"Wigner transform imaginary residue {imag_residue:.3e} at hbar "
                           f"{hbar:g} (separation step 2 dx/hbar = {dlam:.3g})")
    W = W.real
    total = float(np.sum(W) * pg.cell_area)
    return W / total


def momentum_density(psi: Wavefunction, p: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """|psi~(p)|^2 with psi~(p) = (2 pi hbar)^{-1/2} integral psi(q) e^{-ipq/hbar} dq."""
    g = psi.grid
    phases = np.exp(-1j * np.asarray(p)[:, None] * g.points[None, :] / hbar)
    tilde = phases @ psi.amplitudes * g.dx / np.sqrt(2 * np.pi * hbar)
    return np.abs(tilde) ** 2

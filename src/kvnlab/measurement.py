"""Two-level non-selective measurement experiment, plus the classical
phase-space counterpart.

A Hamiltonian with eigenvalues +hbar*omega and -hbar*omega evolves the
superposition (1/2)|+> + sqrt(3/4)|->.  Measuring the observable whose
eigenvectors are |a>, |b> = (|+> +/- |->)/sqrt(2) at t = 2*tau gives

    P(a) = (1 + sqrt(3/4) cos(4 omega tau)) / 2          (undisturbed)
    P(a) = (1 + sqrt(3/4) cos^2(2 omega tau)) / 2        (non-selectively
                                                           measured at tau)

The two differ: an unread projective measurement still disturbs a quantum
system.  The classical analogue discards the phase-space phase instead,
which provably leaves every later |psi|^2 unchanged.

Closed forms and density-matrix simulations are kept as separate code paths
so each can check the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import Generator
from .propagation import propagate
from .states import DensityMatrix, Wavefunction, dephase, measure_probability, pure_density

SQ34 = np.sqrt(3.0 / 4.0)
HALF = 1.0 / np.sqrt(2.0)

#: initial superposition in the energy basis (|+>, |->)
PSI0 = np.array([0.5, SQ34], dtype=complex)
#: measured observable's eigenvectors as columns: |a>, |b>
AB_BASIS = np.array([[HALF, HALF], [HALF, -HALF]], dtype=complex)


@dataclass(frozen=True)
class TwoLevelSystem:
    """Energy eigenvalues +/- hbar*omega (hbar = 1) in the (|+>, |->) basis."""

    omega: float = 1.0

    def __post_init__(self) -> None:
        if self.omega <= 0:
            raise ValueError("omega must be positive")

    def evolve_pure(self, psi: np.ndarray, t: float) -> np.ndarray:
        """Exact evolution: componentwise phases exp(-/+ i omega t)."""
        phases = np.exp(np.array([-1j, 1j]) * self.omega * t)
        return phases * np.asarray(psi, dtype=complex)

    def evolution_matrix(self, t: float) -> np.ndarray:
        return np.diag(np.exp(np.array([-1j, 1j]) * self.omega * t))


def p_a_unmeasured(omega_tau: float) -> float:
    """Probability of outcome a at t = 2 tau with no intermediate measurement."""
    return 0.5 * (1.0 + SQ34 * np.cos(4.0 * omega_tau))


def p_a_nonselective(omega_tau: float) -> float:
    """Same readout with an unrecorded a/b measurement inserted at t = tau."""
    return 0.5 * (1.0 + SQ34 * np.cos(2.0 * omega_tau) ** 2)


def simulate_p_a_unmeasured(omega_tau: float) -> float:
    """Explicit 2x2 simulation of the undisturbed readout."""
    sys = TwoLevelSystem(omega=1.0)
    psi = sys.evolve_pure(PSI0, 2.0 * omega_tau)
    a = AB_BASIS[:, 0]
    return float(np.abs(a.conj() @ psi) ** 2)


def simulate_p_a_nonselective(omega_tau: float) -> float:
    """Density-matrix simulation: evolve, dephase in {a, b} at tau, evolve, read."""
    sys = TwoLevelSystem(omega=1.0)
    U = sys.evolution_matrix(omega_tau)
    rho = pure_density(PSI0)
    rho_tau = DensityMatrix(U @ rho.entries @ U.conj().T)
    rho_tau = dephase(rho_tau, AB_BASIS)
    rho_2tau = DensityMatrix(U @ rho_tau.entries @ U.conj().T)
    return measure_probability(rho_2tau, AB_BASIS[:, 0])


def phase_discard_disturbance(
    psi0: Wavefunction, G: Generator, tau: float, t_final: float, n_steps: int
) -> float:
    """Largest pointwise density change that discarding the phase at tau
    makes at t_final, against evolving straight through.

    The phase discard psi -> |psi| is the non-selective measurement in the
    position(-momentum) basis: outcome probabilities are untouched at the
    instant of measurement, and for classical phase-space dynamics they stay
    untouched forever.  ``n_steps`` covers [0, t_final] and must make tau a
    step boundary with a step on either side; the state and its |psi| both
    go on from one run to tau.
    """
    if not 0.0 < tau < t_final:
        raise ValueError("need 0 < tau < t_final")
    n_first = int(round(n_steps * tau / t_final))
    if not 0 < n_first < n_steps or abs(n_first * (t_final / n_steps) - tau) > 1e-12:
        raise ValueError(f"tau {tau:g} must be a step boundary with a step on either side")
    at_tau = propagate(psi0, G, tau / n_first, n_first)[0]
    measured = Wavefunction(at_tau.grid, np.abs(at_tau.amplitudes), time=at_tau.time)
    dt_rest, n_rest = (t_final - tau) / (n_steps - n_first), n_steps - n_first
    direct = propagate(at_tau, G, dt_rest, n_rest)[0]
    second_leg = propagate(measured, G, dt_rest, n_rest)[0]
    diff = np.abs(np.abs(direct.amplitudes) ** 2 - np.abs(second_leg.amplitudes) ** 2)
    return float(np.max(diff))

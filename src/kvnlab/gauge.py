"""Flux dependence of the quantum radial problem around a solenoid, against
the flux independence of its classical phase-space counterpart.

Outside an infinite solenoid the magnetic field vanishes but the vector
potential does not.  Minimal coupling replaces the angular momentum by
p_theta - e Phi / (2 pi c); with the dimensionless flux alpha = e Phi / (c h)
the quantum radial equation

    R'' + R'/r + (2mE/hbar^2 - pz0^2/hbar^2 - (n - alpha)^2 / r^2) R = 0

acquires the shifted Bessel order |n - alpha|.  The classical radial
equation is built from the same substitution, but the phase-space
eigenfunction pins p_theta to a delta at the *shifted* value, so the two
flux shifts cancel identically and the classical coefficients do not
contain alpha at all.

A Dirichlet disc of radius R turns the order shift into a discrete,
comparable observable: E(n, alpha) = hbar^2 j_{|n-alpha|,1}^2 / (2 m R^2)
+ pz0^2 / (2 m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError

#: validity envelope for the Bessel evaluations
MAX_ORDER = 50.0
MAX_ARGUMENT = 200.0


@dataclass(frozen=True)
class SolenoidConfig:
    alpha: float = 0.0  # dimensionless flux e Phi / (c h)
    n: int = 0  # angular quantum number
    pz0: float = 0.0  # longitudinal momentum label
    ptheta0: float = 0.0  # classical angular momentum label
    mass: float = 1.0
    R_boundary: float = 1.0  # disc radius for the discrete eigenproblem
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if self.mass <= 0 or self.R_boundary <= 0 or self.hbar <= 0:
            raise ValueError("mass, R_boundary and hbar must be positive")

    @property
    def order(self) -> float:
        return abs(self.n - self.alpha)


@dataclass(frozen=True)
class QuantumRadialCoeffs:
    """R'' + (first/r) R' + (const + inv_r2 / r^2) R = 0."""

    second_deriv: float
    first_deriv: float
    const: float
    inv_r2: float
    bessel_order: float


def quantum_radial_coeffs(cfg: SolenoidConfig, E: float) -> QuantumRadialCoeffs:
    hbar = cfg.hbar
    return QuantumRadialCoeffs(
        second_deriv=1.0,
        first_deriv=1.0,
        const=2.0 * cfg.mass * E / hbar**2 - cfg.pz0**2 / hbar**2,
        inv_r2=-((cfg.n - cfg.alpha) ** 2),
        bessel_order=cfg.order,
    )


@dataclass(frozen=True)
class KvnRadialCoeffs:
    """Coefficient record of the classical radial equation.

    Terms, acting on R(r, p_r):  dr_coeff * (i p_r d/dr)
    + centrifugal / r^2 + dpr_coeff * (i / r^3) d/dp_r
    + lambda_z_coeff * lambda_z0 - E_tilde.  The longitudinal spectral
    label lambda_z0 stays symbolic: only its coefficient is recorded.
    """

    dr_coeff: float
    centrifugal: float
    dpr_coeff: float
    lambda_z_coeff: float
    energy: float


def kvn_radial_coeffs(cfg: SolenoidConfig, E_tilde: float) -> KvnRadialCoeffs:
    # minimal coupling shifts the operator's p_theta down by e Phi/(2 pi c)
    # = hbar * alpha, while the delta in the eigenfunction pins p_theta at
    # ptheta0 + hbar * alpha; composing the two is an exact cancellation,
    # kept as a single difference so it is exact in floating point too
    flux_shift = cfg.hbar * cfg.alpha
    ptheta_eff = cfg.ptheta0 + (flux_shift - flux_shift)
    m = cfg.mass
    return KvnRadialCoeffs(
        dr_coeff=-1.0 / m,
        centrifugal=ptheta_eff * cfg.n / m,
        dpr_coeff=-(ptheta_eff**2) / m,
        lambda_z_coeff=cfg.pz0 / m,
        energy=-E_tilde,
    )


def jv(nu, x):
    """scipy's J_nu, imported on first use: scipy.special is most of the
    package's import time and only this module needs it."""
    from scipy.special import jv

    return jv(nu, x)


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind inside the supported envelope."""
    if nu < 0 or nu > MAX_ORDER:
        raise DegenerateInputError(f"order {nu} outside [0, {MAX_ORDER}]")
    if np.any(np.asarray(x) < 0) or np.any(np.asarray(x) > MAX_ARGUMENT):
        raise DegenerateInputError(f"argument outside [0, {MAX_ARGUMENT}]")
    return jv(nu, x)


def lowest_zero(nu: float, tol: float = 1e-10) -> float:
    """First positive zero of J_nu by bracketing and bisection.

    J_nu is positive on (0, j_{nu,1}), so scanning outward from the order
    finds the sign change; bisection then tightens it to ``tol``.
    """
    if nu < 0 or nu > MAX_ORDER:
        raise DegenerateInputError(f"order {nu} outside [0, {MAX_ORDER}]")
    lo = max(nu, 1e-3)
    step = 0.1
    hi = lo + step
    while jv(nu, hi) > 0:
        lo, hi = hi, hi + step
        if hi > MAX_ARGUMENT:
            raise DegenerateInputError(f"no zero of J_{nu} found below {MAX_ARGUMENT}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if jv(nu, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def disc_ground_energy(cfg: SolenoidConfig) -> float:
    """Lowest Dirichlet eigenvalue of the radial problem on a disc."""
    j1 = lowest_zero(cfg.order)
    return (
        cfg.hbar**2 * j1**2 / (2.0 * cfg.mass * cfg.R_boundary**2)
        + cfg.pz0**2 / (2.0 * cfg.mass)
    )

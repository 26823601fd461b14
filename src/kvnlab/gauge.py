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

import math
from dataclasses import astuple, dataclass

from .errors import DegenerateInputError, PhysicsError

#: validity envelope for the Bessel evaluations
MAX_ORDER = 50.0
MAX_ARGUMENT = 200.0
#: width to which ``lowest_zero`` brackets a zero of J_nu
ZERO_TOL = 1e-10


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
        for name in ("mass", "R_boundary", "hbar"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def order(self) -> float:
        return abs(self.n - self.alpha)


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
    try:
        coeffs = KvnRadialCoeffs(
            dr_coeff=-1.0 / m,
            centrifugal=ptheta_eff * cfg.n / m,
            dpr_coeff=-(ptheta_eff**2) / m,
            lambda_z_coeff=cfg.pz0 / m,
            energy=-E_tilde,
        )
    except OverflowError:  # a Python float ** or / raises rather than giving inf
        coeffs = None
    if coeffs is None or not all(map(math.isfinite, astuple(coeffs))):
        raise PhysicsError(
            f"classical radial coefficients are out of range at ptheta0 {cfg.ptheta0:g}, "
            f"n {cfg.n}, mass {cfg.mass:g}, pz0 {cfg.pz0:g}"
        )
    return coeffs


def jv(nu, x):
    """scipy's J_nu, imported on first use: scipy.special is most of the
    package's import time and only this module needs it."""
    from scipy.special import jv

    return jv(nu, x)


def lowest_zero(nu: float) -> float:
    """First positive zero of J_nu by bracketing and bisection.

    J_nu is positive on (0, j_{nu,1}), so scanning outward from the order
    finds the sign change; bisection then tightens it to ``ZERO_TOL``.
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
    while hi - lo > ZERO_TOL:
        mid = 0.5 * (lo + hi)
        if jv(nu, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def disc_ground_energy(cfg: SolenoidConfig) -> float:
    """Lowest Dirichlet eigenvalue of the radial problem on a disc; its flux
    part hbar^2 j^2 / (2 m R^2) must neither overflow nor underflow to zero
    (which would give every flux the same energy)."""
    j1 = lowest_zero(cfg.order)
    try:
        confined = cfg.hbar**2 * j1**2 / (2.0 * cfg.mass * cfg.R_boundary**2)
        energy = confined + cfg.pz0**2 / (2.0 * cfg.mass)
    except (OverflowError, ZeroDivisionError):  # a float ** overflows, or R^2 underflows to 0
        confined = energy = math.inf
    if not (confined > 0.0 and energy < math.inf):
        raise PhysicsError(
            f"disc energy hbar^2 j^2/(2 mass R_boundary^2) + pz0^2/(2 mass) is out of range "
            f"(zero or non-finite) at R_boundary {cfg.R_boundary:g}, mass {cfg.mass:g}, "
            f"hbar {cfg.hbar:g}, pz0 {cfg.pz0:g}"
        )
    return energy

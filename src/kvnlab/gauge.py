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

The zero j_{nu,1} comes from an eigenvalue, not from evaluating J_nu
(Ikebe, Kikuchi & Fujishiro, J. Comput. Appl. Math. 38, 1991; Ball, SIAM J.
Sci. Comput. 21, 2000).  At a zero j of J_nu, the recurrence
J_{mu-1} + J_{mu+1} = (2 mu / j) J_mu at mu = nu+1, nu+2, ... makes the
values sqrt(nu + k) J_{nu+k}(j) an eigenvector, with eigenvalue 1/j, of a
symmetric tridiagonal matrix with zero diagonal.  Its square restricted to
the even k is the symmetric tridiagonal matrix T_nu / 4, where, for
k = 1, 2, ...,

    T[k, k]     = 2 / ((nu + 2k - 1)(nu + 2k + 1))
    T[k, k + 1] = 1 / ((nu + 2k + 1) sqrt((nu + 2k)(nu + 2k + 2)))

has the eigenvalues 4 / j^2 over the zeros j of J_nu, so the first zero is
2 / sqrt(lambda_max).  The largest eigenvalue converges fastest as the
matrix is truncated: ``ZERO_MATRIX_ROWS`` = 20 rows give j_{nu,1} to a few
ulps for every order in [0, ``MAX_ORDER``], from one ``eigvalsh`` call.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import DegenerateInputError, PhysicsError

#: largest Bessel order ``lowest_zero`` accepts
MAX_ORDER = 50.0
#: rows of the truncated matrix; at MAX_ORDER 10 rows err by 1.3e-8 relative,
#: 20 agree with a brentq-refined zero of J_nu to a few ulps
ZERO_MATRIX_ROWS = 20


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
    """The classical radial coefficients.  Minimal coupling shifts p_theta
    down by hbar alpha and the eigenfunction's delta pins it at ptheta0 +
    hbar alpha, so the record carries no alpha by construction: criterion
    9's classical half (one distinct record) is structural, not computed."""
    m = cfg.mass
    try:
        coeffs = KvnRadialCoeffs(
            dr_coeff=-1.0 / m,
            centrifugal=cfg.ptheta0 * cfg.n / m,
            dpr_coeff=-(cfg.ptheta0**2) / m,
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


def lowest_zero(nu: float) -> float:
    """First positive zero of J_nu, as 2 / sqrt of the largest eigenvalue of
    the ``ZERO_MATRIX_ROWS``-row tridiagonal matrix in the module docstring."""
    if not 0 <= nu <= MAX_ORDER:  # NaN fails too
        raise DegenerateInputError(f"order {nu} outside [0, {MAX_ORDER}]")
    a = nu + 2.0 * np.arange(1, ZERO_MATRIX_ROWS + 1)  # nu + 2k
    diagonal = 2.0 / ((a - 1.0) * (a + 1.0))
    off = 1.0 / ((a[:-1] + 1.0) * np.sqrt(a[:-1] * (a[:-1] + 2.0)))
    t = np.diag(diagonal) + np.diag(off, -1)  # eigvalsh reads the lower triangle
    return float(2.0 / np.sqrt(np.linalg.eigvalsh(t)[-1]))


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

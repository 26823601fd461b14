"""Grid realizations of q, p, theta, lambda operators and the three generators.

Operators are represented by their action on fields, not by dense matrices.
Two diagonal families cover everything needed here:

* ``diag-position``: pointwise multiplication by a (broadcastable) array;
* ``diag-conjugate``: multiplication by an array after an FFT along one axis
  (the representation in which the operator is diagonal), then the inverse
  FFT.

Sums and products of operators are lazy composites.  The product of two
operators that are diagonal in the same representation is folded into a
single diagonal, which makes commutators of such pairs vanish identically
(multiplication of floats commutes), exactly as the operator algebra says.

Generators bundle the two exactly-exponentiable parts used by the
split-step propagators:

* quantum:    H = p^2/2m + V(q), conjugate part hbar^2 k^2/2m, position
  part V(q), evolution exp(-i H t / hbar);
* koopman: K = p theta / m - V'(q) lambda (+ optional constant
  C(q, p), unobservable in |psi|^2), evolution exp(-i K t); the two parts
  are advection shears, each exact in its own mixed representation;
* unified: H_QC = (hbar/m) p theta + (1/kappa)[V(q - hbar kappa lambda/2)
  - V(q + hbar kappa lambda/2)], evolution exp(-i H_QC t / hbar); the
  kappa -> 0 limit is taken analytically and reproduces hbar K.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridMismatchError
from .grid import Grid1D, PhaseGrid, wavenumbers

Potential = Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# grid operators


@dataclass(frozen=True)
class GridOperator:
    """An operator on grid fields, identified by how it acts."""

    grid: Grid1D | PhaseGrid
    kind: str  # diag-position | diag-conjugate | sum | product
    payload: object
    fft_axis: int | None = None
    hermitian: bool = False

    def apply(self, field: np.ndarray) -> np.ndarray:
        if self.kind == "diag-position":
            return self.payload * field
        if self.kind == "diag-conjugate":
            f = np.fft.fft(field, axis=self.fft_axis or 0)
            return np.fft.ifft(self.payload * f, axis=self.fft_axis or 0)
        if self.kind == "sum":
            a, b = self.payload
            return a.apply(field) + b.apply(field)
        if self.kind == "product":
            a, b = self.payload
            return a.apply(b.apply(field))
        raise ValueError(f"unknown operator kind {self.kind!r}")

    def __add__(self, other: "GridOperator") -> "GridOperator":
        _require_same_grid(self, other)
        return GridOperator(
            self.grid, "sum", (self, other),
            hermitian=self.hermitian and other.hermitian,
        )

    def __matmul__(self, other: "GridOperator") -> "GridOperator":
        _require_same_grid(self, other)
        folded = _fold_diagonal_product(self, other)
        if folded is not None:
            return folded
        return GridOperator(self.grid, "product", (self, other), hermitian=False)


def _require_same_grid(a: GridOperator, b: GridOperator) -> None:
    if a.grid != b.grid:
        raise GridMismatchError("operators live on different grids")


def _same_diagonal_rep(a: GridOperator, b: GridOperator) -> bool:
    return (
        a.kind == b.kind
        and a.kind in ("diag-position", "diag-conjugate")
        and a.fft_axis == b.fft_axis
    )


def _fold_diagonal_product(a: GridOperator, b: GridOperator) -> GridOperator | None:
    if not _same_diagonal_rep(a, b):
        return None
    payload = a.payload * b.payload
    herm = (
        a.hermitian
        and b.hermitian
        and np.isrealobj(a.payload)
        and np.isrealobj(b.payload)
    )
    return GridOperator(a.grid, a.kind, payload, fft_axis=a.fft_axis, hermitian=herm)


def operator_square(op: GridOperator) -> GridOperator:
    return op @ op


def commutator_apply(a: GridOperator, b: GridOperator, field: np.ndarray) -> np.ndarray:
    """(AB - BA) applied to ``field``.

    Pairs diagonal in the same representation commute identically and return
    an exact zero field.
    """
    _require_same_grid(a, b)
    if _same_diagonal_rep(a, b):
        return (a.payload * b.payload - b.payload * a.payload) * field
    return a.apply(b.apply(field)) - b.apply(a.apply(field))


def position_op(grid: Grid1D | PhaseGrid) -> GridOperator:
    """Multiplication by q (configuration grid or axis 0 of a phase grid)."""
    if isinstance(grid, Grid1D):
        return GridOperator(grid, "diag-position", grid.points.copy(), hermitian=True)
    q = grid.q.points[:, None]
    return GridOperator(grid, "diag-position", q, hermitian=True)


def momentum_op(
    grid: Grid1D | PhaseGrid, flavor: str = "quantum", hbar: float = 1.0
) -> GridOperator:
    """Momentum operator.

    ``quantum`` is the spectral -i hbar d/dq on a configuration grid;
    ``kvn`` is multiplication by the p coordinate on a phase grid.
    """
    if flavor == "quantum":
        if not isinstance(grid, Grid1D):
            raise GridMismatchError("quantum momentum operator needs a Grid1D")
        return GridOperator(
            grid, "diag-conjugate", hbar * wavenumbers(grid), fft_axis=0,
            hermitian=True,
        )
    if flavor == "kvn":
        if not isinstance(grid, PhaseGrid):
            raise GridMismatchError("kvn momentum operator needs a PhaseGrid")
        p = grid.p.points[None, :]
        return GridOperator(grid, "diag-position", p, hermitian=True)
    raise ValueError(f"unknown momentum flavor {flavor!r}")


def theta_op(pg: PhaseGrid) -> GridOperator:
    """-i d/dq on a phase grid (diagonal in the q-conjugate representation)."""
    kq = wavenumbers(pg.q)[:, None]
    return GridOperator(pg, "diag-conjugate", kq, fft_axis=0, hermitian=True)


def lambda_op(pg: PhaseGrid) -> GridOperator:
    """-i d/dp on a phase grid (diagonal in the p-conjugate representation)."""
    kp = wavenumbers(pg.p)[None, :]
    return GridOperator(pg, "diag-conjugate", kp, fft_axis=1, hermitian=True)


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class Generator:
    """A propagation rule split into two exactly-exponentiable diagonals.

    ``position_part`` is diagonal after an FFT along ``position_axis``
    (no FFT when the axis is None), ``conjugate_part`` after an FFT along
    ``conjugate_axis``.  One split step multiplies by
    ``exp(-1j * part * dt / phase_scale)`` in the respective representation.
    ``potential_prime`` is the exact V' that the recorded force means use.
    """

    label: str  # quantum | koopman | unified
    grid: Grid1D | PhaseGrid
    position_part: np.ndarray
    position_axis: int | None
    conjugate_part: np.ndarray
    conjugate_axis: int
    phase_scale: float
    mass: float
    hbar: float
    potential_prime: Potential
    kappa: float = 0.0
    constant_part: np.ndarray | None = None

    def apply(self, field: np.ndarray) -> np.ndarray:
        """Generator action on a field (used by Hermiticity and algebra checks)."""
        f = np.fft.fft(field, axis=self.conjugate_axis)
        out = np.fft.ifft(self.conjugate_part * f, axis=self.conjugate_axis)
        if self.position_axis is None:
            out = out + self.position_part * field
        else:
            f = np.fft.fft(field, axis=self.position_axis)
            out = out + np.fft.ifft(self.position_part * f, axis=self.position_axis)
        if self.constant_part is not None:
            out = out + self.constant_part * field
        return out


def hamiltonian(
    grid: Grid1D,
    potential: Potential,
    mass: float = 1.0,
    hbar: float = 1.0,
    *,
    vprime: Potential,
) -> Generator:
    """Quantum generator H = p^2/2m + V(q) on a configuration grid.

    ``vprime``, the exact V', feeds the force expectation recorded along
    trajectories.
    """
    k = wavenumbers(grid)
    return Generator(
        label="quantum",
        grid=grid,
        position_part=np.asarray(potential(grid.points), dtype=float),
        position_axis=None,
        conjugate_part=(hbar * k) ** 2 / (2.0 * mass),
        conjugate_axis=0,
        phase_scale=hbar,
        mass=mass,
        hbar=hbar,
        kappa=1.0,
        potential_prime=vprime,
    )


def koopman_generator(
    pg: PhaseGrid,
    vprime: Potential,
    mass: float = 1.0,
    constant: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> Generator:
    """Koopman generator K = p theta / m - V'(q) lambda + C(q, p).

    The integration constant C is fixed to zero; ``constant`` is a testing
    hook that adds a (q, p)-diagonal real term so its irrelevance for the
    |psi|^2 evolution can be demonstrated.
    """
    Q, P = pg.meshes()
    kq = wavenumbers(pg.q)[:, None]
    kp = wavenumbers(pg.p)[None, :]
    c_part = None
    if constant is not None:
        c_part = np.asarray(constant(Q, P), dtype=float) * np.ones(pg.shape)
    return Generator(
        label="koopman",
        grid=pg,
        # -V'(q) lambda, diagonal in (q, lambda-mode)
        position_part=-np.asarray(vprime(Q), dtype=float) * kp,
        position_axis=1,
        # p theta / m, diagonal in (theta-mode, p)
        conjugate_part=P * kq / mass,
        conjugate_axis=0,
        phase_scale=1.0,
        mass=mass,
        hbar=1.0,
        kappa=0.0,
        potential_prime=vprime,
        constant_part=c_part,
    )


def unified_generator(
    pg: PhaseGrid,
    potential: Potential,
    kappa: float,
    mass: float = 1.0,
    hbar: float = 1.0,
    *,
    vprime: Potential,
) -> Generator:
    """Interpolating generator with commutator [q, p] = i hbar kappa.

    kappa = 1 gives phase-space quantum dynamics, kappa = 0 the classical
    generator (times hbar).  The potential enters through the difference of
    Bopp-shifted evaluations; at kappa = 0 the difference quotient is taken
    analytically and reduces to -hbar V'(q) lambda with the exact ``vprime``,
    which also feeds the recorded force expectation.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"kappa must lie in [0, 1], got {kappa}")
    kq = wavenumbers(pg.q)[:, None]
    kp = wavenumbers(pg.p)[None, :]
    q = pg.q.points[:, None]
    p = pg.p.points[None, :]
    advection = hbar * p * kq / mass
    if kappa == 0.0:
        force = -hbar * np.asarray(vprime(q), dtype=float) * kp
    else:
        shift = hbar * kappa * kp / 2.0
        force = (potential(q - shift) - potential(q + shift)) / kappa
        force = np.asarray(force, dtype=float) * np.ones(pg.shape)
    return Generator(
        label="unified",
        grid=pg,
        position_part=force,
        position_axis=1,
        conjugate_part=advection * np.ones(pg.shape),
        conjugate_axis=0,
        phase_scale=hbar,
        mass=mass,
        hbar=hbar,
        kappa=kappa,
        potential_prime=vprime,
    )

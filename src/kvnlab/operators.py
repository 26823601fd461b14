"""Grid realizations of q, p, theta, lambda operators and the three generators.

Operators are represented by their action on fields, not by dense matrices.
Every one is a diagonal: a (broadcastable) payload array and the axis of the
FFT that brings a field into the representation where the operator is
diagonal, or None for position.  One rule, ``_apply_diagonal``, applies a
grid operator and each of a generator's two parts.  The grid decides what
momentum means: ``momentum_op`` is the spectral hbar k on a ``Grid1D`` and
multiplication by p on a ``PhaseGrid``.

An operator is one diagonal, so the square of one and the commutator of two
diagonal in the same representation are payload products: the commutator
of such a pair is an exact zero field (multiplication of floats commutes),
exactly as the operator algebra says.

Generators bundle the two exactly-exponentiable parts used by the
split-step propagators, at unit mass, with evolution exp(-i G t / hbar):

* quantum:    H = p^2/2 + V(q), conjugate part hbar^2 k^2/2, position
  part V(q);
* koopman: K = p theta - V'(q) lambda at hbar = 1; the two parts are
  advection shears, each exact in its own mixed representation;
* unified: H_QC = hbar p theta + (1/kappa)[V(q - hbar kappa lambda/2)
  - V(q + hbar kappa lambda/2)]; the kappa -> 0 limit is taken
  analytically and reproduces hbar K.

The grid fixes the representations: the conjugate part is diagonal after an
FFT along axis 0 (k on a ``Grid1D``, theta on a ``PhaseGrid``), the position
part as is on a ``Grid1D`` and after an FFT along axis 1 (lambda) on a
``PhaseGrid``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import GridMismatchError
from .grid import Grid1D, PhaseGrid, wavenumbers

Potential = Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# grid operators


def _apply_diagonal(payload: np.ndarray, axis: int | None, field: np.ndarray) -> np.ndarray:
    """Multiply ``field`` by ``payload`` in the representation it is diagonal
    in: as is when ``axis`` is None, else after an FFT along ``axis``."""
    if axis is None:
        return payload * field
    return np.fft.ifft(payload * np.fft.fft(field, axis=axis), axis=axis)


@dataclass(frozen=True)
class GridOperator:
    """A diagonal operator: ``payload`` after an FFT along ``fft_axis``, or in position if None."""

    grid: Grid1D | PhaseGrid
    payload: np.ndarray
    fft_axis: int | None = None

    def apply(self, field: np.ndarray) -> np.ndarray:
        return _apply_diagonal(self.payload, self.fft_axis, field)


def operator_square(op: GridOperator) -> GridOperator:
    """A^2: the same diagonal with its payload squared."""
    return replace(op, payload=op.payload * op.payload)


def commutator_apply(a: GridOperator, b: GridOperator, field: np.ndarray) -> np.ndarray:
    """(AB - BA) applied to ``field``.

    Pairs diagonal in the same representation commute identically and return
    an exact zero field.
    """
    if a.grid != b.grid:
        raise GridMismatchError("operators live on different grids")
    if a.fft_axis == b.fft_axis:
        return (a.payload * b.payload - b.payload * a.payload) * field
    return a.apply(b.apply(field)) - b.apply(a.apply(field))


def position_op(grid: Grid1D | PhaseGrid) -> GridOperator:
    """Multiplication by q (configuration grid or axis 0 of a phase grid)."""
    if isinstance(grid, Grid1D):
        return GridOperator(grid, grid.points.copy())
    return GridOperator(grid, grid.q.points[:, None])


def momentum_op(grid: Grid1D | PhaseGrid, hbar: float = 1.0) -> GridOperator:
    """Momentum operator: the spectral -i hbar d/dq on a configuration grid,
    multiplication by the p coordinate on a phase grid."""
    if isinstance(grid, Grid1D):
        return GridOperator(grid, hbar * wavenumbers(grid), fft_axis=0)
    return GridOperator(grid, grid.p.points[None, :])


def theta_op(pg: PhaseGrid) -> GridOperator:
    """-i d/dq on a phase grid (diagonal in the q-conjugate representation)."""
    kq = wavenumbers(pg.q)[:, None]
    return GridOperator(pg, kq, fft_axis=0)


def lambda_op(pg: PhaseGrid) -> GridOperator:
    """-i d/dp on a phase grid (diagonal in the p-conjugate representation)."""
    kp = wavenumbers(pg.p)[None, :]
    return GridOperator(pg, kp, fft_axis=1)


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class Generator:
    """A propagation rule split into two exactly-exponentiable diagonals.

    ``conjugate_part`` is diagonal after an FFT along axis 0,
    ``position_part`` as is on a ``Grid1D`` and after an FFT along axis 1 on
    a ``PhaseGrid``.  One split step multiplies by
    ``exp(-1j * part * dt / hbar)`` in the respective representation.
    ``potential_prime`` is the exact V' that the recorded force means use.
    """

    label: str  # quantum | koopman | unified
    grid: Grid1D | PhaseGrid
    position_part: np.ndarray
    conjugate_part: np.ndarray
    hbar: float
    potential_prime: Potential
    kappa: float = 0.0

    def apply(self, field: np.ndarray) -> np.ndarray:
        """Generator action on a field (used by Hermiticity and algebra checks)."""
        position_axis = 1 if isinstance(self.grid, PhaseGrid) else None
        return (_apply_diagonal(self.conjugate_part, 0, field)
                + _apply_diagonal(self.position_part, position_axis, field))


def hamiltonian(
    grid: Grid1D,
    potential: Potential,
    hbar: float = 1.0,
    *,
    vprime: Potential,
) -> Generator:
    """Quantum generator H = p^2/2 + V(q) on a configuration grid.

    ``vprime``, the exact V', feeds the force expectation recorded along
    trajectories.
    """
    k = wavenumbers(grid)
    return Generator(
        label="quantum",
        grid=grid,
        position_part=np.asarray(potential(grid.points), dtype=float),
        conjugate_part=(hbar * k) ** 2 / 2.0,
        hbar=hbar,
        kappa=1.0,
        potential_prime=vprime,
    )


def koopman_generator(pg: PhaseGrid, vprime: Potential) -> Generator:
    """Koopman generator K = p theta - V'(q) lambda.

    The integration constant C(q, p) of K is fixed to zero: a real C would
    only add a phase along each characteristic, which |psi|^2 does not see.
    """
    Q, P = pg.meshes()
    kq = wavenumbers(pg.q)[:, None]
    kp = wavenumbers(pg.p)[None, :]
    return Generator(
        label="koopman",
        grid=pg,
        # -V'(q) lambda, diagonal in (q, lambda-mode)
        position_part=-np.asarray(vprime(Q), dtype=float) * kp,
        # p theta, diagonal in (theta-mode, p)
        conjugate_part=P * kq,
        hbar=1.0,
        kappa=0.0,
        potential_prime=vprime,
    )


def unified_generator(
    pg: PhaseGrid,
    potential: Potential,
    kappa: float,
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
        conjugate_part=hbar * p * kq,
        hbar=hbar,
        kappa=kappa,
        potential_prime=vprime,
    )

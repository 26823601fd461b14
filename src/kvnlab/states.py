"""Wavefunctions, density matrices and expectation values.

One state type, ``Wavefunction``, serves both mechanics: psi(q) on a ``Grid1D``
or psi(q, p) on a ``PhaseGrid``, its shape and cell measure read from the grid.
States are value-semantic; ``normalize`` returns a new state.  Mixed states of
small finite systems are handled by ``DensityMatrix`` (dense, dim <= 64).

Planck's constant is a parameter (default 1) so that hbar-explicit formulas
stay testable away from natural units.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import GridMismatchError, PhysicsError
from .grid import Grid1D, PhaseGrid

MAX_DENSITY_DIM = 64


@dataclass(frozen=True)
class Wavefunction:
    """psi(q) on a ``Grid1D`` or psi(q, p) on a ``PhaseGrid`` (axis 0 q, axis 1 p)."""

    grid: Grid1D | PhaseGrid
    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != self.grid.shape:
            raise ValueError(f"amplitude shape {amp.shape} != {self.grid.shape}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def measure(self) -> float:
        return self.grid.cell_area

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.measure)

    def normalize(self) -> "Wavefunction":
        return replace(self, amplitudes=self.amplitudes / np.sqrt(self.norm_squared()))


def _require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise GridMismatchError("states or operators live on different grids")


def real_parts(amp: np.ndarray) -> list[np.ndarray]:
    """``amp`` as the real fields that a real operator (every phase-space
    generator, the free shear) evolves apart: its real part, and its
    imaginary part unless that is exactly zero."""
    return [amp.real] if np.isrealobj(amp) or not amp.imag.any() else [amp.real, amp.imag]


def join_parts(parts: list[np.ndarray]) -> np.ndarray:
    """The complex amplitudes whose ``real_parts`` are ``parts``, or a lone complex field."""
    if np.iscomplexobj(parts[0]):
        return parts[0]
    amp = parts[0].astype(complex)
    if len(parts) > 1:
        amp.imag = parts[1]
    return amp


def density(fields: list[np.ndarray]) -> np.ndarray:
    """|psi|^2 from ``real_parts`` or a lone complex field: the sum of the
    squares of every real and imaginary part, in order."""
    squares = (x**2 for f in fields for x in ((f.real, f.imag) if np.iscomplexobj(f) else (f,)))
    rho = next(squares)
    for square in squares:
        rho += square
    return rho


def expectation(op, psi: Wavefunction) -> complex:
    """<psi| op |psi> for a normalized state on ``op``'s grid (else GridMismatchError).

    When ``op`` is flagged Hermitian the imaginary part must be numerical
    noise; a residue above 1e-10 raises :class:`PhysicsError`.
    """
    _require_same_grid(op, psi)
    applied = op.apply(psi.amplitudes)
    value = complex(np.sum(np.conj(psi.amplitudes) * applied) * psi.measure)
    if getattr(op, "hermitian", False) and abs(value.imag) > 1e-10:
        raise PhysicsError(
            f"Hermitian expectation grew an imaginary part {value.imag:.3e}"
        )
    return value


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state of a small system."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.entries, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got {rho.shape}")
        if rho.shape[0] > MAX_DENSITY_DIM:
            raise ValueError(f"density matrices limited to dim <= {MAX_DENSITY_DIM}")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
            raise ValueError("density matrix trace must be 1")
        eigs = np.linalg.eigvalsh(rho)
        if eigs.min() < -1e-10:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min():.3e}")
        pur = float(np.real(np.trace(rho @ rho)))
        if pur < 1.0 / rho.shape[0] - 1e-10 or pur > 1.0 + 1e-10:
            raise ValueError(f"purity {pur} outside [1/dim, 1]")
        object.__setattr__(self, "entries", rho)


def pure_density(psi: np.ndarray) -> DensityMatrix:
    """|psi><psi| from a normalized finite-dimensional state vector."""
    v = np.asarray(psi, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def measure_probability(rho: DensityMatrix, a: np.ndarray) -> float:
    """Tr[rho |a><a|] for a normalized vector |a>."""
    v = np.asarray(a, dtype=complex)
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("projector target |a> must be normalized")
    value = float(np.real(v.conj() @ rho.entries @ v))
    return min(max(value, 0.0), 1.0)


def _check_orthonormal(basis: np.ndarray) -> np.ndarray:
    b = np.asarray(basis, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("basis must be a square matrix of column vectors")
    gram = b.conj().T @ b
    if np.max(np.abs(gram - np.eye(b.shape[0]))) > 1e-10:
        raise ValueError("basis columns are not orthonormal")
    return b


def dephase(rho: DensityMatrix, basis: np.ndarray) -> DensityMatrix:
    """Zero the off-diagonal entries of ``rho`` in the given orthonormal basis.

    This is the non-selective projective measurement: the outcome is not
    recorded, so coherences between outcomes are destroyed while the
    populations (and the trace) are kept.
    """
    b = _check_orthonormal(basis)
    in_basis = b.conj().T @ rho.entries @ b
    diag = np.diag(np.diag(in_basis))
    out = b @ diag @ b.conj().T
    out = 0.5 * (out + out.conj().T)  # scrub rounding asymmetry
    return DensityMatrix(out)

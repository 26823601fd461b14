"""Wavefunctions, density matrices and expectation values.

One state type, ``Wavefunction``, serves both mechanics: psi(q) on a ``Grid1D``
or psi(q, p) on a ``PhaseGrid``, its shape and cell measure read from the grid.
States are value-semantic; ``normalize`` returns a new state.  Mixed states of
small finite systems are handled by ``DensityMatrix`` (dense, dim <= 64), one
matrix or a stack of them, shape (..., d, d), whose every member is checked.
``pure_density``, ``dephase`` and ``measure_probability`` act on each member
of a stack, so a sweep of small states runs as one stack of arrays.

An expectation value of a grid operator is a reduction of a density: the
operator is diagonal where its real payload lives, so <A> is the payload
summed against |psi|^2 in that representation (one FFT of the state for a
spectral operator, none for a position one).  Any power of the operator
reads the same density, so a width takes <A> and <A^2> from one transform.

Planck's constant is a parameter (default 1) so that hbar-explicit formulas
stay testable away from natural units.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import GridMismatchError
from .grid import Grid1D, PhaseGrid
from .operators import GridOperator

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


def _diagonal_density(op: GridOperator, psi: Wavefunction) -> tuple[np.ndarray, float]:
    """|psi~|^2 where ``op`` is diagonal, and the weight of each of its samples.

    psi~ is psi itself for a position operator, with weight ``measure``, and
    otherwise its FFT along ``fft_axis``, with weight measure / N: the 1/N of
    Parseval's theorem over that axis's N points.  A state on another grid
    raises GridMismatchError.
    """
    _require_same_grid(op, psi)
    amp, scale = psi.amplitudes, psi.measure
    if op.fft_axis is not None:
        amp = np.fft.fft(amp, axis=op.fft_axis)
        scale /= amp.shape[op.fft_axis]
    return density([amp]), scale


def expectation(op: GridOperator, psi: Wavefunction) -> float:
    """<psi| op |psi> for a normalized state on ``op``'s grid: the real payload
    summed against the density where ``op`` is diagonal.  No operator is applied."""
    rho, scale = _diagonal_density(op, psi)
    return float(np.sum(op.payload * rho) * scale)


def _dagger(m: np.ndarray) -> np.ndarray:
    """The conjugate transpose of each matrix in a stack."""
    return m.swapaxes(-2, -1).conj()


def _refuse(bad: np.ndarray, message: str, values: np.ndarray | None = None) -> None:
    """Raise ValueError(``message``) if any member of a stack of checks is
    ``bad``, formatted with the first failing member's entry of ``values``;
    a stack's message names that member's index."""
    failing = np.argwhere(bad)
    if len(failing):
        first = tuple(int(i) for i in failing[0])
        text = message if values is None else message.format(values[first])
        raise ValueError(text + (f" at stack index {first}" if first else ""))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state of a small system,
    or a stack of them, shape (..., d, d), each member checked."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.entries, dtype=complex)
        if rho.ndim < 2 or rho.shape[-2] != rho.shape[-1]:
            raise ValueError(f"density matrix must be square, got {rho.shape}")
        dim = rho.shape[-1]
        if dim > MAX_DENSITY_DIM:
            raise ValueError(f"density matrices limited to dim <= {MAX_DENSITY_DIM}")
        asymmetry = np.max(np.abs(rho - _dagger(rho)), axis=(-2, -1))
        _refuse(asymmetry > 1e-12, "density matrix is not Hermitian")
        trace = np.trace(rho, axis1=-2, axis2=-1)
        _refuse((abs(trace.real - 1.0) > 1e-12) | (abs(trace.imag) > 1e-12),
                "density matrix trace must be 1")
        lowest = np.linalg.eigvalsh(rho)[..., 0]
        _refuse(lowest < -1e-10, "density matrix has negative eigenvalue {:.3e}", lowest)
        pur = np.trace(rho @ rho, axis1=-2, axis2=-1).real
        _refuse((pur < 1.0 / dim - 1e-10) | (pur > 1.0 + 1e-10),
                "purity {} outside [1/dim, 1]", pur)
        object.__setattr__(self, "entries", rho)


def pure_density(psi: np.ndarray) -> DensityMatrix:
    """|psi><psi| from a finite-dimensional state vector, or a stack (..., d)
    of them, each normalized first."""
    v = np.asarray(psi, dtype=complex)
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return DensityMatrix(v[..., :, None] * v[..., None, :].conj())


def measure_probability(rho: DensityMatrix, a: np.ndarray) -> float | np.ndarray:
    """Tr[rho |a><a|] for a normalized vector |a>: a float for one matrix,
    an array of them for a stack."""
    v = np.asarray(a, dtype=complex)
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise ValueError("projector target |a> must be normalized")
    value = np.clip(np.real(v.conj() @ rho.entries @ v), 0.0, 1.0)
    return float(value) if value.ndim == 0 else value


def _check_orthonormal(basis: np.ndarray) -> np.ndarray:
    b = np.asarray(basis, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("basis must be a square matrix of column vectors")
    gram = b.conj().T @ b
    if np.max(np.abs(gram - np.eye(b.shape[0]))) > 1e-10:
        raise ValueError("basis columns are not orthonormal")
    return b


def dephase(rho: DensityMatrix, basis: np.ndarray) -> DensityMatrix:
    """Zero the off-diagonal entries of ``rho`` (each member of a stack) in
    the given orthonormal basis.

    This is the non-selective projective measurement: the outcome is not
    recorded, so coherences between outcomes are destroyed while the
    populations (and the trace) are kept.
    """
    b = _check_orthonormal(basis)
    populations = np.diagonal(_dagger(b) @ rho.entries @ b, axis1=-2, axis2=-1)
    out = (b * populations[..., None, :]) @ _dagger(b)
    out = 0.5 * (out + _dagger(out))  # scrub rounding asymmetry
    return DensityMatrix(out)

"""Uniform periodic lattices and their DFT wavenumbers.

Every field-valued computation in the package lives on a ``Grid1D`` (one
periodic axis) or a ``PhaseGrid`` (tensor product of a position axis and a
momentum axis).

Conventions fixed here and relied on everywhere else:

* domains are half-open, ``points[k] = x_min + k * dx`` with
  ``dx = (x_max - x_min) / n`` (the right endpoint is the periodic image of
  the left one);
* ``n`` is a power of two, at least 8;
* the discrete delta is ``(1/dx) * kronecker``; sums against fields always
  carry the measure ``dx`` (or ``dq * dp``);
* the Nyquist wavenumber is stored with a positive sign, i.e. the frequency
  ordering is ``[0, 1, ..., n/2, -n/2+1, ..., -1] * (2*pi/(n*dx))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Width, in cells, of the strip along each domain edge that ``edge_mass`` sums.
EDGE_CELLS = 4


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic lattice with ``n`` points on ``[x_min, x_max)``."""

    n: int
    x_min: float
    x_max: float
    dx: float = field(init=False, compare=False)
    points: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ValueError(f"grid size must be a power of two >= 8, got {self.n}")
        if not self.x_max > self.x_min:
            raise ValueError(f"need x_max > x_min, got [{self.x_min}, {self.x_max})")
        dx = (self.x_max - self.x_min) / self.n
        object.__setattr__(self, "dx", dx)
        object.__setattr__(
            self, "points", self.x_min + dx * np.arange(self.n, dtype=float)
        )

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def cell_area(self) -> float:
        return self.dx

    @property
    def shape(self) -> tuple[int]:
        return (self.n,)


@dataclass(frozen=True)
class PhaseGrid:
    """Tensor-product lattice over phase space; axis 0 is q, axis 1 is p."""

    q: Grid1D
    p: Grid1D

    @property
    def cell_area(self) -> float:
        return self.q.dx * self.p.dx

    @property
    def shape(self) -> tuple[int, int]:
        return (self.q.n, self.p.n)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """Broadcastable coordinate arrays (Q over axis 0, P over axis 1)."""
        return self.q.points[:, None], self.p.points[None, :]


def wavenumbers(g: Grid1D) -> np.ndarray:
    """Conjugate-variable frequencies of ``g`` in DFT ordering.

    Returns ``[0, 1, ..., n/2, -n/2+1, ..., -1] * (2*pi / (n*dx))``; the
    Nyquist entry sits at index ``n/2`` with a positive sign.
    """
    half = g.n // 2
    idx = np.concatenate([np.arange(0, half + 1), np.arange(-half + 1, 0)])
    return idx * (2.0 * np.pi / (g.n * g.dx))


def edge_mass(rho_times_measure: np.ndarray) -> float:
    """Probability within ``EDGE_CELLS`` cells of any edge of a 1-D or phase grid."""
    m, c = rho_times_measure, EDGE_CELLS
    if m.ndim == 1:
        return float(m[:c].sum() + m[-c:].sum())
    return float(m[:c].sum() + m[-c:].sum() + m[c:-c, :c].sum() + m[c:-c, -c:].sum())

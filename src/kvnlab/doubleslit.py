"""Double-slit screen densities: quantum interference against the classical
superposition of single-slit distributions.

A beam starts as a Gaussian at the source wall, reaches the slit wall after
t_M = y_M m / p0y (free flight; the transverse problem is one-dimensional
with the longitudinal motion folded into the two flight times), is cut by
the two-slit aperture, and lands on the screen at t_R = y_R m / p0y.

The quantum run propagates psi(x); the classical run propagates
psi(x, p_x) on a phase grid and reads out P(x) = integral |psi|^2 dp_x.
Because the classical propagator is a point map and the slit masks have
disjoint supports, the classical screen density is exactly the
transmitted-weight-weighted sum of the single-slit densities, and the
initial phase drops out of it entirely.  The quantum density keeps the
cross term between the two slit wavefunctions.

:func:`kvn_screens` runs several apertures from one source, walking the
momentum axis in slabs of ``SLAB_COLUMNS`` p-columns.  The free shear moves
each momentum class rigidly and couples none of them, so a slab is a closed
problem: its source columns, their two shear factors, the shear to the wall
and, per aperture, a mask and one shear to the screen.  No field over the
whole phase grid is ever formed.  The shear is linear and unitary, so every
normalisation waits for the last slab: the transmitted weight is
sum|masked|^2 / sum|source|^2, the density is the accumulated q-marginal
over its integral, and the boundary mass is the marginal's edge rows plus
the edge p-columns' interior sums over sum|masked|^2.  The shear is a real
operator, so a phased source is sheared as its real parts
(``states.real_parts``), each on rfft/irfft (see :mod:`kvnlab.kernels`),
and |psi|^2 is the sum of their squares.

A slab whose source holds exactly zero float64 probability (sum|amp|^2 ==
0.0) is skipped: it builds no factors and runs no shear.  Its amplitudes may
still be nonzero (1e-200 and below at the default grid's edge slabs), but
the shear is unitary per column, so it could put at most n * 2^-1075 on the
screen, which every sum it would join absorbs; its transforms would run on
subnormal numbers, several times slower than on a live slab.  The slabs keep
their boundaries at multiples of ``SLAB_COLUMNS``, so the live ones are
summed in the same grouping as without the skip, and a NaN source is not
skipped, so it still trips the edge check.  When no slab is live, the grids
hold none of the source and ``PhysicsError`` names ``p_grid`` and
``sigma_p`` before any normalisation divides by the zero mass;
:func:`run_quantum` names ``x_grid`` and ``sigma_x`` in the same way.

Both runs refuse an aperture that passes less than
``MIN_TRANSMITTED_WEIGHT`` of the beam: the screen density behind it would
be round-off renormalised into fringes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import BoundaryMassError, PhysicsError
from .grid import EDGE_CELLS, Grid1D, edge_mass
from .kernels import free_quantum_propagate, shear, shear_factor
from .states import Wavefunction, density, real_parts

#: fraction of |psi|^2 allowed within 4 cells of a domain edge at readout.
#: A hard-edged aperture scatters ~1e-4 of the beam into near-Nyquist modes
#: whose quantum dispersion crosses the periodic box before t_R, so the
#: masked pipelines cannot meet the much tighter evolve() limit; this one
#: still catches a main beam reaching the wall.
APERTURE_BOUNDARY_LIMIT = 1e-3
#: least fraction of the beam an aperture must pass; behind less, the screen
#: density is renormalised round-off.
MIN_TRANSMITTED_WEIGHT = 1e-12
#: p-columns per slab of :func:`kvn_screens`.
SLAB_COLUMNS = 32
#: the screen window ``fringe_stats`` reads, and the share of its peak that a
#: maximum must pass to count as a fringe.
FRINGE_WINDOW = (-20.0, 20.0)
FRINGE_FLOOR = 0.1
_MASK_REFINEMENT = 4


@dataclass(frozen=True)
class SlitConfig:
    """Geometry and beam parameters; defaults give >= 3 clear fringes."""

    x_A: float = 3.0  # slit center offset
    delta: float = 0.5  # slit half-width
    sigma_x: float = 1.0  # source amplitude width exp(-x^2 / (2 sigma_x^2))
    sigma_p: float = 0.1  # transverse momentum amplitude width (classical run)
    mass: float = 1.0
    p0y: float = 50.0  # longitudinal momentum
    y_M: float = 50.0  # slit wall position
    y_R: float = 150.0  # screen position
    hbar: float = 1.0
    x_grid: Grid1D = field(default_factory=lambda: Grid1D(2048, -64.0, 64.0))
    p_grid: Grid1D = field(default_factory=lambda: Grid1D(256, -4.0, 4.0))

    def __post_init__(self) -> None:
        # ``not ... >`` so that NaN fails every check
        for name in ("delta", "sigma_x", "sigma_p", "mass", "p0y", "hbar"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("sigma_x", "sigma_p"):  # the source divides by 2 sigma^2
            if not 2 * getattr(self, name) ** 2 > 0:
                raise ValueError(
                    f"{name} {getattr(self, name):g} is too small: 2 {name}^2 underflows to 0"
                )
        if not self.x_A > self.delta:
            raise ValueError(f"slits must not overlap the axis: need x_A > delta, got {self.x_A}")
        if not self.y_R > self.y_M > 0:
            raise ValueError(f"need y_R > y_M > 0, got y_M={self.y_M}, y_R={self.y_R}")

    @property
    def t_M(self) -> float:
        return self.y_M * self.mass / self.p0y

    @property
    def t_R(self) -> float:
        return self.y_R * self.mass / self.p0y


def heaviside(x):
    """Step function: 1 for x > 0, 0 for x <= 0."""
    return np.where(np.asarray(x, dtype=float) > 0, 1.0, 0.0)


def slit_mask(x, cfg: SlitConfig, which: int | None = None):
    """Aperture indicator C1 + C2 (or a single term) evaluated pointwise."""
    xa, d = cfg.x_A, cfg.delta
    x = np.asarray(x, dtype=float)
    c1 = heaviside(x - xa + d) - heaviside(x - xa - d)
    c2 = heaviside(x + xa + d) - heaviside(x + xa - d)
    if which is None:
        return c1 + c2
    if which == 1:
        return c1
    if which == 2:
        return c2
    raise ValueError(f"slit selector must be 1 or 2, got {which}")


def refined_mask(cfg: SlitConfig, which: int | None = None) -> np.ndarray:
    """Aperture sampled on a finer lattice and box-averaged onto the grid.

    Sharp {0, 1} masks ring on a spectral grid; averaging the indicator over
    each cell softens only the edge cells and keeps the two slits' supports
    disjoint.
    """
    g = cfg.x_grid
    r = _MASK_REFINEMENT
    offsets = (np.arange(r) + 0.5) / r - 0.5
    fine = g.points[:, None] + offsets[None, :] * g.dx
    return slit_mask(fine, cfg, which).mean(axis=1)


@dataclass(frozen=True)
class ScreenResult:
    """Normalized screen density with the aperture bookkeeping."""

    x: np.ndarray
    density: np.ndarray
    transmitted_weight: float
    boundary_mass: float


def _check_weight(weight: float, cfg: SlitConfig) -> None:
    if weight < MIN_TRANSMITTED_WEIGHT:  # a NaN weight is left to the edge check
        raise PhysicsError(
            f"the slits at x_A={cfg.x_A:g}, delta={cfg.delta:g} pass {weight:.3e} of the "
            f"beam (floor {MIN_TRANSMITTED_WEIGHT:.0e}); move them into the beam"
        )


def _check_edges(mass: float, limit: float) -> None:
    if not mass <= limit:  # also stops a NaN density
        raise BoundaryMassError(
            f"screen density puts {mass:.3e} of its mass at the domain edge "
            f"(limit {limit:.1e}); widen the grids"
        )


def run_quantum(cfg: SlitConfig, which: int | None = None) -> ScreenResult:
    """Quantum screen density at t_R (optionally with one slit covered)."""
    g = cfg.x_grid
    amp = np.exp(-g.points**2 / (2 * cfg.sigma_x**2))
    if np.sum(amp**2) == 0.0:  # normalising would divide by the zero mass
        raise PhysicsError(
            f"the source (sigma_x={cfg.sigma_x:g}) holds no probability on x_grid "
            f"[{g.x_min:g}, {g.x_max:g}); the grid must reach within a few widths of x = 0"
        )
    psi = Wavefunction(g, amp.astype(complex)).normalize()
    at_wall = free_quantum_propagate(psi, cfg.t_M, cfg.mass, cfg.hbar)
    masked = at_wall.amplitudes * refined_mask(cfg, which)
    weight = float(np.sum(np.abs(masked) ** 2) * g.dx)
    _check_weight(weight, cfg)
    behind = Wavefunction(g, masked / np.sqrt(weight), time=at_wall.time)
    at_screen = free_quantum_propagate(behind, cfg.t_R - cfg.t_M, cfg.mass, cfg.hbar)
    rho = np.abs(at_screen.amplitudes) ** 2
    rho = rho / (np.sum(rho) * g.dx)
    edge = edge_mass(rho * g.dx)
    _check_edges(edge, APERTURE_BOUNDARY_LIMIT)
    return ScreenResult(g.points.copy(), rho, weight, edge)


def kvn_screens(
    cfg: SlitConfig,
    whiches: Iterable[int | None],
    phase: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> list[ScreenResult]:
    """Classical screen densities at t_R, one per aperture in ``whiches``
    (None for both slits, 1 or 2 for one), from one shared source run."""
    q, p = cfg.x_grid, cfg.p_grid
    masks = [refined_mask(cfg, which)[:, None] for which in whiches]
    source_mass = 0.0
    masked_mass = np.zeros(len(masks))
    marginal = np.zeros((len(masks), q.n))
    interior = np.zeros((len(masks), p.n))  # column sums off the q-edge strips
    c = EDGE_CELLS
    Q = q.points[:, None]
    for j in range(0, p.n, SLAB_COLUMNS):
        cols = slice(j, j + SLAB_COLUMNS)
        P = p.points[None, cols]
        amp = np.exp(-(Q**2) / (2 * cfg.sigma_x**2) - P**2 / (2 * cfg.sigma_p**2))
        parts = [amp] if phase is None else real_parts(amp * np.exp(1j * phase(Q, P)))
        slab_mass = np.sum(density(parts))
        if slab_mass == 0.0:  # no float64 probability: nothing to shear (a NaN is kept)
            continue
        source_mass += slab_mass
        to_wall = shear_factor(q, P[0], cfg.t_M, cfg.mass)
        at_wall = [shear(part, to_wall) for part in parts]
        to_screen = shear_factor(q, P[0], cfg.t_R - cfg.t_M, cfg.mass)
        for i, mask in enumerate(masks):
            masked = [part * mask for part in at_wall]
            masked_mass[i] += np.sum(density(masked))
            rho = density([shear(part, to_screen) for part in masked])
            marginal[i] += rho.sum(axis=1)
            interior[i, cols] = rho[c:-c].sum(axis=0)
    if source_mass == 0.0:
        raise PhysicsError(
            f"the source (sigma_x={cfg.sigma_x:g}, sigma_p={cfg.sigma_p:g}) holds no probability "
            f"on x_grid [{q.x_min:g}, {q.x_max:g}) x p_grid [{p.x_min:g}, {p.x_max:g}); "
            f"the grids must reach within a few widths of q = p = 0"
        )
    results = []
    for mass, rho_q, col in zip(masked_mass, marginal, interior):
        weight = float(mass / source_mass)
        _check_weight(weight, cfg)
        edge = float((rho_q[:c].sum() + rho_q[-c:].sum() + col[:c].sum() + col[-c:].sum()) / mass)
        _check_edges(edge, APERTURE_BOUNDARY_LIMIT)
        screen = rho_q / (np.sum(rho_q) * q.dx)
        results.append(ScreenResult(q.points.copy(), screen, weight, edge))
    return results


@dataclass(frozen=True)
class FringeStats:
    n_maxima: int
    max_contrast: float


def fringe_stats(x: np.ndarray, density: np.ndarray) -> FringeStats:
    """Count interior local maxima and their best adjacent-minimum contrast.

    Only maxima above ``FRINGE_FLOOR`` of the peak in ``FRINGE_WINDOW``
    count, so weak aperture side lobes do not register as fringes.
    """
    sel = (x >= FRINGE_WINDOW[0]) & (x <= FRINGE_WINDOW[1])
    d = density[sel]
    floor = FRINGE_FLOOR * d.max()
    is_max = (d[1:-1] > d[:-2]) & (d[1:-1] > d[2:]) & (d[1:-1] > floor)
    peaks = np.flatnonzero(is_max) + 1
    if len(peaks) < 2:
        return FringeStats(n_maxima=len(peaks), max_contrast=0.0)
    best = 0.0
    for a, b in zip(peaks[:-1], peaks[1:]):
        valley = d[a : b + 1].min()
        crest = min(d[a], d[b])
        best = max(best, (crest - valley) / (crest + valley))
    return FringeStats(n_maxima=len(peaks), max_contrast=float(best))

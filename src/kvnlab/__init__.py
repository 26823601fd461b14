"""Quantum and Koopman-von Neumann classical wavefunction dynamics on spectral grids.

The package propagates configuration-space wavefunctions psi(q, t) and
phase-space wavefunctions psi(q, p, t) with a shared Hilbert-space operator
layer, and ships the comparative experiments (double slit, non-selective
measurement, uncertainty products, Wigner transform, time-dependent
oscillator, Aharonov-Bohm radial problem) behind the ``kvnlab`` command
line tool.
"""

__version__ = "0.1.0"

from .errors import (
    BoundaryMassError,
    DegenerateInputError,
    GridMismatchError,
    KvnLabError,
    PhysicsError,
)
from .grid import Grid1D, PhaseGrid, wavenumbers
from .operators import (
    Generator,
    GridOperator,
    commutator_apply,
    hamiltonian,
    koopman_generator,
    lambda_op,
    momentum_op,
    position_op,
    theta_op,
    unified_generator,
)
from .propagation import Trajectory, evolve, kvn_step
from .states import (
    DensityMatrix,
    Wavefunction,
    born_density,
    dephase,
    expectation,
    inner_product,
    measure_probability,
    purity,
)

__all__ = [
    "__version__",
    "Grid1D",
    "PhaseGrid",
    "wavenumbers",
    "Wavefunction",
    "DensityMatrix",
    "inner_product",
    "expectation",
    "born_density",
    "purity",
    "measure_probability",
    "dephase",
    "GridOperator",
    "Generator",
    "position_op",
    "momentum_op",
    "theta_op",
    "lambda_op",
    "commutator_apply",
    "hamiltonian",
    "koopman_generator",
    "unified_generator",
    "kvn_step",
    "evolve",
    "Trajectory",
    "KvnLabError",
    "GridMismatchError",
    "DegenerateInputError",
    "PhysicsError",
    "BoundaryMassError",
]

"""Quantum and Koopman-von Neumann classical wavefunction dynamics on spectral grids.

The package propagates configuration-space wavefunctions psi(q, t) and
phase-space wavefunctions psi(q, p, t) with a shared Hilbert-space operator
layer, and ships the comparative experiments (double slit, non-selective
measurement, uncertainty products, Wigner transform, time-dependent
oscillator, Aharonov-Bohm radial problem) behind the ``kvnlab`` command
line tool.

BLAS runs on one thread in every kvnlab process: importing the package sets
``OPENBLAS_NUM_THREADS`` (and ``MKL_NUM_THREADS``, for MKL builds of numpy) to
1 unless the environment already sets it.  The BLAS calls here are small
(the Wigner transform's 256 x 129 by 129 x 256 product is the largest), and
on them OpenBLAS's threads cost more than they save: the product takes about
ten times as long on two threads as on one, and the idle workers spin for a
while after each call, slowing the work that follows.  A threaded product
also rounds differently at each thread count, so one thread keeps the
tables byte-identical whatever CPUs a run gets.  The setting only takes
effect when kvnlab is imported before numpy; set the variable yourself to
choose another count (``OPENBLAS_NUM_THREADS=2 kvnlab run config.json``).
The variables stay in ``os.environ``: a program that imports kvnlab passes
them on to every process it starts afterwards, numpy jobs that are not
kvnlab's included, even where its own numpy was loaded first and the
setting had no effect on it.  Give such a child its own environment to run
it otherwise.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import (
    BoundaryMassError,
    DegenerateInputError,
    GridMismatchError,
    KvnLabError,
    PhysicsError,
    WorkerError,
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
    dephase,
    expectation,
    measure_probability,
)

__all__ = [
    "__version__",
    "Grid1D",
    "PhaseGrid",
    "wavenumbers",
    "Wavefunction",
    "DensityMatrix",
    "expectation",
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
    "WorkerError",
]

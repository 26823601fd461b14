"""Exception types shared across the package.

Configuration-level problems (bad parameters, mismatched grids, Bessel
orders outside the supported envelope) raise ``ValueError`` subclasses;
violations detected while a computation is running (boundary mass, singular
auxiliary solutions, inconsistent numerics) raise ``PhysicsError``
subclasses.  The CLI maps the
two families to different exit codes, and a worker process that died
(``WorkerError``) to a third.
"""


class KvnLabError(Exception):
    """Base class for package-specific errors."""


class GridMismatchError(KvnLabError, ValueError):
    """Two fields or operators live on incompatible grids."""


class DegenerateInputError(KvnLabError, ValueError):
    """An input is outside the validity envelope of the requested operation."""


class PhysicsError(KvnLabError, RuntimeError):
    """A runtime check on the physics of a computation failed."""


class BoundaryMassError(PhysicsError):
    """Probability mass reached the edge of a periodic domain."""


class WorkerError(KvnLabError, RuntimeError):
    """A worker process died before returning its result."""

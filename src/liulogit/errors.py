"""Exception types shared across the package.

The hierarchy mirrors how failures surface at the command line: usage
problems, data problems, and numerical problems carry distinct exit codes.
"""

__all__ = [
    "LiulogitError",
    "SingularSystemError",
    "DecompositionError",
    "CellFailedError",
    "DatasetFormatError",
]


class LiulogitError(Exception):
    """Base class for all package-specific errors."""


class SingularSystemError(LiulogitError):
    """A weighted normal-equations solve failed (collinearity or separation).

    Carries the IRLS iteration index at which the system became singular,
    or -1 when the failure happened outside the iteration loop.
    """

    def __init__(self, message: str, iteration: int = -1):
        super().__init__(message)
        self.iteration = iteration


class DecompositionError(LiulogitError):
    """An eigendecomposition target was non-finite or not positive definite."""

    def __init__(self, message: str, smallest_eigenvalue: float = float("nan")):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class CellFailedError(LiulogitError):
    """Every replication of a simulation cell diverged."""

    def __init__(self, message: str, n: int = 0, p: int = 0, rho: float = float("nan")):
        super().__init__(message)
        self.n = n
        self.p = p
        self.rho = rho


class DatasetFormatError(LiulogitError):
    """A delimited text file could not be parsed into a dataset.

    ``line`` is 1-based; 0 means the problem is not tied to a single line.
    """

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line

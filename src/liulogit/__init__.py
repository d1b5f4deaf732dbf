"""Shrinkage and principal-component estimators for binary logistic
regression under multicollinearity, with asymptotic error-matrix analysis
and a reproducible Monte Carlo study harness.

Every name in a module's ``__all__`` is importable from the package; each
module's list is the only place its public names are written.
"""

from . import errors, estimators, io, model, msem, simulation
from .errors import *
from .estimators import *
from .io import *
from .model import *
from .msem import *
from .simulation import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *model.__all__,
    *estimators.__all__,
    *msem.__all__,
    *simulation.__all__,
    *io.__all__,
]

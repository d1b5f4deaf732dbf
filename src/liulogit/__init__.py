"""Shrinkage and principal-component estimators for binary logistic
regression under multicollinearity, with asymptotic error-matrix analysis
and a reproducible Monte Carlo study harness.

Every name in a module's ``__all__`` is importable from the package; each
module's list is the only place its public names are written.

``import liulogit`` loads no module of its own and no numpy: the first
public name asked for (``__all__`` included) imports every module, so the
command line can choose its BLAS thread count before numpy loads (see
``liulogit.cli``).
"""

import importlib

__version__ = "0.1.0"

# the order of __all__
_MODULES = ("errors", "model", "estimators", "msem", "simulation", "io")


def __getattr__(name):
    # PEP 562: called only for a name not bound yet
    if not name.startswith("_") or name == "__all__":
        names = ["__version__"]
        for module_name in _MODULES:
            module = importlib.import_module(f".{module_name}", __name__)
            globals().update((public, getattr(module, public)) for public in module.__all__)
            names += module.__all__
        globals()["__all__"] = names
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

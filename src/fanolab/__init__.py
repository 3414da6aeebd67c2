"""Fano-type lower bounds for statistical estimation.

Exact information quantities on finite alphabets, distance-based and
volume-based Fano inequalities, minimax risk pipelines for four Gaussian
estimation problems, and a seeded Monte Carlo lab that audits every
computed bound against exhaustive oracles and simulated estimators.

__all__ is the union of the library modules' __all__ lists; the command
layer (fanolab.cli, fanolab.verify) exports nothing. The modules load on
first use (PEP 562): ``import fanolab`` imports none of them, a submodule
loads when it is named, and any other ``fanolab.X`` imports the library
modules in _MODULES order until one exports X.
"""

import importlib.util

__version__ = "0.1.0"

_MODULES = ("info", "discrete", "continuum", "minimax", "lab", "stats", "streams", "results")


def _module(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name == "__all__":
        value = [n for module in _MODULES for n in _module(module).__all__]
    elif name.isidentifier() and importlib.util.find_spec(f"{__name__}.{name}") is not None:
        return _module(name)  # a submodule: importing it binds it here
    else:
        home = next((m for m in _MODULES if name in _module(m).__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(_module(home), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})

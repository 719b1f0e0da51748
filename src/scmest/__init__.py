"""Finite-sample inference for M-estimation with self-concordant-like losses.

The package fits empirical risk minimizers by Newton's method, certifies
existence and uniqueness of the minimizer from computable quantities,
and calibrates non-asymptotic Wald and likelihood-ratio confidence sets
and goodness-of-fit tests by multiplier bootstrap, Monte Carlo oracle,
or explicit constants.  ``scmest.cli`` exposes the same operations as a
command line.

Each public name is declared once, in the ``__all__`` of the submodule
that defines it, and ``scmest.<name>`` resolves it from there.
Submodules load lazily, on the first lookup, so the CLI can cap BLAS
threads before numpy is imported; ``errors`` is searched first and loads
no numpy.  Listing the names (``dir(scmest)``, ``scmest.__all__``)
imports every submodule.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# searched in this order; each imports only modules before it
_SUBMODULES = (
    "errors", "scfun", "simdata", "losses", "estimate",
    "bootstrap", "gof", "inference", "experiments",
)


def _modules():
    for mod in _SUBMODULES:
        yield importlib.import_module(f".{mod}", __name__)


def __getattr__(name: str):
    if name == "__all__":
        value = globals()[name] = sorted(n for m in _modules() for n in m.__all__) + ["__version__"]
        return value
    if not name.startswith("_"):
        for module in _modules():
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))

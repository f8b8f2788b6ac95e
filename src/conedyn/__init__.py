"""conedyn: cone fields, differentially positive flows, conal orders.

A numpy toolkit for monotone-systems geometry: cones and their Hilbert
projective metric, cone fields with invariant transport, flows with
variational (tangent) propagation, positivity checkers, Perron-Frobenius
directions, causal-order oracles, and Monte-Carlo convergence experiments
on a small registry of example systems.  ``import conedyn`` loads no
submodule: ``conedyn.<module>`` imports one on first use.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("cli", "conefield", "cones", "errors", "experiments", "flow",
               "geometry", "order", "pf", "positivity", "registry", "reports")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

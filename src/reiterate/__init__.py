"""Reiterated homogenization toolkit for divergence-form elliptic operators.

Cascaded periodic cell problems turn a coefficient oscillating on several
well-separated scales into one effective tensor; correctors, two-scale
approximants, and certificate probes quantify how well the homogenized
model tracks the oscillating one.

The public names load on first use (PEP 562), so ``import reiterate``
loads no numpy: the CLI sets its BLAS thread policy before numpy starts.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "BVP": "dirichlet",
    "CascadeResult": "cascade",
    "CellStack": "cell",
    "CoefficientField": "coeff",
    "CoefficientSpec": "coeff",
    "CompatibilityError": "errors",
    "ConfigError": "errors",
    "EffectiveTensor": "cell",
    "ExperimentConfig": "config",
    "Grid": "grid",
    "GridFunction": "grid",
    "ReiterateError": "errors",
    "ResolutionError": "errors",
    "ScaleLadder": "coeff",
    "SolverFailure": "errors",
    "builtin_family": "coeff",
    "check_separation": "coeff",
    "homogenize_all": "cascade",
    "parse_config": "config",
    "solve_homogenized": "dirichlet",
    "solve_multiscale": "dirichlet",
    "two_scale_expansion": "dirichlet",
}

# library submodules reachable as attributes; ``cli`` is left out because
# importing it sets the process's thread variables
_SUBMODULES = ("cache", "cascade", "cell", "coeff", "config", "dirichlet",
               "errors", "expr", "grid", "kernels", "probes", "smoothing",
               "stencil")

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})

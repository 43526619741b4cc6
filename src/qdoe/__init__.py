"""qdoe: stratified designs for dependent inputs via Voronoi quantization,
weighted expectation estimators, and HSIC kernel screening.

Submodules and the names below are imported on first access (PEP 562), so
``import qdoe.cli`` and :func:`load_config` need only the standard library
and numpy and scipy load when a command starts.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_SOURCES = {
    "config": "ExperimentConfig load_config parse_config KernelSpec",
    "copula": "GaussianCopula conditional_inverse fit_gaussian_copula gaussian_copula",
    "designs": "Design lhs_with_marginals mc_design qlhs_design",
    "distributions": "Distribution EmpiricalMarginal Gumbel LogNormal Normal Triangular "
                     "Truncated Uniform",
    "errors": "ConfigError DegeneracyError DimensionError DomainError EvaluationError "
              "ParameterError QdoeError",
    "estimators": "ReplicateSummary estimate replicate",
    "hsic": "ScreenResult gram screen weighted_hsic",
    "quantizer": "CandidatePool Quantizer distortion lloyd load_pool load_quantizer save_pool "
                 "save_quantizer",
    "cli": "",
    "models": "",
    "runner": "",
}
_SOURCE_OF = {name: module for module, names in _SOURCES.items() for name in names.split()}
__all__ = ["__version__", *_SOURCE_OF, "models", "runner"]


def __getattr__(name):
    if name in _SOURCE_OF:
        value = getattr(importlib.import_module(f".{_SOURCE_OF[name]}", __name__), name)
    elif name in _SOURCES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCES) | set(_SOURCE_OF))


"""qdoe: stratified designs for dependent inputs via Voronoi quantization,
weighted expectation estimators, and HSIC kernel screening."""

__version__ = "0.1.0"

from .config import ExperimentConfig, load_config, parse_config
from .copula import (
    EmpiricalMarginal,
    GaussianCopula,
    conditional_inverse,
    fit_gaussian_copula,
    gaussian_copula,
)
from .designs import (
    Design,
    lhs,
    lhs_with_marginals,
    mc_design,
    qlhs_design,
    rq_design,
)
from .distributions import (
    Distribution,
    Gumbel,
    LogNormal,
    Normal,
    Triangular,
    Truncated,
    Uniform,
)
from .errors import (
    ConfigError,
    DegeneracyError,
    DimensionError,
    DomainError,
    EvaluationError,
    ParameterError,
    QdoeError,
)
from .estimators import ReplicateSummary, estimate, replicate
from .hsic import KernelSpec, ScreenResult, gram, screen, weighted_hsic
from .quantizer import (
    CandidatePool,
    Quantizer,
    distortion,
    lloyd,
    load_pool,
    load_quantizer,
    save_pool,
    save_quantizer,
)
from . import models, runner

__all__ = [
    "__version__",
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "EmpiricalMarginal",
    "GaussianCopula",
    "conditional_inverse",
    "fit_gaussian_copula",
    "gaussian_copula",
    "Design",
    "lhs",
    "lhs_with_marginals",
    "mc_design",
    "qlhs_design",
    "rq_design",
    "Distribution",
    "Gumbel",
    "LogNormal",
    "Normal",
    "Triangular",
    "Truncated",
    "Uniform",
    "ConfigError",
    "DegeneracyError",
    "DimensionError",
    "DomainError",
    "EvaluationError",
    "ParameterError",
    "QdoeError",
    "ReplicateSummary",
    "estimate",
    "replicate",
    "KernelSpec",
    "ScreenResult",
    "gram",
    "screen",
    "weighted_hsic",
    "CandidatePool",
    "Quantizer",
    "distortion",
    "lloyd",
    "load_pool",
    "load_quantizer",
    "save_pool",
    "save_quantizer",
    "models",
    "runner",
]

"""Experiment configuration: a strict, versioned JSON schema.

A config file declares the model (or inline input groups), the sampling
scheme, the design sizes, repetition counts and every numerical knob of
the pipeline. Unknown keys are rejected and every error message carries
the dotted path of the offending entry. The canonical JSON serialization
of the effective config (after command-line overrides) is hashed and
embedded in every output file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .copula import gaussian_copula
from .distributions import distribution_from_config
from .errors import ConfigError, ParameterError, QdoeError
from .hsic import KernelSpec
from .models import InputGroup, load_config_pool

__all__ = [
    "LloydSettings",
    "SignificanceSettings",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "config_hash",
]

SCHEMES = ("mc", "lhs", "lhsd", "rq", "qlhs", "q2lhs")


@dataclass(frozen=True)
class LloydSettings:
    max_iter: int = 200
    rel_tol: float = 1e-8
    restarts: int = 5


@dataclass(frozen=True)
class SignificanceSettings:
    permutations: int = 500
    alpha: float = 0.05


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description, checked against the schema.

    ``columns`` and ``groups`` hold inline inputs only. A model is built (and
    its ``pool_csv`` read) when a command starts, in ``qdoe.runner``, which
    also runs the checks that need the resolved inputs.
    """

    seed: int
    scheme: str | None
    n: tuple[int, ...]
    repetitions: int | None
    pool_size: int
    lloyd: LloydSettings
    model_name: str | None
    model_params: dict
    columns: tuple[str, ...] | None
    groups: tuple[InputGroup, ...] | None
    kernels: KernelSpec
    test: SignificanceSettings
    hsic_groups: tuple[tuple[str, ...], ...] | None
    output_dir: str
    shared_quantizer: bool
    quantizer_files: dict[str, str]
    n_cells: int | None
    group: str | None
    config_hash: str = field(default="", compare=False)


def config_hash(raw: dict) -> str:
    """Hash of the canonical JSON serialization of a config mapping."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _check_keys(mapping: dict, allowed, path: str) -> None:
    _expect(isinstance(mapping, dict), path, "expected a mapping")
    unknown = set(mapping) - set(allowed)
    _expect(not unknown, path, f"unknown keys {sorted(unknown)}")


def _as_int(value, path: str, minimum: int | None = None) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
    if minimum is not None:
        _expect(value >= minimum, path, f"must be >= {minimum}")
    return value


def _as_number(value, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    return float(value)


def _as_bool(value, path: str) -> bool:
    _expect(isinstance(value, bool), path, "expected true or false")
    return value


def _parse_group(raw: dict, path: str) -> InputGroup:
    _check_keys(raw, ("name", "kind", "columns", "marginals", "correlation", "pool_csv"), path)
    for key in ("name", "kind", "columns"):
        _expect(key in raw, path, f"missing key {key!r}")
    name = raw["name"]
    kind = raw["kind"]
    columns = raw["columns"]
    _expect(isinstance(name, str), f"{path}.name", "expected a string")
    _expect(isinstance(columns, list) and columns and all(isinstance(c, str) for c in columns),
            f"{path}.columns", "expected a non-empty list of strings")
    _expect(kind in ("independent", "copula", "pool"), f"{path}.kind",
            "expected one of 'independent', 'copula', 'pool'")
    marginals = None
    correlation = None
    pool_points = None
    if kind in ("independent", "copula"):
        _expect("marginals" in raw, path, "marginals are required for this kind")
        raw_margs = raw["marginals"]
        _expect(isinstance(raw_margs, list) and len(raw_margs) == len(columns),
                f"{path}.marginals", "expected one declaration per column")
        marginals = tuple(_distribution(m, f"{path}.marginals[{i}]")
                          for i, m in enumerate(raw_margs))
    if kind == "copula":
        _expect("correlation" in raw, path, "copula groups require a correlation matrix")
        try:
            correlation = np.asarray(raw["correlation"], dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"{path}.correlation: expected a square matrix of numbers") from None
        _expect(correlation.shape == (len(columns), len(columns)),
                f"{path}.correlation", "matrix shape must match the column count")
        try:
            gaussian_copula(correlation)
        except ParameterError as exc:
            raise ConfigError(f"{path}.correlation: {exc}") from exc
    if kind == "pool":
        _expect("pool_csv" in raw, path, "pool groups require a pool_csv path")
        pool = load_config_pool(raw["pool_csv"], f"{path}.pool_csv")
        _expect(pool.d == len(columns), f"{path}.pool_csv",
                f"pool has {pool.d} columns, group declares {len(columns)}")
        pool_points = pool.points
    try:
        return InputGroup(
            name=name,
            columns=tuple(columns),
            kind=kind,
            marginals=marginals,
            correlation=correlation,
            pool_points=pool_points,
        )
    except QdoeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _distribution(raw, path: str):
    try:
        return distribution_from_config(raw)
    except QdoeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_TOP_LEVEL_KEYS = (
    "version",
    "seed",
    "scheme",
    "n",
    "repetitions",
    "pool_size",
    "lloyd",
    "model",
    "inputs",
    "kernels",
    "test",
    "hsic_groups",
    "output_dir",
    "shared_quantizer",
    "quantizer_files",
    "n_cells",
    "group",
)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a config mapping; raises ConfigError with a dotted path."""
    _expect(isinstance(raw, dict), "config", "top level must be a mapping")
    _check_keys(raw, _TOP_LEVEL_KEYS, "config")
    _expect("version" in raw, "config", "missing key 'version'")
    _expect(raw["version"] == 1, "config.version", f"unsupported version {raw['version']!r}")
    _expect("seed" in raw, "config", "missing key 'seed'")
    seed = _as_int(raw["seed"], "config.seed", minimum=0)

    scheme = raw.get("scheme")
    if scheme is not None:
        _expect(scheme in SCHEMES, "config.scheme", f"expected one of {SCHEMES}")

    n_raw = raw.get("n", [])
    if isinstance(n_raw, int) and not isinstance(n_raw, bool):
        n_raw = [n_raw]
    _expect(isinstance(n_raw, list), "config.n", "expected an integer or a list of integers")
    n = tuple(_as_int(v, f"config.n[{i}]", minimum=1) for i, v in enumerate(n_raw))

    repetitions = raw.get("repetitions")
    if repetitions is not None:
        repetitions = _as_int(repetitions, "config.repetitions", minimum=0)

    pool_size = _as_int(raw.get("pool_size", 100_000), "config.pool_size", minimum=1)

    lloyd_raw = raw.get("lloyd", {})
    _check_keys(lloyd_raw, ("max_iter", "rel_tol", "restarts"), "config.lloyd")
    lloyd = LloydSettings(
        max_iter=_as_int(lloyd_raw.get("max_iter", 200), "config.lloyd.max_iter", minimum=1),
        rel_tol=_as_number(lloyd_raw.get("rel_tol", 1e-8), "config.lloyd.rel_tol"),
        restarts=_as_int(lloyd_raw.get("restarts", 5), "config.lloyd.restarts", minimum=1),
    )
    _expect(lloyd.rel_tol >= 0.0, "config.lloyd.rel_tol", "must be >= 0")

    model_name = None
    model_params: dict = {}
    columns = None
    groups = None
    if "model" in raw:
        model_raw = raw["model"]
        _check_keys(model_raw, ("name", "params"), "config.model")
        _expect("name" in model_raw, "config.model", "missing key 'name'")
        model_name = model_raw["name"]
        _expect(isinstance(model_name, str), "config.model.name", "expected a string")
        model_params = model_raw.get("params", {})
        _expect(isinstance(model_params, dict), "config.model.params", "expected a mapping")
    if "inputs" in raw:
        _expect(model_name is None, "config.inputs", "declare either a model or inline inputs")
        inputs_raw = raw["inputs"]
        _check_keys(inputs_raw, ("groups",), "config.inputs")
        _expect("groups" in inputs_raw and isinstance(inputs_raw["groups"], list)
                and inputs_raw["groups"], "config.inputs.groups", "expected a non-empty list")
        groups = tuple(
            _parse_group(g, f"config.inputs.groups[{i}]")
            for i, g in enumerate(inputs_raw["groups"])
        )
        columns = tuple(c for g in groups for c in g.columns)
        _expect(len(set(columns)) == len(columns), "config.inputs.groups",
                "column names must be unique across groups")

    kern_raw = raw.get("kernels", {})
    _check_keys(kern_raw, ("bandwidth_rule", "bandwidth", "standardize_groups"), "config.kernels")
    try:
        kernels = KernelSpec(
            bandwidth_rule=kern_raw.get("bandwidth_rule", "std"),
            bandwidth=(None if kern_raw.get("bandwidth") is None
                       else _as_number(kern_raw["bandwidth"], "config.kernels.bandwidth")),
            standardize_groups=_as_bool(kern_raw.get("standardize_groups", True),
                                        "config.kernels.standardize_groups"),
        )
    except ParameterError as exc:
        raise ConfigError(f"config.kernels: {exc}") from exc

    test_raw = raw.get("test", {})
    _check_keys(test_raw, ("permutations", "alpha"), "config.test")
    test = SignificanceSettings(
        permutations=_as_int(test_raw.get("permutations", 500), "config.test.permutations",
                              minimum=100),
        alpha=_as_number(test_raw.get("alpha", 0.05), "config.test.alpha"),
    )
    _expect(0.0 < test.alpha < 1.0, "config.test.alpha", "must lie strictly inside (0, 1)")

    hsic_groups = None
    if raw.get("hsic_groups") is not None:
        hg = raw["hsic_groups"]
        _expect(isinstance(hg, list) and hg, "config.hsic_groups", "expected a non-empty list")
        for i, entry in enumerate(hg):
            _expect(isinstance(entry, list) and entry, f"config.hsic_groups[{i}]",
                    "expected a non-empty list of column names")
        hsic_groups = tuple(tuple(entry) for entry in hg)

    quantizer_files = raw.get("quantizer_files", {})
    _expect(isinstance(quantizer_files, dict), "config.quantizer_files", "expected a mapping")
    for name, file in quantizer_files.items():
        _expect(isinstance(file, str), f"config.quantizer_files.{name}", "expected a path string")

    output_dir = raw.get("output_dir", ".")
    _expect(isinstance(output_dir, str), "config.output_dir", "expected a path string")

    n_cells = raw.get("n_cells")
    if n_cells is not None:
        n_cells = _as_int(n_cells, "config.n_cells", minimum=1)

    return ExperimentConfig(
        seed=seed,
        scheme=scheme,
        n=n,
        repetitions=repetitions,
        pool_size=pool_size,
        lloyd=lloyd,
        model_name=model_name,
        model_params=model_params,
        columns=columns,
        groups=groups,
        kernels=kernels,
        test=test,
        hsic_groups=hsic_groups,
        output_dir=output_dir,
        shared_quantizer=_as_bool(raw.get("shared_quantizer", False), "config.shared_quantizer"),
        quantizer_files=dict(quantizer_files),
        n_cells=n_cells,
        group=raw.get("group"),
        config_hash=config_hash(raw),
    )


def _finite(text: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals are config errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} is not allowed in a config")
    return value


def load_config(
    path,
    *,
    seed_override: int | None = None,
    out_override: str | None = None,
    shared_override: bool = False,
) -> ExperimentConfig:
    """Read and validate a JSON config file, applying CLI overrides before
    hashing so the embedded hash reflects the effective configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_finite, parse_float=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if seed_override is not None:
        raw["seed"] = seed_override
    if out_override is not None:
        raw["output_dir"] = out_override
    if shared_override:
        raw["shared_quantizer"] = True
    return parse_config(raw)

"""Experiment configuration: a strict, versioned JSON schema.

A config file declares the model (or inline input groups), the sampling
scheme, the design sizes, repetition counts and every numerical knob of
the pipeline. Unknown keys are rejected and every error message carries
the dotted path of the offending entry. The canonical JSON serialization
of the effective config (after command-line overrides) is hashed and
embedded in every output file.

Loading reads no other file: model params and inline input groups are kept
as written and built when a command starts, in ``qdoe.runner``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError, ParameterError

__all__ = [
    "KernelSpec",
    "LloydSettings",
    "SignificanceSettings",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "config_hash",
]

SCHEMES = ("mc", "lhs", "lhsd", "rq", "qlhs", "q2lhs")


@dataclass(frozen=True)
class KernelSpec:
    """RBF kernel exp(-||x - x'||^2 / (2 theta^2)) with a bandwidth rule.

    A sample of several columns is first standardized column by column
    with its own mean and standard deviation when ``standardize_groups``
    is set (recommended when column scales differ by orders of
    magnitude); a single column never is. Bandwidth rules:

    - ``fixed``: use ``bandwidth`` as given;
    - ``std``: the sample standard deviation (after standardization this
      is 1);
    - ``median``: sqrt of half the median positive squared distance.
    """

    bandwidth_rule: str = "std"
    bandwidth: float | None = None
    standardize_groups: bool = True

    def __post_init__(self):
        if self.bandwidth_rule not in ("fixed", "std", "median"):
            raise ParameterError(f"unknown bandwidth rule {self.bandwidth_rule!r}")
        if self.bandwidth_rule == "fixed" and (self.bandwidth is None
                                               or not 0.0 < self.bandwidth < math.inf):
            raise ParameterError(f"fixed bandwidth rule requires 0 < bandwidth < inf, "
                                 f"got {self.bandwidth}")
        if self.bandwidth_rule != "fixed" and self.bandwidth is not None:
            raise ParameterError(f"a bandwidth is used only by the fixed rule, "
                                 f"not by {self.bandwidth_rule!r}")


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

    Each field is read from the config key of its name, and keeps its default
    when the key is omitted. ``model`` holds the model declaration (``name``,
    and ``params`` if given) and ``inputs`` the inline ``inputs.groups``
    declarations, both as written. ``qdoe.runner`` builds either when a
    command starts and runs the checks that need the resolved inputs.
    """

    seed: int
    version: int = 1
    scheme: str | None = None
    n: tuple[int, ...] = ()
    repetitions: int | None = None
    pool_size: int = 100_000
    lloyd: LloydSettings = LloydSettings()
    model: dict | None = None
    inputs: tuple[dict, ...] | None = None
    kernels: KernelSpec = KernelSpec()
    test: SignificanceSettings = SignificanceSettings()
    hsic_groups: tuple[tuple[str, ...], ...] | None = None
    output_dir: str = "."
    shared_quantizer: bool = False
    quantizer_files: dict[str, str] = field(default_factory=dict)
    n_cells: int | None = None
    group: str | None = None
    config_hash: str = field(default="", compare=False)


def config_hash(raw: dict) -> str:
    """Hash of the canonical JSON serialization of a config mapping."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _as_number(value, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    _expect(math.isfinite(number), path, f"expected a finite number, got {number}")
    return number


def _as_bool(value, path: str) -> bool:
    _expect(isinstance(value, bool), path, "expected true or false")
    return value


def _as_str(value, path: str) -> str:
    _expect(isinstance(value, str), path, "expected a string")
    return value


def _as_path(value, path: str) -> str:
    _expect(isinstance(value, str), path, "expected a path string")
    return value


def _as_mapping(value, path: str) -> dict:
    _expect(isinstance(value, dict), path, "expected a mapping")
    return value


def _fields(raw, path: str, readers: dict, required=()) -> dict:
    """The keys given in the mapping ``raw``, each read by its reader at
    ``path.key``; a key without a reader and a missing ``required`` key are
    ConfigErrors at ``path``."""
    unknown = set(_as_mapping(raw, path)) - set(readers)
    _expect(not unknown, path, f"unknown keys {sorted(unknown)}; accepted: {sorted(readers)}")
    for key in required:
        _expect(key in raw, path, f"missing key {key!r}")
    return {key: read(raw[key], f"{path}.{key}") for key, read in readers.items() if key in raw}


def _at_least(minimum: int):
    """Reader of an integer >= ``minimum``."""
    def read(value, path: str) -> int:
        _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
        _expect(value >= minimum, path, f"must be >= {minimum}")
        return value
    return read


def _one_of(choices):
    """Reader of a value among ``choices``."""
    def read(value, path: str):
        _expect(value in choices, path, f"expected one of {choices}")
        return value
    return read


def _optional(read):
    """``read``, except that null stays None, as an absent key reads."""
    return lambda value, path: None if value is None else read(value, path)


def _settings(cls, readers: dict):
    """Reader of a settings section as ``cls``: each key given is read at its
    dotted path, each one omitted keeps the dataclass default, and the
    class's own ParameterError names the section."""
    def read(value, path: str):
        try:
            return cls(**_fields(value, path, readers))
        except ParameterError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return read


def _version(value, path: str) -> int:
    _expect(type(value) is int and value == 1, path, f"unsupported version {value!r}")
    return value


def _sizes(value, path: str) -> tuple[int, ...]:
    if isinstance(value, int) and not isinstance(value, bool):
        value = [value]
    _expect(isinstance(value, list), path, "expected an integer or a list of integers")
    n = tuple(_at_least(1)(v, f"{path}[{i}]") for i, v in enumerate(value))
    _expect(len(set(n)) == len(n), path, f"repeated design size in {list(n)}")
    return n


def _inputs(value, path: str) -> tuple[dict, ...]:
    groups = _fields(value, path, {"groups": lambda groups, _: groups}).get("groups")
    _expect(isinstance(groups, list) and groups, f"{path}.groups", "expected a non-empty list")
    return tuple(groups)


def _hsic_groups(value, path: str) -> tuple[tuple[str, ...], ...]:
    _expect(isinstance(value, list) and value, path, "expected a non-empty list")
    seen = {}
    for i, entry in enumerate(value):
        where = f"{path}[{i}]"
        _expect(isinstance(entry, list) and entry and all(isinstance(c, str) for c in entry),
                where, "expected a non-empty list of column names")
        _expect(len(set(entry)) == len(entry), where, "names a column more than once")
        first = seen.setdefault(frozenset(entry), i)
        _expect(first == i, where, f"repeats the columns of {path}[{first}]")
    return tuple(tuple(entry) for entry in value)


def _quantizer_files(value, path: str) -> dict[str, str]:
    return {name: _as_path(file, f"{path}.{name}")
            for name, file in _as_mapping(value, path).items()}


# top-level key: its reader; the key sets the ExperimentConfig field of its name
_TOP_LEVEL = {
    "version": _version,
    "seed": _at_least(0),
    "scheme": _optional(_one_of(SCHEMES)),
    "n": _sizes,
    "repetitions": _optional(_at_least(0)),
    "pool_size": _at_least(1),
    "lloyd": _settings(LloydSettings, {"max_iter": _at_least(1), "rel_tol": _as_number,
                                       "restarts": _at_least(1)}),
    "model": lambda value, path: _fields(value, path, {"name": _as_str, "params": _as_mapping},
                                         required=("name",)),
    "inputs": _inputs,
    "kernels": _settings(KernelSpec, {"bandwidth_rule": lambda value, path: value,  # KernelSpec checks it
                                      "bandwidth": _optional(_as_number),
                                      "standardize_groups": _as_bool}),
    "test": _settings(SignificanceSettings, {"permutations": _at_least(100), "alpha": _as_number}),
    "hsic_groups": _optional(_hsic_groups),
    "output_dir": _as_path,
    "shared_quantizer": _as_bool,
    "quantizer_files": _quantizer_files,
    "n_cells": _optional(_at_least(1)),
    "group": _optional(_as_str),
}


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a config mapping; raises ConfigError with a dotted path."""
    _expect(isinstance(raw, dict), "config", "top level must be a mapping")
    _expect(not ("model" in raw and "inputs" in raw), "config.inputs",
            "declare either a model or inline inputs")
    cfg = ExperimentConfig(**_fields(raw, "config", _TOP_LEVEL, required=("version", "seed")),
                           config_hash=config_hash(raw))
    _expect(cfg.lloyd.rel_tol >= 0.0, "config.lloyd.rel_tol", "must be >= 0")
    _expect(0.0 < cfg.test.alpha < 1.0, "config.test.alpha", "must lie strictly inside (0, 1)")
    return cfg


def _finite(text: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals are config errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} is not allowed in a config")
    return value


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read and validate a JSON config file.

    ``overrides`` maps top-level keys to the values that replace the file's,
    where None means "not given"; they apply before hashing, so the embedded
    hash reflects the effective configuration.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_finite, parse_float=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if isinstance(raw, dict):  # anything else fails in parse_config
        raw.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    return parse_config(raw)

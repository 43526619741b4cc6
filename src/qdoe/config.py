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

    ``inputs`` holds the inline ``inputs.groups`` declarations as written, as
    ``model_params`` holds the model's. ``qdoe.runner`` builds either when a
    command starts and runs the checks that need the resolved inputs.
    """

    seed: int
    scheme: str | None
    n: tuple[int, ...]
    repetitions: int | None
    pool_size: int
    lloyd: LloydSettings
    model_name: str | None
    model_params: dict
    inputs: tuple[dict, ...] | None
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
    _expect(not unknown, path, f"unknown keys {sorted(unknown)}; accepted: {sorted(allowed)}")


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


def _at_least(minimum: int):
    """Reader of an integer >= ``minimum``."""
    def read(value, path: str) -> int:
        _expect(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
        _expect(value >= minimum, path, f"must be >= {minimum}")
        return value
    return read


def _optional(read):
    """``read``, except that null stays None, as an absent key reads."""
    return lambda value, path: None if value is None else read(value, path)


# settings section: its dataclass and a reader per field; the class checks the rest
_SETTINGS = {
    "lloyd": (LloydSettings, {"max_iter": _at_least(1), "rel_tol": _as_number,
                              "restarts": _at_least(1)}),
    "kernels": (KernelSpec, {"bandwidth_rule": lambda value, path: value,  # KernelSpec checks it
                             "bandwidth": _optional(_as_number),
                             "standardize_groups": _as_bool}),
    "test": (SignificanceSettings, {"permutations": _at_least(100), "alpha": _as_number}),
}


def _settings(raw: dict, section: str):
    """``config.<section>`` as its dataclass: each key given is read at its
    dotted path, each one omitted keeps the dataclass default."""
    cls, readers = _SETTINGS[section]
    path, given = f"config.{section}", raw.get(section, {})
    _check_keys(given, readers, path)
    try:
        return cls(**{key: read(given[key], f"{path}.{key}")
                      for key, read in readers.items() if key in given})
    except ParameterError as exc:
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
    seed = _at_least(0)(raw["seed"], "config.seed")

    scheme = raw.get("scheme")
    if scheme is not None:
        _expect(scheme in SCHEMES, "config.scheme", f"expected one of {SCHEMES}")

    n_raw = raw.get("n", [])
    if isinstance(n_raw, int) and not isinstance(n_raw, bool):
        n_raw = [n_raw]
    _expect(isinstance(n_raw, list), "config.n", "expected an integer or a list of integers")
    n = tuple(_at_least(1)(v, f"config.n[{i}]") for i, v in enumerate(n_raw))
    _expect(len(set(n)) == len(n), "config.n", f"repeated design size in {list(n)}")

    repetitions = _optional(_at_least(0))(raw.get("repetitions"), "config.repetitions")
    pool_size = _at_least(1)(raw.get("pool_size", 100_000), "config.pool_size")

    lloyd = _settings(raw, "lloyd")
    _expect(lloyd.rel_tol >= 0.0, "config.lloyd.rel_tol", "must be >= 0")

    model_name = None
    model_params: dict = {}
    inputs = None
    if "model" in raw:
        model_raw = raw["model"]
        _check_keys(model_raw, ("name", "params"), "config.model")
        _expect("name" in model_raw, "config.model", "missing key 'name'")
        model_name = _as_str(model_raw["name"], "config.model.name")
        model_params = model_raw.get("params", {})
        _expect(isinstance(model_params, dict), "config.model.params", "expected a mapping")
    if "inputs" in raw:
        _expect(model_name is None, "config.inputs", "declare either a model or inline inputs")
        inputs_raw = raw["inputs"]
        _check_keys(inputs_raw, ("groups",), "config.inputs")
        _expect("groups" in inputs_raw and isinstance(inputs_raw["groups"], list)
                and inputs_raw["groups"], "config.inputs.groups", "expected a non-empty list")
        inputs = tuple(inputs_raw["groups"])

    kernels = _settings(raw, "kernels")
    test = _settings(raw, "test")
    _expect(0.0 < test.alpha < 1.0, "config.test.alpha", "must lie strictly inside (0, 1)")

    hsic_groups = None
    if raw.get("hsic_groups") is not None:
        hg = raw["hsic_groups"]
        _expect(isinstance(hg, list) and hg, "config.hsic_groups", "expected a non-empty list")
        seen = {}
        for i, entry in enumerate(hg):
            _expect(isinstance(entry, list) and entry and all(isinstance(c, str) for c in entry),
                    f"config.hsic_groups[{i}]", "expected a non-empty list of column names")
            _expect(len(set(entry)) == len(entry), f"config.hsic_groups[{i}]",
                    "names a column more than once")
            first = seen.setdefault(frozenset(entry), i)
            _expect(first == i, f"config.hsic_groups[{i}]",
                    f"repeats the columns of config.hsic_groups[{first}]")
        hsic_groups = tuple(tuple(entry) for entry in hg)

    quantizer_files = raw.get("quantizer_files", {})
    _expect(isinstance(quantizer_files, dict), "config.quantizer_files", "expected a mapping")
    for name, file in quantizer_files.items():
        _expect(isinstance(file, str), f"config.quantizer_files.{name}", "expected a path string")

    output_dir = raw.get("output_dir", ".")
    _expect(isinstance(output_dir, str), "config.output_dir", "expected a path string")

    return ExperimentConfig(
        seed=seed,
        scheme=scheme,
        n=n,
        repetitions=repetitions,
        pool_size=pool_size,
        lloyd=lloyd,
        model_name=model_name,
        model_params=model_params,
        inputs=inputs,
        kernels=kernels,
        test=test,
        hsic_groups=hsic_groups,
        output_dir=output_dir,
        shared_quantizer=_as_bool(raw.get("shared_quantizer", False), "config.shared_quantizer"),
        quantizer_files=dict(quantizer_files),
        n_cells=_optional(_at_least(1))(raw.get("n_cells"), "config.n_cells"),
        group=_optional(_as_str)(raw.get("group"), "config.group"),
        config_hash=config_hash(raw),
    )


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

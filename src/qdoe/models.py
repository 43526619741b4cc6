"""Benchmark models: analytic toys, the flood-risk overflow model and Van
Genuchten soil water retention curves.

Each model is a pure evaluator over rows in a declared column order, plus
an input schema describing the marginals and the dependence structure of
each group of columns. The schema is what the experiment runner needs to
build pools, copulas and designs for any sampling scheme. A config's inline
input groups are built here too, marginal declarations included, reading
``pool_csv`` as model params do.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy.special import betaincinv, ndtr, ndtri

from .config import _as_number, _as_str, _expect, _fields, _one_of
from .copula import gaussian_copula
from .distributions import Distribution, Gumbel, LogNormal, Normal, Triangular, Truncated, Uniform
from .errors import ConfigError, DimensionError, DomainError, ParameterError, QdoeError
from .quantizer import CandidatePool, load_pool

__all__ = [
    "InputGroup",
    "ModelSpec",
    "flood_evaluate",
    "vg_theta",
    "vg_conductivity",
    "vg_pool",
    "vg_pool_from_sample",
    "build_model",
    "inline_groups",
    "load_config_pool",
    "MODEL_NAMES",
    "VG_COLUMNS",
    "VG_LATENT_CORRELATION",
]

log = logging.getLogger("qdoe")


@dataclass(frozen=True)
class InputGroup:
    """A block of model inputs sampled together.

    ``kind`` is one of:

    - ``independent``: columns with analytic marginals, mutually independent;
    - ``copula``: columns coupled by a Gaussian copula over analytic marginals;
    - ``generator``: columns known only through a joint simulator;
    - ``pool``: columns known only through a fixed sample matrix.

    Groups other than ``independent`` are the quantizable (dependent)
    blocks of the quantization-based schemes. Construction raises ConfigError
    unless the kind's fields fit the d columns: one marginal per column, a d x d
    correlation that ``gaussian_copula`` accepts, a pool matrix of d columns.
    """

    name: str
    columns: tuple[str, ...]
    kind: str
    marginals: tuple[Distribution, ...] | None = None
    correlation: np.ndarray | None = None
    generator: Callable[[int, np.random.Generator], np.ndarray] | None = None
    pool_points: np.ndarray | None = None

    def __post_init__(self):
        d = len(self.columns)
        if self.kind not in ("independent", "copula", "generator", "pool"):
            raise ConfigError(f"unknown input group kind {self.kind!r}")
        if self.kind in ("independent", "copula") and (
            self.marginals is None or len(self.marginals) != d
        ):
            raise ConfigError(f"group {self.name!r} needs one marginal per column")
        if self.kind == "copula":
            if np.shape(self.correlation) != (d, d):
                raise ConfigError(f"copula group {self.name!r} needs a {d}x{d} correlation matrix")
            try:
                gaussian_copula(self.correlation)
            except ParameterError as exc:
                raise ConfigError(f"copula group {self.name!r}: {exc}") from exc
        if self.kind == "generator" and self.generator is None:
            raise ConfigError(f"generator group {self.name!r} needs a generator callable")
        if self.kind == "pool" and np.shape(self.pool_points)[1:] != (d,):
            raise ConfigError(f"pool group {self.name!r} needs a sample matrix of {d} columns")

    @property
    def dependent(self) -> bool:
        return self.kind != "independent"


@dataclass(frozen=True)
class ModelSpec:
    """Named evaluator with its input schema.

    ``evaluate`` is vectorized over an (m, d) matrix whose columns follow
    ``columns``.
    """

    name: str
    columns: tuple[str, ...]
    groups: tuple[InputGroup, ...]
    evaluate: Callable[[np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# flood overflow model

FLOOD_COLUMNS = ("Q", "Ks", "Zv", "Zm", "Hd", "Cb", "L", "B")

FLOOD_MARGINALS = {
    "Q": Truncated(Gumbel(1013.0, 558.0), 500.0, 3000.0),
    "Ks": Truncated(Normal(30.0, 8.0), 15.0, math.inf),
    "Zv": Triangular(49.0, 50.0, 51.0),
    "Zm": Triangular(54.0, 55.0, 56.0),
    "Hd": Uniform(7.0, 9.0),
    "Cb": Triangular(55.0, 55.5, 56.0),
    "L": Triangular(4990.0, 5000.0, 5010.0),
    "B": Triangular(295.0, 300.0, 305.0),
}

# pairwise dependence: rho(Q, Ks) = 0.5, rho(Zv, Zm) = rho(L, B) = 0.3
FLOOD_CHANNEL_COLUMNS = ("Q", "Ks", "Zv", "Zm", "L", "B")
_FLOOD_CHANNEL_CORR = np.eye(6)
_FLOOD_CHANNEL_CORR[0, 1] = _FLOOD_CHANNEL_CORR[1, 0] = 0.5
_FLOOD_CHANNEL_CORR[2, 3] = _FLOOD_CHANNEL_CORR[3, 2] = 0.3
_FLOOD_CHANNEL_CORR[4, 5] = _FLOOD_CHANNEL_CORR[5, 4] = 0.3


def flood_evaluate(rows) -> np.ndarray:
    """Overflow height S = Zv + H - Hd - Cb for rows ordered like
    ``FLOOD_COLUMNS``, with the water level H = (Q / (B Ks sqrt((Zm - Zv)/L)))^0.6."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != 8:
        raise DimensionError(f"flood model expects 8 columns, got {rows.shape[1]}")
    q, ks, zv, zm, hd, cb, length, width = rows.T
    bad = (q <= 0) | (ks <= 0) | (width <= 0) | (length <= 0) | (zm <= zv)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise DomainError(f"flood model domain violation on row {i}: {rows[i].tolist()}")
    h = (q / (width * ks * np.sqrt((zm - zv) / length))) ** 0.6
    return zv + h - hd - cb


# ---------------------------------------------------------------------------
# Van Genuchten water retention and conductivity

VG_COLUMNS = ("theta_r", "theta_s", "alpha", "n", "k_sat")


def _check_vg_params(theta_r, theta_s, alpha, n):
    theta_r = np.asarray(theta_r, dtype=float)
    theta_s = np.asarray(theta_s, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    n = np.asarray(n, dtype=float)
    if np.any(theta_r < 0) or np.any(theta_r >= theta_s):
        raise ParameterError("retention parameters require 0 <= theta_r < theta_s")
    if np.any(alpha <= 0):
        raise ParameterError("retention parameter alpha must be positive")
    if np.any(n <= 1):
        raise ParameterError("retention parameter n must exceed 1")
    return theta_r, theta_s, alpha, n


def vg_theta(h, theta_r, theta_s, alpha, n):
    """Volumetric water content theta(h) = theta_r +
    (theta_s - theta_r) / (1 + (alpha |h|)^n)^(1 - 1/n)."""
    theta_r, theta_s, alpha, n = _check_vg_params(theta_r, theta_s, alpha, n)
    h = np.abs(np.asarray(h, dtype=float))
    out = theta_r + (theta_s - theta_r) / (1.0 + (alpha * h) ** n) ** (1.0 - 1.0 / n)
    return float(out) if np.ndim(out) == 0 else out


def vg_conductivity(h, theta_r, theta_s, alpha, n, k_sat):
    """Unsaturated conductivity
    K_sat sqrt(S) (1 - (1 - S^(1/(1 - 1/n)))^(1 - 1/n))^2 with the effective
    saturation S(h) = (theta(h) - theta_r) / (theta_s - theta_r)."""
    if np.any(np.asarray(k_sat, dtype=float) <= 0):
        raise ParameterError("k_sat must be positive")
    theta = vg_theta(h, theta_r, theta_s, alpha, n)
    theta_r = np.asarray(theta_r, dtype=float)
    theta_s = np.asarray(theta_s, dtype=float)
    n = np.asarray(n, dtype=float)
    s = np.clip((theta - theta_r) / (theta_s - theta_r), 0.0, 1.0)
    m = 1.0 - 1.0 / n
    out = k_sat * np.sqrt(s) * (1.0 - (1.0 - s ** (1.0 / m)) ** m) ** 2
    return float(out) if np.ndim(out) == 0 else out


# Latent correlations of the synthetic retention-parameter generator,
# ordered like VG_COLUMNS; verified positive definite.
VG_LATENT_CORRELATION = np.array(
    [
        [1.00, 0.45, -0.30, -0.35, -0.40],
        [0.45, 1.00, -0.10, -0.15, -0.20],
        [-0.30, -0.10, 1.00, 0.35, 0.55],
        [-0.35, -0.15, 0.35, 1.00, 0.30],
        [-0.40, -0.20, 0.55, 0.30, 1.00],
    ]
)


def _vg_marginal_transform(u: np.ndarray) -> np.ndarray:
    """Map uniform columns to physically plausible retention parameters."""
    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    theta_r = 0.01 + 0.10 * betaincinv(2.0, 2.0, u[:, 0])
    theta_s = 0.30 + 0.20 * betaincinv(2.0, 2.0, u[:, 1])
    alpha = np.exp(math.log(2.0) + 0.6 * z[:, 2])
    n = 1.0 + np.exp(math.log(0.45) + 0.40 * z[:, 3])
    k_sat = np.exp(math.log(1e-5) + 1.0 * z[:, 4])
    return np.column_stack([theta_r, theta_s, alpha, n, k_sat])


def _vg_valid_mask(rows: np.ndarray) -> np.ndarray:
    theta_r, theta_s, alpha, n, k_sat = rows.T
    return (
        (theta_r >= 0)
        & (theta_r < theta_s)
        & (alpha > 0)
        & (n > 1)
        & (k_sat > 0)
        & np.all(np.isfinite(rows), axis=1)
    )


def vg_pool(m: int, rng: np.random.Generator) -> CandidatePool:
    """Synthetic generator of correlated, physically valid retention
    parameter sets (columns ``VG_COLUMNS``).

    A Gaussian latent vector with ``VG_LATENT_CORRELATION`` is pushed
    through bounded beta marginals for the water contents and lognormal
    marginals for alpha, n - 1 and k_sat. Every row is valid: theta_r
    lies in [0.01, 0.11] and theta_s in [0.30, 0.50], and the clipped
    normal scores keep alpha, n - 1 and k_sat positive and finite.
    """
    if m < 1:
        raise ParameterError("pool size must be >= 1")
    latent = rng.standard_normal((m, 5)) @ np.linalg.cholesky(VG_LATENT_CORRELATION).T
    return CandidatePool(_vg_marginal_transform(ndtr(latent)))


def vg_pool_from_sample(rows) -> tuple[CandidatePool, int]:
    """Wrap an external retention-parameter sample as a candidate pool.

    Physically invalid rows are dropped; returns the pool and the number
    of rejected rows.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != 5:
        raise DimensionError(f"retention parameter sample must have 5 columns, got {rows.shape[1]}")
    mask = _vg_valid_mask(rows)
    rejected = int(np.sum(~mask))
    if not np.any(mask):
        raise ParameterError("every row of the sample is physically invalid")
    return CandidatePool(rows[mask]), rejected




# ---------------------------------------------------------------------------
# model registry

def load_config_pool(value, where: str, columns) -> CandidatePool:
    """The pool CSV a config names at ``where``, whose header must name
    ``columns`` in order; a path that is not a string, a file that cannot be
    read or another header is a ConfigError naming ``where``."""
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a path string, got {value!r}")
    try:
        pool, names = load_pool(value)
    except (OSError, QdoeError) as exc:
        raise ConfigError(f"{where}: cannot load pool ({exc})") from exc
    _expect(names == list(columns), where,
            f"the pool's header names the columns {names}, not the declared {list(columns)}")
    return pool


def inline_groups(raw) -> tuple[tuple[str, ...], tuple[InputGroup, ...]]:
    """``(columns, groups)`` of a config's inline ``inputs.groups``, reading
    each ``pool_csv``; every error is a ConfigError naming its entry."""
    groups = tuple(_parse_group(g, f"config.inputs.groups[{i}]") for i, g in enumerate(raw))
    columns = tuple(c for g in groups for c in g.columns)
    _expect(len(set(columns)) == len(columns), "config.inputs.groups",
            "column names must be unique across groups")
    return columns, groups


def _label(value, path: str) -> str:
    """A group or column name: names land in file names and CSV headers."""
    _expect(bool(value) and not any(ch in value for ch in ",/\\#\n\r"), path,
            f"name {value!r} must be non-empty and hold no ',', '/', '\\', '#' or line break")
    return value


def _columns(value, path: str) -> tuple[str, ...]:
    _expect(isinstance(value, list) and value and all(isinstance(c, str) for c in value),
            path, "expected a non-empty list of strings")
    for i, column in enumerate(value):
        _label(column, f"{path}[{i}]")
        # a design CSV ends with its own weight column
        _expect(column != "weight", f"{path}[{i}]",
                "name 'weight' is reserved for the design weight column")
    return tuple(value)


def _marginals(value, path: str) -> tuple[Distribution, ...]:
    _expect(isinstance(value, list), path, "expected a list")
    return tuple(_distribution(m, f"{path}[{i}]") for i, m in enumerate(value))


def _matrix(value, path: str) -> np.ndarray:
    _expect(isinstance(value, list) and all(isinstance(row, list) for row in value)
            and len({len(row) for row in value}) <= 1, path, "expected a matrix of numbers")
    return np.array([[_as_number(v, f"{path}[{r}][{c}]") for c, v in enumerate(row)]
                     for r, row in enumerate(value)])


_GROUP_BASE = {
    "kind": _one_of(["copula", "independent", "pool"]),
    "name": lambda value, path: _label(_as_str(value, path), path),
    "columns": _columns,
}
# inline kind: a reader per key its declaration takes
_GROUP_KEYS = {
    "independent": {**_GROUP_BASE, "marginals": _marginals},
    "copula": {**_GROUP_BASE, "marginals": _marginals, "correlation": _matrix},
    # _parse_group reads the file, once the group's columns are known
    "pool": {**_GROUP_BASE, "pool_csv": lambda value, path: value},
}
# an unknown kind takes every key, so that the kind's own reader reports it
_ANY_KIND = {key: read for readers in _GROUP_KEYS.values() for key, read in readers.items()}


def _parse_group(raw, path: str) -> InputGroup:
    """One inline group: the JSON types, the names and the keys of its kind
    are checked here, the rest by :class:`InputGroup`, whose errors get ``path``."""
    kind = raw.get("kind") if isinstance(raw, dict) else None
    readers = _GROUP_KEYS.get(kind, _ANY_KIND) if isinstance(kind, str) else _ANY_KIND
    fields = _fields(raw, path, readers, required=("name", "kind", "columns"))
    if "pool_csv" in fields:
        fields["pool_points"] = load_config_pool(fields.pop("pool_csv"), f"{path}.pool_csv",
                                                 fields["columns"]).points
    try:
        return InputGroup(**fields)
    except QdoeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _distribution(raw, path: str) -> Distribution:
    """One marginal declaration, like ``{"type": "triangular", "a": 49, "c": 50, "b": 51}``.

    ``truncated`` wraps an ``inner`` declaration, as in ``{"type": "truncated",
    "inner": {...}, "lo": 500}``; a missing or null ``lo``/``hi`` leaves that
    side open. Every error is a ConfigError naming its entry under ``path``.
    """
    _expect(isinstance(raw, dict) and "type" in raw, path, "expected a mapping with a 'type' key")
    kind = raw["type"]
    _expect(isinstance(kind, str) and kind in _LAWS, f"{path}.type", f"unknown law {kind!r}")
    law, readers = _LAWS[kind]
    args = _fields(raw, path, {"type": _as_str, **readers},
                   required=("inner",) if law is Truncated else tuple(readers))
    del args["type"]
    try:
        return law(**args)
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _open_side(side: float):
    """Reader of a truncation bound, for which null is the open ``side``."""
    return lambda value, path: side if value is None else _as_number(value, path)


def _numbers(*names: str) -> dict:
    return dict.fromkeys(names, _as_number)


# declared type: (law, a reader per parameter)
_LAWS = {
    "uniform": (Uniform, _numbers("a", "b")),
    "normal": (Normal, _numbers("mu", "sigma")),
    "lognormal": (LogNormal, _numbers("mu", "sigma")),
    "triangular": (Triangular, _numbers("a", "c", "b")),
    "gumbel": (Gumbel, _numbers("mu", "beta")),
    "truncated": (Truncated, {"inner": _distribution, "lo": _open_side(-math.inf),
                              "hi": _open_side(math.inf)}),
}


def _copula(name: str, columns, marginals, rho: float = 0.0) -> InputGroup:
    """Gaussian-copula group whose columns share the pairwise correlation ``rho``."""
    corr = np.full((len(columns), len(columns)), rho)
    np.fill_diagonal(corr, 1.0)
    corr.flags.writeable = False  # toy groups are shared by every build
    return InputGroup(name, tuple(columns), "copula", marginals=tuple(marginals), correlation=corr)


_N01 = Normal(0.0, 1.0)
_U01 = Uniform(0.0, 1.0)
_X_PAIR = _copula("x", ["x1", "x2"], [_N01, _N01], 0.8)
_Y_UNIFORM = InputGroup("y", ("y",), "independent", marginals=(_U01,))

# name: (input groups, formula over rows ordered like the group columns)
_TOYS = {
    "square": ((_copula("x", ["x"], [_N01]),), lambda x: x[:, 0] ** 2),
    "x1x2": ((_X_PAIR,), lambda x: x[:, 0] * x[:, 1]),
    "x2y": ((_copula("x", ["x"], [_N01]), _Y_UNIFORM), lambda x: x[:, 0] ** 2 * x[:, 1]),
    "x1px2_sq_y": ((_X_PAIR, _Y_UNIFORM), lambda x: (x[:, 0] + x[:, 1]) ** 2 * x[:, 2]),
    "xy2py2": (
        (_copula("x", ["x"], [LogNormal(0.0, 1.0)]), _copula("y", ["y"], [_N01])),
        lambda x: x[:, 0] * x[:, 1] ** 2 + x[:, 1] ** 2,
    ),
}


def _evaluator(name: str, columns, formula):
    """``formula`` over the rows, which must hold one column per input."""

    def evaluate(rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != len(columns):
            raise DimensionError(f"model {name} expects {len(columns)} inputs, got {rows.shape[1]}")
        return formula(rows)

    return evaluate


def _toy_model(name: str) -> ModelSpec:
    groups, formula = _TOYS[name]
    columns = tuple(c for g in groups for c in g.columns)
    return ModelSpec(name, columns, groups, _evaluator(name, columns, formula))


def _flood_model(name: str) -> ModelSpec:
    channel = InputGroup(
        name="channel",
        columns=FLOOD_CHANNEL_COLUMNS,
        kind="copula",
        marginals=tuple(FLOOD_MARGINALS[c] for c in FLOOD_CHANNEL_COLUMNS),
        correlation=_FLOOD_CHANNEL_CORR.copy(),
    )
    structures = InputGroup(
        name="structures",
        columns=("Hd", "Cb"),
        kind="independent",
        marginals=(FLOOD_MARGINALS["Hd"], FLOOD_MARGINALS["Cb"]),
    )
    return ModelSpec(name, FLOOD_COLUMNS, (channel, structures), flood_evaluate)


def _vg_model(retention, name: str, *, inputs: int, h: float,
              pool_csv: CandidatePool | None) -> ModelSpec:
    """``retention(h, ...)`` of the first ``inputs`` retention parameters of
    each row; the rows come from ``vg_pool``, or from the pool read from
    ``pool_csv`` when the config names one."""
    if pool_csv is None:
        group = InputGroup(
            "vg", VG_COLUMNS, "generator", generator=lambda m, rng: vg_pool(m, rng).points
        )
    else:
        pool, rejected = vg_pool_from_sample(pool_csv.points)
        if rejected:
            log.warning("dropped %d physically invalid retention rows from pool_csv", rejected)
        group = InputGroup("vg", VG_COLUMNS, "pool", pool_points=pool.points)

    evaluate = _evaluator(name, VG_COLUMNS, lambda rows: retention(h, *rows.T[:inputs]))
    return ModelSpec(name, VG_COLUMNS, (group,), evaluate)


def _synthetic_screen_model(name: str, *, rho: float) -> ModelSpec:
    """Screening benchmark: three active inputs, two inert ones and one
    influential dependent three-column group."""
    singles = InputGroup(
        name="x",
        columns=("x1", "x2", "x3", "x4", "x5"),
        kind="independent",
        marginals=(_U01,) * 5,
    )

    def formula(rows):
        # amplitudes balance the variance shares so no effect is drowned out
        x1, x2, x3 = rows[:, 0], rows[:, 1], rows[:, 2]
        w = rows[:, 5:8]
        return 3.0 * x1 + 4.0 * x2**2 + 1.5 * np.sin(2.0 * np.pi * x3) + 0.6 * w.sum(axis=1)

    columns = ("x1", "x2", "x3", "x4", "x5", "w1", "w2", "w3")
    return ModelSpec(name, columns, (singles, _copula("w", ("w1", "w2", "w3"), (_N01,) * 3, rho)),
                     _evaluator(name, columns, formula))


# name: (builder, accepted params with their defaults)
_MODELS = {
    **{name: (_toy_model, {}) for name in _TOYS},
    "flood": (_flood_model, {}),
    "vg_theta": (partial(_vg_model, vg_theta, inputs=4), {"h": 1.0, "pool_csv": None}),
    "vg_conductivity": (partial(_vg_model, vg_conductivity, inputs=5), {"h": 1e-3, "pool_csv": None}),
    "synthetic_screen": (_synthetic_screen_model, {"rho": 0.5}),
}

MODEL_NAMES = tuple(sorted(_MODELS))


def build_model(name: str, params: dict | None = None) -> ModelSpec:
    """Instantiate a registered benchmark model.

    ``pool_csv`` must name a readable pool file and every other param must
    be a finite number. Every error is a ConfigError naming its entry under
    ``config.model``: a param the model does not accept, too.
    """
    _expect(name in _MODELS, "config.model.name",
            f"unknown model {name!r}; available: {', '.join(MODEL_NAMES)}")
    builder, defaults = _MODELS[name]
    # only the vg_* models take a pool_csv
    readers = {key: partial(load_config_pool, columns=VG_COLUMNS) if key == "pool_csv"
               else _as_number for key in defaults}
    parsed = _fields(params or {}, "config.model.params", readers)
    try:
        return builder(name, **{**defaults, **parsed})
    except QdoeError as exc:
        raise ConfigError(f"config.model: {exc}") from exc

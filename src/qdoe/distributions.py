"""Univariate distributions with exact cdf, quantile and seeded sampling.

Every distribution, the empirical law of an observed sample included,
exposes ``cdf``, ``quantile`` (generalized inverse cdf) and ``sample``; all
three accept scalars or numpy arrays, and :class:`Distribution` checks
their arguments for every law. Sampling is pure inverse-transform on a
caller-supplied ``numpy.random.Generator``, so two generators with the same
seed produce identical draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DomainError, ParameterError

__all__ = [
    "Distribution",
    "Uniform",
    "Normal",
    "LogNormal",
    "Triangular",
    "Gumbel",
    "Truncated",
    "EmpiricalMarginal",
]


def _require_finite(law: str, **params) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise ParameterError(f"{law} requires a finite {name}, got {value}")


def _maybe_scalar(x, template):
    """Return a python float when the caller passed a scalar."""
    if np.ndim(template) == 0:
        return float(x)
    return x


@dataclass(frozen=True)
class Distribution:
    """Base class: the argument contract of ``cdf`` and ``quantile``.

    A scalar argument gives a python float, and a quantile argument outside
    [0, 1] or NaN is a DomainError. Concrete laws implement ``_cdf`` and
    ``_quantile`` on float arrays.
    """

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return _maybe_scalar(self._cdf(x), x)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if np.any((u < 0.0) | (u > 1.0)) or np.any(np.isnan(u)):
            raise DomainError("quantile argument must lie in [0, 1]")
        return _maybe_scalar(self._quantile(u), u)

    def _cdf(self, x):
        raise NotImplementedError

    def _quantile(self, u):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size=None):
        """Draw by applying the quantile function to uniform variates."""
        return self.quantile(rng.random(size))


@dataclass(frozen=True)
class Uniform(Distribution):
    a: float
    b: float

    def __post_init__(self):
        _require_finite("uniform", a=self.a, b=self.b)
        if not self.a < self.b:
            raise ParameterError(f"uniform requires a < b, got [{self.a}, {self.b}]")

    def _cdf(self, x):
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def _quantile(self, u):
        return self.a + u * (self.b - self.a)


@dataclass(frozen=True)
class Normal(Distribution):
    mu: float
    sigma: float

    def __post_init__(self):
        _require_finite("normal", mu=self.mu, sigma=self.sigma)
        if not self.sigma > 0:
            raise ParameterError(f"normal requires sigma > 0, got {self.sigma}")

    def _cdf(self, x):
        return ndtr((x - self.mu) / self.sigma)

    def _quantile(self, u):
        return self.mu + self.sigma * ndtri(u)


@dataclass(frozen=True)
class LogNormal(Distribution):
    """log X ~ Normal(mu, sigma); support (0, inf)."""

    mu: float
    sigma: float

    def __post_init__(self):
        _require_finite("lognormal", mu=self.mu, sigma=self.sigma)
        if not self.sigma > 0:
            raise ParameterError(f"lognormal requires sigma > 0, got {self.sigma}")

    def _cdf(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x > 0, ndtr((np.log(np.maximum(x, 1e-300)) - self.mu) / self.sigma), 0.0)

    def _quantile(self, u):
        return np.exp(self.mu + self.sigma * ndtri(u))


@dataclass(frozen=True)
class Triangular(Distribution):
    """Triangular law on [a, b] with mode c, a <= c <= b."""

    a: float
    c: float
    b: float

    def __post_init__(self):
        _require_finite("triangular", a=self.a, c=self.c, b=self.b)
        if not (self.a <= self.c <= self.b and self.a < self.b):
            raise ParameterError(
                f"triangular requires a <= c <= b and a < b, got ({self.a}, {self.c}, {self.b})"
            )

    def _cdf(self, x):
        a, c, b = self.a, self.c, self.b
        span = b - a
        with np.errstate(divide="ignore", invalid="ignore"):
            left = np.where(c > a, (x - a) ** 2 / (span * (c - a)), 0.0)
            right = np.where(b > c, 1.0 - (b - x) ** 2 / (span * (b - c)), 1.0)
        return np.select([x <= a, x < c, x < b], [0.0, left, right], default=1.0)

    def _quantile(self, u):
        a, c, b = self.a, self.c, self.b
        span = b - a
        fc = (c - a) / span
        lower = a + np.sqrt(np.maximum(u * span * (c - a), 0.0))
        upper = b - np.sqrt(np.maximum((1.0 - u) * span * (b - c), 0.0))
        return np.where(u < fc, lower, upper)


@dataclass(frozen=True)
class Gumbel(Distribution):
    """Gumbel maximum law, cdf exp(-exp(-(x - mu)/beta)).

    ``mu`` is the location and ``beta`` the scale (not a standard
    deviation).
    """

    mu: float
    beta: float

    def __post_init__(self):
        _require_finite("gumbel", mu=self.mu, beta=self.beta)
        if not self.beta > 0:
            raise ParameterError(f"gumbel requires beta > 0, got {self.beta}")

    def _cdf(self, x):
        with np.errstate(over="ignore"):
            return np.exp(-np.exp(-(x - self.mu) / self.beta))

    def _quantile(self, u):
        with np.errstate(divide="ignore"):
            return self.mu - self.beta * np.log(-np.log(u))


@dataclass(frozen=True)
class Truncated(Distribution):
    """Restriction of ``inner`` to [lo, hi] (either bound may be infinite).

    The cdf is (F(x) - F(lo)) / (F(hi) - F(lo)) clipped to [0, 1]; the
    quantile composes the inner quantile with the rescaled argument, which
    is exact because every supported inner law has a closed-form quantile,
    and stays inside [lo, hi].
    """

    inner: Distribution
    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ParameterError(f"truncation requires lo < hi, got [{self.lo}, {self.hi}]")
        if self._mass() <= 0.0:
            raise ParameterError(
                f"inner law has no mass on the truncation window [{self.lo}, {self.hi}]"
            )

    def _f_lo(self) -> float:
        return float(self.inner.cdf(self.lo)) if math.isfinite(self.lo) else 0.0

    def _f_hi(self) -> float:
        return float(self.inner.cdf(self.hi)) if math.isfinite(self.hi) else 1.0

    def _mass(self) -> float:
        return self._f_hi() - self._f_lo()

    def _cdf(self, x):
        return np.clip((self.inner.cdf(x) - self._f_lo()) / self._mass(), 0.0, 1.0)

    def _quantile(self, u):
        # the inner cdf and quantile round, and may step past a finite bound
        return np.clip(self.inner.quantile(self._f_lo() + u * self._mass()), self.lo, self.hi)


@dataclass(frozen=True)
class EmpiricalMarginal(Distribution):
    """Quantile function interpolated from an observed sample.

    Order statistic k (1-based) sits at probability (k - 0.5) / M; the
    quantile interpolates linearly between neighbours and clamps to the
    sample minimum/maximum beyond the end positions.
    """

    sorted_values: np.ndarray

    def __post_init__(self):
        values = np.sort(np.asarray(self.sorted_values, dtype=float).reshape(-1))
        if values.size < 2:
            raise ParameterError("empirical marginal needs at least two observations")
        if not np.all(np.isfinite(values)):
            raise ParameterError("empirical marginal sample contains non-finite values")
        object.__setattr__(self, "sorted_values", values)

    def _quantile(self, u):
        m = self.sorted_values.size
        positions = (np.arange(1, m + 1) - 0.5) / m
        return np.interp(u, positions, self.sorted_values)


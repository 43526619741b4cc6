"""Kernel dependence measures and permutation-based independence tests.

The dependence measure is the squared RKHS distance between the joint
embedding of (X, Y) and the product of the marginal embeddings. For a
design with row weights w, normalized by their total, it is estimated by

    sum_ij A_ij Ky_ij,  A = (w w^T) o (Kx - (Kx w) 1^T - 1 (Kx w)^T + w^T Kx w),

the input Gram matrix centered under w (:func:`weighted_hsic`). Cell
probabilities of a quantization design give the weighted estimate; uniform
weights w = 1/n give the V-statistic (1/n^2) tr(Kx H Ky H). :func:`screen`
tests each input group for independence by permuting the outputs against
fixed inputs and comparing the observed statistic to the permutation null.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .designs import Design
from .errors import ConfigError, DegeneracyError, DimensionError, ParameterError

__all__ = [
    "KernelSpec",
    "ScreenResult",
    "gram",
    "weighted_hsic",
    "screen",
]

log = logging.getLogger("qdoe")


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
        if self.bandwidth_rule == "fixed" and (self.bandwidth is None or self.bandwidth <= 0):
            raise ParameterError("fixed bandwidth rule requires bandwidth > 0")


@dataclass(frozen=True)
class ScreenResult:
    name: str
    hsic_value: float
    p_value: float
    reject: bool

    @property
    def decision(self) -> str:
        return "dependent" if self.reject else "independent"


def _as_sample(sample) -> np.ndarray:
    x = np.asarray(sample, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 2:
        raise DimensionError("kernel sample must have at least two rows")
    return x


def _paired_samples(inputs, outputs) -> tuple[np.ndarray, np.ndarray]:
    x = _as_sample(inputs)
    y = _as_sample(outputs)
    if x.shape[0] != y.shape[0]:
        raise DimensionError(f"row counts differ: {x.shape[0]} vs {y.shape[0]}")
    return x, y


def _weights(design: Design) -> np.ndarray:
    """The design's row weights normalized by their total, which the design
    keeps positive."""
    return design.weights / float(design.weights.sum())


def _resolve_bandwidth(x: np.ndarray, kernel: KernelSpec) -> float:
    if kernel.bandwidth_rule == "fixed":
        return float(kernel.bandwidth)
    if kernel.bandwidth_rule == "std":
        theta = float(np.sqrt(np.mean(np.var(x, axis=0))))
    else:
        sq = pdist(x, "sqeuclidean")
        positive = sq[sq > 0]
        if positive.size == 0:
            raise DegeneracyError("all sample rows coincide; median bandwidth undefined")
        theta = float(np.sqrt(np.median(positive) / 2.0))
    if not theta > 0.0:
        raise DegeneracyError("sample is constant; kernel bandwidth degenerates to zero")
    return theta


def gram(sample, kernel: KernelSpec) -> np.ndarray:
    """Kernel matrix of a sample; symmetric with exact unit diagonal."""
    x = _as_sample(sample)
    if kernel.standardize_groups and x.shape[1] > 1:
        std = x.std(axis=0)
        if np.any(std == 0.0):
            raise DegeneracyError("cannot standardize a constant column")
        x = (x - x.mean(axis=0)) / std
    theta = _resolve_bandwidth(x, kernel)
    log.info("kernel bandwidth %r (%s rule) on %d column(s)", theta, kernel.bandwidth_rule,
             x.shape[1])
    k = squareform(pdist(x, "sqeuclidean"))
    k /= -2.0 * theta * theta  # the bits of -k / (2 theta^2): the sign is exact
    np.exp(k, out=k)
    np.fill_diagonal(k, 1.0)
    return k


def _weighted_center(kx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A = (w w^T) o (Kx - (Kx w) 1^T - 1 (Kx w)^T + w^T Kx w).

    The estimate for an output Gram matrix Ky is vdot(A, Ky); permuting
    the outputs permutes Ky, so A is built once per test.
    """
    kxw = kx @ w
    a = kx - kxw[:, None]
    a -= kxw[None, :]
    a += float(w @ kxw)
    a *= np.outer(w, w)  # the one n-by-n temporary beside the result
    return a


def _permutation_test(
    centered: list[np.ndarray], ky: np.ndarray, *, permutations: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Permutation tests of several inputs against one output on one permutation set.

    ``centered`` holds one weighted-centered input Gram matrix A_g per
    input. Returns the statistics vdot(A_g, Ky[p][:, p]), one row per
    permutation p and one column per input, and each input's tie-inclusive
    p-value (1 + #{null >= observed}) / (B + 1). Row 0 is the identity
    permutation, so the observed statistics share the null's arithmetic and
    ties are exact; rows 1..B are the B uniform permutations drawn from
    ``rng``. Permuting the outputs only permutes rows and columns of Ky, so
    each permuted Ky is gathered once and serves every input.
    """
    if permutations < 100:
        raise ConfigError(f"permutations must be >= 100, got {permutations}")
    n = ky.shape[0]
    stats = np.empty((permutations + 1, len(centered)))
    # The gathers write into two reused buffers, as fresh n-by-n arrays cost
    # more in page faults than the gather itself. Every p is a permutation of
    # range(n), so mode="clip" clips nothing; it only spares take the extra
    # buffered copy that mode="raise" makes when given ``out``. Each
    # permutation is drawn as its row comes, so one index array is alive.
    rows, permuted = np.empty((n, n)), np.empty((n, n))
    for b, row in enumerate(stats):
        p = rng.permutation(n) if b else np.arange(n)
        np.take(np.take(ky, p, axis=0, out=rows, mode="clip"), p, axis=1, out=permuted,
                mode="clip")
        row[:] = [np.vdot(a, permuted) for a in centered]
    p_values = (1.0 + np.sum(stats[1:] >= stats[0], axis=0)) / (permutations + 1.0)
    return stats, p_values


def weighted_hsic(design: Design, outputs, kernel: KernelSpec = KernelSpec()) -> float:
    """Weighted dependence estimate between a design's rows and its outputs.

    The design's weights, normalized by their total, are the row weights;
    this covers q2lhs designs, whose weights need not sum to one. Uniform
    weights give the V-statistic. ``kernel`` applies to inputs and output.
    """
    x, y = _paired_samples(design.points, outputs)
    return float(np.vdot(_weighted_center(gram(x, kernel), _weights(design)), gram(y, kernel)))


def screen(
    design: Design,
    outputs,
    groups,
    *,
    kernel: KernelSpec = KernelSpec(),
    permutations: int,
    alpha: float = 0.05,
    rng: np.random.Generator,
) -> list[ScreenResult]:
    """Independence test of each input group against the shared output.

    ``groups`` is a sequence of (name, column-index list) pairs; ``kernel``
    applies to every group and to the output. Design weights stay attached
    to the input rows (normalized to sum to one); for uniform-weight
    designs this is exactly the unweighted test. A group is dependent when
    its tie-inclusive p-value falls below ``alpha``.

    The output Gram matrix is built once, and every group is tested on the
    same B permutations drawn from ``rng``: each permuted output Gram
    matrix is gathered once and serves all groups. Each group's p-value is
    a valid permutation p-value, but the p-values of different groups are
    dependent (common random numbers). Every group's result equals a
    one-group ``screen`` of its block on a generator in the state of
    ``rng``. The weighted-centered input Gram matrices of all groups are
    held at once, so the permutation loop holds G + 3 n-by-n float arrays
    for G groups: those G, the output Gram matrix and two gather buffers.
    """
    x, y = _paired_samples(design.points, outputs)
    blocks = []
    for name, cols in groups:
        cols = list(cols)
        if not cols:
            raise ParameterError(f"group {name!r} selects no columns")
        if min(cols) < 0 or max(cols) >= design.d:
            raise DimensionError(f"group {name!r} references columns outside the design")
        blocks.append((name, x[:, cols]))
    w = _weights(design)
    ky = gram(y, kernel)
    centered = [_weighted_center(gram(block, kernel), w) for _, block in blocks]
    stats, p_values = _permutation_test(centered, ky, permutations=permutations, rng=rng)
    return [
        ScreenResult(name=name, hsic_value=float(value), p_value=float(p_value),
                     reject=bool(p_value < alpha))
        for (name, _), value, p_value in zip(blocks, stats[0], p_values)
    ]

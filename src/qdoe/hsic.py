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
from .errors import ConfigError, DegeneracyError, DimensionError, DomainError, ParameterError

__all__ = [
    "KernelSpec",
    "ScreenResult",
    "gram",
    "weighted_hsic",
    "screen",
]

log = logging.getLogger("qdoe")

# Permutation statistics are computed _BLOCK permutations at a time, on
# chunks of rows of the permuted output Gram matrices gathered into one
# buffer of at most _BLOCK_FLOATS floats (1 MB, about an L2 cache).
_BLOCK = 8
_BLOCK_FLOATS = 2**17


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
                                               or not 0.0 < self.bandwidth < np.inf):
            raise ParameterError(f"fixed bandwidth rule requires 0 < bandwidth < inf, "
                                 f"got {self.bandwidth}")


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
    """The sample as a C-ordered float array of rows, so that its columns are
    standardized in one summation order whatever layout the caller holds.
    A non-finite entry aborts with the index of the first offending row."""
    x = np.ascontiguousarray(sample, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 2:
        raise DimensionError("kernel sample must have at least two rows")
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"kernel sample has a non-finite value on row {i}: {x[i].tolist()}")
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


def _weighted_center(kx: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A = (w w^T) o (Kx - (Kx w) 1^T - 1 (Kx w)^T + w^T Kx w), written to ``out`` if given.

    The estimate for an output Gram matrix Ky is vdot(A, Ky); permuting
    the outputs permutes Ky, so A is built once per test. ``out`` may be
    ``kx`` itself, which centers Kx in place.
    """
    kxw = kx @ w
    a = np.subtract(kx, kxw[:, None], out=out)
    a -= kxw[None, :]
    a += float(w @ kxw)
    a *= np.outer(w, w)  # the one n-by-n temporary beside the result
    return a


def _block_statistics(centered: np.ndarray, ky: np.ndarray, perms, buf: np.ndarray,
                      gathered: np.ndarray) -> np.ndarray:
    """Statistics vdot(A_g, Ky[p][:, p]) of up to ``_BLOCK`` permutations p.

    ``centered`` is the (G, n, n) stack of the A_g. Returns a (G, _BLOCK)
    array whose column k belongs to ``perms[k]``; the columns past
    ``len(perms)`` hold no statistic. The permuted Ky are gathered a chunk
    of h rows at a time into ``buf``, a flat buffer of _BLOCK * h * n
    floats, through ``gathered``, an (h, n) buffer for the row gather. One
    matrix product per group adds a chunk to that group's statistics, so
    each A_g is read once per block rather than once per permutation.

    Every product has the same shape, whatever the block, the chunk or the
    number of permutations, and each group is multiplied on its own. So a
    statistic's bits depend only on A_g and Ky[p][:, p]: not on its column,
    its block, the other groups or the BLAS thread count. Every p is a
    permutation of range(n), so mode="clip" clips nothing; it only spares
    ``take`` the buffered copy that mode="raise" makes when given ``out``.
    """
    groups, n = centered.shape[0], ky.shape[0]
    stats = np.zeros((groups, 1, _BLOCK))
    for start in range(0, n, len(gathered)):
        rows = slice(start, min(start + len(gathered), n))
        h = rows.stop - start
        chunk = buf[:_BLOCK * h * n].reshape(_BLOCK, h, n)
        for k, p in enumerate(perms):
            np.take(np.take(ky, p[rows], axis=0, out=gathered[:h], mode="clip"), p, axis=1,
                    out=chunk[k], mode="clip")
        stats += centered[:, None, rows].reshape(groups, 1, h * n) @ chunk.reshape(_BLOCK, -1).T
    return stats[:, 0]


def _block_buffers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The chunk buffer and the row-gather buffer of :func:`_block_statistics`.

    A chunk has as many rows as keep _BLOCK of them within _BLOCK_FLOATS
    floats, at least one and at most n. The chunk buffer starts zeroed, so
    the unused columns of a short block multiply finite numbers.
    """
    h = min(n, max(1, _BLOCK_FLOATS // (_BLOCK * n)))
    return np.zeros(_BLOCK * h * n), np.empty((h, n))


def _permutation_test(
    centered: np.ndarray, ky: np.ndarray, *, permutations: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Permutation tests of several inputs against one output on one permutation set.

    ``centered`` is the (G, n, n) stack of the weighted-centered input Gram
    matrices A_g, one per input. Returns the statistics vdot(A_g, Ky[p][:, p]),
    one row per permutation p and one column per input, and each input's
    tie-inclusive p-value (1 + #{null >= observed}) / (B + 1). Row 0 is the
    identity permutation, so the observed statistics share the null's
    arithmetic and ties are exact; rows 1..B are the B uniform permutations
    drawn from ``rng`` in row order. Permuting the outputs only permutes rows
    and columns of Ky, so each permuted Ky serves every input.

    The rows are computed _BLOCK at a time by :func:`_block_statistics`,
    the last block padded to full width. Beside ``centered`` and ``ky``, the
    loop holds the chunk buffer (at most _BLOCK_FLOATS floats, or _BLOCK rows
    of Ky when n is larger), the row-gather buffer of one chunk and the
    _BLOCK index arrays of the current block.
    """
    if permutations < 100:
        raise ConfigError(f"permutations must be >= 100, got {permutations}")
    n = ky.shape[0]
    stats = np.empty((permutations + 1, centered.shape[0]))
    buffers = _block_buffers(n)
    for start in range(0, permutations + 1, _BLOCK):
        rows = stats[start:start + _BLOCK]
        perms = [rng.permutation(n) if b else np.arange(n)
                 for b in range(start, start + len(rows))]
        rows[:] = _block_statistics(centered, ky, perms, *buffers)[:, :len(rows)].T
    p_values = (1.0 + np.sum(stats[1:] >= stats[0], axis=0)) / (permutations + 1.0)
    return stats, p_values


def weighted_hsic(design: Design, outputs, kernel: KernelSpec = KernelSpec()) -> float:
    """Weighted dependence estimate between a design's rows and its outputs.

    The design's weights, normalized by their total, are the row weights;
    this covers q2lhs designs, whose weights need not sum to one. Uniform
    weights give the V-statistic. ``kernel`` applies to inputs and output.
    The estimate is the identity permutation's statistic in the arithmetic
    of :func:`screen`, so it equals a one-group screen over every column bit
    for bit.
    """
    x, y = _paired_samples(design.points, outputs)
    centered = _weighted_center(gram(x, kernel), _weights(design))[None]
    ky = gram(y, kernel)
    identity = np.arange(len(ky))
    return float(_block_statistics(centered, ky, [identity], *_block_buffers(len(ky)))[0, 0])


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
    ``rng``, and a one-group screen over every column gives the
    ``weighted_hsic`` of the design bit for bit. The weighted-centered
    input Gram matrices of all groups are built in place in one (G, n, n)
    array, so the permutation loop holds G + 1 n-by-n float arrays for G
    groups (those G and the output Gram matrix) plus a chunk buffer of at
    most 1 MB (8 rows of the output Gram matrix when n exceeds 16 384).
    """
    x, y = _paired_samples(design.points, outputs)
    blocks = []
    for name, cols in groups:
        cols = list(cols)
        if not cols:
            raise ParameterError(f"group {name!r} selects no columns")
        if min(cols) < 0 or max(cols) >= design.d:
            raise DimensionError(f"group {name!r} references columns outside the design")
        # C order, so a block standardizes as the same columns of a design would
        blocks.append((name, np.ascontiguousarray(x[:, cols])))
    w = _weights(design)
    ky = gram(y, kernel)
    centered = np.empty((len(blocks), len(ky), len(ky)))
    for (_, block), a in zip(blocks, centered):
        a[:] = gram(block, kernel)  # centered where it lies: one n-by-n temporary fewer
        _weighted_center(a, w, out=a)
    stats, p_values = _permutation_test(centered, ky, permutations=permutations, rng=rng)
    return [
        ScreenResult(name=name, hsic_value=float(value), p_value=float(p_value),
                     reject=bool(p_value < alpha))
        for (name, _), value, p_value in zip(blocks, stats[0], p_values)
    ]

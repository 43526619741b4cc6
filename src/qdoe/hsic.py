"""Kernel dependence measures and permutation-based independence tests.

The dependence measure is the squared RKHS distance between the joint
embedding of (X, Y) and the product of the marginal embeddings. For a
design with row weights w, normalized by their total, it is estimated by

    sum_ij A_ij Ky_ij,  A = (w w^T) o (Kx - (Kx w) 1^T - 1 (Kx w)^T + w^T Kx w),

the input Gram matrix centered under w (:func:`weighted_hsic`). The output
Gram matrix Ky is exactly symmetric, and so is every permutation of it, so
the sum is taken over one triangle,

    sum_i A_ii Ky_ii + sum_{i<j} (A_ij + A_ji) Ky_ij,

with A packed once per test (:func:`_pack`). Cell probabilities of a
quantization design give the weighted estimate; uniform weights w = 1/n give
the V-statistic (1/n^2) tr(Kx H Ky H). :func:`screen` tests each input group
for independence by permuting the outputs against fixed inputs and comparing
the observed statistic to the permutation null.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .config import KernelSpec, SignificanceSettings
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
# chunks of the upper triangles of the permuted output Gram matrices
# gathered into one buffer of at most _BLOCK_FLOATS floats (1 MB, about an
# L2 cache) while n stays below 16 385.
_BLOCK = 8
_BLOCK_FLOATS = 2**17


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


def _resolve_bandwidth(x: np.ndarray, sq: np.ndarray, kernel: KernelSpec) -> float:
    """The kernel bandwidth of sample ``x``, whose condensed squared
    distances ``sq`` the median rule reads."""
    if kernel.bandwidth_rule == "fixed":
        return float(kernel.bandwidth)
    if kernel.bandwidth_rule == "std":
        theta = float(np.sqrt(np.mean(np.var(x, axis=0))))
    else:
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
    sq = pdist(x, "sqeuclidean")
    theta = _resolve_bandwidth(x, sq, kernel)
    log.info("kernel bandwidth %r (%s rule) on %d column(s)", theta, kernel.bandwidth_rule,
             x.shape[1])
    k = squareform(sq)
    k /= -2.0 * theta * theta  # the bits of -k / (2 theta^2): the sign is exact
    np.exp(k, out=k)
    np.fill_diagonal(k, 1.0)
    return k


def _weighted_center(kx: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A = (w w^T) o (Kx - (Kx w) 1^T - 1 (Kx w)^T + w^T Kx w), written to ``out`` if given.

    The estimate for an output Gram matrix Ky is vdot(A, Ky); permuting
    the outputs permutes Ky, so A is built once per test. ``out`` may be
    ``kx`` itself, which centers Kx in place. The weights multiply A a block
    of rows at a time, by blocks of w w^T of at most _BLOCK_FLOATS floats,
    so no n-by-n temporary is made beside the result.
    """
    kxw = kx @ w
    a = np.subtract(kx, kxw[:, None], out=out)
    a -= kxw[None, :]
    a += float(w @ kxw)
    rows = max(1, _BLOCK_FLOATS // len(w))
    for s in range(0, len(w), rows):
        a[s:s + rows] *= np.outer(w[s:s + rows], w)
    return a


def _chunks(n: int) -> list[tuple[int, int]]:
    """Row bounds [s, e) of the chunks of an n-by-n upper triangle.

    Chunk [s, e) covers rows [s, e) over columns [s, n). It has as many rows
    as keep _BLOCK of them within _BLOCK_FLOATS floats, at least one and at
    most n - s, so chunks get taller as they get narrower and every bound
    depends on n alone.
    """
    bounds, s = [], 0
    while s < n:
        e = s + max(1, min(n - s, _BLOCK_FLOATS // (_BLOCK * (n - s))))
        bounds.append((s, e))
        s = e
    return bounds


def _packed_size(n: int) -> int:
    return sum((e - s) * (n - s) for s, e in _chunks(n))


def _pack(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The upper triangle of the n-by-n matrix ``a``, written to ``out``.

    The chunks of :func:`_chunks` lie one after the other in ``out``, each
    in C order: A_ii on the diagonal, A_ij + A_ji above it and zeros below
    it. So the dot product of the packed A with the same chunks of an
    exactly symmetric Ky is the sum over all entries of A o Ky.
    """
    n, at = len(a), 0
    for s, e in _chunks(n):
        h, m = e - s, n - s
        chunk = out[at:at + h * m].reshape(h, m)
        np.add(a[s:e, s:], a[s:, s:e].T, out=chunk)
        chunk[np.tril_indices(h, -1, m)] = 0.0
        diagonal = np.arange(h)
        chunk[diagonal, diagonal] = a[s + diagonal, s + diagonal]
        at += h * m
    return out


def _block_statistics(packed: np.ndarray, ky: np.ndarray, perms, buf: np.ndarray,
                      gathered: np.ndarray) -> np.ndarray:
    """Statistics vdot(A_g, Ky[p][:, p]) of up to ``_BLOCK`` permutations p.

    ``packed`` is the (G, P) stack of the A_g, each packed by :func:`_pack`.
    Returns a (G, _BLOCK) array whose column k belongs to ``perms[k]``; the
    columns past ``len(perms)`` hold no statistic. For each chunk [s, e) the
    loop holds, in ``buf``, Ky[p[s:e]][:, p[s:]] for every p of the block,
    gathering the rows of each through ``gathered``, a buffer of the tallest
    chunk's rows of Ky. One matrix product per group adds the chunk to that
    group's statistics, so each packed A_g is read once per block rather
    than once per permutation.

    Every product of a chunk has the same shape, whatever the block or the
    number of permutations, and each group is multiplied on its own. So a
    statistic's bits depend only on A_g and Ky[p][:, p]: not on its column,
    its block, the other groups or the BLAS thread count. Every p is a
    permutation of range(n), so mode="clip" clips nothing; it only spares
    ``take`` the buffered copy that mode="raise" makes when given ``out``.
    """
    groups, n = packed.shape[0], ky.shape[0]
    stats = np.zeros((groups, 1, _BLOCK))
    at = 0
    for s, e in _chunks(n):
        h, size = e - s, (e - s) * (n - s)
        chunk = buf[:_BLOCK * size].reshape(_BLOCK, h, n - s)
        for k, p in enumerate(perms):
            np.take(np.take(ky, p[s:e], axis=0, out=gathered[:h], mode="clip"), p[s:], axis=1,
                    out=chunk[k], mode="clip")
        stats += packed[:, None, at:at + size] @ chunk.reshape(_BLOCK, -1).T
        at += size
    return stats[:, 0]


def _block_buffers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The chunk buffer and the row-gather buffer of :func:`_block_statistics`.

    The chunk buffer holds _BLOCK of the largest chunk, and starts zeroed,
    so the unused columns of a short block multiply finite numbers.
    """
    chunks = _chunks(n)
    return (np.zeros(_BLOCK * max((e - s) * (n - s) for s, e in chunks)),
            np.empty((max(e - s for s, e in chunks), n)))


def _permutation_test(
    packed: np.ndarray, ky: np.ndarray, *, permutations: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Permutation tests of several inputs against one output on one permutation set.

    ``packed`` is the (G, P) stack of the weighted-centered input Gram
    matrices A_g, one per input, each packed by :func:`_pack`. Returns the
    statistics vdot(A_g, Ky[p][:, p]), one row per permutation p and one
    column per input, and each input's tie-inclusive p-value
    (1 + #{null >= observed}) / (B + 1). Row 0 is the identity permutation,
    so the observed statistics share the null's arithmetic and ties are
    exact; rows 1..B are the B uniform permutations drawn from ``rng`` in row
    order. Permuting the outputs only permutes rows and columns of Ky, so
    each permuted Ky serves every input.

    The rows are computed _BLOCK at a time by :func:`_block_statistics`,
    the last block padded to full width. Beside ``packed`` and ``ky``, the
    loop holds the chunk buffer (at most _BLOCK_FLOATS floats, or _BLOCK rows
    of Ky when n is larger), the row-gather buffer (at most 128 rows of Ky)
    and the _BLOCK index arrays of the current block.
    """
    if permutations < 100:
        raise ConfigError(f"permutations must be >= 100, got {permutations}")
    n = ky.shape[0]
    stats = np.empty((permutations + 1, packed.shape[0]))
    buffers = _block_buffers(n)
    for start in range(0, permutations + 1, _BLOCK):
        rows = stats[start:start + _BLOCK]
        perms = [rng.permutation(n) if b else np.arange(n)
                 for b in range(start, start + len(rows))]
        rows[:] = _block_statistics(packed, ky, perms, *buffers)[:, :len(rows)].T
    p_values = (1.0 + np.sum(stats[1:] >= stats[0], axis=0)) / (permutations + 1.0)
    return stats, p_values


def _packed_center(x: np.ndarray, w: np.ndarray, kernel: KernelSpec,
                   out: np.ndarray) -> np.ndarray:
    """The weighted-centered Gram matrix of ``x``, packed into ``out``; its
    one n-by-n array is freed on return."""
    a = gram(x, kernel)
    return _pack(_weighted_center(a, w, out=a), out)


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
    n = len(x)
    packed = np.empty((1, _packed_size(n)))
    _packed_center(x, _weights(design), kernel, out=packed[0])
    ky = gram(y, kernel)
    return float(_block_statistics(packed, ky, [np.arange(n)], *_block_buffers(n))[0, 0])


def screen(
    design: Design,
    outputs,
    groups,
    *,
    kernel: KernelSpec = KernelSpec(),
    permutations: int,
    alpha: float = SignificanceSettings.alpha,
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
    ``weighted_hsic`` of the design bit for bit.

    Each group's weighted-centered input Gram matrix is built in one n-by-n
    array, packed into its row of a (G, P) stack (P is about 0.6 n^2 at
    n = 400 and tends to n^2 / 2) and freed before the next group's; the
    output Gram matrix is built after the stack. So the permutation loop
    holds the packed stack, the output Gram matrix, a chunk buffer of at
    most 1 MB (8 rows of the output Gram matrix when n exceeds 16 384) and a
    row-gather buffer of at most 128 rows of it.
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
    packed = np.empty((len(blocks), _packed_size(len(x))))
    for (_, block), row in zip(blocks, packed):
        _packed_center(block, w, kernel, out=row)
    ky = gram(y, kernel)
    stats, p_values = _permutation_test(packed, ky, permutations=permutations, rng=rng)
    return [
        ScreenResult(name=name, hsic_value=float(value), p_value=float(p_value),
                     reject=bool(p_value < alpha))
        for (name, _), value, p_value in zip(blocks, stats[0], p_values)
    ]

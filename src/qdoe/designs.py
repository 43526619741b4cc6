"""Construction of the sampling schemes, each yielding a weighted design.

Five stratified schemes plus plain Monte Carlo:

==========  ============================================================
``lhs``     one point per equal-probability interval in every coordinate
``lhsd``    the same LHS pushed through a Gaussian copula's conditional
            inverses before the marginal quantiles
``rq``      one point per Voronoi cell of a quantized dependent group,
            drawn uniformly among the cell's pool points and weighted
            by the cell probability
``qlhs``    an rq block for the dependent group joined to an LHS block
            for the independent inputs through a random permutation
``q2lhs``   several rq blocks joined through random permutations,
            weighted by the product of the matched cell probabilities
``mc``      independent rows with uniform weights
==========  ============================================================

Rows of uniform-weight schemes carry weight 1/n; rq and qlhs rows carry
the cell probabilities (summing to one); q2lhs weights are products of
cell probabilities. One LHS builder, :func:`lhs_with_marginals`, builds
``lhs`` and, given a copula, ``lhsd``; one join, :func:`qlhs_design`,
builds every quantized scheme; each tag follows from the parts. Every
scheme is estimated by the one rule sum_i w_i f(x_i) / sum_i w_i (see
:mod:`qdoe.estimators`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copula import GaussianCopula, conditional_inverse
from .errors import ConfigError, DimensionError, ParameterError
from .quantizer import CandidatePool, Quantizer, write_table

__all__ = [
    "Design",
    "UNIFORM_SCHEMES",
    "lhs",
    "lhs_with_marginals",
    "rq_design",
    "qlhs_design",
    "mc_design",
]

UNIFORM_SCHEMES = ("mc", "lhs", "lhsd")


@dataclass(frozen=True)
class Design:
    """An (n, d) sample matrix with per-row weights and column labels.

    Weights are nonnegative with a total above 1e-300: the one degenerate-weight
    rule of every estimator and dependence measure that normalizes by it.
    """

    points: np.ndarray
    weights: np.ndarray
    scheme: str
    column_roles: tuple[str, ...]

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if points.shape[0] != weights.shape[0]:
            raise DimensionError("weights length does not match the number of rows")
        if len(self.column_roles) != points.shape[1]:
            raise DimensionError("column_roles length does not match the number of columns")
        if np.any(weights < 0.0):
            raise ParameterError("design weights must be nonnegative")
        if not weights.sum() > 1e-300:
            raise ParameterError("design weights must have a total above 1e-300")
        if self.scheme in UNIFORM_SCHEMES:
            if not np.all(weights == weights[0]) or abs(weights[0] * len(weights) - 1.0) > 1e-12:
                raise ParameterError(f"{self.scheme} designs require uniform weights 1/n")
        elif self.scheme in ("rq", "qlhs"):
            if abs(weights.sum() - 1.0) > 1e-12:
                raise ParameterError(f"{self.scheme} weights must sum to 1")
        elif self.scheme != "q2lhs":
            raise ParameterError(f"unknown scheme tag {self.scheme!r}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "column_roles", tuple(self.column_roles))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def to_csv(self, path, header_comments=()) -> None:
        """Write the design with a trailing ``weight`` column (round-trip floats)."""
        write_table(path, header_comments, ",".join((*self.column_roles, "weight")),
                    np.column_stack([self.points, self.weights]))


def _roles(column_roles, d: int) -> tuple[str, ...]:
    if column_roles is None:
        return tuple(f"x{j}" for j in range(d))
    roles = tuple(column_roles)
    if len(roles) != d:
        raise DimensionError(f"expected {d} column roles, got {len(roles)}")
    return roles


def lhs(
    n: int,
    d: int,
    rng: np.random.Generator,
    *,
    column_roles=None,
) -> Design:
    """Latin hypercube on the unit cube.

    Column j places exactly one point inside each interval
    [(k-1)/n, k/n) by combining an independent uniform permutation with a
    uniform jitter: (pi_j(i) - 1)/n + U_ij/n.
    """
    if n < 1 or d < 1:
        raise ConfigError(f"lhs requires n >= 1 and d >= 1, got n={n}, d={d}")
    jitter = rng.random((n, d))
    points = np.empty((n, d))
    for j in range(d):
        points[:, j] = (rng.permutation(n) + jitter[:, j]) / n
    return Design(points, np.full(n, 1.0 / n), "lhs", _roles(column_roles, d))


def lhs_with_marginals(
    n: int,
    marginals,
    rng: np.random.Generator,
    *,
    copula: GaussianCopula | None = None,
    column_roles=None,
) -> Design:
    """LHS transported to arbitrary marginals by the quantile transform.

    With a Gaussian ``copula`` (an ``lhsd`` design) the uniform LHS is first
    rebuilt coordinate by coordinate with the copula's inverse conditionals;
    the first coordinate keeps exact LHS stratification because its
    conditional inverse is the identity. Marginals may be analytic laws or
    empirical ones: anything exposing ``quantile``.
    """
    marginals = list(marginals)
    d = len(marginals)
    if copula is not None and copula.d != d:
        raise DimensionError(f"copula dimension {copula.d} does not match {d} marginals")
    base = lhs(n, d, rng)
    u = base.points if copula is None else conditional_inverse(copula, base.points)
    points = np.column_stack([marg.quantile(u[:, j]) for j, marg in enumerate(marginals)])
    scheme = "lhs" if copula is None else "lhsd"
    return Design(points, base.weights, scheme, _roles(column_roles, d))


def rq_design(
    quantizer: Quantizer,
    pool: CandidatePool,
    rng: np.random.Generator,
    *,
    column_roles=None,
) -> Design:
    """Random quantization design: one conditional draw per Voronoi cell.

    Row i is drawn uniformly among the pool points of cell i and carries
    that cell's probability as its weight, so every cell contributes
    exactly one row and the weights sum to one. All cells are drawn by one
    ``rng.integers(counts)`` call, which consumes the generator exactly as
    one scalar ``rng.integers(counts[i])`` per cell in cell order would.
    """
    if pool.m != quantizer.pool_size:
        raise DimensionError("pool does not match the quantizer's assignment vector")
    order, offsets, counts = quantizer.cells
    rows = order[offsets + rng.integers(counts)]
    return Design(
        pool.points[rows],
        quantizer.probabilities.copy(),
        "rq",
        _roles(column_roles, quantizer.d),
    )


def qlhs_design(
    blocks,
    indep_marginals,
    rng: np.random.Generator,
    *,
    column_roles=None,
) -> Design:
    """Quantization-based LHS: rq blocks joined to an LHS block.

    Each ``(quantizer, pool)`` block is stratified by random quantization
    (:func:`rq_design`, in block order) and the independent inputs, if any,
    by an LHS with their marginals. Every part after the first is then
    matched to the first part's rows by its own uniform random permutation,
    in part order. Row i carries the product of its matched cell
    probabilities; the LHS part adds no factor. Columns follow the parts.

    One block alone is an ``rq`` design, one block with an LHS part a
    ``qlhs`` design (weights sum to one), and several blocks a ``q2lhs``
    design, whose weights need not sum to one.
    """
    blocks, indep_marginals = list(blocks), list(indep_marginals)
    if not blocks:
        raise ConfigError("a quantized design requires at least one quantized block")
    cells = [quantizer.n_cells for quantizer, _ in blocks]
    if len(set(cells)) > 1:
        raise ConfigError(f"quantized blocks require matching cell counts, got {cells}")
    parts = [rq_design(quantizer, pool, rng) for quantizer, pool in blocks]
    n = parts[0].n
    if indep_marginals:
        parts.append(lhs_with_marginals(n, indep_marginals, rng))
    points, weights = [parts[0].points], parts[0].weights
    for part in parts[1:]:
        pi = rng.permutation(n)
        points.append(part.points[pi])
        if part.scheme == "rq":
            weights = weights * part.weights[pi]
    scheme = "rq" if len(parts) == 1 else "qlhs" if len(blocks) == 1 else "q2lhs"
    d = sum(part.d for part in parts)
    return Design(np.hstack(points), weights, scheme, _roles(column_roles, d))


def mc_design(
    points,
    *,
    column_roles=None,
) -> Design:
    """Wrap independently sampled rows as a uniform-weight Monte Carlo design."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    return Design(points, np.full(n, 1.0 / n), "mc", _roles(column_roles, d))

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
cell probabilities. Each family has one builder: :func:`mc_design` wraps
``mc`` rows, :func:`lhs_with_marginals` builds ``lhs`` and, given a copula,
``lhsd``, and one join, :func:`qlhs_design`, builds every quantized scheme,
whose tag follows from the parts. Every scheme is estimated by the one
rule sum_i w_i f(x_i) / sum_i w_i (see :mod:`qdoe.estimators`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .copula import GaussianCopula, conditional_inverse
from .errors import ConfigError, DimensionError, ParameterError
from .tables import write_table

__all__ = [
    "Design",
    "UNIFORM_SCHEMES",
    "lhs_with_marginals",
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
        write_table(path, header_comments, (*self.column_roles, "weight"),
                    map(np.ndarray.tolist, np.column_stack([self.points, self.weights])))


def _roles(column_roles, d: int) -> tuple[str, ...]:
    """The given roles, which ``Design`` checks, or ``x0 ... x{d-1}``."""
    return tuple(f"x{j}" for j in range(d)) if column_roles is None else tuple(column_roles)


def lhs_with_marginals(
    n: int,
    marginals,
    rng: np.random.Generator,
    *,
    copula: GaussianCopula | None = None,
    column_roles=None,
) -> Design:
    """Latin hypercube transported to arbitrary marginals by the quantile transform.

    The unit-cube LHS places exactly one point of column j inside each
    interval [(k-1)/n, k/n): one uniform jitter draw for every entry, then
    one independent uniform permutation per column, (pi_j(i) - 1)/n + U_ij/n.
    With a Gaussian ``copula`` (an ``lhsd`` design) it is first rebuilt
    coordinate by coordinate with the copula's inverse conditionals; the
    first coordinate keeps exact LHS stratification because its conditional
    inverse is the identity. Marginals are ``Distribution``s, analytic laws
    or the empirical law of a sample.
    """
    marginals = list(marginals)
    d = len(marginals)
    if copula is not None and copula.d != d:
        raise DimensionError(f"copula dimension {copula.d} does not match {d} marginals")
    if n < 1 or d < 1:
        raise ConfigError(f"lhs requires n >= 1 and d >= 1, got n={n}, d={d}")
    jitter = rng.random((n, d))
    u = np.column_stack([(rng.permutation(n) + jitter[:, j]) / n for j in range(d)])
    if copula is not None:
        u = conditional_inverse(copula, u)
    points = np.column_stack([marg.quantile(u[:, j]) for j, marg in enumerate(marginals)])
    scheme = "lhs" if copula is None else "lhsd"
    return Design(points, np.full(n, 1.0 / n), scheme, _roles(column_roles, d))


def qlhs_design(
    blocks,
    indep_marginals,
    rng: np.random.Generator,
    *,
    column_roles=None,
) -> Design:
    """Quantization-based LHS: randomly quantized blocks joined to an LHS block.

    Each ``(quantizer, pool)`` block, in block order, draws one row per
    Voronoi cell uniformly among the cell's pool points. All of a block's
    cells are drawn by one ``rng.integers(counts)`` call, which consumes the
    generator exactly as one scalar ``rng.integers(counts[i])`` per cell in
    cell order would. The independent inputs, if any, then take an LHS with
    their marginals. Every part after the first is matched to the first
    part's rows by its own uniform random permutation, in part order. Row i
    carries the product of its matched cell probabilities; the LHS part adds
    no factor. Columns follow the parts.

    One block alone is an ``rq`` design, one block with an LHS part a
    ``qlhs`` design (weights sum to one), and several blocks a ``q2lhs``
    design, whose weights need not sum to one. Every block's pool must be
    the one its quantizer indexes and its cell probabilities must sum to one.
    """
    blocks, indep_marginals = list(blocks), list(indep_marginals)
    if not blocks:
        raise ConfigError("a quantized design requires at least one quantized block")
    cells = [quantizer.n_cells for quantizer, _ in blocks]
    if len(set(cells)) > 1:
        raise ConfigError(f"quantized blocks require matching cell counts, got {cells}")
    points = []
    for quantizer, pool in blocks:
        if pool.m != quantizer.pool_size:
            raise DimensionError("pool does not match the quantizer's assignment vector")
        if abs(quantizer.probabilities.sum() - 1.0) > 1e-12:
            raise ParameterError("cell probabilities must sum to 1")
        order, offsets, counts = quantizer.cells
        points.append(pool.points[order[offsets + rng.integers(counts)]])
    n = cells[0]
    if indep_marginals:
        points.append(lhs_with_marginals(n, indep_marginals, rng).points)
    weights = blocks[0][0].probabilities.copy()
    for k in range(1, len(points)):
        pi = rng.permutation(n)
        points[k] = points[k][pi]
        if k < len(blocks):
            weights = weights * blocks[k][0].probabilities[pi]
    scheme = "rq" if len(points) == 1 else "qlhs" if len(blocks) == 1 else "q2lhs"
    points = np.hstack(points)
    return Design(points, weights, scheme, _roles(column_roles, points.shape[1]))


def mc_design(
    points,
    *,
    column_roles=None,
) -> Design:
    """Wrap independently sampled rows as a uniform-weight Monte Carlo design."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    return Design(points, np.full(n, 1.0 / n), "mc", _roles(column_roles, d))

"""Gaussian copulas: fitting and sequential conditional inversion.

A Gaussian copula couples arbitrary marginals through a correlation matrix.
Sequentially inverting its conditional distributions maps a vector of
independent uniforms to a vector with the copula's joint law while leaving
the first coordinate untouched, which is what lets a stratified uniform
sample keep its stratification after the dependence is injected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DegeneracyError, DimensionError, DomainError, ParameterError
from .tables import write_table

__all__ = [
    "GaussianCopula",
    "gaussian_copula",
    "fit_gaussian_copula",
    "conditional_inverse",
    "correlation_to_csv",
]

_CLAMP = 1e-12  # uniforms are pulled inside (0, 1) by this margin before ndtri
_MIN_EIGENVALUE = 1e-10


@dataclass(frozen=True)
class GaussianCopula:
    """Correlation matrix with unit diagonal plus its lower Cholesky factor."""

    correlation: np.ndarray
    cholesky: np.ndarray

    @property
    def d(self) -> int:
        return self.correlation.shape[0]

    @property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.correlation, np.eye(self.d)))


def gaussian_copula(correlation) -> GaussianCopula:
    """Validate a correlation matrix and attach its Cholesky factor."""
    corr = np.asarray(correlation, dtype=float)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ParameterError("correlation must be a square matrix")
    if not np.allclose(corr, corr.T, atol=1e-12):
        raise ParameterError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
        raise ParameterError("correlation matrix must have unit diagonal")
    try:
        chol = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError as exc:
        raise ParameterError("correlation matrix is not positive definite") from exc
    return GaussianCopula(correlation=corr, cholesky=chol)


def _average_ranks(column: np.ndarray) -> np.ndarray:
    """1-based ranks of a NaN-free column, ties sharing their mean rank.

    Tie group g spans sorted positions start[g]..start[g + 1] - 1, so its
    mean 1-based rank is the half-integer (start[g] + start[g + 1] + 1) / 2,
    computed in integers and exact in float64.
    """
    order = np.argsort(column, kind="stable")
    xs = column[order]
    new_group = np.concatenate(([True], xs[1:] != xs[:-1]))
    dense = np.cumsum(new_group)
    start = np.append(np.flatnonzero(new_group), xs.size)
    ranks = np.empty(xs.size)
    ranks[order] = 0.5 * (start[dense] + start[dense - 1] + 1)
    return ranks


def fit_gaussian_copula(data) -> GaussianCopula:
    """Fit a Gaussian copula to a sample by the normal-scores correlation.

    Each column is replaced by its normal scores ndtri((rank - 0.5) / M)
    and the Pearson correlation of the scores is the copula estimate (the
    maximum-likelihood estimate once the marginals are taken empirical).
    A near-singular estimate is repaired by flooring eigenvalues and
    rescaling back to unit diagonal.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    m, d = data.shape
    if m < d + 1:
        raise ParameterError(f"need at least d + 1 = {d + 1} rows to fit, got {m}")
    if np.isnan(data).any():
        raise ParameterError("data to fit a copula to contains NaN")
    for j in range(d):
        if np.ptp(data[:, j]) == 0.0:
            raise DegeneracyError(f"column {j} is constant; its marginal is degenerate")
    if d == 1:
        return gaussian_copula(np.array([[1.0]]))
    # ranks are stacked column-major: corrcoef rounds differently on a
    # row-major copy, and the fitted correlations are part of every lhsd design
    ranks = np.array([_average_ranks(column) for column in data.T]).T
    scores = ndtri((ranks - 0.5) / m)
    corr = np.corrcoef(scores, rowvar=False)
    eigvals, eigvecs = np.linalg.eigh(corr)
    if eigvals.min() < _MIN_EIGENVALUE:
        eigvals = np.maximum(eigvals, _MIN_EIGENVALUE)
        corr = (eigvecs * eigvals) @ eigvecs.T
        scale = np.sqrt(np.diag(corr))
        corr = corr / np.outer(scale, scale)
        corr = (corr + corr.T) / 2.0
        np.fill_diagonal(corr, 1.0)
    return gaussian_copula(corr)


def conditional_inverse(copula: GaussianCopula, z) -> np.ndarray:
    """Map independent uniforms to uniforms with the copula's joint law.

    Coordinate j is built sequentially as Phi(m_j + s_j * ndtri(z_j))
    where m_j and s_j are the conditional mean and standard deviation of
    the j-th Gaussian coordinate given coordinates 1..j-1; through the
    Cholesky factor L this collapses to Phi(L @ ndtri(z)) row-wise. The
    first coordinate passes through unchanged, and an identity copula is
    the identity map.

    ``z`` may be one vector of length d or an (n, d) matrix; entries must
    lie in [0, 1] and are clamped into (0, 1) before ndtri.
    """
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    z2 = np.atleast_2d(z)
    if z2.shape[1] != copula.d:
        raise DomainError(f"expected {copula.d} coordinates, got {z2.shape[1]}")
    if np.any((z2 < 0.0) | (z2 > 1.0)) or np.any(np.isnan(z2)):
        raise DomainError("conditional_inverse arguments must lie in [0, 1]")
    if copula.is_identity:
        out = z2.copy()
    else:
        zn = ndtri(np.clip(z2, _CLAMP, 1.0 - _CLAMP))
        out = ndtr(zn @ copula.cholesky.T)
    return out[0] if single else out


def correlation_to_csv(copula: GaussianCopula, path, column_names=None, header_comments=()) -> None:
    """Export a copula's correlation matrix for audit."""
    names = list(column_names) if column_names else [f"x{j}" for j in range(copula.d)]
    if len(names) != copula.d:
        raise DimensionError(f"{len(names)} column names for a {copula.d}x{copula.d} correlation")
    write_table(path, ["qdoe-correlation v1", *header_comments], ["", *names],
                [[name, *row] for name, row in zip(names, copula.correlation.tolist())])

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import kstest, multivariate_normal, rankdata

from qdoe import (
    DegeneracyError,
    DimensionError,
    DomainError,
    EmpiricalMarginal,
    ParameterError,
    conditional_inverse,
    fit_gaussian_copula,
    gaussian_copula,
)
from qdoe.copula import _average_ranks, correlation_to_csv


def test_copula_validation():
    cop = gaussian_copula([[1.0, 0.8], [0.8, 1.0]])
    assert np.allclose(cop.cholesky @ cop.cholesky.T, cop.correlation, atol=1e-10)
    with pytest.raises(ParameterError):
        gaussian_copula([[1.0, 0.5], [0.4, 1.0]])  # asymmetric
    with pytest.raises(ParameterError):
        gaussian_copula([[2.0, 0.0], [0.0, 1.0]])  # diagonal not 1
    with pytest.raises(ParameterError):
        gaussian_copula([[1.0, 1.0], [1.0, 1.0]])  # singular


def test_identity_copula_is_identity_map():
    z = np.random.default_rng(0).random((100, 3))
    out = conditional_inverse(gaussian_copula(np.eye(3)), z)
    assert np.array_equal(out, z)


def test_median_input_has_no_conditional_shift():
    cop = gaussian_copula([[1.0, 0.8], [0.8, 1.0]])
    assert conditional_inverse(cop, np.array([0.5, 0.5])).tolist() == [0.5, 0.5]


def test_bivariate_conditional_closed_form():
    cop = gaussian_copula([[1.0, 0.8], [0.8, 1.0]])
    out = conditional_inverse(cop, np.array([0.9, 0.5]))
    assert out[0] == pytest.approx(0.9, abs=1e-12)
    assert out[1] == pytest.approx(float(ndtr(0.8 * ndtri(0.9))), abs=1e-12)


def test_bivariate_conditional_against_numerical_copula_derivative():
    # oracle: differentiate C(u1, u2) = Phi2(ndtri(u1), ndtri(u2)) in u1
    # numerically and invert the conditional cdf by root finding
    rho = 0.8
    mvn = multivariate_normal(mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])

    def copula_cdf(u1, u2):
        return mvn.cdf([ndtri(u1), ndtri(u2)])

    def conditional_cdf(u2, u1, h=1e-6):
        return (copula_cdf(u1 + h, u2) - copula_cdf(u1 - h, u2)) / (2 * h)

    u1, z2 = 0.9, 0.5
    oracle_u2 = brentq(lambda v: conditional_cdf(v, u1) - z2, 1e-9, 1 - 1e-9, xtol=1e-12)
    cop = gaussian_copula([[1.0, rho], [rho, 1.0]])
    ours = conditional_inverse(cop, np.array([u1, z2]))[1]
    assert ours == pytest.approx(oracle_u2, abs=1e-8)


def test_conditional_inverse_domain_and_clamping():
    cop = gaussian_copula([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(DomainError):
        conditional_inverse(cop, np.array([1.2, 0.5]))
    with pytest.raises(DomainError):
        conditional_inverse(cop, np.array([-0.1, 0.5]))
    out = conditional_inverse(cop, np.array([0.0, 1.0]))
    assert np.all(np.isfinite(out)) and np.all((out >= 0) & (out <= 1))


def test_fit_independent_columns_near_identity():
    data = np.random.default_rng(1).standard_normal((10_000, 3))
    cop = fit_gaussian_copula(data)
    off = cop.correlation[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off)) < 0.05


def test_fit_recovers_known_correlation():
    rng = np.random.default_rng(2)
    chol = np.linalg.cholesky([[1.0, 0.8], [0.8, 1.0]])
    data = rng.standard_normal((10_000, 2)) @ chol.T
    cop = fit_gaussian_copula(data)
    assert cop.correlation[0, 1] == pytest.approx(0.8, abs=0.03)


def test_fit_single_column():
    cop = fit_gaussian_copula(np.random.default_rng(3).standard_normal(50))
    assert cop.correlation.tolist() == [[1.0]]


def test_fit_repairs_perfectly_collinear_columns():
    x = np.random.default_rng(20).standard_normal(500)
    cop = fit_gaussian_copula(np.column_stack([x, x]))
    # the raw normal-scores correlation is singular; the repaired matrix
    # must be positive definite with unit diagonal
    assert np.all(np.diag(cop.correlation) == 1.0)
    assert np.linalg.eigvalsh(cop.correlation).min() > 0
    assert cop.correlation[0, 1] > 0.99


# few distinct values force ties; -0.0 and 0.0 compare equal and form one group
_TIED_VALUES = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1e-300, 3.0, np.inf, -np.inf])


@settings(max_examples=200, deadline=None)
@example(column=np.array([0.0, -0.0, 1.0, -0.0, 0.0]))
@example(column=np.round(np.random.default_rng(6).standard_normal(100_000), 2))
@given(column=arrays(np.float64, st.integers(1, 60), elements=_TIED_VALUES))
def test_average_ranks_equal_rankdata(column):
    ranks = _average_ranks(column)
    expected = rankdata(column)
    assert ranks.dtype == expected.dtype and ranks.tobytes() == expected.tobytes()


def test_fit_matches_rankdata_normal_scores_bit_for_bit():
    # the correlation every lhsd design of a drawn group is built from
    chol = np.linalg.cholesky(np.full((5, 5), 0.4) + 0.6 * np.eye(5))
    data = np.random.default_rng(0).standard_normal((3000, 5)) @ chol.T
    scores = ndtri((np.apply_along_axis(rankdata, 0, data) - 0.5) / 3000)
    expected = np.corrcoef(scores, rowvar=False)
    assert fit_gaussian_copula(data).correlation.tobytes() == expected.tobytes()


def test_fit_rejects_nan():
    data = np.random.default_rng(7).standard_normal((50, 3))
    data[3, 1] = np.nan
    with pytest.raises(ParameterError, match="NaN"):
        fit_gaussian_copula(data)


def test_fit_rejects_constant_column():
    data = np.column_stack([np.ones(100), np.random.default_rng(4).standard_normal(100)])
    with pytest.raises(DegeneracyError):
        fit_gaussian_copula(data)


def test_push_forward_reproduces_correlation():
    corr = np.array([[1.0, 0.6, 0.2], [0.6, 1.0, -0.3], [0.2, -0.3, 1.0]])
    cop = gaussian_copula(corr)
    z = np.random.default_rng(5).random((10_000, 3))
    u = conditional_inverse(cop, z)
    achieved = np.corrcoef(ndtri(u), rowvar=False)
    assert np.max(np.abs(achieved - corr)) < 0.05


def test_push_forward_marginals_stay_uniform():
    cop = gaussian_copula([[1.0, 0.7], [0.7, 1.0]])
    z = np.random.default_rng(6).random((10_000, 2))
    u = conditional_inverse(cop, z)
    for j in range(2):
        assert kstest(u[:, j], "uniform").pvalue > 0.01


def test_fit_sample_refit_round_trip():
    corr = np.array([[1.0, 0.5], [0.5, 1.0]])
    cop = gaussian_copula(corr)
    z = np.random.default_rng(7).random((10_000, 2))
    u = conditional_inverse(cop, z)
    refit = fit_gaussian_copula(u)
    assert np.max(np.abs(refit.correlation - corr)) < 0.05


def test_empirical_quantile_interpolation():
    marg = EmpiricalMarginal([1.0, 2.0, 3.0, 4.0])
    assert marg.quantile(0.5) == 2.5
    assert marg.quantile(0.0) == 1.0
    assert marg.quantile(1.0) == 4.0


def test_empirical_quantile_of_normal_sample():
    draws = np.random.default_rng(8).standard_normal(100_000)
    marg = EmpiricalMarginal(draws)
    assert marg.quantile(0.975) == pytest.approx(1.959964, abs=0.03)


def test_empirical_quantile_domain():
    marg = EmpiricalMarginal([0.0, 1.0])
    with pytest.raises(DomainError):
        marg.quantile(1.01)
    with pytest.raises(ParameterError):
        EmpiricalMarginal([1.0])


@pytest.mark.parametrize("d, names", [(3, ["u", "v"]), (2, ["u", "v", "w"])],
                         ids=["too few names", "too many names"])
def test_correlation_to_csv_needs_one_name_per_column(tmp_path, d, names):
    path = tmp_path / "correlation.csv"
    with pytest.raises(DimensionError, match=f"{len(names)} column names for a {d}x{d}"):
        correlation_to_csv(gaussian_copula(np.eye(d)), path, column_names=names)
    assert not path.exists()

import math

import numpy as np
import pytest
from scipy import stats

from qdoe import (
    DomainError,
    Gumbel,
    LogNormal,
    Normal,
    ParameterError,
    Triangular,
    Truncated,
    Uniform,
)

ALL_VARIANTS = [
    Uniform(7.0, 9.0),
    Normal(0.0, 1.0),
    LogNormal(0.0, 1.0),
    Triangular(49.0, 50.0, 51.0),
    Gumbel(1013.0, 558.0),
    Truncated(Gumbel(1013.0, 558.0), 500.0, 3000.0),
    Truncated(Normal(30.0, 8.0), 15.0, math.inf),
]
# the support of each law in ALL_VARIANTS, in the same order
SUPPORTS = [
    (7.0, 9.0),
    (-math.inf, math.inf),
    (0.0, math.inf),
    (49.0, 51.0),
    (-math.inf, math.inf),
    (500.0, 3000.0),
    (15.0, math.inf),
]


def test_uniform_cdf_midpoint():
    assert Uniform(7, 9).cdf(8.0) == 0.5


def test_triangular_cdf_at_symmetric_mode():
    assert Triangular(49, 50, 51).cdf(50.0) == 0.5


def test_truncated_cdf_at_upper_bound():
    assert Truncated(Gumbel(1013, 558), 500, 3000).cdf(3000.0) == 1.0


def test_normal_quantile_median_is_zero():
    assert Normal(0, 1).quantile(0.5) == 0.0


def test_uniform_quantile_linear():
    assert Uniform(7, 9).quantile(0.25) == 7.5


def test_truncated_normal_median_matches_bisection_oracle():
    # frozen from a bisection oracle on the truncated cdf (cross-checked
    # against scipy.stats.truncnorm.ppf)
    dist = Truncated(Normal(30, 8), 15, math.inf)
    q = dist.quantile(0.5)
    assert q == pytest.approx(30.304843276524373, abs=1e-9)
    assert abs(dist.cdf(q) - 0.5) < 1e-9


def test_sampling_is_deterministic_given_seed():
    dist = Uniform(0, 1)
    a = dist.sample(np.random.default_rng(123))
    b = dist.sample(np.random.default_rng(123))
    assert a == b


def test_normal_law_of_large_numbers():
    draws = Normal(0, 1).sample(np.random.default_rng(7), size=1_000_000)
    assert abs(draws.mean()) < 0.01


def test_truncated_gumbel_samples_stay_in_window():
    dist = Truncated(Gumbel(1013, 558), 500, 3000)
    draws = dist.sample(np.random.default_rng(3), size=10_000)
    assert draws.min() >= 500.0 and draws.max() <= 3000.0


@pytest.mark.parametrize("dist", ALL_VARIANTS, ids=lambda d: type(d).__name__ + str(id(d) % 97))
def test_quantile_cdf_round_trip(dist):
    u = np.random.default_rng(11).uniform(0.001, 0.999, size=1000)
    assert np.max(np.abs(dist.cdf(dist.quantile(u)) - u)) < 1e-9


@pytest.mark.parametrize("dist", ALL_VARIANTS, ids=lambda d: type(d).__name__ + str(id(d) % 97))
def test_quantile_monotone(dist):
    grid = np.linspace(0.0005, 0.9995, 1000)
    values = dist.quantile(grid)
    assert np.all(np.diff(values) >= 0)


def test_truncated_sampling_matches_analytic_cdf():
    dist = Truncated(Normal(30, 8), 15, math.inf)
    draws = dist.sample(np.random.default_rng(5), size=100_000)
    assert draws.min() >= 15.0
    ks = stats.kstest(draws, dist.cdf).statistic
    assert ks < 0.01


def test_cdf_hits_zero_and_one_at_finite_support_bounds():
    for dist, (lo, hi) in zip(ALL_VARIANTS, SUPPORTS):
        if math.isfinite(lo):
            assert dist.cdf(lo) == 0.0
        if math.isfinite(hi):
            assert dist.cdf(hi) == 1.0


def test_cdf_is_nondecreasing():
    for dist, support in zip(ALL_VARIANTS, SUPPORTS):
        grid = np.linspace(*np.clip(support, -1e6, 1e6), 500)
        assert np.all(np.diff(dist.cdf(grid)) >= 0)


def test_invalid_parameters_raise():
    with pytest.raises(ParameterError):
        Normal(0, -1)
    with pytest.raises(ParameterError):
        Uniform(2, 2)
    with pytest.raises(ParameterError):
        Triangular(0, 5, 1)
    with pytest.raises(ParameterError):
        Gumbel(0, 0)
    with pytest.raises(ParameterError):
        Truncated(Normal(0, 1), 3, 2)
    with pytest.raises(ParameterError):
        # no mass in the window
        Truncated(Uniform(0, 1), 5, 6)


@pytest.mark.parametrize("make", [
    lambda: Normal(math.nan, 1),
    lambda: Normal(0, math.inf),
    lambda: Gumbel(math.nan, 1),
    lambda: Gumbel(0, math.inf),
    lambda: LogNormal(0, math.inf),
    lambda: LogNormal(-math.inf, 1),
    lambda: Uniform(-math.inf, 0),
    lambda: Uniform(0, math.nan),
    lambda: Triangular(0, math.nan, 1),
    lambda: Triangular(-math.inf, 0, 1),
    lambda: Truncated(Normal(0, 1), math.nan, 1),
    lambda: Truncated(Normal(0, 1), 0, math.nan),
], ids=["normal mu nan", "normal sigma inf", "gumbel mu nan", "gumbel beta inf",
        "lognormal sigma inf", "lognormal mu -inf", "uniform a -inf", "uniform b nan",
        "triangular c nan", "triangular a -inf", "truncated lo nan", "truncated hi nan"])
def test_non_finite_parameters_raise(make):
    with pytest.raises(ParameterError):
        make()


def test_truncation_bounds_may_be_infinite():
    dist = Truncated(Normal(0, 1), -math.inf, math.inf)
    assert dist.quantile(0.5) == 0.0


def test_quantile_domain_errors():
    with pytest.raises(DomainError):
        Normal(0, 1).quantile(1.5)
    with pytest.raises(DomainError):
        Uniform(0, 1).quantile(-0.1)


def test_gumbel_matches_scipy_parameterization():
    dist = Gumbel(1013, 558)
    ref = stats.gumbel_r(loc=1013, scale=558)
    u = np.linspace(0.01, 0.99, 25)
    assert np.allclose(dist.quantile(u), ref.ppf(u), rtol=1e-12)
    x = np.linspace(0, 4000, 25)
    assert np.allclose(dist.cdf(x), ref.cdf(x), rtol=1e-12)


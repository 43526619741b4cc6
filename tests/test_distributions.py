import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from qdoe import (
    DomainError,
    EmpiricalMarginal,
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



# one law per class, each truncated flood law and an empirical law
CONTRACT_LAWS = {
    "uniform": Uniform(7.0, 9.0),
    "normal": Normal(30.0, 8.0),
    "lognormal": LogNormal(0.0, 1.0),
    "triangular": Triangular(49.0, 50.0, 51.0),
    "gumbel": Gumbel(1013.0, 558.0),
    "truncated_q": Truncated(Gumbel(1013.0, 558.0), 500.0, 3000.0),
    "truncated_ks": Truncated(Normal(30.0, 8.0), 15.0, math.inf),
    "empirical": EmpiricalMarginal([3.0, 1.0, 4.0, 1.5, 9.0, 2.6]),
}
ANALYTIC = [name for name in CONTRACT_LAWS if name != "empirical"]
# repr(quantile(u)) at each of TABLE_U, frozen before the laws shared one
# argument check: a changed expression changes a value here
TABLE_U = (1e-12, 0.1, 0.5, 0.9, 1 - 1e-12)
QUANTILE_TABLE = {
    "uniform": ("7.000000000002", "7.2", "8.0", "8.8", "8.999999999998"),
    "normal": ("-26.27587060240905", "19.747587475643197", "30.0", "40.2524125243568",
               "86.27589528038268"),
    "lognormal": ("0.000880972783446861", "0.2776062418520098", "1.0", "3.6022244792791573",
                  "1135.112348010216"),
    "triangular": ("49.000001414213564", "49.44721359549996", "50.0", "50.55278640450004",
                   "50.99999858580208"),
    "gumbel": ("-838.9680150300633", "547.6098955516406", "1217.5142096845686",
               "2268.7049686403443", "16431.122126744216"),
    "truncated_q": ("500.00000000243267", "694.7221294428937", "1261.0862476562781",
                    "2175.5458387280037", "2999.9999999820056"),
    "truncated_ks": ("15.000000000112763", "20.8881974983038", "30.304843276524373",
                     "40.39254087889498", "86.31034765542147"),
    "empirical": ("1.0", "1.05", "2.8", "8.500000000000002", "9.0"),
}


def bits(value) -> bytes:
    return np.float64(value).tobytes()


@pytest.mark.parametrize("name", CONTRACT_LAWS)
def test_quantile_matches_its_frozen_table(name):
    law = CONTRACT_LAWS[name]
    assert tuple(repr(law.quantile(u)) for u in TABLE_U) == QUANTILE_TABLE[name]


@pytest.mark.parametrize("name", CONTRACT_LAWS)
@settings(max_examples=50, deadline=None)
@given(u=st.floats(0.0, 1.0))
@example(u=0.0)
@example(u=1.0)
def test_scalar_quantile_is_a_float_equal_to_the_array_entry(name, u):
    law = CONTRACT_LAWS[name]
    value = law.quantile(u)
    assert type(value) is float
    assert bits(value) == bits(law.quantile(np.array([u]))[0])


@pytest.mark.parametrize("name", ANALYTIC)
@settings(max_examples=50, deadline=None)
@given(x=st.floats(-1e5, 1e5))
@example(x=0.0)
def test_scalar_cdf_is_a_float_equal_to_the_array_entry(name, x):
    law = CONTRACT_LAWS[name]
    value = law.cdf(x)
    assert type(value) is float
    assert bits(value) == bits(law.cdf(np.array([x]))[0])


@pytest.mark.parametrize("name", CONTRACT_LAWS)
@pytest.mark.parametrize("u", [-1e-300, -0.5, np.nextafter(1.0, 2.0), 2.0, math.nan,
                               np.array([0.5, math.nan]), np.array([[0.2], [-0.1]])])
def test_quantile_outside_the_unit_interval_is_a_domain_error(name, u):
    with pytest.raises(DomainError, match=re.escape("quantile argument must lie in [0, 1]")):
        CONTRACT_LAWS[name].quantile(u)


@pytest.mark.parametrize("name", CONTRACT_LAWS)
def test_sample_is_the_quantile_of_the_generator_uniforms(name):
    law = CONTRACT_LAWS[name]
    drawn = law.sample(np.random.default_rng(41), 500)
    twin = np.random.default_rng(41)
    assert drawn.tobytes() == law.quantile(twin.random(500)).tobytes()


_INNER_LAWS = st.one_of(
    st.builds(Normal, st.floats(-3.0, 3.0), st.floats(0.05, 5.0)),
    st.builds(Gumbel, st.floats(-3.0, 3.0), st.floats(0.05, 5.0)),
    st.builds(LogNormal, st.floats(-2.0, 2.0), st.floats(0.05, 2.0)),
)


@settings(max_examples=300, deadline=None)
@given(inner=_INNER_LAWS, lo=st.floats(-3.0, 3.0), width=st.sampled_from([0.5, 2.0, math.inf]),
       u=st.floats(0.0, 1.0))
@example(inner=Normal(30.0, 8.0), lo=15.0, width=math.inf, u=0.0)  # flood's Ks
@example(inner=Normal(30.0, 8.0), lo=15.0, width=math.inf, u=1e-17)
@example(inner=Gumbel(0.0, 1.0), lo=-2.82, width=2.0, u=1.0)
@example(inner=LogNormal(0.0, 1.0), lo=-1.96, width=2.0, u=1.0)
def test_truncated_quantile_stays_in_its_window(inner, lo, width, u):
    try:
        law = Truncated(inner, lo, lo + width)
    except ParameterError:  # no mass on the window
        return
    assert law.lo <= law.quantile(u) <= law.hi

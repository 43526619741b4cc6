import numpy as np
import pytest

from qdoe import (
    CandidatePool,
    ConfigError,
    DimensionError,
    EvaluationError,
    Normal,
    estimate,
    lhs_with_marginals,
    lloyd,
    mc_design,
    qlhs_design,
    replicate,
    Uniform,
)


@pytest.fixture
def all_scheme_designs(four_point_pool, rng):
    q = lloyd(four_point_pool, 2, rng)
    return [
        mc_design(np.random.default_rng(0).standard_normal((5, 2))),
        lhs_with_marginals(5, [Normal(0, 1)], rng),
        qlhs_design([(q, four_point_pool)], [], rng),
        qlhs_design([(q, four_point_pool)], [Uniform(0, 1)], rng),
        qlhs_design([(q, four_point_pool), (q, four_point_pool)], [], rng),
    ]


def test_constant_function_is_estimated_exactly(all_scheme_designs):
    for design in all_scheme_designs:
        assert estimate(design, np.full(design.n, 2.5)) == pytest.approx(2.5, abs=1e-12)


def test_weighted_sum_matches_manual_computation(four_point_pool, rng):
    q = lloyd(four_point_pool, 2, rng)
    design = qlhs_design([(q, four_point_pool)], [], rng)
    expected = float(design.weights @ (design.points[:, 0] + 1.0))
    assert estimate(design, design.points[:, 0] + 1.0) == pytest.approx(expected, abs=1e-15)


def test_q2lhs_estimate_is_self_normalized(four_point_pool, rng):
    q = lloyd(four_point_pool, 2, rng)
    design = qlhs_design([(q, four_point_pool), (q, four_point_pool)], [], rng)
    values = design.points.sum(axis=1)
    expected = float(design.weights @ values) / float(design.weights.sum())
    assert estimate(design, values) == pytest.approx(expected, abs=1e-15)


def test_non_finite_value_names_the_row(all_scheme_designs):
    design = all_scheme_designs[0]
    values = np.ones(design.n)
    values[1] = np.nan
    values[3] = np.inf  # a later bad row: the message names the first one
    with pytest.raises(EvaluationError, match="row 1"):
        estimate(design, values)


def test_values_of_the_wrong_length_are_rejected(all_scheme_designs):
    design = all_scheme_designs[0]
    with pytest.raises(DimensionError):
        estimate(design, np.ones(design.n - 1))


def test_replicate_requires_two_repetitions(four_point_pool, rng):
    q = lloyd(four_point_pool, 2, rng)
    with pytest.raises(ConfigError):
        replicate(lambda r: qlhs_design([(q, four_point_pool)], [], r), lambda d: np.ones(d.n),
                  1, 0)


def test_replicate_with_forced_identical_seeds_has_zero_variance(four_point_pool):
    q = lloyd(four_point_pool, 2, np.random.default_rng(1))

    def builder(_rng):
        return qlhs_design([(q, four_point_pool)], [], np.random.default_rng(99))

    summary = replicate(builder, lambda d: d.points[:, 0], 2, 0)
    assert summary.variance == 0.0


def test_replicate_threads_match_serial(four_point_pool):
    q = lloyd(four_point_pool, 2, np.random.default_rng(1))

    def builder(rng):
        return qlhs_design([(q, four_point_pool)], [], rng)

    f = lambda d: d.points[:, 0] ** 2
    for repetitions in (32, 2):  # 2 < 3 workers: the pool is capped at the repetitions
        serial = replicate(builder, f, repetitions, 5, threads=1)
        for threads in (2, 3):
            parallel = replicate(builder, f, repetitions, 5, threads=threads)
            assert parallel.estimates.tobytes() == serial.estimates.tobytes()


def test_rq_variance_identity_with_fixed_quantizer():
    # with the quantizer frozen, Var(estimate) = sum_i p_i^2 Var(f | cell i),
    # where the per-cell variance is exact under the empirical pool measure
    pool = CandidatePool(np.random.default_rng(2).standard_normal((2000, 1)))
    q = lloyd(pool, 20, np.random.default_rng(3))
    f_pool = pool.points[:, 0] ** 2
    theoretical = sum(
        p**2 * f_pool[q.pool_assignment == i].var()
        for i, p in enumerate(q.probabilities)
    )

    def builder(rng):
        return qlhs_design([(q, pool)], [], rng)

    summary = replicate(builder, lambda d: d.points[:, 0] ** 2, 5000, 10)
    assert summary.variance == pytest.approx(theoretical, rel=0.2)


def test_rq_unbiased_on_square(rng):
    def builder(r):
        pool = CandidatePool(r.standard_normal((1000, 1)))
        q = lloyd(pool, 50, r, restarts=1, max_iter=40, rel_tol=1e-6)
        return qlhs_design([(q, pool)], [], r)

    summary = replicate(builder, lambda d: d.points[:, 0] ** 2, 200, 123)
    se = np.sqrt(summary.variance / summary.repetitions)
    assert abs(summary.mean - 1.0) < 3 * se


def test_lhs_variance_bound_against_mc():
    def square(design):
        return estimate(design, design.points[:, 0] ** 2)

    n = 50
    lhs_estimates = np.array(
        [square(lhs_with_marginals(n, [Normal(0, 1)], np.random.default_rng(s)))
         for s in range(5000)]
    )
    mc_estimates = np.array(
        [square(mc_design(np.random.default_rng(10_000 + s).standard_normal((n, 1))))
         for s in range(5000)]
    )
    assert lhs_estimates.var(ddof=1) <= (n / (n - 1)) * mc_estimates.var(ddof=1)


def test_replicate_summary_fields(four_point_pool):
    q = lloyd(four_point_pool, 2, np.random.default_rng(4))
    summary = replicate(
        lambda rng: qlhs_design([(q, four_point_pool)], [], rng), lambda d: d.points[:, 0], 50, 7
    )
    assert summary.repetitions == 50
    assert summary.base_seed == 7
    assert summary.estimates.shape == (50,)
    assert summary.percentile_2_5 <= summary.mean <= summary.percentile_97_5

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from qdoe import (
    CandidatePool,
    ConfigError,
    DegeneracyError,
    Design,
    DimensionError,
    DomainError,
    KernelSpec,
    ParameterError,
    gram,
    lloyd,
    mc_design,
    qlhs_design,
    screen,
    weighted_hsic,
)
from qdoe.hsic import (_block_buffers, _pack, _packed_size, _permutation_test,
                       _resolve_bandwidth, _weighted_center)


def brute_force_hsic(kx, ky):
    """Literal three-term double sum over a sample of size n."""
    n = kx.shape[0]
    t1 = sum(kx[i, j] * ky[i, j] for i in range(n) for j in range(n)) / n**2
    t2 = (kx.sum() / n**2) * (ky.sum() / n**2)
    t3 = sum((kx[i, :].sum() / n) * (ky[i, :].sum() / n) for i in range(n)) / n
    return t1 + t2 - 2 * t3


def brute_force_weighted(kx, ky, w):
    n = kx.shape[0]
    t1 = sum(w[i] * w[j] * kx[i, j] * ky[i, j] for i in range(n) for j in range(n))
    t2 = sum(w[i] * w[j] * kx[i, j] for i in range(n) for j in range(n)) * sum(
        w[i] * w[j] * ky[i, j] for i in range(n) for j in range(n)
    )
    t3 = sum(
        w[i]
        * sum(w[j] * kx[i, j] for j in range(n))
        * sum(w[j] * ky[i, j] for j in range(n))
        for i in range(n)
    )
    return t1 + t2 - 2 * t3


def _packed(centered):
    """A (G, n, n) stack of centered Gram matrices packed as screen packs them."""
    n = centered.shape[1]
    out = np.empty((len(centered), _packed_size(n)))
    for a, row in zip(centered, out):
        _pack(a, row)
    return out


def test_gram_diagonal_is_exactly_one():
    k = gram(np.random.default_rng(0).standard_normal(20), KernelSpec())
    assert np.all(np.diag(k) == 1.0)
    assert np.allclose(k, k.T)
    assert np.all((k > 0) & (k <= 1))


def test_gram_identical_rows_give_unit_entry():
    k = gram(np.array([1.3, 1.3, 2.0]), KernelSpec(bandwidth_rule="fixed", bandwidth=1.0))
    assert k[0, 1] == 1.0


def test_gram_plug_in_value():
    theta = 0.7
    k = gram(np.array([0.0, theta * np.sqrt(2.0)]),
             KernelSpec(bandwidth_rule="fixed", bandwidth=theta))
    assert k[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_gram_degenerate_sample():
    with pytest.raises(DegeneracyError):
        gram(np.ones(5), KernelSpec())
    with pytest.raises(DegeneracyError):
        gram(np.ones(5), KernelSpec(bandwidth_rule="median"))


@pytest.mark.parametrize("bandwidth", [np.nan, np.inf])
def test_fixed_bandwidth_must_be_positive_and_finite(bandwidth):
    with pytest.raises(ParameterError, match="0 < bandwidth < inf"):
        KernelSpec(bandwidth_rule="fixed", bandwidth=bandwidth)


@pytest.mark.parametrize("rule", ["std", "median", "fixed"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_rows_are_rejected_naming_the_first(rule, value):
    kernel = KernelSpec(bandwidth_rule=rule, bandwidth=1.0 if rule == "fixed" else None)
    points = np.random.default_rng(12).standard_normal((10, 2))
    outputs = points.sum(axis=1)
    bad_points, bad_outputs = points.copy(), outputs.copy()
    bad_points[[3, 7], 1] = value
    bad_outputs[[4, 8]] = value
    for design, y, row in ((mc_design(bad_points), outputs, 3), (mc_design(points), bad_outputs, 4)):
        with pytest.raises(DomainError, match=f"non-finite value on row {row}:"):
            weighted_hsic(design, y, kernel)
        with pytest.raises(DomainError, match=f"non-finite value on row {row}:"):
            screen(design, y, [("a", [0]), ("b", [1])], kernel=kernel, permutations=100,
                   rng=np.random.default_rng(0))


def test_hsic_constant_output_is_zero():
    x = np.random.default_rng(1).standard_normal(30)
    value = weighted_hsic(mc_design(x[:, None]), np.full(30, 3.0),
                          KernelSpec(bandwidth_rule="fixed", bandwidth=1.0))
    assert abs(value) < 1e-12


def test_hsic_two_point_symbolic_formula():
    # for n = 2 with gram entries a and b the trace form equals (1-a)(1-b)/4
    theta = 1.0
    x = np.array([0.0, 0.8])
    y = np.array([0.0, 1.7])
    a = float(np.exp(-(0.8**2) / 2))
    b = float(np.exp(-(1.7**2) / 2))
    kernel = KernelSpec(bandwidth_rule="fixed", bandwidth=theta)
    value = weighted_hsic(mc_design(x[:, None]), y, kernel)
    assert value == pytest.approx((1 - a) * (1 - b) / 4, abs=1e-14)


def test_trace_form_equals_brute_force_on_random_samples():
    rng = np.random.default_rng(2)
    kernel = KernelSpec()
    for _ in range(50):
        x = rng.standard_normal(10)
        y = rng.standard_normal(10)
        value = weighted_hsic(mc_design(x[:, None]), y, kernel)
        oracle = brute_force_hsic(gram(x, kernel), gram(y, kernel))
        assert abs(value - oracle) < 1e-12
        assert value >= -1e-12


def test_weighted_reduces_to_v_statistic_with_uniform_weights():
    rng = np.random.default_rng(3)
    kernel = KernelSpec()
    for _ in range(50):
        x = rng.standard_normal(12)
        y = rng.standard_normal(12)
        design = Design(x[:, None], np.full(12, 1 / 12), "rq", ("x",))
        value = weighted_hsic(design, y, kernel)
        assert abs(value - brute_force_hsic(gram(x, kernel), gram(y, kernel))) < 1e-12
        assert abs(value - weighted_hsic(mc_design(x[:, None]), y, kernel)) < 1e-12


def test_weighted_three_point_matches_triple_loop():
    x = np.array([0.1, 1.2, -0.7])
    y = np.array([2.0, 0.5, 1.1])
    w = np.array([0.5, 0.3, 0.2])
    kernel = KernelSpec(bandwidth_rule="fixed", bandwidth=0.9)
    design = Design(x[:, None], w, "rq", ("x",))
    oracle = brute_force_weighted(gram(x, kernel), gram(y, kernel), w)
    assert weighted_hsic(design, y, kernel) == pytest.approx(oracle, abs=1e-14)


def test_weighted_constant_output_is_zero():
    x = np.array([0.1, 1.2, -0.7])
    design = Design(x[:, None], np.array([0.5, 0.3, 0.2]), "rq", ("x",))
    value = weighted_hsic(design, np.full(3, 1.0),
                          KernelSpec(bandwidth_rule="fixed", bandwidth=1.0))
    assert abs(value) < 1e-12


def test_weighted_q2lhs_design_uses_normalized_weights():
    # q2lhs weights are products of cell probabilities and do not sum to one
    fit = np.random.default_rng(5)
    blocks = []
    for _ in range(2):
        pool = CandidatePool(fit.standard_normal((60, 1)))
        blocks.append((lloyd(pool, 6, fit, restarts=1), pool))
    design = qlhs_design(blocks, [], np.random.default_rng(6))
    assert design.scheme == "q2lhs" and design.weights.sum() < 0.5
    y = design.points[:, 0] * design.points[:, 1]
    kernel = KernelSpec(bandwidth_rule="fixed", bandwidth=0.9)
    w = design.weights / design.weights.sum()
    oracle = brute_force_weighted(gram(design.points, kernel), gram(y, kernel), w)
    assert weighted_hsic(design, y, kernel) == pytest.approx(oracle, abs=1e-14)
    test = screen(design, y, [("all", [0, 1])], kernel=kernel, permutations=100,
                  rng=np.random.default_rng(7))[0]
    assert test.hsic_value == pytest.approx(oracle, abs=1e-14)


def test_weights_without_a_positive_total_are_rejected():
    with pytest.raises(ParameterError):
        Design(np.array([[0.0], [1.0], [2.0]]), np.zeros(3), "q2lhs", ("x",))


def test_strong_dependence_beats_permutation_null():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(50)
    y = x.copy()
    design = mc_design(x[:, None])
    observed = weighted_hsic(design, y)
    null = np.array([weighted_hsic(design, rng.permutation(y)) for _ in range(200)])
    assert observed > np.percentile(null, 95)


def test_joint_permutation_leaves_hsic_unchanged():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(25)
    y = x**2 + rng.standard_normal(25)
    base = weighted_hsic(mc_design(x[:, None]), y)
    perm = rng.permutation(25)
    assert abs(weighted_hsic(mc_design(x[perm][:, None]), y[perm]) - base) < 1e-12


def test_screen_floor_on_permutations():
    x = np.arange(10.0)
    with pytest.raises(ConfigError):
        screen(mc_design(x[:, None]), x, [("x", [0])], permutations=50,
               rng=np.random.default_rng(0))


def test_screen_constant_outputs_gives_p_one():
    x = np.random.default_rng(6).standard_normal(20)
    res = screen(mc_design(x[:, None]), np.full(20, 2.0), [("x", [0])],
                 kernel=KernelSpec(bandwidth_rule="fixed", bandwidth=1.0),
                 permutations=100, rng=np.random.default_rng(1))[0]
    assert res.p_value == 1.0
    assert res.reject is False


def test_screen_perfect_dependence():
    x = np.random.default_rng(7).standard_normal(50)
    res = screen(mc_design(x[:, None]), x, [("x", [0])], permutations=500,
                 rng=np.random.default_rng(2))[0]
    assert res.p_value < 0.01
    assert res.reject is True


def test_uniform_weights_of_any_total_give_the_unweighted_test():
    # weights are normalized by their total, so equal weights summing to 20
    # test exactly as the 1/n weights of a Monte Carlo design
    rng = np.random.default_rng(8)
    x = rng.standard_normal(40)
    y = x + rng.standard_normal(40)
    a = screen(mc_design(x[:, None]), y, [("x", [0])], permutations=200,
               rng=np.random.default_rng(3))[0]
    b = screen(Design(x[:, None], np.full(40, 0.5), "q2lhs", ("x",)), y, [("x", [0])],
               permutations=200, rng=np.random.default_rng(3))[0]
    assert a.p_value == b.p_value
    assert a.hsic_value == pytest.approx(b.hsic_value, abs=1e-12)


def test_weighted_test_matches_triple_loop_under_permutation():
    # the three-point weights [0.5, 0.3, 0.2] repeated over 12 rows
    rng = np.random.default_rng(13)
    x = rng.standard_normal(12)
    y = x + rng.standard_normal(12)
    w = np.tile([0.5, 0.3, 0.2], 4) / 4
    kernel = KernelSpec()
    gx, gy = gram(x, kernel), gram(y, kernel)
    res = screen(Design(x[:, None], w, "rq", ("x",)), y, [("x", [0])], kernel=kernel,
                 permutations=100, rng=np.random.default_rng(14))[0]
    assert abs(res.hsic_value - brute_force_weighted(gx, gy, w)) < 1e-12

    draws = np.random.default_rng(14)  # replays the test's permutations
    perms = np.vstack([draws.permutation(12) for _ in range(100)])
    oracle = np.array([brute_force_weighted(gx, gy[p][:, p], w) for p in perms])
    stats, _ = _permutation_test(_packed(_weighted_center(gx, w)[None]), gy, permutations=100,
                                 rng=np.random.default_rng(14))
    assert np.max(np.abs(stats[1:6, 0] - oracle[:5])) < 1e-12
    assert res.p_value == (1 + np.sum(oracle >= res.hsic_value)) / 101


def test_screen_single_group_equals_value_function_and_direct_test():
    rng = np.random.default_rng(9)
    points = rng.standard_normal((60, 2))
    outputs = points[:, 0] + 0.3 * rng.standard_normal(60)
    design = Design(points, np.full(60, 1 / 60), "mc", ("a", "b"))
    via_screen = screen(
        design, outputs, [("all", [0, 1])], permutations=200,
        rng=np.random.default_rng(4),
    )[0]
    kernel = KernelSpec()
    w = design.weights / design.weights.sum()
    stats, p_values = _permutation_test(
        _packed(_weighted_center(gram(points[:, [0, 1]], kernel), w)[None]),
        gram(outputs, kernel),
        permutations=200, rng=np.random.default_rng(4),
    )
    assert via_screen.hsic_value == stats[0, 0]
    assert via_screen.hsic_value == weighted_hsic(design, outputs)
    assert via_screen.p_value == p_values[0]
    assert via_screen.decision == ("dependent" if p_values[0] < 0.05 else "independent")


def test_screen_groups_share_one_permutation_set():
    # every group is tested on the same permutations, so each screen result
    # is a one-group screen of its block on a fresh generator with the same seed
    rng = np.random.default_rng(15)
    points = rng.standard_normal((30, 4))
    outputs = points[:, 0] + points[:, 1] * points[:, 2] + 0.5 * rng.standard_normal(30)
    w = rng.uniform(0.5, 1.5, 30)
    w /= w.sum()
    design = Design(points, w, "rq", ("a", "b", "c", "d"))
    groups = [("a", [0]), ("b+c", [1, 2]), ("d", [3]), ("all", [0, 1, 2, 3])]
    results = screen(design, outputs, groups, permutations=150,
                     rng=np.random.default_rng(16))
    for (name, cols), res in zip(groups, results):
        block = Design(points[:, cols], w, "rq", tuple(design.column_roles[c] for c in cols))
        alone = screen(block, outputs, [(name, range(len(cols)))], permutations=150,
                       rng=np.random.default_rng(16))[0]
        assert res.name == alone.name == name
        assert res.hsic_value == alone.hsic_value
        assert res.p_value == alone.p_value
        assert res.reject is alone.reject


def test_screen_logs_every_chosen_bandwidth(caplog):
    rng = np.random.default_rng(17)
    points = rng.standard_normal((20, 3))
    design = Design(points, np.full(20, 1 / 20), "mc", ("a", "b", "c"))
    with caplog.at_level("INFO", logger="qdoe"):
        screen(design, points.sum(axis=1), [("a", [0]), ("b", [1]), ("c", [2])],
               permutations=100, rng=np.random.default_rng(18))
    bandwidths = [r for r in caplog.records if "bandwidth" in r.getMessage()]
    assert len(bandwidths) == 4
    assert all(r.levelname == "INFO" and "std rule" in r.getMessage() for r in bandwidths)


def test_screen_separates_active_and_inert_columns():
    rng = np.random.default_rng(10)
    points = rng.standard_normal((200, 2))
    outputs = points[:, 0].copy()
    design = Design(points, np.full(200, 1 / 200), "mc", ("x1", "x2"))
    results = screen(
        design, outputs, [("x1", [0]), ("x2", [1])],
        permutations=200, alpha=0.05, rng=np.random.default_rng(5),
    )
    assert results[0].reject is True
    assert results[1].reject is False


def test_screen_rejects_bad_groups():
    design = Design(np.random.default_rng(11).standard_normal((10, 2)),
                    np.full(10, 0.1), "mc", ("a", "b"))
    outputs = np.arange(10.0)
    with pytest.raises(ParameterError):
        screen(design, outputs, [("empty", [])], permutations=100,
               rng=np.random.default_rng(0))
    with pytest.raises(DimensionError):
        screen(design, outputs, [("oob", [5])], permutations=100,
               rng=np.random.default_rng(0))


def test_group_standardization_rebalances_scales():
    # one column lives at scale 1e-5, the other at 1e1; without
    # standardization the small column cannot move the gram matrix
    rng = np.random.default_rng(12)
    small = 1e-5 * rng.standard_normal(40)
    big = 1e1 * rng.standard_normal(40)
    sample = np.column_stack([small, big])
    perturbed = sample.copy()
    perturbed[:, 0] = 1e-5 * rng.standard_normal(40)

    raw_a = gram(sample, KernelSpec(bandwidth_rule="median", standardize_groups=False))
    raw_b = gram(perturbed, KernelSpec(bandwidth_rule="median", standardize_groups=False))
    std_a = gram(sample, KernelSpec(standardize_groups=True))
    std_b = gram(perturbed, KernelSpec(standardize_groups=True))

    assert np.max(np.abs(raw_a - raw_b)) < 1e-9  # small column invisible
    assert np.max(np.abs(std_a - std_b)) > 1e-2  # now it contributes


# The arithmetic gram, _weighted_center and _permutation_test replaced: fresh
# n-by-n temporaries per operation, every permutation stacked before the loop
# and one np.vdot per statistic. The in-place gram and _weighted_center must
# reproduce it bit for bit; the blocked statistics agree with it to rounding.
def _reference_gram(x, kernel):
    x = np.asarray(x, dtype=float).reshape(len(x), -1)
    if kernel.standardize_groups and x.shape[1] > 1:
        x = (x - x.mean(axis=0)) / x.std(axis=0)
    sq = pdist(x, "sqeuclidean")
    theta = _resolve_bandwidth(x, sq, kernel)
    k = np.exp(-squareform(sq) / (2.0 * theta * theta))
    np.fill_diagonal(k, 1.0)
    return k


def _reference_center(kx, w):
    kxw = kx @ w
    return np.outer(w, w) * (kx - kxw[:, None] - kxw[None, :] + float(w @ kxw))


def _reference_permutation_test(centered, ky, permutations, rng):
    n = ky.shape[0]
    perms = np.vstack([np.arange(n)] + [rng.permutation(n) for _ in range(permutations)])
    return np.array([[np.vdot(a, ky[p][:, p]) for a in centered] for p in perms])


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kernel", [KernelSpec(), KernelSpec(bandwidth_rule="median"),
                                    KernelSpec(bandwidth_rule="fixed", bandwidth=0.7,
                                               standardize_groups=False)],
                         ids=["std", "median", "fixed"])
@pytest.mark.parametrize("weights", ["uniform", "cells"])
def test_gram_and_centering_match_reference_arithmetic(kernel, weights):
    rng = np.random.default_rng(21)
    x = rng.standard_normal((150, 3)) * [1.0, 1e-3, 40.0]
    w = np.full(150, 1 / 150) if weights == "uniform" else rng.dirichlet(np.ones(150))
    kx = gram(x, kernel)
    assert _same_bits(kx, _reference_gram(x, kernel))
    assert _same_bits(gram(x[:, 0], kernel), _reference_gram(x[:, 0], kernel))
    before = kx.copy()
    assert _same_bits(_weighted_center(kx, w), _reference_center(kx, w))
    assert _same_bits(kx, before)  # the input Gram matrix is left as it was


@pytest.mark.parametrize("groups", [1, 3])
def test_permutation_test_matches_stacked_reference(groups):
    # the statistics are summed in another order than one np.vdot per
    # permutation, so they agree to rounding; the permutations drawn, and the
    # p-values they give, are the reference's exactly
    rng = np.random.default_rng(22)
    x = rng.standard_normal((40, groups))
    w = rng.dirichlet(np.ones(40))
    centered = np.stack([_weighted_center(gram(x[:, g], KernelSpec()), w)
                         for g in range(groups)])
    ky = gram(x.sum(axis=1) + rng.standard_normal(40), KernelSpec())
    got_rng, want_rng = np.random.default_rng(23), np.random.default_rng(23)
    stats, p_values = _permutation_test(_packed(centered), ky, permutations=150, rng=got_rng)
    want = _reference_permutation_test(centered, ky, 150, want_rng)
    assert stats.shape == want.shape
    assert np.max(np.abs(stats - want) / np.abs(want)) <= 1e-12
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert _same_bits(p_values, (1.0 + np.sum(want[1:] >= want[0], axis=0)) / 151.0)


class _IdentityAt:
    """A generator whose permutation draws are the identity at the chosen
    (1-based) draws and uniform permutations otherwise."""

    def __init__(self, draws, seed):
        self.draws, self.rng, self.count = set(draws), np.random.default_rng(seed), 0

    def permutation(self, n):
        self.count += 1
        return np.arange(n) if self.count in self.draws else self.rng.permutation(n)


def test_identity_draws_tie_the_observed_statistics_exactly():
    # B + 1 = 201 rows run in blocks of 8: draw 5 lies inside the first block,
    # draws 7 and 8 on either side of its boundary, and draw 200 is the only
    # row of the padded last block. n = 150 takes two row chunks per block.
    rng = np.random.default_rng(26)
    x = rng.standard_normal((150, 2))
    w = rng.dirichlet(np.ones(150))
    centered = np.stack([_weighted_center(gram(x[:, g], KernelSpec()), w) for g in range(2)])
    ky = gram(x[:, 0] + rng.standard_normal(150), KernelSpec())
    ties = [5, 7, 8, 100, 200]
    draws = _IdentityAt(ties, 27)
    stats, p_values = _permutation_test(_packed(centered), ky, permutations=200, rng=draws)
    assert draws.count == 200
    for row in ties:
        assert _same_bits(stats[row], stats[0])
    others = np.delete(stats, [0] + ties, axis=0)
    assert not np.any(others == stats[0])
    assert _same_bits(p_values, (1.0 + len(ties) + np.sum(others >= stats[0], axis=0)) / 201.0)


# Sizes around the chunk bounds: n = 128 packs in one chunk, n = 129 in two,
# n = 150 and 400 in two and six.
@pytest.fixture(params=[2, 3, 128, 129, 150, 400], ids=lambda n: f"n{n}")
def packed_case(request):
    def build(groups):
        n = request.param
        rng = np.random.default_rng(40 + n + groups)
        x = rng.standard_normal((n, groups))
        w = rng.dirichlet(np.ones(n))
        centered = np.stack([_weighted_center(gram(x[:, g], KernelSpec()), w)
                             for g in range(groups)])
        ky = gram(x.sum(axis=1) + rng.standard_normal(n), KernelSpec())
        return x, w, centered, ky
    return build


@pytest.mark.parametrize("groups", [1, 2, 5])
def test_packed_statistics_match_the_full_matrix_reference(packed_case, groups):
    _, _, centered, ky = packed_case(groups)
    stats, p_values = _permutation_test(_packed(centered), ky, permutations=100,
                                        rng=np.random.default_rng(41))
    want = _reference_permutation_test(centered, ky, 100, np.random.default_rng(41))
    assert stats.shape == want.shape
    assert np.all(np.abs(stats - want) <= 1e-12 * np.abs(want))
    assert _same_bits(p_values, (1.0 + np.sum(want[1:] >= want[0], axis=0)) / 101.0)


@pytest.mark.parametrize("groups", [1, 2, 5])
def test_packed_identity_draws_tie_and_groups_stand_alone(packed_case, groups):
    # B + 1 = 101 rows run in blocks of 8: draw 5 lies inside the first
    # block, draws 7 and 8 on either side of its boundary and draw 100 in the
    # padded last block
    _, _, centered, ky = packed_case(groups)
    packed = _packed(centered)
    ties = [5, 7, 8, 100]
    stats, _ = _permutation_test(packed, ky, permutations=100, rng=_IdentityAt(ties, 42))
    for row in ties:
        assert _same_bits(stats[row], stats[0])
    for g in range(groups):
        alone, _ = _permutation_test(packed[g:g + 1], ky, permutations=100,
                                     rng=_IdentityAt(ties, 42))
        assert _same_bits(alone[:, 0], stats[:, g])


@pytest.mark.parametrize("groups", [1, 2, 5])
def test_packed_screen_over_every_column_equals_the_value_function(packed_case, groups):
    x, w, _, _ = packed_case(groups)
    design = Design(x, w, "rq", tuple(f"x{g}" for g in range(groups)))
    outputs = x.sum(axis=1)
    whole = screen(design, outputs, [("all", range(groups))], permutations=100,
                   rng=np.random.default_rng(43))[0]
    assert whole.hsic_value == weighted_hsic(design, outputs)


def test_median_rule_computes_the_distances_once(monkeypatch):
    calls = []

    def counting_pdist(*args, **kwargs):
        calls.append(args)
        return pdist(*args, **kwargs)

    monkeypatch.setattr("qdoe.hsic.pdist", counting_pdist)
    x = np.random.default_rng(44).standard_normal((60, 2))
    kernel = KernelSpec(bandwidth_rule="median")
    assert _same_bits(gram(x, kernel), _reference_gram(x, kernel))
    assert len(calls) == 1


def test_screen_memory_is_bounded_by_its_n_by_n_arrays():
    # whatever the number of permutations, the permutation loop holds the G
    # packed triangles of P floats, the output Gram matrix and the two gather
    # buffers; before it, building and centering one Gram matrix holds at most
    # two n x n arrays beside the triangles. The slack covers the statistics
    # table and the index arrays. At n = 300 and G = 4 the bound is
    # 5.65 n^2 floats, and the peak reads 5.46 n^2.
    n, groups = 300, 4
    x = np.random.default_rng(24).random((n, groups))
    design = Design(x, np.full(n, 1 / n), "mc", tuple("abcd"))
    outputs = x[:, 0] + 0.5 * x[:, 1] ** 2
    tracemalloc.start()
    try:
        screen(design, outputs, [(c, [j]) for j, c in enumerate("abcd")], permutations=999,
               rng=np.random.default_rng(25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffers = sum(b.nbytes for b in _block_buffers(n))
    bound = groups * _packed_size(n) * 8 + max(2 * n * n * 8, n * n * 8 + buffers) + 2**18
    assert peak < bound

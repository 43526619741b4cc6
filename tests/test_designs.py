import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from qdoe import (
    CandidatePool,
    ConfigError,
    Design,
    DimensionError,
    Normal,
    ParameterError,
    Uniform,
    conditional_inverse,
    gaussian_copula,
    lhs_with_marginals,
    lloyd,
    mc_design,
    qlhs_design,
)


def is_stratified(column, n):
    return sorted(np.floor(column * n).astype(int)) == list(range(n))


def unit_design(n, d, rng, **kwargs):
    """An LHS design on the unit cube."""
    return lhs_with_marginals(n, [Uniform(0, 1)] * d, rng, **kwargs)


def unit_lhs(n, d, rng):
    """The unit-cube LHS written out: one jitter draw, then one permutation
    per column, so column j holds (pi_j(i) + U_ij) / n."""
    jitter = rng.random((n, d))
    points = np.empty((n, d))
    for j in range(d):
        points[:, j] = (rng.permutation(n) + jitter[:, j]) / n
    return points


def test_lhs_single_point():
    design = unit_design(1, 3, np.random.default_rng(0))
    assert design.points.shape == (1, 3)
    assert np.all((design.points >= 0) & (design.points < 1))
    assert design.weights.tolist() == [1.0]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 60), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_lhs_stratification(n, d, seed):
    # every column holds one point per stratum [k/n, (k+1)/n)
    design = unit_design(n, d, np.random.default_rng(seed))
    assert design.points.shape == (n, d)
    for j in range(d):
        assert is_stratified(design.points[:, j], n)


def test_lhs_column_means_over_repetitions():
    means = np.array(
        [unit_design(10, 2, np.random.default_rng(s)).points.mean(axis=0) for s in range(1000)]
    ).mean(axis=0)
    assert np.max(np.abs(means - 0.5)) < 0.01


def test_lhs_with_marginals_normal_straddles_zero():
    design = lhs_with_marginals(2, [Normal(0, 1)], np.random.default_rng(2))
    lo, hi = sorted(design.points[:, 0])
    assert lo < 0 <= hi


def test_lhs_with_marginals_uniform_bins():
    design = lhs_with_marginals(4, [Uniform(7, 9)], np.random.default_rng(3))
    values = np.sort(design.points[:, 0])
    edges = [7.0, 7.5, 8.0, 8.5, 9.0]
    for k, v in enumerate(values):
        assert edges[k] <= v < edges[k + 1]


def test_lhs_with_marginals_mean_unbiased():
    estimates = [
        lhs_with_marginals(10, [Normal(0, 1)], np.random.default_rng(s)).points.mean()
        for s in range(1000)
    ]
    estimates = np.array(estimates)
    se = estimates.std(ddof=1) / np.sqrt(len(estimates))
    assert abs(estimates.mean()) < 3 * se


def test_identity_copula_equals_no_copula():
    marginals = [Normal(0, 1), Uniform(7, 9)]
    rng_a, rng_b = np.random.default_rng(42), np.random.default_rng(42)
    a = lhs_with_marginals(8, marginals, rng_a, copula=gaussian_copula(np.eye(2)))
    b = lhs_with_marginals(8, marginals, rng_b)
    assert np.array_equal(a.points, b.points)
    assert (a.scheme, b.scheme) == ("lhsd", "lhs")
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_lhsd_copula_dimension_must_match_marginals():
    with pytest.raises(DimensionError):
        lhs_with_marginals(4, [Normal(0, 1)], np.random.default_rng(0),
                           copula=gaussian_copula(np.eye(2)))


def test_lhsd_reproduces_correlation():
    cop = gaussian_copula([[1.0, 0.8], [0.8, 1.0]])
    design = lhs_with_marginals(10_000, [Normal(0, 1), Normal(0, 1)], np.random.default_rng(4),
                                copula=cop)
    rho = np.corrcoef(design.points, rowvar=False)[0, 1]
    assert rho == pytest.approx(0.8, abs=0.03)


def test_lhsd_first_coordinate_keeps_stratification():
    cop = gaussian_copula([[1.0, 0.8], [0.8, 1.0]])
    marginals = [Uniform(0, 1), Uniform(0, 1)]
    design = lhs_with_marginals(20, marginals, np.random.default_rng(5), copula=cop)
    assert is_stratified(design.points[:, 0], 20)


def old_lhs_with_marginals(n, marginals, rng, column_roles):
    """The LHS builder without a copula, as it stood before it took one."""
    marginals = list(marginals)
    base = unit_lhs(n, len(marginals), rng)
    points = np.column_stack([marg.quantile(base[:, j]) for j, marg in enumerate(marginals)])
    return Design(points, np.full(n, 1.0 / n), "lhs", column_roles)


def old_lhsd(n, copula, marginals, rng, column_roles):
    """The separate LHSD builder the copula option replaced."""
    marginals = list(marginals)
    if copula.d != len(marginals):
        raise DimensionError("copula dimension does not match the marginals")
    dependent = conditional_inverse(copula, unit_lhs(n, copula.d, rng))
    points = np.column_stack(
        [marg.quantile(dependent[:, j]) for j, marg in enumerate(marginals)]
    )
    return Design(points, np.full(n, 1.0 / n), "lhsd", column_roles)


@st.composite
def correlations(draw, d):
    """A random positive-definite correlation matrix in dimension d."""
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d, max_size=d * d))
    a = np.array(entries).reshape(d, d)
    cov = a @ a.T + 0.1 * np.eye(d)
    scale = np.sqrt(np.diag(cov))
    corr = cov / np.outer(scale, scale)
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return corr


LAWS = [Normal(0, 1), Uniform(7, 9), Normal(3, 0.5), Uniform(-1, 1)]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), d=st.integers(1, 3),
       with_copula=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_lhs_builder_matches_the_separate_lhs_and_lhsd_builders(data, n, d, with_copula, seed):
    marginals = [LAWS[k] for k in data.draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))]
    roles = tuple(f"c{j}" for j in range(d))
    copula = gaussian_copula(data.draw(correlations(d))) if with_copula else None
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got = lhs_with_marginals(n, marginals, rng_got, copula=copula, column_roles=roles)
    if copula is None:
        want = old_lhs_with_marginals(n, marginals, rng_want, roles)
    else:
        want = old_lhsd(n, copula, marginals, rng_want, roles)
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.weights, want.weights)
    assert got.scheme == want.scheme
    assert got.column_roles == want.column_roles
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


def test_rq_with_one_cell_per_point_is_a_pool_permutation(rng):
    pool = CandidatePool(np.array([[0.0], [1.0], [5.0], [9.0]]))
    q = lloyd(pool, 4, rng)
    design = qlhs_design([(q, pool)], [], rng)
    assert sorted(design.points.ravel()) == pool.points.ravel().tolist()
    assert design.weights.tolist() == pytest.approx([0.25] * 4)


def cells_of(points, quantizer):
    """Voronoi cell of each row: the nearest centroid, ties to the lowest index."""
    return cdist(points, quantizer.centroids, "sqeuclidean").argmin(axis=1)


def test_rq_rows_close_over_their_cells(rng):
    pool = CandidatePool(np.random.default_rng(6).standard_normal((400, 2)))
    q = lloyd(pool, 10, rng)
    design = qlhs_design([(q, pool)], [], rng)
    assert np.array_equal(cells_of(design.points, q), np.arange(q.n_cells))


def per_cell_loop(quantizer, rng):
    """Pool rows of an rq design drawn one cell at a time: the reference for
    the join's single vector draw of a block."""
    rows = []
    for i in range(quantizer.n_cells):
        members = np.flatnonzero(quantizer.pool_assignment == i)
        rows.append(members[rng.integers(members.size)])
    return np.array(rows)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 80), d=st.integers(1, 3), cells=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_rq_join_matches_the_per_cell_loop(m, d, cells, seed):
    pool = CandidatePool(np.random.default_rng(seed).standard_normal((m, d)))
    q = lloyd(pool, min(cells, m), np.random.default_rng(seed), restarts=1, max_iter=10)
    rng, reference_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    design = qlhs_design([(q, pool)], [], rng)
    assert np.array_equal(design.points, pool.points[per_cell_loop(q, reference_rng)])
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert np.array_equal(cells_of(design.points, q), np.arange(q.n_cells))


def test_rq_draws_uniformly_within_a_cell(four_point_pool):
    q = lloyd(four_point_pool, 2, np.random.default_rng(1))
    lower = int(np.argmin(q.centroids.ravel()))
    rng = np.random.default_rng(2)
    draws = np.array([qlhs_design([(q, four_point_pool)], [], rng).points[lower, 0]
                      for _ in range(10_000)])
    freq = np.mean(draws == 0.0)
    assert abs(freq - 0.5) < 0.02


def test_rq_rejects_a_pool_of_another_size(four_point_pool, rng):
    q = lloyd(four_point_pool, 2, rng)
    with pytest.raises(DimensionError):
        qlhs_design([(q, CandidatePool(four_point_pool.points[:3]))], [], rng)


def test_rq_two_cells_picks_one_point_per_cluster(four_point_pool, rng):
    q = lloyd(four_point_pool, 2, rng)
    design = qlhs_design([(q, four_point_pool)], [], rng)
    values = design.points.ravel()
    assert sum(v < 5 for v in values) == 1 and sum(v > 5 for v in values) == 1


def test_qlhs_weights_come_from_the_dependent_block(four_point_pool, rng):
    q = lloyd(four_point_pool, 2, rng)
    design = qlhs_design([(q, four_point_pool)], [Uniform(0, 1)], rng)
    assert np.array_equal(design.weights, q.probabilities)
    assert design.scheme == "qlhs"


def test_qlhs_independent_block_keeps_stratification(rng):
    pool = CandidatePool(np.random.default_rng(7).standard_normal((500, 1)))
    q = lloyd(pool, 16, rng)
    design = qlhs_design([(q, pool)], [Uniform(0, 1), Uniform(2, 4)], rng)
    assert is_stratified(design.points[:, 1], 16)
    assert is_stratified((design.points[:, 2] - 2) / 2, 16)


def test_qlhs_single_cell(rng):
    pool = CandidatePool(np.array([[3.0], [3.5]]))
    q = lloyd(pool, 1, rng)
    design = qlhs_design([(q, pool)], [Uniform(0, 1)], rng)
    assert design.n == 1
    assert design.weights.tolist() == [1.0]


def test_q2lhs_weights_are_probability_products(rng):
    pool_x = CandidatePool(np.array([[0.0], [1.0], [5.0], [9.0]]))
    pool_y = CandidatePool(np.array([[2.0], [4.0], [6.0], [8.0]]))
    qx = lloyd(pool_x, 4, rng)
    qy = lloyd(pool_y, 4, rng)
    design = qlhs_design([(qx, pool_x), (qy, pool_y)], [], rng)
    assert design.weights.tolist() == pytest.approx([1 / 16] * 4)
    assert design.weights.sum() <= 1.0 + 1e-12


def test_q2lhs_blocks_close_over_their_cells(rng):
    pool_x = CandidatePool(np.random.default_rng(8).standard_normal((300, 1)))
    pool_y = CandidatePool(np.random.default_rng(9).standard_normal((300, 2)))
    qx = lloyd(pool_x, 6, rng)
    qy = lloyd(pool_y, 6, rng)
    design = qlhs_design([(qx, pool_x), (qy, pool_y)], [], rng)
    pi = cells_of(design.points[:, 1:], qy)
    assert sorted(pi) == list(range(6))  # the y block is matched by a permutation
    assert np.array_equal(cells_of(design.points[:, :1], qx), np.arange(6))
    for i in range(6):
        assert design.weights[i] == pytest.approx(
            qx.probabilities[i] * qy.probabilities[pi[i]]
        )


def test_q2lhs_mismatched_cell_counts(rng):
    pool = CandidatePool(np.random.default_rng(10).standard_normal((100, 1)))
    qa = lloyd(pool, 4, rng)
    qb = lloyd(pool, 5, rng)
    with pytest.raises(ConfigError):
        qlhs_design([(qa, pool), (qb, pool)], [], rng)


def test_q2lhs_permutation_is_uniform():
    # recover the permutation from the y-block cell labels over many draws
    pool = CandidatePool(np.array([[0.0], [10.0], [20.0], [30.0]]))
    q = lloyd(pool, 4, np.random.default_rng(11))
    counts = {}
    rng = np.random.default_rng(12)
    n_draws = 10_000
    for _ in range(n_draws):
        design = qlhs_design([(q, pool), (q, pool)], [], rng)
        pi = tuple(cells_of(design.points[:, 1:], q).tolist())
        counts[pi] = counts.get(pi, 0) + 1
    assert len(counts) == 24
    for pi in itertools.permutations(range(4)):
        assert abs(counts.get(tuple(pi), 0) / n_draws - 1 / 24) < 0.01


def test_join_requires_a_quantized_block(rng):
    with pytest.raises(ConfigError):
        qlhs_design([], [Uniform(0, 1)], rng)


def test_q2lhs_checks_every_block(rng):
    # q2lhs weights need not sum to one, so only the join's own block checks
    # catch a bad second block
    pool = CandidatePool(np.random.default_rng(14).standard_normal((50, 1)))
    q = lloyd(pool, 4, rng)
    heavy = replace(q, probabilities=q.probabilities * 1.5)
    with pytest.raises(ParameterError, match="sum to 1"):
        qlhs_design([(q, pool), (heavy, pool)], [], rng)
    with pytest.raises(DimensionError, match="pool does not match"):
        qlhs_design([(q, pool), (q, CandidatePool(pool.points[:40]))], [], rng)


# The per-scheme builders the join replaced, kept as oracles of its draws;
# each block draws its cells one at a time.
def rq_only_oracle(blocks, marginals, rng, roles):
    ((q, pool),) = blocks
    return Design(pool.points[per_cell_loop(q, rng)], q.probabilities, "rq", roles)


def qlhs_oracle(blocks, marginals, rng, roles):
    ((q, pool),) = blocks
    dep = pool.points[per_cell_loop(q, rng)]
    indep = lhs_with_marginals(q.n_cells, marginals, rng)
    pi = rng.permutation(q.n_cells)
    return Design(np.hstack([dep, indep.points[pi]]), q.probabilities, "qlhs", roles)


def q2lhs_oracle(blocks, marginals, rng, roles):
    # no earlier builder joined two blocks and an LHS part; with marginals
    # this extends q2lhs by the join's order: parts first, then permutations
    (qx, pool_x), (qy, pool_y) = blocks
    n = qx.n_cells
    dep_x = pool_x.points[per_cell_loop(qx, rng)]
    dep_y = pool_y.points[per_cell_loop(qy, rng)]
    indep = lhs_with_marginals(n, marginals, rng) if marginals else None
    pi = rng.permutation(n)
    points = [dep_x, dep_y[pi]]
    if indep is not None:
        points.append(indep.points[rng.permutation(n)])
    weights = qx.probabilities * qy.probabilities[pi]
    return Design(np.hstack(points), weights, "q2lhs", roles)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12), dims=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       n_indep=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_join_matches_the_per_scheme_builders(n, dims, n_indep, seed):
    fit = np.random.default_rng(seed)
    blocks = []
    for d in dims:
        pool = CandidatePool(fit.standard_normal((2 * n + 3, d)))
        blocks.append((lloyd(pool, n, fit, max_iter=20, restarts=1), pool))
    marginals = [Uniform(0, 1), Normal(2, 3), Uniform(-4, -1)][:n_indep]
    roles = tuple(f"c{j}" for j in range(sum(dims) + n_indep))
    if len(blocks) == 2:
        oracle = q2lhs_oracle
    else:
        oracle = qlhs_oracle if marginals else rq_only_oracle
    rng_join, rng_oracle = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = qlhs_design(blocks, marginals, rng_join, column_roles=roles)
    want = oracle(blocks, marginals, rng_oracle, roles)
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.weights, want.weights)
    assert got.scheme == want.scheme
    assert got.column_roles == want.column_roles
    assert rng_join.bit_generator.state == rng_oracle.bit_generator.state


@pytest.mark.parametrize("builder", ["lhs", "lhsd", "rq", "qlhs", "q2lhs", "mc"])
def test_seed_determinism_bit_identical(builder, four_point_pool):
    def build(seed):
        rng = np.random.default_rng(seed)
        if builder == "lhs":
            return lhs_with_marginals(6, [Normal(0, 1)], rng)
        if builder == "lhsd":
            cop = gaussian_copula([[1.0, 0.4], [0.4, 1.0]])
            return lhs_with_marginals(6, [Normal(0, 1), Uniform(0, 1)], rng, copula=cop)
        if builder == "mc":
            return mc_design(rng.standard_normal((6, 2)))
        q = lloyd(four_point_pool, 2, rng)
        if builder == "rq":
            return qlhs_design([(q, four_point_pool)], [], rng)
        if builder == "qlhs":
            return qlhs_design([(q, four_point_pool)], [Uniform(0, 1)], rng)
        return qlhs_design([(q, four_point_pool), (q, four_point_pool)], [], rng)

    a, b = build(777), build(777)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.weights, b.weights)


def test_design_csv_export(tmp_path):
    design = unit_design(3, 2, np.random.default_rng(13), column_roles=("a", "b"))
    path = tmp_path / "design.csv"
    design.to_csv(path, header_comments=("config_hash=deadbeef seed=13",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=deadbeef seed=13"
    assert lines[1] == "a,b,weight"
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert np.array_equal(parsed[:, :2], design.points)
    assert np.array_equal(parsed[:, 2], design.weights)

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qdoe import (
    CandidatePool,
    ConfigError,
    DimensionError,
    ParameterError,
    Quantizer,
    assign,
    distortion,
    lloyd,
    load_pool,
    load_quantizer,
    save_pool,
    save_quantizer,
)


def exhaustive_two_cell_oracle(points_1d):
    """Best 2-cell quantizer of a tiny 1-d pool by enumerating every
    2-part assignment; centroids are the part means."""
    pts = np.asarray(points_1d, dtype=float)
    best = None
    for bits in itertools.product([0, 1], repeat=len(pts)):
        mask = np.array(bits, dtype=bool)
        if mask.all() or (~mask).all():
            continue
        c0, c1 = pts[mask].mean(), pts[~mask].mean()
        dist = np.minimum((pts - c0) ** 2, (pts - c1) ** 2).mean()
        if best is None or dist < best[0]:
            best = (dist, sorted([c0, c1]))
    return best


def test_single_cell_centroid_is_pool_mean(rng):
    pool = CandidatePool(np.array([[0.0], [2.0]]))
    q = lloyd(pool, 1, rng)
    assert q.centroids.ravel().tolist() == pytest.approx([1.0])
    assert q.probabilities.tolist() == [1.0]


def test_two_cluster_pool_matches_exhaustive_oracle(four_point_pool, rng):
    oracle_dist, oracle_centroids = exhaustive_two_cell_oracle(
        four_point_pool.points.ravel()
    )
    assert oracle_centroids == pytest.approx([0.05, 10.05])
    q = lloyd(four_point_pool, 2, rng)
    assert sorted(q.centroids.ravel().tolist()) == pytest.approx(oracle_centroids, abs=1e-12)
    assert q.probabilities.tolist() == pytest.approx([0.5, 0.5])
    assert q.distortion == pytest.approx(oracle_dist, abs=1e-15)
    # hand computation: every point sits 0.05 from its centroid
    assert q.distortion == pytest.approx(0.0025, abs=1e-15)


def test_one_point_per_cell_gives_zero_distortion(rng):
    pool = CandidatePool(np.array([[0.0], [1.0], [5.0], [9.0]]))
    q = lloyd(pool, 4, rng)
    assert q.distortion == 0.0
    assert q.probabilities.tolist() == pytest.approx([0.25] * 4)


def test_assign_nearest_and_tie_break(rng):
    pool = CandidatePool(np.array([[0.0], [10.0]]))
    q = lloyd(pool, 2, rng)
    order = np.argsort(q.centroids.ravel())
    assert assign([1.0], q) == order[0]
    # exact tie between centroids 0 and 2 resolves to the lowest index
    pool2 = CandidatePool(np.array([[0.0], [2.0]]))
    q2 = lloyd(pool2, 2, rng)
    assert assign([1.0], q2) == 0


def test_assign_on_two_cluster_example(four_point_pool, rng):
    q = lloyd(four_point_pool, 2, rng)
    upper = int(np.argmax(q.centroids.ravel()))
    # direct distance comparison: 9.9 is 0.15 from 10.05, 9.85 from 0.05
    assert assign([9.9], q) == upper


def test_assign_dimension_mismatch(four_point_pool, rng):
    q = lloyd(four_point_pool, 2, rng)
    with pytest.raises(DimensionError):
        assign([1.0, 2.0], q)


def test_distortion_single_centroid():
    pool = CandidatePool(np.array([[0.0], [2.0]]))
    q = lloyd(pool, 1, np.random.default_rng(0))
    assert distortion(q, pool) == pytest.approx(1.0)


def test_too_many_cells_is_a_configuration_error(rng):
    pool = CandidatePool(np.array([[0.0], [0.0], [1.0]]))
    with pytest.raises(ConfigError):
        lloyd(pool, 3, rng)  # only two distinct points


def test_distortion_history_is_nonincreasing(rng):
    pool = CandidatePool(np.random.default_rng(3).standard_normal((2000, 2)))
    q = lloyd(pool, 40, rng, restarts=2)
    history = np.array(q.distortion_history)
    assert np.all(np.diff(history) <= 1e-12 * history[:-1] + 1e-15)


def test_empirical_stationarity_at_fixed_point(rng):
    pool = CandidatePool(np.random.default_rng(4).standard_normal((1500, 2)))
    q = lloyd(pool, 25, rng, rel_tol=0.0, max_iter=500)
    for i in range(q.n_cells):
        members = pool.points[q.pool_assignment == i]
        assert np.max(np.abs(members.mean(axis=0) - q.centroids[i])) < 1e-9


def test_probabilities_are_exact_pool_fractions(rng):
    pool = CandidatePool(np.random.default_rng(5).standard_normal((777, 3)))
    q = lloyd(pool, 10, rng)
    counts = np.bincount(q.pool_assignment, minlength=10)
    scaled = q.probabilities * pool.m
    assert np.array_equal(np.round(scaled), counts.astype(float))
    assert np.max(np.abs(scaled - counts)) < 1e-9
    assert abs(q.probabilities.sum() - 1.0) < 1e-12
    assert np.all(counts > 0)


def test_assignment_is_nearest_centroid(rng):
    pool = CandidatePool(np.random.default_rng(6).standard_normal((800, 2)))
    q = lloyd(pool, 15, rng)
    sq = ((pool.points[:, None, :] - q.centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(q.pool_assignment, sq.argmin(axis=1))


def test_centroids_pairwise_distinct(rng):
    pool = CandidatePool(np.random.default_rng(9).standard_normal((600, 2)))
    q = lloyd(pool, 20, rng)
    assert np.unique(q.centroids, axis=0).shape[0] == q.n_cells


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# finite float64 values; hypothesis draws -0.0, subnormals and extreme exponents
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_MATRICES = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=8), elements=_FINITE)
_EDGE_MATRIX = np.array([[-0.0, 5e-324], [1.7976931348623157e308, -2.2250738585072014e-308]])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(centroids=_EDGE_MATRIX, distortion=-0.0)
@given(centroids=_MATRICES, distortion=_FINITE)
def test_quantizer_save_load_round_trip(tmp_path, centroids, distortion):
    k = centroids.shape[0]
    q = Quantizer(centroids=centroids, probabilities=centroids[:, 0].copy(),
                  pool_assignment=np.arange(k, dtype=np.int64), distortion=distortion)
    path = tmp_path / "quantizer.csv"
    save_quantizer(q, path, header_comments=("origin=test",))
    loaded = load_quantizer(path)
    assert _same_bits(loaded.centroids, q.centroids)
    assert _same_bits(loaded.probabilities, q.probabilities)
    assert np.array_equal(loaded.pool_assignment, q.pool_assignment)
    assert _same_bits(np.float64(loaded.distortion), np.float64(distortion))


def test_tampered_quantizer_file_is_rejected(tmp_path, rng):
    pool = CandidatePool(np.random.default_rng(11).standard_normal((40, 1)))
    path = tmp_path / "quantizer.csv"
    save_quantizer(lloyd(pool, 5, rng), path)
    lines = path.read_text().splitlines()
    first_p = lines.index("probabilities") + 1
    first_a = lines.index("assignments") + 1
    for tampered, reason in (
        (lines[:first_p] + ["0.9"] + lines[first_p + 1:], "differ from the pool assignment"),
        (lines[:first_a] + ["0"] * (len(lines) - first_a), "4 of 5 cells hold no pool point"),
        (lines[:first_p] + ["abc"] + lines[first_p + 1:], f"line {first_p + 1}: cannot read 'abc'"),
    ):
        path.write_text("\n".join(tampered) + "\n")
        with pytest.raises(ParameterError, match=reason):
            load_quantizer(path).check_probabilities()


def test_quantizer_check_probabilities_accepts_lloyd_output(rng):
    pool = CandidatePool(np.random.default_rng(12).standard_normal((60, 2)))
    lloyd(pool, 6, rng).check_probabilities()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(points=_EDGE_MATRIX)
@given(points=_MATRICES)
def test_pool_save_load_round_trip(tmp_path, points):
    pool = CandidatePool(points)
    names = [f"c{j}" for j in range(pool.d)]
    path = tmp_path / "pool.csv"
    save_pool(pool, path, column_names=names)
    loaded, loaded_names = load_pool(path)
    assert loaded_names == names
    assert _same_bits(loaded.points, points)


def test_pool_file_with_an_unreadable_line_is_rejected(tmp_path):
    path = tmp_path / "pool.csv"
    for line in ("1.0,abc", "1.0"):
        path.write_text(f"# qdoe-pool v1\na,b\n0.0,0.5\n{line}\n")
        with pytest.raises(ParameterError, match=f"line 4: cannot read {line!r}"):
            load_pool(path)

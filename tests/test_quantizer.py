import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.spatial.distance import cdist

from qdoe import (
    CandidatePool,
    ConfigError,
    ParameterError,
    Quantizer,
    distortion,
    lloyd,
    load_pool,
    load_quantizer,
    save_pool,
    save_quantizer,
)
import qdoe.quantizer as quantizer_module
from qdoe.quantizer import (
    _cell_means,
    _fit,
    _full_pass,
    _kmeanspp,
    _nearest,
    _reassign,
    _slack,
    _squared_distances_to,
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


def nearest_cell(point, quantizer):
    return int(_nearest(np.array([point], dtype=float), quantizer.centroids)[0][0])


def test_nearest_cell_and_tie_break(rng):
    pool = CandidatePool(np.array([[0.0], [10.0]]))
    q = lloyd(pool, 2, rng)
    order = np.argsort(q.centroids.ravel())
    assert nearest_cell([1.0], q) == order[0]
    # exact tie between centroids 0 and 2 resolves to the lowest index
    pool2 = CandidatePool(np.array([[0.0], [2.0]]))
    q2 = lloyd(pool2, 2, rng)
    assert nearest_cell([1.0], q2) == 0


def test_nearest_cell_on_two_cluster_example(four_point_pool, rng):
    q = lloyd(four_point_pool, 2, rng)
    upper = int(np.argmax(q.centroids.ravel()))
    # direct distance comparison: 9.9 is 0.15 from 10.05, 9.85 from 0.05
    assert nearest_cell([9.9], q) == upper


def test_distortion_single_centroid():
    pool = CandidatePool(np.array([[0.0], [2.0]]))
    q = lloyd(pool, 1, np.random.default_rng(0))
    assert distortion(q, pool) == pytest.approx(1.0)


def test_too_many_cells_is_a_configuration_error(rng):
    pool = CandidatePool(np.array([[0.0], [0.0], [1.0]]))
    with pytest.raises(ConfigError):
        lloyd(pool, 3, rng)  # only two distinct points


@settings(max_examples=80, deadline=None)
@given(m=st.integers(2, 400), d=st.integers(1, 4), levels=st.sampled_from([None, 2, 3, 5, 20]),
       n_cells=st.integers(1, 40), rel_tol=st.sampled_from([0.0, 1e-8, 1e-3]),
       restarts=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(m=2000, d=2, levels=None, n_cells=40, rel_tol=1e-8, restarts=2, seed=3)
# fits that empty a cell mid-iteration and repair it (rare: about 1 in 65 000
# random fits of pools this small)
@example(m=10, d=2, levels=20, n_cells=5, rel_tol=0.0, restarts=1, seed=92271)
@example(m=12, d=2, levels=None, n_cells=6, rel_tol=0.0, restarts=1, seed=67385)
def test_distortion_history_is_nonincreasing(m, d, levels, n_cells, rel_tol, restarts, seed):
    # pools on a coarse grid repeat points; a fit asks for at most as many
    # cells as the pool has distinct points
    gen = np.random.default_rng(seed)
    points = (gen.standard_normal((m, d)) if levels is None
              else gen.integers(0, levels, size=(m, d)).astype(float))
    n_cells = min(n_cells, len(np.unique(points, axis=0)))
    q = lloyd(CandidatePool(points), n_cells, gen, rel_tol=rel_tol, restarts=restarts)
    history = np.array(q.distortion_history)
    assert np.all(np.isfinite(history))
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


# The arithmetic the quantizer core replaced: one full distance matrix,
# np.add.at cell sums and a fresh cdist column per seeding step. The core
# must reproduce it bit for bit.
def _reference_nearest(points, centroids):
    sq = cdist(points, centroids, "sqeuclidean")
    labels = np.argmin(sq, axis=1)
    return labels, sq[np.arange(points.shape[0]), labels]


def _reference_cell_means(points, labels, n_cells):
    sums = np.zeros((n_cells, points.shape[1]))
    np.add.at(sums, labels, points)
    return sums / np.bincount(labels, minlength=n_cells).astype(float)[:, None]


def _reference_squared_distances(points, i):
    return cdist(points, points[i][None], "sqeuclidean")[:, 0]


def _reference_kmeanspp(points, n_cells, rng):
    m = points.shape[0]
    chosen = [int(rng.integers(m))]
    d2 = _reference_squared_distances(points, chosen[0])
    for _ in range(1, n_cells):
        cumulative = np.cumsum(d2)
        idx = int(np.searchsorted(cumulative, rng.random() * cumulative[-1], side="right"))
        chosen.append(min(idx, m - 1))
        d2 = np.minimum(d2, _reference_squared_distances(points, idx))
    return points[chosen].copy()


@pytest.mark.parametrize("d", [1, 2, 3, 6, 7, 8, 9, 16, 17])
@pytest.mark.parametrize("order", ["C", "F", "strided"])
def test_seeding_and_cell_means_match_reference_arithmetic(d, order):
    if order == "strided":  # every other row and column of a C-ordered array
        points = np.random.default_rng(d).standard_normal((6000, 2 * d))[::2, ::2]
    else:
        points = np.asarray(np.random.default_rng(d).standard_normal((3000, d)), order=order)
    cols = np.ascontiguousarray(points.T)
    seeds = _kmeanspp(points, cols, 40, np.random.default_rng(11))
    assert _same_bits(seeds, _reference_kmeanspp(points, 40, np.random.default_rng(11)))
    # an ulp in a distance rarely moves a seed, so compare the distances too
    squared_distances = _squared_distances_to(cols)
    for i in (0, 1, 1234, points.shape[0] - 1):
        reference = _reference_squared_distances(points, i)
        assert _same_bits(squared_distances(i, np.empty(points.shape[0])), reference)
    labels, _ = _reference_nearest(points, seeds)
    assert _same_bits(_cell_means(points, labels, 40), _reference_cell_means(points, labels, 40))


def _layouts(points):
    """C-ordered, F-ordered and strided copies of one pool's values."""
    strided = np.zeros((2 * points.shape[0], 2 * points.shape[1]))
    strided[::2, ::2] = points
    return np.ascontiguousarray(points), np.asfortranarray(points), strided[::2, ::2]


@pytest.mark.parametrize("d", [3, 8, 17])
def test_seeding_does_not_depend_on_the_pool_layout(d):
    c_points, *others = _layouts(np.random.default_rng(d).standard_normal((3000, d)))
    expected = _squared_distances_to(np.ascontiguousarray(c_points.T))
    reference = lloyd(CandidatePool(c_points), 20, np.random.default_rng(5), restarts=2)
    for points in others:
        squared_distances = _squared_distances_to(np.ascontiguousarray(points.T))
        for i in (0, 1234, points.shape[0] - 1):
            assert _same_bits(squared_distances(i, np.empty(3000)), expected(i, np.empty(3000)))
        q = lloyd(CandidatePool(points), 20, np.random.default_rng(5), restarts=2)
        assert _same_bits(q.centroids, reference.centroids)
        assert _same_bits(q.pool_assignment, reference.pool_assignment)
        assert q.distortion_history == reference.distortion_history


def _reference_second(points, centroids):
    """Squared distance of each point to its second-nearest centroid."""
    sq = cdist(points, centroids, "sqeuclidean")
    sq[np.arange(points.shape[0]), sq.argmin(axis=1)] = np.inf
    return sq.min(axis=1)


# None: the rows the default float budget gives at 100 cells
@pytest.mark.parametrize("rows", [8192, 999, 7, 1, None])
def test_nearest_in_row_blocks_matches_full_matrix(monkeypatch, rows):
    points = np.random.default_rng(12).standard_normal((20_000, 6))
    centroids = points[:100].copy()
    if rows is None:
        rows = quantizer_module._NEAREST_FLOATS // 100
    else:
        monkeypatch.setattr(quantizer_module, "_NEAREST_FLOATS", rows * 100)
    ref_labels, ref_sq = _reference_nearest(points, centroids)
    ref_second = _reference_second(points, centroids)
    blocks = []

    def one_block_at_a_time(*args):
        # the distance block of the previous rows is freed before the next
        assert not blocks or blocks[-1]() is None
        out = cdist(*args)
        blocks.append(weakref.ref(out))
        return out

    monkeypatch.setattr(quantizer_module, "cdist", one_block_at_a_time)
    labels, sq, second = _nearest(points, centroids)
    assert _same_bits(labels, ref_labels) and _same_bits(sq, ref_sq)
    assert _same_bits(second, ref_second)
    assert float(sq.mean()) == float(ref_sq.mean())
    assert len(blocks) == -(-20_000 // rows)
    labels, sq, lower = _full_pass(points, centroids, _slack(6))
    assert _same_bits(labels, ref_labels) and _same_bits(sq, ref_sq)
    assert _same_bits(lower, np.sqrt(ref_second) * (1.0 - _slack(6)))


def test_nearest_memory_does_not_grow_with_the_cell_count():
    points = np.random.default_rng(13).standard_normal((20_000, 3))
    centroids = points[:1000].copy()
    tracemalloc.start()
    try:
        _nearest(points, centroids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # a 2 MB distance block and three (M,) results


def _reference_lloyd_once(points, n_cells, rng, max_iter, rel_tol):
    """Lloyd with a full distance matrix in every update, and its empty-cell
    repair: what the bounded assignment must reproduce bit for bit."""

    def repaired(centroids, labels, sq):
        empty = np.flatnonzero(np.bincount(labels, minlength=n_cells) == 0)
        repairs = empty.size
        while empty.size:
            donors = np.bincount(labels, minlength=n_cells)[labels] >= 2
            centroids[empty[0]] = points[np.where(donors, sq, -np.inf).argmax()]
            labels, sq = _reference_nearest(points, centroids)
            empty = np.flatnonzero(np.bincount(labels, minlength=n_cells) == 0)
        return centroids, labels, sq, repairs

    seeds = _reference_kmeanspp(points, n_cells, rng)
    centroids, labels, sq, repairs = repaired(seeds, *_reference_nearest(points, seeds))
    history = [float(sq.mean())]
    for _ in range(max_iter):
        centroids = _reference_cell_means(points, labels, n_cells)
        new_labels, sq = _reference_nearest(points, centroids)
        centroids, new_labels, sq, empty = repaired(centroids, new_labels, sq)
        repairs += empty
        history.append(float(sq.mean()))
        fixed_point = np.array_equal(new_labels, labels)
        labels = new_labels
        if fixed_point or (rel_tol > 0.0 and history[-2] > 0.0
                           and history[-2] - history[-1] <= rel_tol * history[-2]):
            return centroids, labels, history[-1], history, True, repairs
    return centroids, labels, history[-1], history, False, repairs


@pytest.mark.parametrize("m, d, levels, n_cells, seed",
                         [(10, 2, 20, 5, 92271), (12, 2, None, 6, 67385)])
def test_empty_cell_examples_repair_a_cell(m, d, levels, n_cells, seed):
    # the @example fits of the properties that empty a cell mid-iteration
    gen = np.random.default_rng(seed)
    points = (gen.standard_normal((m, d)) if levels is None
              else gen.integers(0, levels, size=(m, d)).astype(float))
    q = lloyd(CandidatePool(points), n_cells, gen, rel_tol=0.0, restarts=1)
    assert q.empty_cell_repairs > 0 and q.converged


@settings(max_examples=150, deadline=None)
@given(m=st.integers(2, 300), d=st.integers(1, 9), levels=st.sampled_from([None, 2, 3, 5, 20]),
       offset=st.sampled_from([0.0, 1e6]), midpoints=st.booleans(), order=st.sampled_from("CF"),
       n_cells=st.integers(1, 40), rel_tol=st.sampled_from([0.0, 1e-8, 1e-3]),
       seed=st.integers(0, 2**32 - 1))
@example(m=10, d=2, levels=20, offset=0.0, midpoints=False, order="C", n_cells=5, rel_tol=0.0,
         seed=92271)
@example(m=12, d=2, levels=None, offset=0.0, midpoints=False, order="C", n_cells=6, rel_tol=0.0,
         seed=67385)
def test_bounded_lloyd_matches_full_assignment(m, d, levels, offset, midpoints, order, n_cells,
                                               rel_tol, seed):
    # grid pools repeat points; with midpoints, the pool also holds points
    # halfway between two of its points (exactly so on a grid)
    gen = np.random.default_rng(seed)
    points = (gen.standard_normal((m, d)) if levels is None
              else gen.integers(0, levels, size=(m, d)).astype(float)) + offset
    if midpoints:
        i, j = gen.integers(0, m, size=(2, m))
        points = np.vstack([points, (points[i] + points[j]) / 2])
    points = np.asarray(points, order=order)
    n_cells = min(n_cells, len(np.unique(points, axis=0)))
    state = gen.bit_generator.state
    cols = np.ascontiguousarray(points.T)
    got = _fit(points, cols, _kmeanspp(points, cols, n_cells, gen), 200, rel_tol)
    gen.bit_generator.state = state
    want = _reference_lloyd_once(points, n_cells, gen, 200, rel_tol)
    assert _same_bits(got.centroids, want[0]) and _same_bits(got.pool_assignment, want[1])
    assert _same_bits(np.array(got.distortion_history), np.array(want[3]))
    assert got.distortion == want[2]
    assert (got.converged, got.empty_cell_repairs) == want[4:]


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 200), d=st.integers(1, 6), levels=st.sampled_from([None, 2, 3]),
       n_cells=st.integers(1, 20), restarts=st.integers(1, 4), max_iter=st.sampled_from([0, 3, 200]),
       rel_tol=st.sampled_from([0.0, 1e-8, 1e-3]), seed=st.integers(0, 2**32 - 1))
def test_lloyd_fits_the_seeds_of_every_restart_drawn_first(m, d, levels, n_cells, restarts,
                                                           max_iter, rel_tol, seed):
    # grid pools give restarts of equal distortion, where the first must win
    points = np.random.default_rng(seed).standard_normal((m, d))
    if levels is not None:
        points = np.floor(points * levels)
    n_cells = min(n_cells, len(np.unique(points, axis=0)))
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = lloyd(CandidatePool(points), n_cells, got_rng, max_iter, rel_tol, restarts)
    cols = np.ascontiguousarray(points.T)
    seeds = [_kmeanspp(points, cols, n_cells, want_rng) for _ in range(restarts)]
    fits = [_fit(points, cols, s, max_iter, rel_tol) for s in seeds]
    want = fits[int(np.argmin([q.distortion for q in fits]))]  # the first of equal ones
    for name in ("centroids", "probabilities", "pool_assignment"):
        assert _same_bits(getattr(got, name), getattr(want, name))
    assert got.distortion_history == want.distortion_history and got.distortion == want.distortion
    assert (got.converged, got.empty_cell_repairs) == (want.converged, want.empty_cell_repairs)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 9), k=st.integers(1, 30), m=st.integers(1, 200),
       grid=st.booleans(), offset=st.sampled_from([0.0, 1e6]), order=st.sampled_from("CF"),
       step=st.sampled_from([0.0, 1e-12, 1e-3, 1.0]), seed=st.integers(0, 2**32 - 1))
# a point within an ulp of a bisector keeps a wrong label in these two unless
# the bound tests leave a margin for rounding
@example(d=2, k=5, m=30, grid=False, offset=0.0, order="C", step=1e-12, seed=29)
@example(d=3, k=8, m=40, grid=False, offset=0.0, order="C", step=1e-3, seed=6)
def test_bounded_reassignment_matches_full_assignment(d, k, m, grid, offset, order, step, seed):
    # three centroid moves; the pool holds points halfway between two
    # centroids of every move (exactly so on a grid, else within an ulp)
    gen = np.random.default_rng(seed)
    centroids = (gen.integers(0, 4, size=(k, d)) if grid else gen.standard_normal((k, d))) + offset
    moves = []
    for _ in range(3):
        moves.append(centroids + (gen.integers(-1, 2, size=(k, d)) if grid
                                  else step * gen.standard_normal((k, d))))
    points = [gen.standard_normal((m, d)) + offset]
    for new in moves:
        i, j = gen.integers(0, k, size=(2, m))
        points.append((new[i] + new[j]) / 2)
    points = np.asarray(np.vstack(points), order=order)
    slack = _slack(d)
    labels, sq, lower = _full_pass(points, centroids, slack)
    old = centroids
    for new in moves:
        labels, sq, lower = _reassign(points, np.ascontiguousarray(points.T), old, new,
                                      labels, lower, slack)
        ref_labels, ref_sq = _reference_nearest(points, new)
        assert _same_bits(labels, ref_labels) and _same_bits(sq, ref_sq)
        # the bounds still hold every other centroid's distance from below
        assert np.all(lower <= np.sqrt(_reference_second(points, new)))
        old = new


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
    claims = lines.index("centroids") - 1

    def claimed(text):
        return lines[:claims] + [f"# {text}"] + lines[claims + 1:]

    assert lines[claims].startswith("# n_cells=5 d=1 pool_size=40 ")
    for tampered, reason in (
        (lines[:first_p] + ["0.9"] + lines[first_p + 1:], "differ from the pool assignment"),
        (lines[:first_a] + ["0"] * (len(lines) - first_a), "4 of 5 cells hold no pool point"),
        (lines[:first_p] + ["abc"] + lines[first_p + 1:], f"line {first_p + 1}: cannot read 'abc'"),
        (claimed("n_cells=7 d=9 pool_size=1000"),
         "header claims n_cells=7, the file holds 5 centroid rows"),
        (claimed("n_cells=5 d=2 pool_size=40"), "header claims d=2, the file holds 1 centroid col"),
        (claimed("n_cells=5 d=1 pool_size=41"), "header claims pool_size=41, the file holds 40 as"),
        (claimed("distortion=0.5"), r"header claims n_cells=\(none\)"),
        (claimed("n_cells=5 d=1 pool_size=40 distortion=0.5"), "distortion 0.5 differs"),
    ):
        path.write_text("\n".join(tampered) + "\n")
        with pytest.raises(ParameterError, match=reason):
            load_quantizer(path).check(pool)


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 150), d=st.integers(1, 9), levels=st.sampled_from([None, 3, 20]),
       n_cells=st.integers(1, 25), max_iter=st.sampled_from([1, 2, 200]),
       rel_tol=st.sampled_from([0.0, 1e-8]), seed=st.integers(0, 2**32 - 1))
# the fits of test_empty_cell_examples_repair_a_cell, which repair an empty cell
@example(m=10, d=2, levels=20, n_cells=5, max_iter=200, rel_tol=0.0, seed=92271)
@example(m=12, d=2, levels=None, n_cells=6, max_iter=200, rel_tol=0.0, seed=67385)
def test_lloyd_output_passes_check(m, d, levels, n_cells, max_iter, rel_tol, seed):
    # max_iter 1 and 2 leave most fits capped; grid pools repeat points, so
    # distances tie
    gen = np.random.default_rng(seed)
    points = (gen.standard_normal((m, d)) if levels is None
              else gen.integers(0, levels, size=(m, d)).astype(float))
    pool = CandidatePool(points)
    n_cells = min(n_cells, len(np.unique(points, axis=0)))
    q = lloyd(pool, n_cells, gen, max_iter=max_iter, rel_tol=rel_tol, restarts=1)
    q.check(pool)
    with pytest.raises(ParameterError):
        Quantizer(q.centroids, q.probabilities, q.pool_assignment, q.distortion + 1.0).check(pool)


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


# ---------------------------------------------------------------------------
# output files: the exact text of every writer

def _write_design(tmp_path, monkeypatch):
    from qdoe import Design
    path = tmp_path / "design.csv"
    Design(points=[[0.1, -0.0], [1 / 3, 2.5e-05]], weights=[0.5, 0.5], scheme="mc",
           column_roles=("a", "b")).to_csv(path, header_comments=("config_hash=abc seed=1",))
    return path


def _write_pool(tmp_path, monkeypatch):
    path = tmp_path / "pool.csv"
    save_pool(CandidatePool([[0.1, 1e300], [-2.0, 5e-324]]), path, column_names=["p", "q"],
              header_comments=("seed=1",))
    return path


def _write_quantizer(tmp_path, monkeypatch):
    path = tmp_path / "quantizer.csv"
    save_quantizer(Quantizer(centroids=np.array([[0.1, 1.0], [2.0, -0.5]]),
                             probabilities=np.array([0.75, 0.25]),
                             pool_assignment=np.array([0, 0, 1, 0]), distortion=0.125),
                   path, header_comments=("group=g",))
    return path


def _write_correlation(tmp_path, monkeypatch):
    from qdoe.copula import correlation_to_csv, gaussian_copula
    path = tmp_path / "correlation.csv"
    correlation_to_csv(gaussian_copula([[1.0, 0.5], [0.5, 1.0]]), path, column_names=["u", "v"],
                       header_comments=("seed=1",))
    return path


def _run(tmp_path, monkeypatch, command, **raw):
    import json
    from qdoe.cli import main
    monkeypatch.chdir(tmp_path)  # the relative output_dir enters the config hash
    (tmp_path / "config.json").write_text(json.dumps({"version": 1, "seed": 3, **raw}))
    assert main([command, "--config", "config.json", "--threads", "1"]) == 0


def _write_estimate_table(tmp_path, monkeypatch):
    _run(tmp_path, monkeypatch, "estimate", scheme="mc", n=2, repetitions=2,
         model={"name": "square"}, output_dir="out")
    return tmp_path / "out" / "estimates_mc_square_n2.csv"


def _write_screening_table(tmp_path, monkeypatch):
    import qdoe.runner
    from qdoe.hsic import ScreenResult

    def fixed_screen(design, outputs, named, **_):  # the table, not the statistics
        return [ScreenResult(name, 1 / 3 * (i + 1), 0.5 ** (i + 1), i == 0)
                for i, (name, _) in enumerate(named)]

    monkeypatch.setattr(qdoe.runner, "screen", fixed_screen)
    _run(tmp_path, monkeypatch, "hsic", scheme="mc", n=4, model={"name": "x2y"},
         test={"permutations": 100}, output_dir="out")
    return tmp_path / "out" / "screening_mc_x2y_n4.csv"


@pytest.mark.parametrize("write, expected", [
    (_write_design,
     "# config_hash=abc seed=1\na,b,weight\n0.1,-0.0,0.5\n0.3333333333333333,2.5e-05,0.5\n"),
    (_write_pool, "# qdoe-pool v1\n# seed=1\np,q\n0.1,1e+300\n-2.0,5e-324\n"),
    (_write_quantizer,
     "# qdoe-quantizer v1\n# group=g\n# n_cells=2 d=2 pool_size=4 distortion=0.125\n"
     "centroids\n0.1,1.0\n2.0,-0.5\nprobabilities\n0.75\n0.25\nassignments\n0\n0\n1\n0\n"),
    (_write_correlation, "# qdoe-correlation v1\n# seed=1\n,u,v\nu,1.0,0.5\nv,0.5,1.0\n"),
    (_write_estimate_table,
     "# config_hash=31bd47e6c25ad5c7 seed=3\n# scheme=mc model=square n=2\nseed,estimate\n"
     "3,1.1925297601696312\n4,1.2501162954434404\n"),
    (_write_screening_table,
     "# config_hash=ddcc0117cdcff952 seed=3\n"
     "# scheme=mc model=x2y n=4 permutations=100 alpha=0.05\ninput,hsic,p_value,decision\n"
     "x,0.3333333333333333,0.5,dependent\ny,0.6666666666666666,0.25,independent\n"),
], ids=["design", "pool", "quantizer", "correlation", "estimate table", "screening table"])
def test_every_writer_writes_the_pinned_text(tmp_path, monkeypatch, write, expected):
    assert write(tmp_path, monkeypatch).read_bytes().decode("utf-8") == expected

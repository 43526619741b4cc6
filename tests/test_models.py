import numpy as np
import pytest
from scipy.special import betaincinv
from scipy.stats import beta

from qdoe import ConfigError, DimensionError, DomainError, ParameterError
from qdoe.distributions import Uniform
from qdoe.models import (
    MODEL_NAMES,
    InputGroup,
    build_model,
    flood_evaluate,
    vg_conductivity,
    vg_pool,
    vg_pool_from_sample,
    vg_theta,
)
from qdoe.designs import rq_design
from qdoe.quantizer import lloyd


def toy(name, row):
    return build_model(name).evaluate(np.array([row], dtype=float))[0]


def flood(row):
    return flood_evaluate(np.array([row], dtype=float))[0]


def test_toy_values():
    assert toy("square", [3.0]) == 9.0
    assert toy("xy2py2", [0.0, 2.0]) == 4.0
    assert toy("x1px2_sq_y", [1.0, 1.0, 0.5]) == 2.0
    assert toy("x1x2", [2.0, 3.0]) == 6.0
    assert toy("x2y", [2.0, 0.5]) == 2.0


def test_toy_arity_mismatch():
    with pytest.raises(DimensionError):
        toy("square", [1.0, 2.0])
    with pytest.raises(ConfigError):
        toy("cube", [1.0])


def test_flood_hand_computed_value():
    # independent arithmetic on the closed form at central inputs
    q, ks, zv, zm, hd, cb, length, width = 1013, 30, 50, 55, 8, 55.5, 5000, 300
    h = (q / (width * ks * np.sqrt((zm - zv) / length))) ** 0.6
    expected = zv + h - hd - cb
    assert flood([q, ks, zv, zm, hd, cb, length, width]) == pytest.approx(
        expected, abs=1e-12
    )


def test_flood_radical_invariance():
    base = [1013, 30, 50, 55, 8, 55.5, 5000, 300]
    scaled = [1013, 30, 50, 50 + 4 * 5, 8, 55.5, 4 * 5000, 300]
    assert flood(base) + 55.5 + 8 - 50 == pytest.approx(
        flood(scaled) + 55.5 + 8 - 50, rel=1e-12
    )


def test_flood_height_homogeneous_in_flow():
    row = np.array([1013, 30, 50, 55, 8, 55.5, 5000, 300.0])
    row2 = row.copy()
    row2[0] *= 2
    h1 = flood(row) - 50 + 8 + 55.5
    h2 = flood(row2) - 50 + 8 + 55.5
    assert h2 / h1 == pytest.approx(2**0.6, abs=1e-12)


def test_flood_domain_error_names_row():
    rows = np.array(
        [
            [1013, 30, 50, 55, 8, 55.5, 5000, 300.0],
            [1013, 30, 56, 55, 8, 55.5, 5000, 300.0],  # Zm <= Zv
        ]
    )
    with pytest.raises(DomainError, match="row 1"):
        flood_evaluate(rows)


def test_vg_theta_limits_and_plug_in():
    assert vg_theta(0.0, 0.05, 0.45, 2.0, 2.0) == 0.45
    assert vg_theta(1e9, 0.05, 0.45, 1.0, 2.0) - 0.05 < 1e-6
    assert vg_theta(0.5, 0.05, 0.45, 2.0, 2.0) == pytest.approx(
        0.05 + 0.4 / np.sqrt(2.0), abs=1e-15
    )


def test_vg_theta_parameter_validation():
    with pytest.raises(ParameterError):
        vg_theta(1.0, 0.5, 0.4, 1.0, 2.0)  # theta_r >= theta_s
    with pytest.raises(ParameterError):
        vg_theta(1.0, 0.05, 0.45, -1.0, 2.0)
    with pytest.raises(ParameterError):
        vg_theta(1.0, 0.05, 0.45, 1.0, 1.0)  # n must exceed 1


def test_vg_conductivity_limits():
    assert vg_conductivity(0.0, 0.05, 0.45, 1.0, 2.0, 3.5e-5) == 3.5e-5
    assert vg_conductivity(1e6, 0.05, 0.45, 1.0, 2.0, 3.5e-5) < 1e-12 * 3.5e-5


def test_vg_conductivity_matches_inline_arithmetic():
    h, tr, ts, alpha, n, ksat = 0.8, 0.05, 0.45, 2.0, 1.8, 2e-5
    theta = tr + (ts - tr) / (1 + (alpha * h) ** n) ** (1 - 1 / n)
    s = (theta - tr) / (ts - tr)
    m = 1 - 1 / n
    expected = ksat * np.sqrt(s) * (1 - (1 - s ** (1 / m)) ** m) ** 2
    assert vg_conductivity(h, tr, ts, alpha, n, ksat) == pytest.approx(expected, rel=1e-12)


def test_vg_theta_monotone_and_bounded():
    grid = np.logspace(-4, 2, 100)
    values = vg_theta(grid, 0.05, 0.45, 2.0, 1.6)
    assert np.all(np.diff(values) < 0)
    assert np.all((values >= 0.05) & (values <= 0.45))


def test_vg_conductivity_nonincreasing():
    grid = np.logspace(-4, 2, 100)
    values = vg_conductivity(grid, 0.05, 0.45, 2.0, 1.6, 1e-5)
    assert np.all(np.diff(values) <= 0)


def test_vg_pool_rows_are_physically_valid():
    pool = vg_pool(100_000, np.random.default_rng(0))
    tr, ts, alpha, n, ksat = pool.points.T
    assert np.all(tr >= 0) and np.all(tr < ts)
    assert np.all(alpha > 0) and np.all(n > 1) and np.all(ksat > 0)


def test_beta_2_2_quantile_is_betaincinv_bit_for_bit():
    # the retention generator's Beta(2, 2) quantile, without scipy.stats
    u = np.concatenate([np.random.default_rng(8).random(100_000),
                        [0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0]])
    assert betaincinv(2.0, 2.0, u).tobytes() == beta.ppf(u, 2.0, 2.0).tobytes()


def test_vg_pool_has_nondegenerate_correlations():
    pool = vg_pool(100_000, np.random.default_rng(1))
    corr = np.corrcoef(pool.points, rowvar=False)
    off = np.abs(corr[~np.eye(5, dtype=bool)])
    assert off.max() > 0.1


def test_vg_pool_from_sample_filters_and_counts():
    good = vg_pool(10, np.random.default_rng(2)).points
    bad = good.copy()
    bad[0, 0] = bad[0, 1] + 0.1  # theta_r above theta_s
    bad[3, 3] = 0.9  # n below 1
    pool, rejected = vg_pool_from_sample(np.vstack([good, bad]))
    assert rejected == 2
    assert pool.m == 18
    with pytest.raises(ParameterError):
        vg_pool_from_sample(np.zeros((3, 5)))


def test_quantized_retention_curves_stay_bounded():
    pool = vg_pool(2000, np.random.default_rng(3))
    quantizer = lloyd(pool, 10, np.random.default_rng(4), restarts=1, max_iter=30)
    grid = np.logspace(-4, 2, 50)
    design = rq_design(quantizer, pool, np.random.default_rng(5))
    for tr, ts, alpha, n, _ in design.points:
        curve = vg_theta(grid, tr, ts, alpha, n)
        assert np.all((curve >= tr) & (curve <= ts))


def test_model_registry():
    assert set(MODEL_NAMES) >= {
        "square", "x1x2", "x2y", "x1px2_sq_y", "xy2py2",
        "flood", "vg_theta", "vg_conductivity", "synthetic_screen",
    }
    with pytest.raises(ConfigError):
        build_model("no_such_model")


def test_model_schemas_are_consistent():
    for name in MODEL_NAMES:
        model = build_model(name)
        group_columns = [c for g in model.groups for c in g.columns]
        assert sorted(group_columns) == sorted(model.columns)


def test_vg_model_params():
    model = build_model("vg_theta", {"h": 0.0})
    rows = vg_pool(5, np.random.default_rng(6)).points
    assert np.allclose(model.evaluate(rows), rows[:, 1])  # theta(0) = theta_s


def test_input_group_fields_must_fit_its_columns():
    # a 3-column pool behind 2 columns, and a 3x3 correlation behind 2 columns
    with pytest.raises(ConfigError, match="sample matrix of 2 columns"):
        InputGroup("g", ("a", "b"), "pool", pool_points=np.zeros((10, 3)))
    with pytest.raises(ConfigError, match="2x2 correlation"):
        InputGroup("g", ("a", "b"), "copula", marginals=(Uniform(0, 1),) * 2,
                   correlation=np.eye(3))
    with pytest.raises(ConfigError, match="not positive definite"):
        InputGroup("g", ("a", "b"), "copula", marginals=(Uniform(0, 1),) * 2,
                   correlation=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_vg_model_accepts_external_pool(tmp_path):
    from qdoe.quantizer import save_pool

    pool = vg_pool(40, np.random.default_rng(7))
    path = tmp_path / "vg_pool.csv"
    save_pool(pool, path, column_names=("theta_r", "theta_s", "alpha", "n", "k_sat"))
    model = build_model("vg_theta", {"pool_csv": str(path)})
    group = model.groups[0]
    assert group.kind == "pool"
    assert np.array_equal(group.pool_points, pool.points)

import ast
import dataclasses
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betaincinv
from scipy.stats import beta

import qdoe
from qdoe import ConfigError, DimensionError, DomainError, ParameterError
from qdoe.distributions import Gumbel, LogNormal, Normal, Triangular, Truncated, Uniform
from qdoe.models import (
    MODEL_NAMES,
    VG_COLUMNS,
    InputGroup,
    _vg_marginal_transform,
    _vg_valid,
    build_model,
    flood_evaluate,
    inline_groups,
    vg_conductivity,
    vg_pool,
    vg_pool_from_sample,
    vg_theta,
)
from qdoe.designs import qlhs_design
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", range(5), ids=VG_COLUMNS)
def test_vg_evaluators_reject_non_finite_parameters(column, bad):
    # the evaluators check the rule that drops a pool row
    row = [0.05, 0.45, 2.0, 1.6, 1e-5]
    row[column] = bad
    assert not _vg_valid(*row)
    assert vg_pool_from_sample([row, [0.05, 0.45, 2.0, 1.6, 1e-5]])[1] == 1
    with pytest.raises(ParameterError):
        vg_conductivity(1.0, *row)
    if column < 4:
        with pytest.raises(ParameterError):
            vg_theta(1.0, *row[:4])


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


def test_vg_marginal_transform_is_valid_at_the_corners_of_the_unit_cube():
    # vg_pool keeps every row it draws; the extreme rows show that none can
    # fail the validity check that vg_pool_from_sample applies
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=5)))
    rows = _vg_marginal_transform(corners)
    assert np.all(_vg_valid(*rows.T))
    assert rows[:, 3].min() > 1.02 and rows[:, 4].min() > 8e-9


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
    design = qlhs_design([(quantizer, pool)], [], np.random.default_rng(5))
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


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_every_model_rejects_rows_of_another_width(name):
    model = build_model(name)
    for width in (len(model.columns) - 1, len(model.columns) + 1):
        with pytest.raises(DimensionError, match=f"expects {len(model.columns)} "):
            model.evaluate(np.ones((3, width)))


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


# ---------------------------------------------------------------------------
# marginal declarations of inline groups

PATH = "config.inputs.groups[0].marginals[0]"

# declared type: (law, its parameters in argument order)
LAWS = {
    "uniform": (Uniform, ("a", "b")),
    "normal": (Normal, ("mu", "sigma")),
    "lognormal": (LogNormal, ("mu", "sigma")),
    "triangular": (Triangular, ("a", "c", "b")),
    "gumbel": (Gumbel, ("mu", "beta")),
}


def marginal(spec):
    """The law an inline independent group builds from one declaration."""
    _, (group,) = inline_groups([{"name": "g", "kind": "independent", "columns": ["x"],
                                  "marginals": [spec]}])
    return group.marginals[0]


def test_config_parsing_round_trip():
    assert marginal({"type": "triangular", "a": 49, "c": 50, "b": 51}) == Triangular(49.0, 50.0, 51.0)
    trunc = marginal(
        {"type": "truncated", "inner": {"type": "normal", "mu": 30, "sigma": 8}, "lo": 15}
    )
    assert trunc == Truncated(Normal(30.0, 8.0), 15.0, math.inf)


def test_config_parsing_rejects_unknown_keys():
    with pytest.raises(ConfigError, match=re.escape(f"{PATH}: unknown keys ['scale']; accepted: ")):
        marginal({"type": "normal", "mu": 0, "sigma": 1, "scale": 2})
    with pytest.raises(ConfigError, match=re.escape(f"{PATH}.type: unknown law 'gaussian'")):
        marginal({"type": "gaussian", "mu": 0, "sigma": 1})
    with pytest.raises(ConfigError, match=re.escape(f"{PATH}: missing key 'sigma'")):
        marginal({"type": "normal", "mu": 0})


@pytest.mark.parametrize("spec, where", [
    ({"type": "normal", "mu": "abc", "sigma": 1}, "mu"),
    ({"type": "normal", "mu": "0", "sigma": 1}, "mu"),
    ({"type": "normal", "mu": [0], "sigma": 1}, "mu"),
    ({"type": "uniform", "a": 0, "b": True}, "b"),
    ({"type": "truncated", "inner": {"type": "normal", "mu": 0, "sigma": 1}, "lo": "x"}, "lo"),
], ids=["text", "numeric text", "list", "bool", "truncation bound"])
def test_config_parsing_rejects_non_numbers(spec, where):
    with pytest.raises(ConfigError, match=re.escape(f"{PATH}.{where}: expected a number")):
        marginal(spec)


@st.composite
def declarations(draw, truncated=True):
    """``(declaration, law)``: a valid marginal declaration and the law built
    directly from the same numbers."""
    if truncated and draw(st.booleans()):
        inner_spec, inner = draw(declarations(truncated=False))
        spec, bounds = {"type": "truncated", "inner": inner_spec}, []
        for key, u, open_side in (("lo", draw(st.floats(0.01, 0.4)), -math.inf),
                                  ("hi", draw(st.floats(0.6, 0.99)), math.inf)):
            form = draw(st.sampled_from(["number", "null", "missing"]))
            bounds.append(float(inner.quantile(u)) if form == "number" else open_side)
            if form != "missing":
                spec[key] = bounds[-1] if form == "number" else None
        return spec, Truncated(inner, *bounds)
    kind = draw(st.sampled_from(sorted(LAWS)))
    law, params = LAWS[kind]
    # integers and quarters, sorted and distinct: a < b, a < c < b, and the
    # last parameter, raised above 1, serves as a scale
    values = sorted(draw(st.lists(st.integers(-50, 50) | st.integers(-200, 200).map(lambda k: k / 4),
                                  min_size=len(params), max_size=len(params), unique=True)))
    values[-1] = abs(values[-1]) + 1
    return {"type": kind, **dict(zip(params, values))}, law(*map(float, values))


def broken(spec, path):
    """``(declaration, message)`` pairs: ``spec`` with one key dropped, added
    or made a string, and the start of the error that names its path."""
    params = LAWS[spec["type"]][1] if spec["type"] in LAWS else ("inner",)
    yield {**spec, "extra": 1}, f"{path}: unknown keys ['extra']"
    yield {k: v for k, v in spec.items() if k != "type"}, f"{path}: expected a mapping"
    for key in params:
        yield {k: v for k, v in spec.items() if k != key}, f"{path}: missing key {key!r}"
    for key in (*params, "lo", "hi") if spec["type"] == "truncated" else params:
        yield {**spec, key: "1"}, f"{path}.{key}: expected a"
    if spec["type"] == "truncated":
        for inner, message in broken(spec["inner"], f"{path}.inner"):
            yield {**spec, "inner": inner}, message


@settings(max_examples=150, deadline=None)
@given(case=declarations())
def test_declarations_build_their_law_and_name_the_path_of_a_bad_key(case):
    spec, law = case
    assert marginal(spec) == law
    if spec["type"] == "truncated":  # a dropped bound leaves that side open
        for key, open_side in (("lo", -math.inf), ("hi", math.inf)):
            opened = {k: v for k, v in spec.items() if k != key}
            assert marginal(opened) == dataclasses.replace(law, **{key: open_side})
    for bad, message in broken(spec, PATH):
        with pytest.raises(ConfigError, match=re.escape(message)):
            marginal(bad)


def _imported_names(module) -> set[str]:
    """Every module and name the import statements of ``module`` mention."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.rsplit(".", 1)[-1])
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def test_config_and_laws_import_no_layer_above_them():
    assert not _imported_names(qdoe.config) & {"models", "copula", "distributions"}
    assert not _imported_names(qdoe.distributions) & {"config", "ConfigError"}

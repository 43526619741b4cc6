"""The runner's design step: quantize the scheme's blocks, then build.

``build_design`` quantizes the blocks of its scheme through
``quantize_groups`` unless it is handed them, so both routes must give the
same design bits, and the fits must follow the documented order.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdoe.config import parse_config
from qdoe.models import VG_COLUMNS, InputGroup, build_model, vg_pool
from qdoe.quantizer import lloyd, save_quantizer
from qdoe.runner import build_design, group_pool, quantize_groups, sample_joint

CFG = parse_config({"version": 1, "seed": 0, "pool_size": 200,
                    "lloyd": {"max_iter": 10, "rel_tol": 1e-6, "restarts": 1}})

# every scheme on models that suit it; "vg_pool" is vg_theta on a fixed pool
CASES = [("x2y", scheme) for scheme in ("mc", "lhs", "lhsd", "rq", "qlhs")] + [
    ("xy2py2", "q2lhs"), ("x1px2_sq_y", "qlhs"), ("flood", "qlhs"), ("vg_theta", "lhsd"),
    ("vg_theta", "rq"), ("vg_pool", "lhs"), ("vg_pool", "rq"),
]


def inputs(name):
    if name == "vg_pool":
        points = vg_pool(150, np.random.default_rng(0)).points
        return VG_COLUMNS, (InputGroup("vg", VG_COLUMNS, "pool", pool_points=points),)
    model = build_model(name)
    return model.columns, model.groups


def reference_centroids(columns, groups, scheme, n, rng):
    """Centroids of each quantized block from direct library calls, in the
    documented order: rq fits the single fixed pool as-is or else a joint
    draw; qlhs and q2lhs fit their dependent groups in declaration order,
    each pool drawn right before its fit."""
    if scheme == "rq" and len(groups) == 1 and groups[0].kind == "pool":
        draws = [partial(group_pool, groups[0], CFG.pool_size, rng)]
    elif scheme == "rq":
        joint = InputGroup("joint", tuple(columns), "generator",
                           generator=partial(sample_joint, columns, groups))
        draws = [partial(group_pool, joint, CFG.pool_size, rng)]
    else:
        draws = [partial(group_pool, g, CFG.pool_size, rng) for g in groups if g.dependent]
    fit = CFG.lloyd
    return [lloyd(draw(), n, rng, max_iter=fit.max_iter, rel_tol=fit.rel_tol,
                  restarts=fit.restarts).centroids for draw in draws]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(CASES), n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_build_design_is_quantize_groups_then_build(case, n, seed):
    name, scheme = case
    columns, groups = inputs(name)
    design = build_design(CFG, columns, groups, scheme, n, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    quantized = quantize_groups(CFG, columns, groups, scheme, n, rng)
    again = build_design(CFG, columns, groups, scheme, n, rng, quantized=quantized)
    assert design.column_roles == again.column_roles
    assert np.array_equal(design.points, again.points)
    assert np.array_equal(design.weights, again.weights)
    reference = (reference_centroids(columns, groups, scheme, n, np.random.default_rng(seed))
                 if quantized else [])
    assert len(quantized) == len(reference)
    for (quantizer, _), centroids in zip(quantized.values(), reference):
        assert np.array_equal(quantizer.centroids, centroids)
    if scheme != "q2lhs":
        assert np.all(design.weights >= 0)
        assert design.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_quantize_groups_logs_each_block(tmp_path, caplog):
    columns, groups = inputs("xy2py2")
    capped = parse_config({"version": 1, "seed": 0, "pool_size": 200,
                           "lloyd": {"max_iter": 1, "rel_tol": 0, "restarts": 1}})
    with caplog.at_level("INFO", logger="qdoe"):
        quantized = quantize_groups(capped, columns, groups, "q2lhs", 6, np.random.default_rng(1))
    assert [r.getMessage() for r in caplog.records] == [
        f"quantizer {key}: fit n_cells=6 lloyd_updates=1 capped=True" for key in ("x", "y")
    ]
    assert list(quantized) == ["x", "y"]

    # a quantizer_files entry is loaded, not fitted
    pool_csv, quantizer_csv = tmp_path / "pool.csv", tmp_path / "quantizer.csv"
    pool_csv.write_text("x\n0.0\n0.1\n10.0\n10.1\n")
    raw = {"version": 1, "seed": 0, "quantizer_files": {"g": str(quantizer_csv)},
           "inputs": {"groups": [{"name": "g", "kind": "pool", "columns": ["x"],
                                  "pool_csv": str(pool_csv)}]}}
    cfg = parse_config(raw)
    pool = group_pool(cfg.groups[0], cfg.pool_size, np.random.default_rng(0))
    save_quantizer(lloyd(pool, 2, np.random.default_rng(0)), quantizer_csv)
    caplog.clear()
    with caplog.at_level("INFO", logger="qdoe"):
        quantize_groups(cfg, cfg.columns, cfg.groups, "rq", 2, np.random.default_rng(2))
    assert [r.getMessage() for r in caplog.records] == [
        "quantizer __joint__: file n_cells=2 lloyd_updates=0 capped=False"
    ]

"""The runner's design step: quantize the scheme's blocks, then build.

``build_design`` quantizes the unresolved blocks of its scheme through
``quantize_groups``, so quantizing first and handing it the resolved blocks
must give the same design bits, and the fits must follow the documented
order. Commands resolve their inputs once, in ``_start``.
"""

import json
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdoe.cli import main
from qdoe.config import parse_config
from qdoe.models import FLOOD_COLUMNS, VG_COLUMNS, InputGroup, build_model, vg_pool
from qdoe.quantizer import lloyd
from qdoe.runner import _start, build_design, group_pool, quantize_groups, sample_joint, scheme_blocks

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
    blocks = quantize_groups(CFG, scheme_blocks(scheme, columns, groups), n, rng)
    again = build_design(CFG, columns, groups, scheme, n, rng, blocks=blocks)
    assert design.column_roles == again.column_roles
    assert np.array_equal(design.points, again.points)
    assert np.array_equal(design.weights, again.weights)
    reference = (reference_centroids(columns, groups, scheme, n, np.random.default_rng(seed))
                 if blocks else [])
    assert len(blocks) == len(reference)
    for block, centroids in zip(blocks.values(), reference):
        assert np.array_equal(block.quantizer.centroids, centroids)
    if scheme != "q2lhs":
        assert np.all(design.weights >= 0)
        assert design.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_quantize_groups_logs_each_fit(caplog):
    columns, groups = inputs("xy2py2")
    capped = parse_config({"version": 1, "seed": 0, "pool_size": 200,
                           "lloyd": {"max_iter": 1, "rel_tol": 0, "restarts": 1}})
    with caplog.at_level("INFO", logger="qdoe"):
        blocks = quantize_groups(capped, scheme_blocks("q2lhs", columns, groups), 6,
                                 np.random.default_rng(1))
    assert [r.getMessage() for r in caplog.records] == [
        f"quantizer {key}: fit n_cells=6 lloyd_updates=1 capped=True" for key in ("x", "y")
    ]
    assert list(blocks) == ["x", "y"]

    # resolved blocks are kept as they are: no fit, no draw, no log line
    caplog.clear()
    rng = np.random.default_rng(2)
    with caplog.at_level("INFO", logger="qdoe"):
        again = quantize_groups(capped, blocks, 6, rng)
    assert all(again[key] is blocks[key] for key in blocks)
    assert caplog.records == []
    assert rng.random() == np.random.default_rng(2).random()


def test_fit_that_converges_on_its_last_allowed_update_is_not_capped(caplog):
    columns, groups = inputs("x1px2_sq_y")  # one 2-D block

    def fit(max_iter):
        cfg = parse_config({"version": 1, "seed": 0, "pool_size": 500,
                            "lloyd": {"max_iter": max_iter, "rel_tol": 0, "restarts": 1}})
        caplog.clear()
        with caplog.at_level("INFO", logger="qdoe"):
            blocks = quantize_groups(cfg, scheme_blocks("qlhs", columns, groups), 8,
                                     np.random.default_rng(1))
        return blocks["x"].quantizer, caplog.records[0].getMessage()

    free, _ = fit(200)
    updates = len(free.distortion_history) - 1
    assert free.converged and updates < 200
    last, message = fit(updates)
    assert last.converged and message.endswith(f"lloyd_updates={updates} capped=False")
    cut, message = fit(updates - 1)
    assert not cut.converged and message.endswith(f"lloyd_updates={updates - 1} capped=True")


def test_quantizer_file_is_loaded_when_the_command_starts(tmp_path, caplog):
    pool_csv = tmp_path / "pool.csv"
    pool_csv.write_text("x\n0.0\n0.1\n10.0\n10.1\n")
    group = {"name": "g", "kind": "pool", "columns": ["x"], "pool_csv": str(pool_csv)}
    quantize = tmp_path / "q.json"
    quantize.write_text(json.dumps({"version": 1, "seed": 0, "n_cells": 2,
                                    "inputs": {"groups": [group]},
                                    "output_dir": str(tmp_path / "art")}))
    assert main(["quantize", "--config", str(quantize)]) == 0
    quantizer_csv = str(tmp_path / "art" / "quantizer_g_n2.csv")
    sample = tmp_path / "s.json"
    sample.write_text(json.dumps({"version": 1, "seed": 0, "scheme": "rq", "n": [2],
                                  "inputs": {"groups": [group]},
                                  "quantizer_files": {"g": quantizer_csv},
                                  "output_dir": str(tmp_path / "out")}))
    with caplog.at_level("INFO", logger="qdoe"):
        assert main(["sample", "--config", str(sample)]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        f"quantizer __joint__: file {quantizer_csv} n_cells=2"
    ]


def test_runner_resolves_model_columns(tmp_path):
    # the config keeps the model's name and params; the command builds it
    cfg = parse_config({"version": 1, "seed": 1, "scheme": "qlhs", "n": [4, 6],
                        "model": {"name": "flood"}, "output_dir": str(tmp_path / "out")})
    assert cfg.inputs is None
    columns, groups, model, blocks, out_dir = _start(cfg, "sample", "scheme", "n")
    assert columns == model.columns == FLOOD_COLUMNS
    assert [g.name for g in groups] == ["channel", "structures"]
    assert list(blocks) == ["channel"] and blocks["channel"].quantizer is None
    assert out_dir.is_dir()

"""Self-tests of the benchmark: span arithmetic, metric names and output checks.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import math
import re
import threading
from pathlib import Path

import numpy as np
import pytest

import qdoe
import qdoe.cli
import run
import spans
import workloads
from qdoe.quantizer import CandidatePool, lloyd, save_pool, save_quantizer
from spans import Span, Tracer, install_layers, layer_metrics, self_times

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_on_a_two_thread_span_tree():
    # thread 1: replicate [0, 10] holding two repetitions, one with a nested
    # draw; thread 2: a worker repetition [2, 7] with one child.
    tree = [
        Span(1, "estimators.replicate", 0.0, 10.0, None, 1, 0),
        Span(2, "runner.build_design", 1.0, 4.0, 1, 1, 0, cpu=2.0),
        Span(3, "runner.build_design", 5.0, 9.0, 1, 1, 0, cpu=3.0),
        Span(4, "quantizer.lloyd", 6.0, 8.0, 3, 1, 0, {"iters": 4, "capped": 1}),
        Span(5, "runner.build_design", 2.0, 7.0, None, 2, 0, cpu=4.0),
        Span(6, "quantizer.lloyd", 3.0, 5.0, 5, 2, 0, {"iters": 6, "capped": 0}),
    ]
    own = self_times(tree)
    # work on thread 2 overlaps replicate's interval but is not subtracted from it
    assert own == {1: 3.0, 2: 3.0, 3: 2.0, 4: 2.0, 5: 3.0, 6: 2.0}

    metrics = layer_metrics(tree, threads=2)
    assert metrics["runner.build_design_ms"] == pytest.approx(8e3)
    assert metrics["runner.build_design_calls"] == 3
    assert metrics["quantizer.lloyd_ms"] == pytest.approx(4e3)
    assert metrics["quantizer.lloyd_iters"] == 10
    assert metrics["quantizer.lloyd_ms_per_iter"] == pytest.approx(400.0)
    assert metrics["quantizer.lloyd_capped_frac"] == 0.5
    # busy: CPU time of two repetitions under replicate (2 + 3) and one on the worker (4)
    assert metrics["estimators.replicate_parallel_eff"] == pytest.approx(9.0 / 20.0)


def test_spans_keep_their_parents_per_thread_and_wrappers_are_restored():
    class Layer:
        @staticmethod
        def outer(x):
            return Layer.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    threads = [threading.Thread(target=Layer.outer, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.uninstall()

    by_id = {s.id: s for s in tracer.spans}
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert len(inner) == 4 and len(by_id) == 8
    for s in inner:
        parent = by_id[s.parent]
        assert parent.name == "outer" and parent.thread == s.thread
    assert not hasattr(Layer.outer, "__wrapped__") and not hasattr(Layer.inner, "__wrapped__")


def test_install_layers_is_undone():
    modules = [qdoe.cli, qdoe.runner, qdoe.designs, qdoe.estimators, qdoe.hsic]
    classes = [c for c in vars(qdoe.distributions).values() if isinstance(c, type)]
    before = [dict(vars(m)) for m in modules + classes]
    tracer = Tracer()
    install_layers(tracer, qdoe)
    assert qdoe.runner.lloyd is not before[1]["lloyd"]
    tracer.uninstall()
    after = [dict(vars(m)) for m in modules + classes]
    assert all(a.keys() == b.keys() and all(a[k] is b[k] for k in a)
               for a, b in zip(after, before))


def test_metric_names_are_valid_unique_and_match_the_code():
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    layers = [m["name"] for m in BENCHMARK["per_layer"]]
    names = e2e + layers + [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(e2e + layers)) == len(e2e + layers)
    assert e2e and set(e2e) == set(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == \
        spans.LAYER_METRICS
    measured = set(layer_metrics([], threads=1)) | {
        "cli.import_ms", "config.load_config_ms", "bench.trace_overhead_ms"}
    assert measured == set(spans.LAYER_METRICS)
    assert all(w["why"] == workloads.WORKLOADS[w["name"]].why for w in BENCHMARK["workloads"])


# -- output checks -----------------------------------------------------------


def _write_summary(out_dir, scheme, model, entries):
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"results": [{"n": n, "repetitions": 30, "mean": mean, "variance": var}
                           for n, mean, var in entries]}
    (out_dir / f"summary_{scheme}_{model}.json").write_text(json.dumps(payload))
    return out_dir


def test_flood_estimate_check_fails_on_a_shifted_estimate(tmp_path):
    truth = workloads.FLOOD_TRUTH
    se = math.sqrt(0.3 / 30)
    good = _write_summary(tmp_path / "good", "qlhs", "flood",
                          [(10, truth + se, 0.3), (100, truth - 0.01, 0.01)])
    assert workloads.check_flood_estimate(good) == []
    shifted = _write_summary(tmp_path / "shifted", "qlhs", "flood",
                             [(10, truth + 7 * se, 0.3), (100, truth - 0.01, 0.01)])
    assert workloads.check_flood_estimate(shifted)
    flat = _write_summary(tmp_path / "flat", "qlhs", "flood",
                          [(10, truth, 0.01), (100, truth, 0.3)])
    assert workloads.check_flood_estimate(flat)


def test_xy2py2_estimate_check_fails_on_a_shifted_estimate(tmp_path):
    truth = workloads.XY2PY2_TRUTH
    good = _write_summary(tmp_path / "good", "q2lhs", "xy2py2", [(100, truth + 0.1, 0.3)])
    assert workloads.check_xy2py2_estimate(good) == []
    shifted = _write_summary(tmp_path / "shifted", "q2lhs", "xy2py2", [(100, truth + 1.0, 0.3)])
    assert workloads.check_xy2py2_estimate(shifted)


def _write_screen(out_dir, dependent, p_values=None, flipped=()):
    """A screening CSV: p = 0.005 for ``dependent`` inputs, 0.5 for the rest,
    unless ``p_values`` says otherwise; decisions follow alpha = 0.01 except
    for the ``flipped`` inputs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ["# config_hash=0 seed=0", "input,hsic,p_value,decision"]
    for name in ("x1", "x2", "x3", "x4", "x5", "w"):
        p_value = (p_values or {}).get(name, 0.005 if name in dependent else 0.5)
        decision = "dependent" if (p_value < 0.01) != (name in flipped) else "independent"
        rows.append(f"{name},0.1,{p_value!r},{decision}")
    (out_dir / "screening_qlhs_synthetic_screen_n400.csv").write_text("\n".join(rows) + "\n")
    return out_dir


def test_screen_check_fails_on_a_flipped_decision(tmp_path):
    truth = set(workloads.SCREEN_ACTIVE)
    assert workloads.check_screen(_write_screen(tmp_path / "good", truth)) == []
    for name in ("x1", "x4"):
        assert workloads.check_screen(_write_screen(tmp_path / name, truth, flipped={name}))
    assert workloads.check_screen(_write_screen(tmp_path / "miss", truth - {"x3"}))
    assert workloads.check_screen(_write_screen(tmp_path / "both", truth | {"x4", "x5"}))
    # one inert rejection is the test's level (1/200), not a fault
    assert workloads.check_screen(_write_screen(tmp_path / "level", truth | {"x4"})) == []
    # one permuted statistic reaching an active input's is the test's power
    power = _write_screen(tmp_path / "power", truth, p_values={"x1": 0.01})
    assert workloads.check_screen(power) == []
    weak = _write_screen(tmp_path / "weak", truth, p_values={"x1": 0.055})
    assert workloads.check_screen(weak)


@pytest.fixture(scope="module")
def quantize_output(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("quantize")
    rng = np.random.default_rng(3)
    pool = CandidatePool(rng.standard_normal((100_000, 6)))
    quantizer = lloyd(pool, 100, rng, max_iter=2, restarts=1)
    save_quantizer(quantizer, out_dir / "quantizer_channel_n100.csv")
    save_pool(pool, out_dir / "pool_channel.csv")
    return out_dir


def test_quantize_check_passes_on_a_real_quantizer(quantize_output):
    assert workloads.check_quantize(quantize_output) == []


def test_quantize_check_fails_on_rescaled_probabilities(quantize_output, tmp_path):
    for name in ("quantizer_channel_n100.csv", "pool_channel.csv"):
        (tmp_path / name).write_bytes((quantize_output / name).read_bytes())
    path = tmp_path / "quantizer_channel_n100.csv"
    lines = path.read_text().splitlines()
    start, end = lines.index("probabilities") + 1, lines.index("assignments")
    lines[start:end] = [repr(float(p) * 1.5) for p in lines[start:end]]
    path.write_text("\n".join(lines) + "\n")
    assert workloads.check_quantize(tmp_path)

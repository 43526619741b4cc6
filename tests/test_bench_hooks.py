"""The benchmark's layer tracing still finds the functions it wraps.

``bench/spans.py`` traces a layer by replacing the module attribute its caller
looks up, and silently records nothing for a name that has gone. This test
runs one tiny ``estimate`` and one tiny ``hsic`` command under the tracer and
checks that every layer the per-layer metrics rest on shows up.
"""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import qdoe
import qdoe.cli

SPANS_PY = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("qdoe_bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through the module's entry
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def run_command(tmp_path, command, **config):
    raw = {"version": 1, "seed": 3, **config, "output_dir": str(tmp_path / command)}
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(raw))
    assert qdoe.cli.main([command, "--config", str(path), "--threads", "1"]) == 0


def test_layer_spans_are_recorded(tmp_path, monkeypatch):
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    spans.install_layers(tracer, qdoe)
    try:
        run_command(tmp_path, "estimate", scheme="qlhs", n=[5], repetitions=2, pool_size=200,
                    lloyd={"restarts": 1, "max_iter": 20}, model={"name": "flood"})
        estimate_spans = list(tracer.spans)
        run_command(tmp_path, "hsic", scheme="mc", n=[40], model={"name": "synthetic_screen"},
                    test={"permutations": 100, "alpha": 0.05})
    finally:
        tracer.uninstall()
    names = Counter(s.name for s in tracer.spans)
    for name in ("quantizer.lloyd", "estimators.estimate", "models.evaluate", "hsic.gram",
                 "distributions.quantile"):
        assert names[name] > 0, f"no {name} span recorded"
    evaluations = [s for s in estimate_spans if s.name == "models.evaluate"]
    assert len(evaluations) == 2
    # every qlhs design draws all its cells in one traced qlhs_design call, and
    # the fit is the only quantizer-layer span (no per-cell draw spans)
    estimate_names = Counter(s.name for s in estimate_spans)
    assert estimate_names["runner.build_design"] == 2
    assert estimate_names["designs.qlhs_design"] == estimate_names["runner.build_design"]
    assert {name for name in estimate_names if name.startswith("quantizer.")} == {"quantizer.lloyd"}
    assert all(s.counts["rows"] == 5 for s in evaluations)
    # one screen tests all 6 groups of synthetic_screen on one permutation set:
    # one Gram matrix per group plus one for the output, no per-group test
    hsic_names = Counter(s.name for s in tracer.spans[len(estimate_spans):])
    assert hsic_names["hsic.screen"] == 1
    assert hsic_names["hsic.gram"] == 7
    assert hsic_names["hsic.independence_test"] == 0


def test_shared_quantizer_spans(tmp_path, monkeypatch):
    # shared mode quantizes once per size and builds only the repetitions'
    # designs: no extra design, no extra pool draw
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    spans.install_layers(tracer, qdoe)
    for scheme in ("qlhs", "lhs"):
        (tmp_path / scheme).mkdir()
    try:
        run_command(tmp_path / "qlhs", "estimate", scheme="qlhs", n=[5], repetitions=3,
                    pool_size=200, lloyd={"restarts": 1, "max_iter": 20},
                    model={"name": "flood"}, shared_quantizer=True)
        qlhs_names = Counter(s.name for s in tracer.spans)
        run_command(tmp_path / "lhs", "estimate", scheme="lhs", n=[5], repetitions=3,
                    pool_size=200, model={"name": "vg_theta"}, shared_quantizer=True)
    finally:
        tracer.uninstall()
    assert qlhs_names["runner.build_design"] == 3
    assert qlhs_names["quantizer.lloyd"] == 1
    lhs_names = Counter(s.name for s in tracer.spans) - qlhs_names
    assert lhs_names["runner.group_pool"] == 3

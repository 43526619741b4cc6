"""In-memory span tracing of the qdoe layers, installed from outside the program.

``from x import y`` binds ``y`` in the importing module, so a function is
traced by replacing the attribute its caller resolves: ``qdoe.runner.lloyd``
for the fits the runner starts, ``qdoe.designs.sample_cell`` for the draws
``rq_design`` makes, and so on. Every replacement is undone by
:meth:`Tracer.uninstall`, so untraced commands in the same process call the
plain functions.

A span records its name, start, end, parent span, thread and run, and the
CPU time its thread spent inside it. The parent is the innermost open span on
the same thread; spans of one benchmark operation share a run id. Spans stay
in memory until the benchmark ends.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: int
    counts: dict = field(default_factory=dict)
    cpu: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped functions; owns the wrappers it installs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def traced(self, fn, name, count=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``count(args, kwargs, result)`` may return extra counters for the span.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start, cpu = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end, cpu = time.perf_counter(), time.thread_time() - cpu
                stack.pop()
            span = Span(span_id, name, start, end, parent, threading.get_ident(), tracer.run,
                        cpu=cpu)
            if count is not None:
                span.counts = count(args, kwargs, result)
            with tracer._lock:
                tracer.spans.append(span)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` until :meth:`uninstall` puts the original back."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, count=None):
        self.patch(owner, attr, self.traced(getattr(owner, attr), name, count))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part covered by its children.

    Children are the spans whose parent is the span; a parent is always on the
    child's thread, so work on other threads is never subtracted.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append((max(s.start, p.start), min(s.end, p.end)))
    return {s.id: s.duration - _union_length(children.get(s.id, ())) for s in spans}


# -- the layers of qdoe ------------------------------------------------------


def _lloyd_counts(args, kwargs, result):
    iters = len(result.distortion_history) - 1
    max_iter = kwargs.get("max_iter", args[3] if len(args) > 3 else 200)
    return {"iters": iters, "capped": int(iters >= max_iter)}


def _rows(position):
    def count(args, kwargs, result):
        shape = getattr(args[position], "shape", (1,))
        return {"rows": shape[0] if len(shape) > 1 else 1}

    return count


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _permutations(args, kwargs, result):
    return {"permutations": kwargs.get("permutations", 0)}


def install_layers(tracer: Tracer, qdoe) -> None:
    """Wrap the public functions of each layer where their callers find them.

    A function its caller no longer resolves there is left out, so its
    metrics read zero instead of failing the traced run.
    """
    cli, runner, designs, hsic = qdoe.cli, qdoe.runner, qdoe.designs, qdoe.hsic
    estimators, distributions = qdoe.estimators, qdoe.distributions

    def wrap(owner, attr, name, count=None):
        if attr in vars(owner):
            tracer.wrap(owner, attr, name, count)

    for command in ("run_estimate", "run_hsic", "run_quantize"):
        wrap(cli, command, "runner.command")
    for attr in ("group_pool", "build_design", "evaluate_design"):
        wrap(runner, attr, f"runner.{attr}")
    wrap(runner, "replicate", "estimators.replicate")
    wrap(runner, "screen", "hsic.screen")
    wrap(runner, "conditional_inverse", "copula.conditional_inverse", _rows(1))
    wrap(runner, "lloyd", "quantizer.lloyd", _lloyd_counts)
    wrap(runner, "save_pool", "quantizer.save_pool", _bytes_written)
    wrap(runner, "save_quantizer", "quantizer.save_quantizer", _bytes_written)
    wrap(designs, "sample_cell", "quantizer.sample_cell")
    for owner in (runner, designs):
        wrap(owner, "rq_design", "designs.rq_design")
    for attr in ("qlhs_design", "q2lhs_design"):
        wrap(runner, attr, f"designs.{attr}")
    wrap(designs, "lhs", "designs.lhs")
    wrap(estimators, "estimate", "estimators.estimate")
    wrap(hsic, "gram", "hsic.gram")
    wrap(hsic, "independence_test", "hsic.independence_test", _permutations)
    for cls in vars(distributions).values():
        if isinstance(cls, type) and issubclass(cls, distributions.Distribution):
            wrap(cls, "quantile", "distributions.quantile")

    # the model layer is reached through the evaluator of the spec the runner builds
    if "build_model" in vars(runner):
        build_model = runner.build_model
        evaluate_rows = _rows(0)

        def traced_build_model(*args, **kwargs):
            spec = build_model(*args, **kwargs)
            return replace(spec, evaluate=tracer.traced(spec.evaluate, "models.evaluate",
                                                        evaluate_rows))

        tracer.patch(runner, "build_model", traced_build_model)


# -- per-layer metrics -------------------------------------------------------

# name -> (unit, better)
LAYER_METRICS = {
    "cli.import_ms": ("ms", "lower"),
    "config.load_config_ms": ("ms", "lower"),
    "runner.command_ms": ("ms", "lower"),
    "runner.group_pool_ms": ("ms", "lower"),
    "runner.build_design_ms": ("ms", "lower"),
    "runner.build_design_calls": ("count", "lower"),
    "copula.conditional_inverse_ms": ("ms", "lower"),
    "copula.conditional_inverse_rows": ("count", "lower"),
    "distributions.quantile_ms": ("ms", "lower"),
    "quantizer.lloyd_calls": ("count", "lower"),
    "quantizer.lloyd_ms": ("ms", "lower"),
    "quantizer.lloyd_iters": ("count", "lower"),
    "quantizer.lloyd_ms_per_iter": ("ms/iter", "lower"),
    "quantizer.lloyd_capped_frac": ("ratio", "lower"),
    "quantizer.sample_cell_calls": ("count", "lower"),
    "quantizer.sample_cell_ms": ("ms", "lower"),
    "designs.rq_design_ms": ("ms", "lower"),
    "designs.qlhs_design_ms": ("ms", "lower"),
    "designs.q2lhs_design_ms": ("ms", "lower"),
    "designs.lhs_ms": ("ms", "lower"),
    "quantizer.save_pool_ms": ("ms", "lower"),
    "quantizer.save_quantizer_ms": ("ms", "lower"),
    "quantizer.bytes_written": ("bytes", "lower"),
    "quantizer.write_mb_per_s": ("MB/s", "higher"),
    "estimators.estimate_calls": ("count", "lower"),
    "estimators.estimate_ms": ("ms", "lower"),
    "estimators.replicate_parallel_eff": ("ratio", "higher"),
    "models.evaluate_calls": ("count", "lower"),
    "models.evaluate_rows": ("count", "lower"),
    "models.rows_per_call": ("rows/call", "higher"),
    "models.evaluate_ms": ("ms", "lower"),
    "hsic.gram_calls": ("count", "lower"),
    "hsic.gram_ms": ("ms", "lower"),
    "hsic.independence_test_calls": ("count", "lower"),
    "hsic.independence_test_ms": ("ms", "lower"),
    "hsic.permutations": ("count", "lower"),
    "hsic.us_per_permutation": ("us", "lower"),
    "hsic.screen_ms": ("ms", "lower"),
    "bench.trace_overhead_ms": ("ms", "lower"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, threads: int) -> dict[str, float]:
    """Per-layer metrics of one operation's spans (self times in ms).

    The metrics measured outside the command (import, set-up and tracing
    overhead) are filled in by the caller.
    """
    own = self_times(spans)
    calls = Counter(s.name for s in spans)
    ms, counts = Counter(), Counter()
    for s in spans:
        ms[s.name] += 1e3 * own[s.id]
        counts.update({f"{s.name}.{key}": value for key, value in s.counts.items()})

    # Busy time of the repetitions: the CPU time of the spans they open, at the
    # bottom of a worker thread's stack or directly under a single-threaded
    # replicate. CPU time leaves out the waits for the interpreter lock.
    efficiencies = []
    for rep in (s for s in spans if s.name == "estimators.replicate"):
        busy = sum(s.cpu for s in spans
                   if s.parent == rep.id or (
                       s.parent is None and s.thread != rep.thread
                       and rep.start <= s.start and s.end <= rep.end))
        efficiencies.append(_ratio(busy, threads * rep.duration))

    write_ms = ms["quantizer.save_pool"] + ms["quantizer.save_quantizer"]
    written = counts["quantizer.save_pool.bytes"] + counts["quantizer.save_quantizer.bytes"]
    lloyd_calls = calls["quantizer.lloyd"]
    lloyd_iters = counts["quantizer.lloyd.iters"]
    permutations = counts["hsic.independence_test.permutations"]
    evaluate_calls = calls["models.evaluate"]
    evaluate_rows = counts["models.evaluate.rows"]
    return {
        "runner.command_ms": ms["runner.command"],
        "runner.group_pool_ms": ms["runner.group_pool"],
        "runner.build_design_ms": ms["runner.build_design"],
        "runner.build_design_calls": calls["runner.build_design"],
        "copula.conditional_inverse_ms": ms["copula.conditional_inverse"],
        "copula.conditional_inverse_rows": counts["copula.conditional_inverse.rows"],
        "distributions.quantile_ms": ms["distributions.quantile"],
        "quantizer.lloyd_calls": lloyd_calls,
        "quantizer.lloyd_ms": ms["quantizer.lloyd"],
        "quantizer.lloyd_iters": lloyd_iters,
        "quantizer.lloyd_ms_per_iter": _ratio(ms["quantizer.lloyd"], lloyd_iters),
        "quantizer.lloyd_capped_frac": _ratio(counts["quantizer.lloyd.capped"], lloyd_calls),
        "quantizer.sample_cell_calls": calls["quantizer.sample_cell"],
        "quantizer.sample_cell_ms": ms["quantizer.sample_cell"],
        "designs.rq_design_ms": ms["designs.rq_design"],
        "designs.qlhs_design_ms": ms["designs.qlhs_design"],
        "designs.q2lhs_design_ms": ms["designs.q2lhs_design"],
        "designs.lhs_ms": ms["designs.lhs"],
        "quantizer.save_pool_ms": ms["quantizer.save_pool"],
        "quantizer.save_quantizer_ms": ms["quantizer.save_quantizer"],
        "quantizer.bytes_written": written,
        "quantizer.write_mb_per_s": _ratio(written / 1e6, write_ms / 1e3),
        "estimators.estimate_calls": calls["estimators.estimate"],
        "estimators.estimate_ms": ms["estimators.estimate"],
        "estimators.replicate_parallel_eff": (
            sum(efficiencies) / len(efficiencies) if efficiencies else 0.0),
        "models.evaluate_calls": evaluate_calls,
        "models.evaluate_rows": evaluate_rows,
        "models.rows_per_call": _ratio(evaluate_rows, evaluate_calls),
        "models.evaluate_ms": ms["models.evaluate"],
        "hsic.gram_calls": calls["hsic.gram"],
        "hsic.gram_ms": ms["hsic.gram"],
        "hsic.independence_test_calls": calls["hsic.independence_test"],
        "hsic.independence_test_ms": ms["hsic.independence_test"],
        "hsic.permutations": permutations,
        "hsic.us_per_permutation": _ratio(1e3 * ms["hsic.independence_test"], permutations),
        "hsic.screen_ms": ms["hsic.screen"],
    }

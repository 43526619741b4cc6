"""Benchmark of the qdoe command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the benchmark imports qdoe from
``src/`` and drives ``qdoe.cli.main`` in its own process, one command per
operation, until ``--seconds`` have passed (at least one command), after one
untimed warm-up command. The workloads are defined in ``workloads.py``; every
command's output is checked, the warm-up's too.

With ``--trace 0`` it reports the end-to-end metrics:

- ``setup_s``: the median over several fresh interpreters of the time from
  process start to the point where the command would be called: interpreter
  start, ``import qdoe.cli`` and ``load_config`` of the workload's config;
- ``command_s``: the median wall time of one command. Per workload it reads
  as repetitions per second (``estimate_*``), screenings per second
  (``hsic_screen``) or the quantize time (``quantize_flood_channel``), printed
  on the lines before the result;
- ``peak_rss_mb``: peak resident memory of the benchmark process, read before
  the outputs are checked.

With ``--trace 1`` each operation runs once untraced and once with the layer
wrappers of ``spans.py`` installed, and the per-layer metrics of the traced
commands are reported (medians over operations; ``_ms`` is self time), with
the tracing overhead as ``bench.trace_overhead_ms``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the provenance; the full record, spans included, goes to
``.bench_out/`` in the checkout.

Inputs depend only on the workload and ``--seed``. Seed 20240517 is held out:
do not use it while developing a change, only to confirm a claimed gain.
"""

import os

# Pinned before numpy loads: two repetition threads plus BLAS threads would
# oversubscribe a two-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import LAYER_METRICS, Tracer, install_layers, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
END_TO_END = {
    "setup_s": "s",
    "command_s": "s",
    "peak_rss_mb": "MB",
}

# Runs in a fresh interpreter: argv is the source directory and the config
# path; prints the clock at start, after the import and after load_config.
_SETUP_CHILD = """
import json, sys, time
t0 = time.monotonic()
sys.path.insert(0, sys.argv[1])
import qdoe.cli
t1 = time.monotonic()
qdoe.cli.load_config(sys.argv[2])
print(json.dumps([t0, t1, time.monotonic()]))
"""


def import_qdoe():
    if not (SRC / "qdoe" / "__init__.py").is_file():
        sys.exit(f"no qdoe sources under {SRC}; run from the root of a qdoe checkout")
    sys.path.insert(0, str(SRC))
    import qdoe
    import qdoe.cli

    if Path(qdoe.__file__).resolve().parent != SRC / "qdoe":
        sys.exit(f"imported qdoe from {qdoe.__file__}, not from {SRC}")
    return qdoe


def measure_setup(config_path: Path) -> list[tuple[float, float, float]]:
    """(setup, import, load_config) seconds for each fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.monotonic()
        child = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(config_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        t0, t1, t2 = json.loads(child.stdout.splitlines()[-1])
        samples.append((t2 - spawned, t1 - t0, t2 - t1))
    return samples


def provenance() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qdoe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    llc = None
    with contextlib.suppress(OSError, ValueError):
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip())
                  for d in caches.glob("index*")]
        llc = max(levels)[1] if levels else None
    import scipy

    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "llc": llc,
    }


class Bench:
    """One benchmark run: the commands of one workload and their checks."""

    def __init__(self, qdoe, workload, seed: int, work: Path):
        self.qdoe = qdoe
        self.workload = workload
        self.seeds = np.random.default_rng(seed)
        self.work = work
        self.tracer = Tracer()
        self.ops: list[dict] = []

    def next_seed(self) -> int:
        return int(self.seeds.integers(2**31))

    def write_config(self, seed: int, name: str) -> Path:
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(self.workload.config_for(seed, self.work / name)))
        return path

    def command(self, seed: int, traced: bool, timed: bool = True) -> None:
        """Run one command; its outputs are checked later by :meth:`check`."""
        index = len(self.ops)
        config_path = self.write_config(seed, f"op{index}")
        captured = io.StringIO()
        if traced:
            self.tracer.run = index
            install_layers(self.tracer, self.qdoe)
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = self.qdoe.cli.main(self.workload.argv(config_path))
        except Exception:  # a crash fails this operation, not the run
            code = None
            captured.write(traceback.format_exc())
        finally:
            elapsed = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            self.tracer.uninstall()
        op = {"index": index, "seed": seed, "traced": traced, "timed": timed, "seconds": elapsed,
              "cpu_seconds": cpu, "exit_code": code, "log": captured.getvalue()}
        self.ops.append(op)

    def check(self) -> int:
        failed = 0
        for op in self.ops:
            if op["exit_code"] != 0:
                problems = [f"exit code {op['exit_code']}: {op['log'].strip()[-2000:]}"]
            else:
                problems = self.workload.check(self.work / f"op{op['index']}")
            op["problems"] = problems
            if problems:
                failed += 1
                print(f"op {op['index']} (seed {op['seed']}) failed: {'; '.join(problems)}",
                      file=sys.stderr)
        return failed

    def measure(self, seconds: float, trace: bool) -> None:
        # one untimed command first, so lazy imports and caches are filled
        # before the clock runs; its output is checked like the others
        self.command(self.next_seed(), traced=False, timed=False)
        deadline = time.perf_counter() + seconds
        pairs = 0
        while not pairs or time.perf_counter() < deadline:
            seed = self.next_seed()
            if not trace:
                self.command(seed, traced=False)
            else:
                # alternate which of the pair runs first, so a drift in machine
                # speed does not read as tracing overhead
                first = pairs % 2 == 1
                self.command(seed, traced=first)
                self.command(seed, traced=not first)
            pairs += 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def describe(values, unit, scale=1.0) -> str:
    q1, q3 = quartiles(values)
    return (f"median {scale * statistics.median(values):.6g} {unit}, quartiles "
            f"{scale * q1:.6g}..{scale * q3:.6g}, {len(values)} samples")


def end_to_end(bench: Bench, setup, peak_rss_mb: float) -> dict:
    w = bench.workload
    seconds = [op["seconds"] for op in bench.ops if op["timed"]]
    print(f"{w.name}: command_s {describe(seconds, 's')}")
    named, unit = ([w.items / s for s in seconds], "1/s") if w.items else (seconds, "s")
    print(f"{w.name}: {w.item_metric} {describe(named, unit)}")
    values = {
        "setup_s": statistics.median(s for s, _, _ in setup),
        "command_s": statistics.median(seconds),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(bench: Bench, setup) -> dict:
    traced = [op for op in bench.ops if op["traced"]]
    by_run: dict[int, list] = {op["index"]: [] for op in traced}
    for span in bench.tracer.spans:
        by_run[span.run].append(span)
    per_op = [layer_metrics(by_run[op["index"]], bench.workload.threads) for op in traced]
    values = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    values["cli.import_ms"] = 1e3 * statistics.median(i for _, i, _ in setup)
    values["config.load_config_ms"] = 1e3 * statistics.median(c for _, _, c in setup)
    untraced = {op["seed"]: op["seconds"] for op in bench.ops
                if op["timed"] and not op["traced"]}
    overhead = [op["seconds"] - untraced[op["seed"]] for op in traced]
    values["bench.trace_overhead_ms"] = 1e3 * statistics.median(overhead)
    print(f"{bench.workload.name}: tracing overhead per command {describe(overhead, 'ms', 1e3)}")
    for name in sorted(values):
        print(f"  {name} = {values[name]:.6g} {LAYER_METRICS[name][0]}")
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in LAYER_METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qdoe = import_qdoe()
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(qdoe, workload, args.seed, work)
        setup = measure_setup(bench.write_config(bench.next_seed(), "setup"))
        bench.measure(args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = bench.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(bench, setup)
    else:
        metrics = end_to_end(bench, setup, peak_rss_mb)
    result = {"correct": failed == 0, "attempted": len(bench.ops), "failed": failed,
              "metrics": metrics}
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(), "setup": setup,
              "operations": [{k: v for k, v in op.items() if k != "log"} for op in bench.ops],
              "result": result,
              "spans": [vars(s) for s in bench.tracer.spans]}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n")
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark workloads: one qdoe CLI command each, and a check of its output.

A workload turns an operation seed into a config file and a command line.
Its check reads the files the command wrote and returns the problems found;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Frozen 1e6-draw Monte Carlo mean of the flood overflow height, the oracle of
# the acceptance suite.
FLOOD_TRUTH = -10.994835418998303
# E[X Y^2 + Y^2] with X ~ LN(0, 1) and Y ~ N(0, 1) independent.
XY2PY2_TRUTH = math.exp(0.5) + 1.0
# Standard errors an estimated mean may lie from the truth before the check
# fails. With 30 repetitions the distance follows Student's t with 29 degrees
# of freedom, so a correct estimator fails about once in 600 000 checks.
MAX_SE = 6.0

SCREEN_ACTIVE = ("x1", "x2", "x3", "w")
SCREEN_INERT = ("x4", "x5")
SCREEN_ALPHA = 0.01
# At most 9 of the 199 permuted statistics may reach an active input's.
SCREEN_ACTIVE_MAX_P = 0.05

# The README config for the flood case study.
ESTIMATE_LLOYD = {"max_iter": 60, "rel_tol": 1e-7, "restarts": 2}
ESTIMATE_REPETITIONS = 30


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    config: dict
    threads: int
    # What command_s reads as on this workload: a rate of `items` per command,
    # or the command time itself when `items` is 0.
    item_metric: str
    items: int
    check: Callable[[Path], list[str]]

    def config_for(self, seed: int, out_dir: Path) -> dict:
        return {"version": 1, "seed": seed, **self.config, "output_dir": str(out_dir)}

    def argv(self, config_path: Path) -> list[str]:
        return [self.command, "--config", str(config_path), "--threads", str(self.threads)]


def _summary(out_dir: Path, scheme: str, model: str) -> dict[int, dict]:
    payload = json.loads((out_dir / f"summary_{scheme}_{model}.json").read_text())
    return {entry["n"]: entry for entry in payload["results"]}


def _off_by(entry: dict, truth: float) -> float:
    """Distance of the mean from ``truth`` in standard errors of the mean."""
    se = math.sqrt(entry["variance"] / entry["repetitions"])
    return abs(entry["mean"] - truth) / se if se > 0 else math.inf


def check_flood_estimate(out_dir: Path) -> list[str]:
    results = _summary(out_dir, "qlhs", "flood")
    problems = [f"n={n}: mean {e['mean']!r} is {_off_by(e, FLOOD_TRUTH):.1f} SE from {FLOOD_TRUTH}"
                for n, e in sorted(results.items()) if not _off_by(e, FLOOD_TRUTH) <= MAX_SE]
    if not results[100]["variance"] < results[10]["variance"]:
        problems.append(f"Var at n=100 ({results[100]['variance']!r}) is not below "
                        f"Var at n=10 ({results[10]['variance']!r})")
    return problems


def check_xy2py2_estimate(out_dir: Path) -> list[str]:
    entry = _summary(out_dir, "q2lhs", "xy2py2")[100]
    if _off_by(entry, XY2PY2_TRUTH) <= MAX_SE:
        return []
    return [f"n=100: mean {entry['mean']!r} is {_off_by(entry, XY2PY2_TRUTH):.1f} SE "
            f"from {XY2PY2_TRUTH}"]


def check_screen(out_dir: Path) -> list[str]:
    """Decisions agree with their p-values; the ground truth shows in them.

    Every decision must read ``dependent`` exactly when its p-value is below
    ``SCREEN_ALPHA``. With 199 permutations that takes an observed statistic
    above all 199 permuted ones (p = 1/200), so a strongly active input is
    now and then decided independent at p = 2/200 because one permuted
    statistic reached it: the program's own acceptance criterion asks for
    perfect screenings in 95 of 100 replications, not in all. An active input
    therefore fails the check when its p-value exceeds ``SCREEN_ACTIVE_MAX_P``.
    An inert input is rejected with probability 1/200 by construction, so
    one such rejection is the test's level, not a fault; both inert inputs
    rejected together (1 in 40 000) is treated as one.
    """
    lines = (out_dir / "screening_qlhs_synthetic_screen_n400.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if line and not line.startswith("#")]
    tests = {name: (float(p_value), decision) for name, _, p_value, decision in rows[1:]}
    problems = []
    if sorted(tests) != sorted(SCREEN_ACTIVE + SCREEN_INERT):
        problems.append(f"screened inputs {sorted(tests)}")
    problems += [f"input {name} decided {decision} at p = {p_value!r}"
                 for name, (p_value, decision) in sorted(tests.items())
                 if decision != ("dependent" if p_value < SCREEN_ALPHA else "independent")]
    problems += [f"active input {name} has p = {tests[name][0]!r} > {SCREEN_ACTIVE_MAX_P}"
                 for name in SCREEN_ACTIVE
                 if name in tests and not tests[name][0] <= SCREEN_ACTIVE_MAX_P]
    if all(tests.get(name, (1.0, ""))[1] == "dependent" for name in SCREEN_INERT):
        problems.append(f"inert inputs {SCREEN_INERT} both decided dependent")
    return problems


def check_quantize(out_dir: Path) -> list[str]:
    # qdoe is imported from the checkout under test, which run.py puts on the path
    from qdoe.quantizer import distortion, load_pool, load_quantizer

    quantizer = load_quantizer(out_dir / "quantizer_channel_n100.csv")
    pool, _ = load_pool(out_dir / "pool_channel.csv")
    counts = np.bincount(quantizer.pool_assignment, minlength=quantizer.n_cells)
    problems = []
    if pool.m != 100_000 or quantizer.pool_size != pool.m:
        problems.append(f"pool holds {pool.m} rows, the assignment {quantizer.pool_size}")
    if quantizer.n_cells != 100 or np.any(counts == 0):
        problems.append(f"{quantizer.n_cells} cells, {int(np.sum(counts == 0))} empty")
    if not np.array_equal(quantizer.probabilities, counts / quantizer.pool_size):
        problems.append("probabilities differ from the cell counts over the pool size")
    if not abs(float(quantizer.probabilities.sum()) - 1.0) <= 1e-12:
        problems.append(f"probabilities sum to {float(quantizer.probabilities.sum())!r}")
    if not problems and distortion(quantizer, pool) != quantizer.distortion:
        problems.append(f"distortion of the reloaded files {distortion(quantizer, pool)!r} "
                        f"differs from the header value {quantizer.distortion!r}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="estimate_flood_qlhs",
            why="The paper's flood case study: each repetition refits a d=6 Lloyd quantizer on "
                "a fresh 2000-row pool. Dropped for 50 s runs (25 s ones were unsteady): "
                "estimate_xy2py2_q2lhs, quantize_flood_channel.",
            command="estimate",
            config={"scheme": "qlhs", "n": [10, 100], "repetitions": ESTIMATE_REPETITIONS,
                    "pool_size": 2000, "lloyd": ESTIMATE_LLOYD, "model": {"name": "flood"}},
            threads=2,
            item_metric="reps_per_s",
            items=2 * ESTIMATE_REPETITIONS,
            check=check_flood_estimate,
        ),
        # Not in BENCHMARK.json (see the why of estimate_flood_qlhs), but
        # runnable by name for a change to the 1-D Lloyd path.
        Workload(
            name="estimate_xy2py2_q2lhs",
            why="Each repetition runs two 1-D Lloyd fits and the self-normalized q2lhs "
                "estimator: the exact 1-D path, which estimate_flood_qlhs bypasses.",
            command="estimate",
            config={"scheme": "q2lhs", "n": [10, 100], "repetitions": ESTIMATE_REPETITIONS,
                    "pool_size": 2000, "lloyd": ESTIMATE_LLOYD, "model": {"name": "xy2py2"}},
            threads=2,
            item_metric="reps_per_s",
            items=2 * ESTIMATE_REPETITIONS,
            check=check_xy2py2_estimate,
        ),
        Workload(
            name="hsic_screen",
            why="Gram and permutation work of HSIC screening dominates, beside a 3-D Lloyd "
                "fit; no other workload enters hsic.",
            command="hsic",
            config={"scheme": "qlhs", "n": [400], "pool_size": 6000,
                    "lloyd": {"max_iter": 25, "rel_tol": 1e-6, "restarts": 1},
                    "model": {"name": "synthetic_screen"},
                    "test": {"permutations": 199, "alpha": SCREEN_ALPHA}},
            threads=1,
            item_metric="screens_per_s",
            items=1,
            check=check_screen,
        ),
        # Not in BENCHMARK.json either, but runnable by name for a change to
        # Lloyd on large pools or to the CSV writers.
        Workload(
            name="quantize_flood_channel",
            why="One large d=6 Lloyd fit on a 100 000-row pool that runs into its 100-iteration "
                "cap, then a pool CSV write; estimators, models and hsic are not used.",
            command="quantize",
            # Some seeds reach an exact fixed point after 150 to 200 iterations;
            # a cap of 100 keeps the work per command the same for every seed.
            config={"pool_size": 100_000, "n_cells": 100, "group": "channel",
                    "lloyd": {"max_iter": 100, "restarts": 1}, "model": {"name": "flood"}},
            threads=1,
            item_metric="quantize_s",
            items=0,
            check=check_quantize,
        ),
    )
}

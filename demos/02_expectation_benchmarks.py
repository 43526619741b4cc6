"""Expectation estimation benchmarks on the analytic toy models.

Reproduces the classic comparison tables: for each toy target the competing
schemes are replicated many times per design size, and the table reports the
repetition mean (unbiasedness) and variance (efficiency). Quantization-based
schemes should match the truth with far less variance than Monte Carlo.

Runs in about a minute; trim REPETITIONS for a quicker look.
"""

from functools import partial

import numpy as np

from qdoe.config import parse_config
from qdoe.estimators import replicate
from qdoe.models import build_model
from qdoe.runner import build_design, evaluate_design

SIZES = (10, 20, 50, 100)
REPETITIONS = 300
STRIDE = 1_000_000

CFG = parse_config({"version": 1, "seed": 0, "pool_size": 2000,
                    "lloyd": {"max_iter": 50, "rel_tol": 1e-6, "restarts": 1}})

BENCHMARKS = [
    ("square", "E[X^2], X ~ N(0,1)", 1.0, ("rq", "lhs", "mc")),
    ("x1x2", "E[X1 X2], Gaussian pair, cov 0.8", 0.8, ("rq", "lhsd", "mc")),
    ("x2y", "E[X^2 Y], X ~ N(0,1), Y ~ U(0,1)", 0.5, ("qlhs", "lhs", "mc")),
    ("x1px2_sq_y", "E[(X1+X2)^2 Y], cov 0.8, Y ~ U(0,1)", 1.8, ("qlhs", "lhsd", "mc")),
    ("xy2py2", "E[X Y^2 + Y^2], X ~ LN(0,1), Y ~ N(0,1)", float(np.exp(0.5) + 1), ("q2lhs", "mc")),
]


def run(model_name, scheme, n, seed):
    model = build_model(model_name)
    builder = partial(build_design, CFG, model.columns, model.groups, scheme, n)
    return replicate(builder, partial(evaluate_design, model), REPETITIONS, seed)


for b, (name, label, truth, schemes) in enumerate(BENCHMARKS):
    print(f"\n=== {label}   (truth {truth:.4f}, {REPETITIONS} repetitions per size)")
    header = "scheme " + "".join(f" | n={n}: mean    var   " for n in SIZES)
    print(header)
    for s, scheme in enumerate(schemes):
        cells = []
        for k, n in enumerate(SIZES):
            seed = 100_000_000 * (b + 1) + 10_000_000 * s + STRIDE * k + 17
            summary = run(name, scheme, n, seed)
            cells.append(f" | {summary.mean:7.4f} {summary.variance:8.2e}")
        print(f"{scheme:6}" + "".join(cells))
    print("(the quantization-based scheme should track the truth with the smallest variance)")

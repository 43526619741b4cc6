"""Flood-risk case study: estimating the mean overflow height E[S].

The river model has eight dependent inputs (Table-style marginals with
pairwise Gaussian-copula correlations). A large plain-Monte-Carlo run pins
the reference value; the table then compares Monte Carlo, LHSD (which gets
the analytic copula and quantile functions) and quantization-based LHS
(which only needs a simulator for the correlated block) at realistic small
design sizes.
"""

from functools import partial

import numpy as np

from qdoe.config import parse_config
from qdoe.estimators import replicate
from qdoe.models import build_model, flood_evaluate
from qdoe.runner import build_design, evaluate_design, sample_joint

SIZES = (10, 20, 50, 100)
REPETITIONS = 200

CFG = parse_config({"version": 1, "seed": 0, "pool_size": 2000,
                    "lloyd": {"max_iter": 50, "rel_tol": 1e-6, "restarts": 1}})

model = build_model("flood")

print("Reference value from 10^6 joint draws:")
big = sample_joint(model.columns, model.groups, 1_000_000, np.random.default_rng(4242))
values = flood_evaluate(big)
truth = values.mean()
print(f"  E[S] ~= {truth:.5f}  (standard error {values.std(ddof=1) / 1000:.5f})")
print(f"  P[S > 0] ~= {(values > 0).mean():.5f}  (overflow probability, for context)")

print(f"\nScheme comparison, {REPETITIONS} repetitions per design size:")
print("scheme " + "".join(f" | n={n}: mean     var    " for n in SIZES))
for s, scheme in enumerate(("mc", "lhsd", "qlhs")):
    cells = []
    for k, n in enumerate(SIZES):
        builder = partial(build_design, CFG, model.columns, model.groups, scheme, n)
        summary = replicate(builder, partial(evaluate_design, model), REPETITIONS,
                            50_000_000 * (s + 1) + 1_000_000 * k)
        cells.append(f" | {summary.mean:8.4f} {summary.variance:8.2e}")
    print(f"{scheme:6}" + "".join(cells))

print("\nBoth stratified schemes beat Monte Carlo; LHSD is tightest because it")
print("knows the copula analytically, while qlhs only ever touched a sample of")
print("the correlated block -- the regime that matters when no copula is known.")

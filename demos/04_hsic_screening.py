"""Kernel screening: which inputs actually drive the output?

The synthetic benchmark has three active independent inputs, two inert ones
and a correlated three-column group that enters the response. A 400-point
quantization-based LHS design is evaluated once, and every input (the
dependent group counted as a single block input with a standardized group
kernel) gets a permutation independence test. All inputs are tested on one
shared set of output permutations, so each p-value is a valid permutation
p-value while the p-values of different inputs are dependent (common random
numbers). Inert inputs should be accepted as independent; everything else
rejected.
"""

import numpy as np

from qdoe.config import parse_config
from qdoe.hsic import screen
from qdoe.models import build_model
from qdoe.runner import build_design, evaluate_design, quantize_groups, scheme_blocks

N = 400
PERMUTATIONS = 499
ALPHA = 0.01

cfg = parse_config({"version": 1, "seed": 0, "pool_size": 6000,
                    "lloyd": {"max_iter": 25, "rel_tol": 1e-6, "restarts": 1}})

model = build_model("synthetic_screen")
print("Response: y = 3*x1 + 4*x2^2 + 1.5*sin(2*pi*x3) + 0.6*(w1 + w2 + w3)")
print("Active: x1, x2, x3 and the correlated group w. Inert: x4, x5.\n")

rng = np.random.default_rng(20240814)
blocks = quantize_groups(cfg, scheme_blocks("qlhs", model.columns, model.groups), N, rng)
design = build_design(cfg, model.columns, model.groups, "qlhs", N, rng, blocks=blocks)
outputs = evaluate_design(model, design)
quantizer = blocks["w"].quantizer
print(f"Design: qlhs with {N} rows; dependent block quantized into {N} cells "
      f"(pool {cfg.pool_size}, distortion {quantizer.distortion:.4f}).\n")

roles = design.column_roles
groups = [(c, [roles.index(c)]) for c in ("x1", "x2", "x3", "x4", "x5")]
groups.append(("w (group)", [roles.index(c) for c in ("w1", "w2", "w3")]))

results = screen(design, outputs, groups, permutations=PERMUTATIONS, alpha=ALPHA, rng=rng)

print(f"{'input':<12} {'hsic':>10} {'p-value':>9}   decision (alpha = {ALPHA})")
for res in results:
    print(f"{res.name:<12} {res.hsic_value:10.2e} {res.p_value:9.4f}   {res.decision}")

print("\nThe dependent group is screened as one block: its three columns share a")
print("standardized radial kernel, so their very different scales all contribute.")

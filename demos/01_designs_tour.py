"""Tour of the sampling schemes on a small dependent/independent input mix.

Builds every design the library offers for the same problem: two correlated
inputs (a centered Gaussian pair with covariance 0.8) plus one independent
uniform input. Prints each design with its weights and shows what
stratification means for each scheme.
"""

import numpy as np

from qdoe import (
    CandidatePool,
    Normal,
    Uniform,
    gaussian_copula,
    lhs,
    lhs_with_marginals,
    lloyd,
    mc_design,
    qlhs_design,
)

N = 8
rng = np.random.default_rng(7)


def show(design, note):
    print(f"\n--- {design.scheme} ({note})")
    print("   " + "  ".join(f"{c:>8}" for c in design.column_roles) + "    weight")
    for row, w in zip(design.points, design.weights):
        print("   " + "  ".join(f"{v:8.3f}" for v in row) + f"    {w:.4f}")
    print(f"   weight total: {design.weights.sum():.6f}")


print("Latin hypercube on the unit square: one point per 1/8-interval in every column.")
unit = lhs(N, 2, rng)
show(unit, "uniform cube")
print("   interval indices per column:",
      [sorted(np.floor(unit.points[:, j] * N).astype(int).tolist()) for j in range(2)])

print("\nThe same stratification pushed through marginals (x ~ N(0,1), y ~ U(0,1)):")
show(lhs_with_marginals(N, [Normal(0, 1), Uniform(0, 1)], rng), "quantile transform")

print("\nLHSD: a Gaussian copula (rho = 0.8) rebuilt sequentially from conditional")
print("inverses, so the first column keeps exact stratification while the pair as a")
print("whole carries the dependence:")
cop = gaussian_copula([[1.0, 0.8], [0.8, 1.0]])
show(lhs_with_marginals(N, [Normal(0, 1), Normal(0, 1)], rng, copula=cop), "copula + marginals")

print("\nRandom quantization: the correlated pair is known only through a sample")
print("(the candidate pool). Lloyd's algorithm carves the pool into Voronoi cells,")
print("and the design draws one pool point per cell, weighted by the cell mass.")
print("One join, qlhs_design, builds every quantized design from its blocks:")
chol = np.linalg.cholesky([[1.0, 0.8], [0.8, 1.0]])
pool = CandidatePool(rng.standard_normal((4000, 2)) @ chol.T)
quantizer = lloyd(pool, N, rng, restarts=2)
print(f"   pool size {pool.m}, distortion after Lloyd: {quantizer.distortion:.4f}")
show(qlhs_design([(quantizer, pool)], [], rng), "one draw per Voronoi cell")

print("\nQuantization-based LHS: the rq block for the dependent pair joined to an")
print("LHS block for the independent input through a random permutation:")
show(qlhs_design([(quantizer, pool)], [Uniform(0, 1)], rng), "rq block + LHS block")

print("\nDouble quantization: two dependent groups, each quantized, matched by a")
print("random permutation; weights are products of cell probabilities and the")
print("estimator renormalizes them:")
pool_y = CandidatePool(np.exp(rng.standard_normal((4000, 1))))
quantizer_y = lloyd(pool_y, N, rng, restarts=2)
show(qlhs_design([(quantizer, pool), (quantizer_y, pool_y)], [], rng), "two rq blocks")

print("\nPlain Monte Carlo, for reference:")
show(mc_design(rng.standard_normal((N, 2)) @ chol.T), "independent rows")

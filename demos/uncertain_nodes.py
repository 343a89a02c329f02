"""
Clustering distributions instead of points
==========================================

Every node here is a small discrete distribution over a shared point
universe. Sites collapse each node to its best single point (the
1-median anchor) plus a scalar, run the deterministic machinery on those
tentacles, and map the answer back. The script shows the collapse, the
factor-2 mapping guarantee, the tau search behind the expected-max
objective, and the Monte Carlo estimator against exact enumeration.
"""

import numpy as np

from partialclust import (
    NodePartition,
    MetricSpace,
    eval_center_g_objective,
    one_median,
    run_center_g,
    run_uncertain,
)
from partialclust.cli import gen_uncertain_planted

universe_pts, nodes = gen_uncertain_planted(20, 2, 2, seed=7)
space = MetricSpace.euclidean(universe_pts)
npart = NodePartition.round_robin(space, nodes, 3)

print(f"{len(nodes)} nodes over a {space.n}-point universe, 3 sites")
nd = nodes[0]
anchor = one_median(space, nd)
print(f"node 0 support {nd.support} probs {nd.probs}")
print(f"  collapses to point {anchor.point} with offset {anchor.value:.3f}")
print()

# ---------------------------------------------------------------------------
# Expected-distance median over nodes. The report carries both costs: the
# collapsed-graph cost the protocol optimized and the mapped-back expected
# cost on the true distributions, at most a factor 2 apart.

rep = run_uncertain(npart, 2, 2, objective="median", seed=7)
ex = rep.extras
print(f"uncertain (2,2)-median ignored nodes {sorted(rep.solution.outliers)}")
print(f"graph cost {ex['graph_cost']:.3f}, mapped-back {ex['universe_cost']:.3f}"
      f" (<= {ex['mapping_factor']:.0f}x)")
print(f"words: {rep.ledger.total_words} "
      f"(a forwarded node costs B+1, same as a weighted center)")
print()

# ---------------------------------------------------------------------------
# The expected-max-radius objective cannot collapse nodes the same way, so
# the sites keep whole distributions and the coordinator searches a
# doubling tau grid for the smallest scale whose truncated costs stay
# within budget.

rep = run_center_g(npart, 2, 2)
ex = rep.extras
grid, sums = ex["tau_grid"], ex["tau_sums"]
i = ex["tau_hat_index"]
print("center-g tau search (sum of truncated site costs vs 12*tau):")
for j in range(min(i + 2, len(grid))):
    mark = " <- tau-hat" if j == i else ""
    verdict = "stop" if sums[j] <= 12 * grid[j] else "raise"
    print(f"  tau {grid[j]:>8.3f}: sum {sums[j]:>8.3f} vs {12 * grid[j]:>8.3f}"
          f" -> {verdict}{mark}")
print(f"ignored nodes {sorted(rep.solution.outliers)}, "
      f"cost {rep.solution.cost:.3f}")
print()

# ---------------------------------------------------------------------------
# How good is that solution under the actual objective, the expected
# maximum distance over realizations? Exact enumeration is exponential in
# the node count; the seeded Monte Carlo path agrees within its reported
# half-width.

exact = eval_center_g_objective(space, nodes, rep.solution, method="exact")
mc = eval_center_g_objective(space, nodes, rep.solution, method="mc",
                             samples=20000, seed=7)
print(f"expected max radius: exact {exact.value:.4f} "
      f"({exact.samples} outcomes enumerated)")
print(f"               monte carlo {mc.value:.4f} +- {mc.half_width:.4f} "
      f"({mc.samples} draws)")
assert abs(mc.value - exact.value) <= 3 * mc.half_width

"""
(k, t)-median in two rounds: what actually crosses the wire
============================================================

Plants three blobs plus five stray points, spreads them over four sites,
and runs the two-round protocol while printing every message class: the
cost-curve hulls going up, the pivot broadcast coming down, and the
weighted summaries going up again.
"""

import numpy as np

from partialclust import MetricSpace, Partition, run_kt_median
from partialclust.cli import gen_planted

k, t, sites = 3, 5, 4
pts = gen_planted(120, k, t, seed=11)
space = MetricSpace.euclidean(pts)
part = Partition.round_robin(space, sites)

report = run_kt_median(part, k, t, seed=11)
sol = report.solution

print(f"{space.n} points on {sites} sites, k={k}, t={t}")
print(f"planted strays: ids {list(range(115, 120))}")
print(f"ignored by the run: {sorted(sol.outliers)}")
print(f"cost {sol.cost:.3f}, centers {sorted(int(c) for c in sol.centers)}")
print()

# ---------------------------------------------------------------------------
# Round 1, upward: each site solves (2k, q) locally for q on a geometric
# grid, then ships only the lower convex hull of those costs. Two words per
# vertex; a handful of vertices summarize the whole tradeoff curve.

print("round 1: per-site cost-curve hulls")
for curve in report.curves:
    pairs = ", ".join(f"({int(q)}, {c:.1f})"
                      for q, c in zip(curve.hull_q, curve.hull_cost))
    print(f"  site {curve.site}: {pairs}")
print()

# The coordinator sorts every hull slope once and cuts at rank floor(rho*t).
# Each site recovers its own budget from three broadcast words (pivot site,
# pivot index, pivot value) without seeing anyone else's curve.

alloc = report.allocation
print(f"pivot: site {alloc.pivot_site}, q={alloc.pivot_q}, "
      f"marginal value {alloc.pivot_value:.3f}")
print(f"budgets t_i = {list(report.budgets)} "
      f"(sum {sum(report.budgets)} <= 3t = {3 * t})")
print()

# ---------------------------------------------------------------------------
# Round 2, upward: 2k weighted centers plus the t_i local outliers, then
# one clean (k, t)-median solve at the coordinator. The ledger total must
# equal the closed form word for word.

B = space.word_width
round1 = sum(2 * c.n_vertices for c in report.curves) + 3 * sites
round2 = sum(2 * k * (B + 1) + ti * B for ti in report.budgets)
assert report.ledger.words(round_no=1) == round1
assert report.ledger.words(round_no=2) == round2
assert report.ledger.total_words == round1 + round2

print(f"words: round 1 = {round1}, round 2 = {round2}, "
      f"total = {report.ledger.total_words}")
print(f"naive shipping of all points would cost {space.n * B} words")
print()

# Message-level view, grouped by kind.
for kind in ("cost-curve", "pivot", "summary"):
    words = report.ledger.words(kind=kind)
    print(f"  {kind:<10} {words:>5} words")

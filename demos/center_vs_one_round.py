"""
Word growth: two-round protocols against the one-round baseline
===============================================================

The one-round baseline ships every site's 2k centers and t candidate
outliers blind, so its total carries an s*t term in point words. The
two-round median protocol negotiates budgets first and stays affine in s
and t; the center protocol also negotiates but spends s*t cheap scalars
on its marginals. This script measures all three on the same data and
fits the cross term to make the difference visible.
"""

import numpy as np

from partialclust import (
    Instance,
    MetricSpace,
    Objective,
    Partition,
    exact_oracle,
    run_kt_center,
    run_one_round,
    run_kt_median,
)
from partialclust.cli import gen_planted

pts = gen_planted(320, 2, 8, seed=6)
space = MetricSpace.euclidean(pts)
B, k = space.word_width, 2

# ---------------------------------------------------------------------------
# Center first, at desk scale, next to the exact optimum.

small = MetricSpace.euclidean(gen_planted(14, 2, 2, seed=3))
rep = run_kt_center(Partition.round_robin(small, 2), 2, 2)
opt = exact_oracle(Instance.from_points(small), 2, 2, Objective.CENTER)
print(f"(2,2)-center on 14 points: protocol {rep.solution.cost:.3f}, "
      f"optimum {opt.cost:.3f}, ratio {rep.solution.cost / opt.cost:.2f} (<= 9)")
print(f"rounds: {rep.rounds}, words: {rep.ledger.total_words}")
print()

# ---------------------------------------------------------------------------
# Now the growth table. Same point set throughout; only s and t move.

print(f"{'s':>3} {'t':>3} {'median':>8} {'center':>8} {'one-round':>10}")
rows = []
for s in (2, 4, 8):
    part = Partition.round_robin(space, s)
    for t in (8, 16, 32):
        med = run_kt_median(part, k, t, seed=1).ledger.total_words
        cen = run_kt_center(part, k, t).ledger.total_words
        one = run_one_round(part, k, t, seed=1).ledger.total_words
        # the baseline total is exactly s * (2k(B+1) + tB)
        assert one == s * (2 * k * (B + 1) + t * B)
        rows.append((s, t, med, one))
        print(f"{s:>3} {t:>3} {med:>8} {cen:>8} {one:>10}")
print()

# Least squares against 1, s, t, s*t: the cross coefficient is the story.
A = np.array([[1.0, s, t, s * t] for s, t, _, _ in rows])
for label, col in (("median", 2), ("one-round", 3)):
    y = np.array([float(r[col]) for r in rows])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    print(f"{label:>9}: total ~ {coef[0]:.1f} + {coef[1]:.1f}*s "
          f"+ {coef[2]:.2f}*t + {coef[3]:.2f}*s*t")
print(f"\nthe one-round cross term recovers B = {B} exactly; "
      "the median term is noise from hull sizes")

"""Slow, literal oracles shared across the test suite.

Everything here trades speed for trustworthiness: exact rational arithmetic
wherever float rounding could blur an inequality, exhaustive enumeration
wherever the library uses a heuristic. Keep instances desk-scale.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

from partialclust import (
    Instance,
    MetricSpace,
    Objective,
    UncertainNode,
    node_universe_cost,
    solution_from_centers,
)


def random_points(seed, n, dim=2, scale=10.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(n, dim))


def random_instance(seed, n, dim=2, scale=10.0):
    return Instance.from_points(MetricSpace.euclidean(random_points(seed, n, dim, scale)))


def random_curve_points(rng, t, vmax=40):
    """Integer-cost curve samples at every q in 0..t.

    Integer costs keep all hull slopes exactly representable, so float
    comparisons downstream are decided the same way exact rationals would
    decide them.
    """
    costs = rng.integers(0, vmax + 1, size=t + 1)
    return [(q, float(c)) for q, c in enumerate(costs)]


def hull_value_exact(curve, q):
    """curve.value(q) recomputed with Fractions from the hull vertices."""
    qs = [int(round(x)) for x in curve.hull_q]
    cs = [Fraction(c) for c in curve.hull_cost]
    if q < qs[0] or q > qs[-1]:
        raise ValueError(f"q={q} outside [{qs[0]}, {qs[-1]}]")
    for i in range(len(qs) - 1):
        if qs[i] <= q <= qs[i + 1]:
            if q == qs[i]:
                return cs[i]
            span = qs[i + 1] - qs[i]
            return cs[i] + (cs[i + 1] - cs[i]) * Fraction(q - qs[i], span)
    return cs[-1]


def dp_min_curve_sum(curves, budget):
    """Exact optimum of sum_i f_i(q_i) subject to sum_i q_i == budget.

    Plain table DP over sites with Fraction values; q_i ranges over the
    full integer domain of each curve, not just hull vertices.
    """
    best = {0: Fraction(0)}
    for curve in curves:
        tmax = int(round(curve.hull_q[-1]))
        nxt = {}
        for spent, val in best.items():
            for q in range(tmax + 1):
                if spent + q > budget:
                    break
                cand = val + hull_value_exact(curve, q)
                key = spent + q
                if key not in nxt or cand < nxt[key]:
                    nxt[key] = cand
        best = nxt
    if budget in best:
        return best[budget]
    # budget exceeds the combined domain; the cheapest is everything maxed out
    return min(best.values())


def solution_cost_exact(instance, solution, objective, tau=0.0):
    """Solution cost re-accumulated in Fractions over the float cost matrix."""
    M = instance.cost_matrix(objective, tau)
    terms = []
    for j, d in enumerate(instance.demands):
        excl = solution.outliers.get(j, 0)
        kept = d.weight - excl
        if kept == 0:
            continue
        if solution.copy_assignment and j in solution.copy_assignment:
            for ctr, copies in solution.copy_assignment[j]:
                terms.append(Fraction(float(M[j, instance.candidate_column(ctr)])) * copies)
        else:
            ctr = solution.assignment[j]
            terms.append(Fraction(float(M[j, instance.candidate_column(ctr)])) * kept)
    if not terms:
        return Fraction(0)
    if objective is Objective.CENTER:
        return max(terms)
    return sum(terms)


def exact_uncertain_optimum(space, nodes, k, t, objective, tau=0.0, candidates=None):
    """Brute-force partial clustering of uncertain nodes over the universe.

    For every center subset the optimal exclusion drops the t most expensive
    nodes, for sums and max alike. Returns (cost, centers, excluded).
    """
    if candidates is None:
        candidates = range(space.n)
    candidates = list(candidates)
    obj = Objective.from_string(objective) if isinstance(objective, str) else objective
    best = None
    for r in range(1, k + 1):
        for centers in combinations(candidates, r):
            per_node = []
            for node in nodes:
                vals = [node_universe_cost(space, node, c, Objective.MEDIAN, tau=tau)
                        for c in centers]
                if obj is Objective.MEANS:
                    vals = [
                        sum(p * max(space.distance(u, c) - tau, 0.0) ** 2
                            for u, p in zip(node.support, node.probs))
                        for c in centers
                    ]
                per_node.append(min(vals))
            order = np.argsort(per_node)[::-1]
            dropped = set(int(i) for i in order[:t])
            kept = [v for i, v in enumerate(per_node) if i not in dropped]
            if not kept:
                cost = 0.0
            elif obj is Objective.CENTER:
                cost = max(kept)
            else:
                cost = sum(kept)
            key = (cost, centers)
            if best is None or key < best[0]:
                best = (key, dropped)
    (cost, centers), dropped = best
    return cost, centers, dropped


def min_split_sum(vectors, budget):
    """min over {q_i} of sum_i v_i[q_i] subject to sum q_i <= budget.

    Each v_i is indexed by the site's own outlier count, q_i capped at
    len(v_i) - 1. Used to check allocation-style lower bounds exhaustively.
    """
    best = {0: 0.0}
    for v in vectors:
        nxt = {}
        for spent, val in best.items():
            for q in range(min(len(v) - 1, budget - spent) + 1):
                cand = val + v[q]
                key = spent + q
                if key not in nxt or cand < nxt[key]:
                    nxt[key] = cand
        best = nxt
    return min(best.values())


def random_uncertain_nodes(seed, n_nodes, universe_size, dim=2, scale=6.0,
                           max_support=3):
    """A seeded universe plus nodes with small random supports over it."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-scale, scale, size=(universe_size, dim))
    space = MetricSpace.euclidean(pts)
    nodes = []
    for j in range(n_nodes):
        size = int(rng.integers(1, max_support + 1))
        support = rng.choice(universe_size, size=size, replace=False)
        probs = rng.uniform(0.2, 1.0, size=size)
        probs = probs / probs.sum()
        nodes.append(UncertainNode(j, tuple(int(u) for u in support),
                                   tuple(float(p) for p in probs)))
    return space, nodes


def naive_kt_center_outliers(instance, k, t):
    """The threshold sweep written plainly: both disks and every gain are
    rebuilt from the cost matrix at each radius. ``kt_center_outliers`` must
    return exactly this solution."""
    M = instance.cost_matrix(Objective.CENTER)
    w = instance.weights
    radii = np.unique(M)
    for r in radii:
        within = M <= r + 1e-12
        expanded = M <= 3.0 * r + 1e-12
        uncovered = w.copy()
        centers = []
        for _ in range(min(k, len(instance.candidates))):
            gain = uncovered @ within
            u = int(np.argmax(gain))
            centers.append(int(instance.candidates[u]))
            uncovered[expanded[:, u]] = 0.0
        if uncovered.sum() <= t + 1e-9:
            return solution_from_centers(instance, centers, Objective.CENTER, t)
    raise AssertionError("threshold sweep found no feasible radius")

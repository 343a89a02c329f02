"""Slow, literal oracles shared across the test suite.

Everything here trades speed for trustworthiness: exact rational arithmetic
wherever float rounding could blur an inequality, exhaustive enumeration
wherever the library uses a heuristic. Keep instances desk-scale.
"""

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from partialclust import (
    Demand,
    Instance,
    MetricSpace,
    Objective,
    UncertainNode,
    node_universe_cost,
    solution_from_centers,
)
from partialclust.errors import ClusteringError, InvalidParameterError
from partialclust.metric import EvalCounter
from partialclust import solvers
from partialclust.solvers import GonzalezOrder, JVResult, SortedCosts


class InconsistentSolutionError(ClusteringError, ValueError):
    """A solution object does not cover its instance (unassigned non-outlier,
    unknown center, negative copy counts, ...)."""


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


def full_gonzalez_order(instance):
    """The farthest-first traversal run to the end over the full pair
    matrix. ``gonzalez_order(instance, L)`` must return exactly the first L
    points of this order and the first L - 1 of its radii."""
    D = instance.pair_matrix()
    n = instance.n
    order = [0]
    radii = []
    mind = D[0].copy()
    for _ in range(n - 1):
        nxt = int(np.argmax(mind))
        radii.append(float(mind[nxt]))
        order.append(nxt)
        np.minimum(mind, D[nxt], out=mind)
    return GonzalezOrder(tuple(order), tuple(radii))


def plain_center_lower_bound(M, k, t):
    """The threshold sweep's lower bound without its row truncation:
    farthest-first over the whole matrix D(j, j') = min over candidates u
    of max(M[j, u], M[j', u]). ``solvers._center_lower_bound`` must return
    exactly this value."""
    n = M.shape[0]
    if k + t + 1 > n:
        return 0.0
    D = np.maximum(M[:, None, :], M[None, :, :]).min(axis=2)
    order = [0]
    near = D[0].copy()
    for _ in range(k + t):
        near[order] = -np.inf
        order.append(int(np.argmax(near)))
        bound = float(near[order[-1]])
        np.minimum(near, D[order[-1]], out=near)
    return bound


def loop_solution_from_centers(instance, centers, objective, budget, tau=0.0):
    """Nearest-center assignment and greedy exclusion written as plain loops
    over the demands. ``solution_from_centers`` must return exactly this
    solution: the same dicts of Python ints and the same cost bits."""
    centers = tuple(sorted({int(c) for c in centers}))
    M = instance.cost_matrix(objective, tau)
    cols = [instance.candidate_column(c) for c in centers]
    best, costs = [], []
    for j in range(instance.n):
        i = min(range(len(cols)), key=lambda i: (M[j, cols[i]], i))
        best.append(i)
        costs.append(M[j, cols[i]])
    excluded = {}
    rem = min(int(budget), instance.total_weight)
    for j in sorted(range(instance.n), key=lambda j: (-costs[j], j)):
        if rem == 0:
            break
        excluded[j] = min(instance.demands[j].weight, rem)
        rem -= excluded[j]
    assignment = {}
    total = 0.0
    worst = 0.0
    for j, d in enumerate(instance.demands):
        live = d.weight - excluded.get(j, 0)
        if live == 0:
            continue
        assignment[j] = centers[best[j]]
        total += live * costs[j]
        worst = max(worst, float(costs[j]))
    cost = worst if objective is Objective.CENTER else total
    return centers, excluded, assignment, float(cost)


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


def one_center_verdict(table, z):
    """The one-center certificate that the clique cover subsumes: a run at
    ``z > 0`` keeps at most one center when z > (spread(u1) + 4 W 1e-12 (1
    + theta1 + cmax)) (1 + 1e-9), with u1 and theta1 the argmin and the
    least of the initial opening times, and spread(u1) = max over v of
    sum_j w_j (c_{j,u1} - c_{j,v})+, summed over the table's column blocks."""
    times = table.initial_opening_times(z)
    u1 = int(times.argmin())
    C = table.matrix
    n, m = C.shape
    step = max(1, solvers._BLOCK_ENTRIES // n)
    spread = 0.0
    for r in range(0, m, step):
        gap = np.maximum(C[:, u1, None] - C[:, r:r + step], 0.0)
        spread = max(spread, float((table.weights @ gap).max()))
    slack = 4.0 * table.total * 1e-12 * (1.0 + float(times[u1]) + table.cmax)
    return z > (spread + slack) * (1.0 + 1e-9)


def zero_clique_verdict(table, k, z):
    """The zero-clique certificate that the clique cover subsumes: a run at
    ``z > 2 W 1e-12 (1 + cmax)`` keeps fewer than k centers when a greedy
    cover of the candidates by the cliques {u : c_{j,u} = 0}, a candidate
    in none a clique of its own, takes fewer than k cliques."""
    zero = table.matrix == 0.0
    uncovered = np.ones(zero.shape[1], dtype=bool)
    cliques = 0
    while cliques < k and uncovered.any():
        hits = np.count_nonzero(zero[:, uncovered], axis=1)
        j = int(hits.argmax())
        if hits[j] < 2:
            cliques += int(np.count_nonzero(uncovered))
            break
        uncovered &= ~zero[j]
        cliques += 1
    return cliques < k and z > 2.0 * table.total * 1e-12 * (1.0 + table.cmax)


def lazy_heap_jv_facility_location(instance, z, objective, tau=0.0, stop_weight=0, table=None):
    """The primal-dual probe with its opening times in a lazy binary heap,
    re-estimated one candidate at a time. ``jv_facility_location`` must
    return exactly this result."""
    if z < 0:
        raise InvalidParameterError("facility cost must be >= 0")
    C = instance.cost_matrix(objective, tau)
    if table is None:
        table = SortedCosts.build(instance, objective, tau)
    elif table.matrix is not C:
        raise InvalidParameterError("sorted-cost table belongs to another cost matrix")
    n, m = C.shape
    w = instance.weights
    wi = [d.weight for d in instance.demands]
    total = int(sum(wi))
    stop_weight = max(int(stop_weight), 0)

    order, Csort = table.order, table.costs

    active = np.ones(n, dtype=bool)
    freeze = np.full(n, np.inf)
    frozen_base = np.zeros(m)
    opened = np.zeros(m, dtype=bool)
    open_time = np.full(m, np.inf)
    open_seq = []
    minopen = np.full(n, np.inf)
    remaining = total
    theta = 0.0

    def opening_estimate(u):
        req = z - frozen_base[u]
        if req <= 0:
            return theta
        col = order[u]
        wa = np.where(active[col], w[col], 0.0)
        cw = np.cumsum(wa)
        if cw[-1] <= 0:
            return np.inf
        costs = Csort[u]
        cwc = np.cumsum(wa * costs)
        with np.errstate(divide="ignore", invalid="ignore"):
            cand = (req + cwc) / cw
        upper = np.append(costs[1:], np.inf)
        ok = (cw > 0) & (cand >= costs - 1e-12) & (cand <= upper + 1e-12)
        if not ok.any():
            return np.inf
        return max(float(cand[ok].min()), theta)

    heap = list(zip(table.initial_opening_times(z).tolist(), range(m)))
    heapq.heapify(heap)

    def next_opening():
        while heap:
            tu, u = heap[0]
            if opened[u]:
                heapq.heappop(heap)
                continue
            t2 = opening_estimate(u)
            if t2 > tu + 1e-12 * (1.0 + abs(tu)):
                heapq.heapreplace(heap, (t2, u))
                continue
            return max(tu, theta), u
        return np.inf, None

    stopped = False
    while remaining > stop_weight and not stopped:
        act_idx = np.where(active)[0]
        if act_idx.size == 0:
            break
        t_freeze = float(minopen[act_idx].min()) if opened.any() else np.inf
        t_open, u_next = next_opening()
        if math.isinf(t_open) and math.isinf(t_freeze):
            break  # pragma: no cover - no facility can ever open
        if t_open <= t_freeze:
            theta = t_open
            heapq.heappop(heap)
            opened[u_next] = True
            open_time[u_next] = theta
            open_seq.append(u_next)
            np.minimum(minopen, C[:, u_next], out=minopen)
        else:
            theta = t_freeze
        batch = np.where(active & (minopen <= theta + 1e-12 * (1.0 + theta)))[0]
        cols = np.where(opened)[0]
        connect = np.maximum(open_time[cols], C[np.ix_(batch, cols)]).min(axis=1)
        for j, tj in zip(batch, connect):
            freeze[j] = tj
            active[j] = False
            if remaining - wi[j] < stop_weight:
                stopped = True
                break
            remaining -= wi[j]
            frozen_base += w[j] * np.maximum(freeze[j] - C[j], 0.0)

    alpha = np.where(np.isinf(freeze), theta, freeze)

    kept = []
    if open_seq:
        temp = np.array(open_seq, dtype=int)
        tol = 1e-12 * (1.0 + float(alpha.max()))
        pos = C[:, temp]
        np.subtract(alpha[:, None], pos, out=pos)
        # Sums of nonnegative 0/1 products: any overlap stays >= 1 in float32.
        pos = (pos > tol).astype(np.float32)
        conflict = (pos.T @ pos) > 0
        for i in range(len(temp)):
            if not conflict[i, kept].any():
                kept.append(i)
        centers = tuple(int(instance.candidates[temp[i]]) for i in kept)
    else:
        centers = ()
    return JVResult(centers, alpha)


def instance_cost(instance, solution, objective, tau=0.0):
    """Re-evaluate a solution's cost on its instance.

    Accumulates in ascending demand order so repeated evaluation is
    bit-for-bit reproducible. Raises if a surviving demand is unassigned,
    an assignment target is not a center, or an excluded-copy count is out
    of range.
    """
    M = instance.cost_matrix(objective, tau)
    centers = set(solution.centers)
    total = 0.0
    worst = 0.0
    for j, d in enumerate(instance.demands):
        excl = solution.excluded_copies(j)
        if excl < 0 or excl > d.weight:
            raise InconsistentSolutionError(f"demand {j}: bad excluded copies {excl}")
        live = d.weight - excl
        if live == 0:
            continue
        ctr = solution.assignment.get(j)
        if ctr is None:
            raise InconsistentSolutionError(f"demand {j} is neither assigned nor excluded")
        if ctr not in centers:
            raise InconsistentSolutionError(f"demand {j}: {ctr} is not a center")
        c = M[j, instance.candidate_column(ctr)]
        total += live * c
        worst = max(worst, c)
    return worst if objective is Objective.CENTER else total


def solution_cost(space, solution, objective, weights=None):
    """Evaluate a point-level solution directly on a metric space.

    ``assignment`` maps point index -> center point index; ``weights`` is an
    optional per-point multiplicity map/array (default all 1). Outlier copies
    contribute nothing. Accumulation runs in ascending point order.
    """
    centers = set(solution.centers)
    for c in centers:
        space._check(c)
    points = sorted(set(solution.assignment) | set(solution.outliers))
    total = 0.0
    worst = 0.0
    for p in points:
        w = 1 if weights is None else int(weights[p])
        excl = solution.excluded_copies(p)
        if excl < 0 or excl > w:
            raise InconsistentSolutionError(f"point {p}: bad excluded copies {excl}")
        live = w - excl
        if live == 0:
            continue
        ctr = solution.assignment.get(p)
        if ctr is None:
            raise InconsistentSolutionError(f"point {p} is neither assigned nor excluded")
        if ctr not in centers:
            raise InconsistentSolutionError(f"point {p}: {ctr} is not a center")
        c = space.distance(p, ctr) ** objective.power
        total += live * c
        worst = max(worst, c)
    return worst if objective is Objective.CENTER else total


def dedupe_demands(space, indices):
    """Merge exactly coinciding points into weighted demands: the dict-based
    grouping :meth:`Instance.from_points` replaced, kept as its reference.

    Returns demands sorted by representative point index; each demand's tag
    tuple lists the merged point indices in ascending order.
    """
    rows = space.coords if space.mode == "euclidean" else space.matrix
    groups = {}
    for i in indices:
        i = int(i)
        # Python floats compare and hash as the numpy scalars do (-0.0 ==
        # 0.0), and a row at a time keeps a matrix space's keys small.
        groups.setdefault(tuple(rows[i].tolist()), []).append(i)
    demands = []
    for members in groups.values():
        members.sort()
        demands.append(
            Demand((members[0],), (1.0,), 0.0, len(members), tuple(members))
        )
    demands.sort(key=lambda d: d.anchor)
    return demands


@dataclass
class Block:
    """One evaluated distance block: its exact row and column point indices,
    its entries, and the :class:`EvalCounter` that tallied it (None when no
    counter did)."""

    rows: tuple
    cols: tuple
    entries: int
    counter: EvalCounter = None


def record_blocks(monkeypatch):
    """Record every distance block evaluated for the rest of the test.

    Wraps ``MetricSpace.block`` and returns the list each call appends a
    :class:`Block` to. Every counted block is tallied right after it is
    evaluated, so ``EvalCounter.add`` is wrapped too and names the counter
    of the block just recorded.
    """
    blocks = []
    block, add = MetricSpace.block, EvalCounter.add

    def recorded_block(self, rows, cols):
        D = block(self, rows, cols)
        blocks.append(Block(tuple(np.asarray(rows).ravel().tolist()),
                            tuple(np.asarray(cols).ravel().tolist()), D.size))
        return D

    def recorded_add(self, n):
        last = blocks[-1]
        assert last.counter is None and last.entries == n, "a tally without its block"
        last.counter = self
        add(self, n)

    monkeypatch.setattr(MetricSpace, "block", recorded_block)
    monkeypatch.setattr(EvalCounter, "add", recorded_add)
    return blocks

"""Outlier-budget allocation across sites.

Sites summarize how much cost they save per extra local outlier as a convex,
non-increasing curve; the coordinator pools all marginal savings, keeps the
floor(rho * t) largest, and each site reads off its own budget from the
broadcast pivot entry. The machinery here is shared by the median, center
and truncated (center-g) protocols.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .metric import ClusteringSolution, Objective


def geometric_index_set(t, rho):
    """{floor(rho^r) : rho^r <= t} together with 0 and t, sorted."""
    if not isinstance(t, (int, np.integer)) or t < 0:
        raise InvalidParameterError("t must be a nonnegative integer")
    if rho <= 1:
        raise InvalidParameterError("rho must be > 1")
    vals = {0, int(t)}
    r = 1
    while rho ** r <= t + 1e-9:
        vals.add(int(math.floor(rho ** r + 1e-9)))
        r += 1
    return tuple(sorted(vals))


@dataclass(frozen=True)
class CostCurve:
    """Lower convex hull of a site's (outlier count, solution cost) points.

    ``value(q)`` interpolates linearly between hull vertices; marginals
    l(q) = value(q-1) - value(q) are nonnegative and non-increasing by
    construction.
    """

    site: int
    hull_q: tuple
    hull_cost: tuple

    @property
    def t(self):
        return self.hull_q[-1]

    @property
    def n_vertices(self):
        return len(self.hull_q)

    def value(self, q):
        if q < self.hull_q[0] or q > self.hull_q[-1]:
            raise InvalidParameterError(f"q={q} outside curve domain")
        i = bisect_right(self.hull_q, q) - 1
        if i == len(self.hull_q) - 1:
            return self.hull_cost[-1]
        q1, q2 = self.hull_q[i], self.hull_q[i + 1]
        c1, c2 = self.hull_cost[i], self.hull_cost[i + 1]
        return c1 + (c2 - c1) * (q - q1) / (q2 - q1)

    def marginals(self):
        out = np.zeros(self.t, dtype=float)
        for i in range(len(self.hull_q) - 1):
            q1, q2 = self.hull_q[i], self.hull_q[i + 1]
            slope = (self.hull_cost[i] - self.hull_cost[i + 1]) / (q2 - q1)
            out[q1:q2] = max(slope, 0.0)
        return out

    def vertex_at_or_above(self, q):
        """Smallest hull vertex >= q."""
        for v in self.hull_q:
            if v >= q:
                return v
        raise InvalidParameterError(f"q={q} beyond curve domain")

    def vertex_at_or_below(self, q):
        for v in reversed(self.hull_q):
            if v <= q:
                return v
        raise InvalidParameterError(f"q={q} below curve domain")


def lower_hull(site, points):
    """Build a :class:`CostCurve` from raw (q, cost) samples.

    Costs are first clamped to be non-increasing in q (a solver allowed more
    outliers can never be forced to pay more); the monotone-chain scan then
    keeps only the vertices of the lower convex hull, dropping collinear
    interior points.
    """
    pts = sorted((int(q), float(c)) for q, c in points)
    if not pts:
        raise InvalidParameterError("need at least one curve point")
    qs = [q for q, _ in pts]
    if len(set(qs)) != len(qs):
        raise InvalidParameterError("duplicate outlier counts in curve input")
    if pts[0][0] != 0:
        raise InvalidParameterError("curve must include q = 0")
    if any(c < 0 for _, c in pts):
        raise InvalidParameterError("curve costs must be nonnegative")
    clamped = []
    running = math.inf
    for q, c in pts:
        running = min(running, c)
        clamped.append((q, running))
    hull = []
    for p in clamped:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return CostCurve(site, tuple(q for q, _ in hull), tuple(c for _, c in hull))


@dataclass(frozen=True)
class MarginalTable:
    """Flattened per-site marginals in the coordinator's stable sort order."""

    values: tuple
    sites: tuple
    qs: tuple
    order: tuple


@dataclass(frozen=True)
class Allocation:
    """Per-site outlier budgets plus the broadcast pivot entry."""

    t_by_site: tuple
    pivot_site: int | None
    pivot_q: int | None
    pivot_value: float | None
    rank: int

    @property
    def total(self):
        return sum(self.t_by_site)


def sort_marginals(marginals_per_site):
    """Stable order: value descending, then (site, q) ascending."""
    values, sites, qs = [], [], []
    for i, arr in enumerate(marginals_per_site):
        for qi, v in enumerate(arr):
            values.append(float(v))
            sites.append(i)
            qs.append(qi + 1)
    values = np.array(values)
    sites_a = np.array(sites)
    qs_a = np.array(qs)
    order = np.lexsort((qs_a, sites_a, -values)) if len(values) else np.array([], dtype=int)
    return MarginalTable(tuple(values), tuple(sites), tuple(qs), tuple(int(o) for o in order))


def allocate(marginals_per_site, t, rho):
    """Keep the floor(rho * t) largest marginals; t_i counts site i's share.

    The pivot is the entry at that rank (the last entry when fewer exist);
    within equal values the (site, q) lexicographic order decides, which
    makes per-site shares reconstructible from the pivot alone.
    """
    if rho <= 1:
        raise InvalidParameterError("rho must be > 1")
    s = len(marginals_per_site)
    rank = int(math.floor(rho * t + 1e-9))
    if t == 0 or rank < 1:
        return Allocation((0,) * s, None, None, None, rank)
    table = sort_marginals(marginals_per_site)
    if not table.order:
        return Allocation((0,) * s, None, None, None, rank)
    take = min(rank, len(table.order))
    chosen = table.order[:take]
    counts = [0] * s
    for idx in chosen:
        counts[table.sites[idx]] += 1
    p = table.order[take - 1]
    return Allocation(tuple(counts), table.sites[p], table.qs[p], table.values[p], rank)


def site_budget_from_pivot(marginals_i, site, pivot_site, pivot_q, pivot_value):
    """What site i can deduce from the broadcast pivot: the count of its own
    marginals ranking at or before the pivot in the stable order."""
    n = 0
    for qi, v in enumerate(marginals_i):
        q = qi + 1
        if v > pivot_value:
            n += 1
        elif v == pivot_value and (site, q) <= (pivot_site, pivot_q):
            n += 1
    return n


def exceptional_adjust(allocation, curve):
    """Move the pivot site's budget up to the smallest hull vertex >= its
    pivot index, so its round-2 solution is one it already computed."""
    if allocation.pivot_site is None:
        return allocation
    if curve.site != allocation.pivot_site:
        raise InvalidParameterError("curve does not belong to the pivot site")
    new = list(allocation.t_by_site)
    new[allocation.pivot_site] = curve.vertex_at_or_above(allocation.pivot_q)
    return Allocation(tuple(new), allocation.pivot_site, allocation.pivot_q,
                      allocation.pivot_value, allocation.rank)


# ---------------------------------------------------------------------------
# Convex merge of two solutions with different outlier counts


def merge_two_solutions(instance, sol_a, sol_b, target_t, objective=Objective.MEDIAN):
    """Interpolate two solutions into one with exactly ``target_t`` outliers.

    Write theta = (target_t - t1) / (t2 - t1). Copies served by both inputs
    go to the nearer of their two centers;
    copies served by exactly one input enter a pairing pass that serves the
    globally nearest single-side copy and discards one copy from the
    opposite side, until the second-only pool empties; the nearest remaining
    first-only copies fill up to exactly n - target_t served, everything
    else is an outlier. Serving the nearest copy (rather than the one with
    the smallest convex share) is what makes the per-step charge
    d(x) <= (1-theta) d_a + theta d_b valid for every theta, so the total
    cost is at most (1 - theta) * cost_a + theta * cost_b.
    """
    if sol_a.copy_assignment or sol_b.copy_assignment:
        raise InvalidParameterError("merge inputs must have single-center assignments")
    t1, t2 = sol_a.total_excluded, sol_b.total_excluded
    if t1 > t2:
        sol_a, sol_b = sol_b, sol_a
        t1, t2 = t2, t1
    if not t1 <= target_t <= t2:
        raise InvalidParameterError(f"target {target_t} outside [{t1}, {t2}]")
    if target_t == t1:
        return sol_a
    if target_t == t2:
        return sol_b
    M = instance.cost_matrix(objective)
    W = instance.total_weight

    parts = {}          # demand -> {center: copies}
    outliers = {}
    q1, q2 = [], []     # [demand, center, cost, copies]

    def attach(j, center, copies=1):
        parts.setdefault(j, {})
        parts[j][center] = parts[j].get(center, 0) + copies

    both_total = 0
    for j, w in enumerate(instance.counts.tolist()):
        ea, eb = sol_a.excluded_copies(j), sol_b.excluded_copies(j)
        both = w - max(ea, eb)
        only_a = max(0, eb - ea)
        only_b = max(0, ea - eb)
        if both > 0:
            ca = M[j, instance.candidate_column(sol_a.assignment[j])]
            cb = M[j, instance.candidate_column(sol_b.assignment[j])]
            if ca <= cb:
                attach(j, sol_a.assignment[j], both)
            else:
                attach(j, sol_b.assignment[j], both)
            both_total += both
        if only_a > 0:
            ctr = sol_a.assignment[j]
            q1.append([j, ctr, float(M[j, instance.candidate_column(ctr)]), only_a])
        if only_b > 0:
            ctr = sol_b.assignment[j]
            q2.append([j, ctr, float(M[j, instance.candidate_column(ctr)]), only_b])

    r2 = sum(e[3] for e in q2)
    for _ in range(r2):
        pool = [e for e in (q1 + q2) if e[3] > 0]
        x = min(pool, key=lambda e: (e[2], e[0]))
        other = q2 if any(x is e for e in q1) else q1
        # any opposite copy validates the charge; drop the farthest
        u = min((e for e in other if e[3] > 0), key=lambda e: (-e[2], e[0]))
        attach(x[0], x[1])
        x[3] -= 1
        u[3] -= 1
        outliers[u[0]] = outliers.get(u[0], 0) + 1

    keep = W - target_t - both_total - r2
    q1.sort(key=lambda e: (e[2], e[0]))
    for e in q1:
        take = min(e[3], keep)
        if take > 0:
            attach(e[0], e[1], take)
            keep -= take
        if e[3] - take > 0:
            outliers[e[0]] = outliers.get(e[0], 0) + (e[3] - take)

    centers = tuple(sorted(set(sol_a.centers) | set(sol_b.centers)))
    assignment = {}
    copy_assignment = {}
    excluded = {}
    total = 0.0
    worst = 0.0
    for j, w in enumerate(instance.counts.tolist()):
        served = parts.get(j, {})
        n_served = sum(served.values())
        if n_served < w:
            excluded[j] = w - n_served
        if not served:
            continue
        items = sorted(served.items())
        assignment[j] = items[0][0]
        if len(items) > 1:
            copy_assignment[j] = tuple(items)
        for ctr, copies in items:
            c = float(M[j, instance.candidate_column(ctr)])
            total += copies * c
            worst = max(worst, c)
    cost = worst if objective is Objective.CENTER else total
    return ClusteringSolution(centers, excluded, assignment, float(cost),
                              copy_assignment or None, note="merged")

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
from .metric import Objective
from .solvers import solution_from_centers


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


def allocate(marginals_per_site, t, rho):
    """Keep the floor(rho * t) largest marginals; t_i counts site i's share.

    The pivot is the entry at that rank (the last entry when fewer exist)
    in the stable order: value descending, then (site, q) ascending. So
    each site's share is what it reads off the broadcast pivot
    (:func:`site_budget_from_pivot`).
    """
    if rho <= 1:
        raise InvalidParameterError("rho must be > 1")
    s = len(marginals_per_site)
    rank = int(math.floor(rho * t + 1e-9))
    lens = [len(m) for m in marginals_per_site]
    if t == 0 or rank < 1 or not sum(lens):
        return Allocation((0,) * s, None, None, None, rank)
    values = np.concatenate(marginals_per_site).astype(float)
    sites = np.repeat(np.arange(s), lens)
    qs = np.concatenate([np.arange(1, m + 1) for m in lens])
    p = np.lexsort((qs, sites, -values))[min(rank, len(values)) - 1]
    pivot = (int(sites[p]), int(qs[p]), float(values[p]))
    return Allocation(tuple(site_budget_from_pivot(m, i, *pivot)
                            for i, m in enumerate(marginals_per_site)),
                      *pivot, rank)


def site_budget_from_pivot(marginals_i, site, pivot_site, pivot_q, pivot_value):
    """What site i can deduce from the broadcast pivot: the count of its own
    marginals ranking at or before the pivot in the stable order, i.e. those
    above the pivot value plus the equal ones whose (site, q) is at or
    before the pivot's."""
    v = np.asarray(marginals_i, dtype=float)
    ties = len(v) if site < pivot_site else pivot_q if site == pivot_site else 0
    return int(np.count_nonzero(v > pivot_value)
               + np.count_nonzero(v[:ties] == pivot_value))


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
    """Serve the union of two solutions' centers with exactly ``target_t``
    outliers, ``target_t`` between their outlier counts.

    Every copy goes to its nearest union center and the ``target_t``
    dearest copies are excluded (:func:`~partialclust.solvers.solution_from_centers`).
    That is the cheapest service of those centers with ``target_t``
    outliers, so with theta = (target_t - t1) / (t2 - t1) its cost is at
    most (1 - theta) * cost_a + theta * cost_b: pairing each copy only one
    input serves with an opposite copy to discard is one such service. At
    an endpoint the input itself comes back.
    """
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
    merged = solution_from_centers(instance, set(sol_a.centers) | set(sol_b.centers),
                                   objective, target_t)
    merged.note = "merged"
    return merged

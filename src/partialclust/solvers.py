"""Centralized clustering-with-outliers solvers.

Four families live here:

* :func:`gonzalez_order` — farthest-first traversal with insertion radii, the
  engine behind the center-objective protocols, computed one distance row
  per chosen point and stopped at the prefix the caller reads;
* :func:`kt_center_outliers` — threshold sweep with greedy disk covering
  (3-approximate k-center with outliers, weighted via copy counting), run
  over one sort of the cost matrix and event-driven: exact integer gains
  show the few radii where the greedy picks can change, and the picks are
  rerun only there, from the first radius a lower bound leaves open;
* :func:`bicriteria_median` — facility-location primal-dual with uniform
  opening cost, a binary search over that cost bracketing the center count,
  and randomized convex-combination rounding; relaxes either the outlier
  budget or the center count, and can grow its duals against
  threshold-truncated expected distances and measure the answer at a looser
  threshold;
* :func:`exact_oracle` — exhaustive enumeration at desk scale, the ground
  truth the approximation bounds are tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InfeasibleError,
    InvalidParameterError,
    InvalidPointError,
    OracleSizeLimitError,
)
from .metric import ClusteringSolution, Objective


def _greedy_exclude(costs, weights, budget):
    """Drop exactly ``budget`` copies, most expensive first.

    Ties break toward the lower demand index. Returns {index: copies}.
    The boundary demand may lose only part of its weight.
    """
    if budget <= 0:
        return {}
    idx = np.lexsort((np.arange(len(costs)), -costs))
    excluded = {}
    rem = int(budget)
    for j in idx:
        if rem == 0:
            break
        take = min(int(weights[j]), rem)
        excluded[int(j)] = take
        rem -= take
    return excluded


def solution_from_centers(instance, centers, objective, budget, tau=0.0):
    """Best solution with the given centers: exact-budget greedy exclusion
    (weighted copies may split), then :func:`serve_nearest`."""
    centers = tuple(sorted({int(c) for c in centers}))
    if not centers:
        raise InvalidParameterError("need at least one center")
    sub = instance.cost_columns(objective, centers, tau)
    nearest = np.argmin(sub, axis=1)
    costs = sub[np.arange(instance.n), nearest]
    budget = min(int(budget), instance.total_weight)
    excluded = _greedy_exclude(costs, instance.weights, budget)
    return serve_nearest(centers, nearest, costs, instance.weights, excluded,
                         objective)


def serve_nearest(centers, nearest, costs, weights, excluded, objective):
    """Serve every copy that ``excluded`` ({demand: copies}) leaves at its
    nearest center, and price the result.

    Demand j's nearest center is ``centers[nearest[j]]``, at cost
    ``costs[j]``; ``weights`` are the demands' copy counts.
    """
    live = weights.astype(np.int64)
    live[list(excluded)] -= np.fromiter(excluded.values(), np.int64, len(excluded))
    served = np.flatnonzero(live > 0)
    # An object array hands out the centers' own ints, not a new int per demand.
    ctrs = np.array(centers, dtype=object)[nearest[served]]
    assignment = dict(zip(served.tolist(), ctrs.tolist()))
    cost = price(costs[served], live[served], objective)
    return ClusteringSolution(centers, excluded, assignment, cost)


def price(costs, copies, objective):
    """Cost of ``copies[j]`` copies served at ``costs[j]`` each (``copies``
    may be one count for all): the largest cost for the center objective,
    else the sum of copies times cost, taken sequentially from 0.0 in the
    given order (the sum a loop makes)."""
    if objective is Objective.CENTER:
        return max(0.0, float(costs.max(initial=0.0)))
    return float(np.cumsum(np.r_[0.0, copies * costs])[-1])


def pad_centers(instance, solution, target, objective, budget, tau=0.0):
    """Extend a solution to exactly ``target`` centers (if enough candidates
    exist) by adding unused candidates in ascending id order, then rebuild
    the assignment with the same exclusion budget. Never increases cost."""
    centers = list(solution.centers)
    if len(centers) >= target:
        return solution
    used = set(centers)
    for c in instance.candidates:
        if len(centers) >= target:
            break
        if int(c) not in used:
            centers.append(int(c))
            used.add(int(c))
    return solution_from_centers(instance, centers, objective, budget, tau)


# ---------------------------------------------------------------------------
# Gonzalez farthest-first traversal


@dataclass(frozen=True)
class GonzalezOrder:
    """Demand ordering plus insertion radii.

    ``radii[i]`` is the distance from ``order[i + 1]`` to its nearest
    predecessor in the order (the classical insertion radius), so it has
    one entry fewer than ``order``.
    """

    order: tuple
    radii: tuple


def gonzalez_order(instance, length=None):
    """Farthest-first traversal seeded at the lowest demand index, stopped
    after ``length`` points (all of them by default).

    Each step adds the demand farthest from the chosen prefix; ties break
    toward the lower index. Weights do not affect the traversal. Distances
    are those of :meth:`~partialclust.metric.Instance.pair_matrix`, but only
    the rows of the points chosen before the last are computed: a prefix of
    L points costs at most (L - 1) * n evaluations, not n^2. No row is
    computed once a radius is 0, since every demand then lies at 0 from
    the prefix, and demands on one anchor share its row.
    """
    n = instance.n
    length = n if length is None else min(int(length), n)
    order = [0]
    radii = []
    mind = np.full(n, np.inf)
    while len(order) < length:
        if not radii or radii[-1] > 0:
            np.minimum(mind, instance.pair_row(order[-1]), out=mind)
        nxt = int(np.argmax(mind))
        radii.append(float(mind[nxt]))
        order.append(nxt)
    return GonzalezOrder(tuple(order), tuple(radii))


def insertion_marginals(gorder, k, t):
    """Center-objective marginal gains l(q) for q = 1..t.

    l(q) is the insertion radius of the (k+q)-th point in the traversal: the
    cost drop available by treating one more prefix point as an outlier
    holder. Zero once the traversal is exhausted (k + q > n), so ``gorder``
    must reach position k + t or hold every demand."""
    n = len(gorder.order)
    out = np.zeros(t, dtype=float)
    for q in range(1, t + 1):
        pos = k + q
        if pos <= n and pos >= 2:
            out[q - 1] = gorder.radii[pos - 2]
    return out


# ---------------------------------------------------------------------------
# k-center with outliers: threshold sweep + greedy disk covering

_SWEEP_BLOCK = 64   # radii the sweep tests for a pick change at once


def kt_center_outliers(instance, k, t):
    """3-approximate (k, t)-center on weighted demands.

    Sweeps the distinct costs r in ascending order; for each, greedily opens
    the disk (cost <= r) covering the most uncovered weight and removes its
    3x-expanded disk (cost <= 3r), k times, ties to the lowest candidate.
    The first radius leaving at most t uncovered weight wins; the returned
    solution excludes exactly t copies (largest costs first).

    The sweep is event-driven. The cost matrix is sorted once, and each
    radius adds the entries newly within r and 3r to a 0/1 disk matrix and a
    candidate-major expanded-disk mask. For each stage s of the greedy the
    sweep keeps the gain of every candidate ``gains[s]``, the weight still
    uncovered before the pick ``uncovered[s]``, and the pick ``picks[s]``.
    As long as the picks stay, new entries change no uncovered weight unless
    (a) a 3r entry lands in a picked column on a row still uncovered at
    that stage, and they change the pick at stage s only if (b) r entries
    raise another column's gain to at least the pick's gain before them.
    So the sweep tests blocks of radii for (a) and (b) at once, adds every
    entry up to the first radius where either holds to the disks and the
    gains in bulk, and reruns the k picks only there. Both tests may fire
    where the picks stay, which only costs a rerun. Each radius skipped over
    keeps the picks and the uncovered weight of the last rerun, so it is
    infeasible too: the first feasible radius is that of the plain sweep.

    The sweep starts at a certified radius, not at the first. A radius r
    the greedy solves serves every covered demand within 3r + 1e-12 (the
    expanded-disk threshold), so the optimum is at most that, and
    :func:`_center_lower_bound` gives a bound lb on the optimum from ``M``
    alone. Every radius with 3r + 1e-12 < lb is therefore infeasible: the
    sweep adds their entries in one step and first reruns the picks at the
    radius past them. After a rerun the state depends on the radius only,
    so the run from there on is the one a sweep from the first radius makes.
    Demand weights are positive integers, so every gain is an
    integer-valued float far below 2**53 and any summation order gives the
    same value: the picks, and the solution, are exactly those of rebuilding
    both disks and every gain at each radius.
    """
    _check_kt(instance, k, t)
    M = instance.cost_matrix(Objective.CENTER)
    w = instance.weights
    n, m = M.shape
    kk = min(k, m)
    lb = _center_lower_bound(M, kk, t)   # before the sort: a lower peak
    order = np.argsort(M, axis=None, kind="stable")
    vals = M.ravel()[order]
    radii = vals[np.r_[True, vals[1:] != vals[:-1]]]
    # Radius j adds the entries inner[j-1]:inner[j] of the sorted order to
    # the disks and outer[j-1]:outer[j] to the expanded disks (from 0 at j = 0).
    reach = 3.0 * radii + 1e-12
    inner = np.searchsorted(vals, radii + 1e-12, side="right")
    outer = np.searchsorted(vals, reach, side="right")
    # the radii whose reach falls short of the lower bound are infeasible
    start = int(np.searchsorted(reach, lb, side="left"))
    del vals, reach   # only the bounds are read from here on: a smaller peak
    within = np.zeros((n, m))
    expanded = np.zeros((m, n), dtype=bool)
    gains = np.zeros((kk, m))
    uncovered = np.tile(w, (kk, 1))
    picks = np.zeros(kk, dtype=int)
    stages = np.arange(kk)[:, None]

    def entries(bounds, lo, hi):
        """(rows, cols) of the entries radii lo + 1..hi add."""
        return np.divmod(order[bounds[lo] if lo >= 0 else 0:bounds[hi]], m)

    def advance(lo, hi):
        """Add the entries of radii lo + 1..hi to the disks and the gains."""
        rows, cols = entries(inner, lo, hi)
        within[rows, cols] = 1.0
        gains[:] += np.bincount((stages * m + cols).ravel(),
                                weights=uncovered[:, rows].ravel(),
                                minlength=kk * m).reshape(kk, m)
        rows, cols = entries(outer, lo, hi)
        expanded[cols, rows] = True

    def first_event(lo, hi):
        """The first radius in lo + 1..hi at which (a) or (b) holds, else None."""
        first = []
        rows, cols = entries(outer, lo, hi)
        hit = np.flatnonzero(((cols == picks[:, None])
                              & (uncovered[:, rows] > 0)).any(axis=0))
        if hit.size:
            first.append(np.searchsorted(outer, outer[lo] + hit[0], side="right"))
        # Each entry's running sum over its column's new entries, per stage:
        # the cumulative sum in column order less that at the column's start.
        rows, cols = entries(inner, lo, hi)
        by_col = np.argsort(cols, kind="stable")
        cols = cols[by_col]
        add = uncovered[:, rows[by_col]]
        run = add.cumsum(axis=1)
        start = np.ones(cols.size, dtype=bool)
        start[1:] = cols[1:] != cols[:-1]
        run -= (run[:, start] - add[:, start])[:, start.cumsum() - 1]
        lead = gains[stages, picks[:, None]]
        hit = ((gains[stages, cols] + run >= lead) & (cols != picks[:, None])).any(axis=0)
        if hit.any():
            first.append(np.searchsorted(inner, inner[lo] + by_col[hit].min(), side="right"))
        return int(min(first)) if first else None

    def rerun():
        """The k picks at the current radius; True when they are feasible.
        ``gains[0]``, the weight within r of each candidate, is current at
        every radius; the later stages are rebuilt from it."""
        gain = gains[0].copy()
        unc = w.copy()
        for s in range(kk):
            # Array methods, not the np.* wrappers, on these small arrays.
            # Rows covered earlier hold 0 in unc, so they subtract nothing.
            gains[s] = gain
            uncovered[s] = unc
            u = int(gain.argmax())
            picks[s] = u
            hit = expanded[u].nonzero()[0]
            gain -= unc[hit] @ within[hit]
            unc[hit] = 0.0
        return unc.sum() <= t + 1e-9

    lo, hi, event = -1, start, True
    while True:
        advance(lo, hi)
        if event and rerun():
            centers = instance.candidates[picks].tolist()
            return solution_from_centers(instance, centers, Objective.CENTER, t)
        if hi == len(radii) - 1:
            raise InfeasibleError("threshold sweep found no feasible radius")  # pragma: no cover
        end = min(hi + _SWEEP_BLOCK, len(radii) - 1)
        lo, hi = hi, first_event(hi, end)
        event = hi is not None
        if not event:
            hi = end


def _center_lower_bound(M, k, t):
    """A lower bound on the (k, t)-center optimum over the cost matrix ``M``
    (demands x candidates), from no distance evaluation.

    Farthest-first over the demands, seeded at demand 0, for k + t + 1
    picks under D(j, j') = min over candidates u of max(M[j, u], M[j', u]),
    the least radius at which one candidate covers both; returns the last
    insertion value lb (0.0 when there are too few demands). Every two picks
    lie at D >= lb, so at a radius below lb a candidate covers at most one
    of them, k centers leave t + 1 picks unserved, and more than t copies
    are excluded: the optimum is at least lb. The argument reads nothing
    but ``M``, so it holds without the triangle inequality. A pick's row
    reads only the candidates nearer to it than the current bound: the
    bound only falls, so the rest cannot lower a D below it.
    """
    n = M.shape[0]
    if k + t + 1 > n:
        return 0.0
    near = np.full(n, np.inf)   # D from each demand to its nearest pick
    pick, bound = 0, np.inf
    for _ in range(k + t):
        row = M[pick]
        cols = np.flatnonzero(row < bound)
        block = M[:, cols]
        np.maximum(block, row[cols], out=block)
        np.minimum(near, block.min(axis=1, initial=np.inf), out=near)
        near[pick] = -np.inf
        pick = int(near.argmax())
        bound = float(near[pick])
    return bound


def _check_kt(instance, k, t):
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidParameterError("k must be a positive integer")
    if not isinstance(t, (int, np.integer)) or t < 0:
        raise InvalidParameterError("t must be a nonnegative integer")
    if instance.total_weight <= t:
        raise InfeasibleError(f"outlier budget t={t} >= total weight {instance.total_weight}")


# ---------------------------------------------------------------------------
# Facility-location primal-dual with early stop


@dataclass
class JVResult:
    """A primal-dual probe's kept centers, as point ids in opening order,
    and its duals ``alpha``, one per demand."""

    centers: tuple
    alpha: np.ndarray


_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class SortedCosts:
    """One cost matrix sorted per candidate, shared by every primal-dual
    probe on it. Row ``u`` of each array belongs to candidate column ``u``:
    ``order[u]`` lists the demands by ascending cost to ``u`` (stable),
    ``costs[u]`` those costs, and ``cum_w[u]`` / ``cum_wc[u]`` the running
    sums of weight and of weight times cost along that order. ``breaks[u,
    i]``, ``costs[u, i + 1] * cum_w[u, i + 1] - cum_wc[u, i + 1]``, is the
    facility cost at which row ``u``'s opening level reaches its next cost
    (inf in the last column). ``weights`` are the demands' weights, as
    floats, ``total`` their sum W and ``cmax`` the largest cost.

    ``runs`` caches the probes' runs by facility cost (see
    :func:`jv_facility_location`): a probe at a cost already run reads its
    result off that run when the run went far enough, and otherwise runs
    again and replaces it. ``verdicts`` and ``spreads`` cache
    :meth:`keeps_one_center` by facility cost and by first opening, and
    ``held`` keeps the opening times that a failed verdict computed for the
    run that follows it. ``floors`` caches :meth:`keeps_fewer_than`'s least
    certified facility cost by center count. A table fills as it is probed,
    so it serves one site's curve round and is dropped with it."""

    matrix: np.ndarray
    order: np.ndarray
    costs: np.ndarray
    cum_w: np.ndarray
    cum_wc: np.ndarray
    breaks: np.ndarray
    weights: np.ndarray
    total: float
    cmax: float
    runs: dict = field(default_factory=dict, compare=False, repr=False)
    verdicts: dict = field(default_factory=dict, compare=False, repr=False)
    spreads: dict = field(default_factory=dict, compare=False, repr=False)
    held: dict = field(default_factory=dict, compare=False, repr=False)
    floors: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def build(cls, instance, objective, tau=0.0):
        """The table of the ``(objective, tau)`` cost matrix. Only rows with
        two equal costs are sorted stably: any other has one sorted order.
        Either order gives the same sorted costs."""
        C = instance.cost_matrix(objective, tau)
        cmax = float(C.max())
        # The facility-cost search adds facility costs up to W * cmax to cost
        # sums up to W * cmax.
        if not math.isfinite(2.0 * instance.total_weight * cmax):
            raise InvalidPointError(
                f"costs overflow: {instance.total_weight} copies at cost up to "
                f"{cmax:.3g} sum past the float range; scale the input down")
        order = np.argsort(C.T, axis=1)
        costs = np.take_along_axis(C.T, order, axis=1)
        tied = (costs[:, 1:] == costs[:, :-1]).any(axis=1)
        order[tied] = np.argsort(C.T[tied], axis=1, kind="stable")
        # Allocated before w_sorted, whose buffer, freed on return, then holds
        # the runs' temporaries. Breaks put there make the runs fault in fresh
        # pages: 1,500 points on 4 kt-median sites took 5,000 more per solve.
        breaks = np.full_like(costs, np.inf)
        w_sorted = instance.weights[order]
        cum_w = np.cumsum(w_sorted, axis=1)
        w_sorted *= costs
        cum_wc = np.cumsum(w_sorted, axis=1)
        np.multiply(costs[:, 1:], cum_w[:, 1:], out=breaks[:, :-1])
        breaks[:, :-1] -= cum_wc[:, 1:]
        return cls(C, order, costs, cum_w, cum_wc, breaks, instance.weights,
                   float(instance.total_weight), cmax)

    @classmethod
    def ensure(cls, table, instance, objective, tau=0.0):
        """``table`` checked to sort this instance's ``(objective, tau)``
        cost matrix, or a new table when it is None."""
        if table is None:
            return cls.build(instance, objective, tau)
        if table.matrix is not instance.cost_matrix(objective, tau):
            raise InvalidParameterError("sorted-cost table belongs to another cost matrix")
        return table

    def initial_opening_times(self, z):
        """Opening time of every candidate while all demands are active and
        nothing is frozen: on row u, the least ``(z + cum_wc[u, i]) /
        cum_w[u, i]`` inside its windows ``costs[u, i] - 1e-12`` and
        ``costs[u, i + 1] + 1e-12`` (inf if none is), the float operations
        of the event loop's first estimates. Times that
        :meth:`keeps_one_center` computed at ``z`` are handed over once.

        With B_0 = 0 and B_1, B_2, ... row u's breaks, entry i's windows
        hold, in exact arithmetic, when B_i - 1e-12 cum_w[u, i] <= z <=
        B_{i+1} + 1e-12 cum_w[u, i]. With e = 2^-53 and M = z + W (cmax +
        1e-12), rounding moves each side by less than 8 e M, and the running
        sums let B fall along a row by at most 2 (n + 3) e W cmax; delta =
        1e-12 W + (n + 16) e M covers the first and half the second. So if
        no break lies within delta of z, those below z - delta are a prefix
        B_0..B_lo, and entry lo alone is inside its windows: the row is read
        there. The other rows (all when z <= delta) are read whole."""
        held = self.held.pop(z, None)
        if held is not None:
            return held
        m, n = self.costs.shape
        if z <= 0:
            return np.zeros(m)
        W = self.total
        delta = 1e-12 * W + (n + 16) * 2.0 ** -53 * (z + W * (self.cmax + 1e-12))
        lo = np.add.reduce(self.breaks < z - delta, axis=1, dtype=np.int32)
        hi = np.add.reduce(self.breaks <= z + delta, axis=1, dtype=np.int32)
        at = lo + np.arange(0, m * n, n)
        times = (z + self.cum_wc.take(at)) / self.cum_w.take(at)
        wide = np.flatnonzero((lo != hi) | (not z > delta))
        if wide.size:
            costs = self.costs[wide]
            cand = (z + self.cum_wc[wide]) / self.cum_w[wide]
            ok = cand >= costs - 1e-12
            ok[:, :-1] &= cand[:, :-1] <= costs[:, 1:] + 1e-12
            times[wide] = np.where(ok, cand, np.inf).min(axis=1)
        return times

    def keeps_one_center(self, z):
        """True when a primal-dual run at ``z > 0`` keeps at most one
        center after pruning, at every stop weight: a one-center
        certificate, read without a run.

        Let u1 be the first candidate to open, the argmin of
        :meth:`initial_opening_times` (lowest index on ties), at level
        theta1. That is exact: the event loop's first search re-estimates u1
        on its unfrozen row with the float operations of those times, so u1
        is fresh and opens first, and pruning, greedy in opening order,
        keeps it. A second kept center u2 conflicts with no kept center, so
        every demand with a dual alpha_j above c_{j,u2} + tol has alpha_j at
        most c_{j,u1} + tol, where tol = 1e-12 (1 + max alpha) is pruning's
        tolerance. Those demands pay u2's facility cost; the others pay at
        most tol each. So u2 opens only if

            z <= spread(u1) + W tol,
            spread(u1) = max over u of sum_j w_j (c_{j,u1} - c_{j,u})+,

        with W the total weight. Once u1 is open, every demand freezes by
        the level max(theta1, cmax), so no dual exceeds it by more than the
        loop's relative 1e-12. Each float tolerance of the loop adds at most
        W * 1e-12 (1 + theta1 + cmax) to the right side: pruning's tol, the
        1e-12 relative staleness of a heap key and the 1e-12 windows of the
        opening estimates. So when

            z > (spread(u1) + 4 W 1e-12 (1 + theta1 + cmax)) (1 + 1e-9),

        the factor covering rounding in the sums, no second candidate is
        kept. The verdict is cached per ``z``, so every stop weight of a
        site's q grid shares it; spread(u1) is cached per u1 and read in
        column blocks. A failed verdict holds its opening times for the run
        at ``z`` that follows it."""
        verdict = self.verdicts.get(z)
        if verdict is not None:
            return verdict
        times = self.initial_opening_times(z)
        u1 = int(times.argmin())
        spread = self.spreads.get(u1)
        if spread is None:
            spread = self.spreads[u1] = self._spread(u1)
        slack = 4.0 * self.total * 1e-12 * (1.0 + float(times[u1]) + self.cmax)
        verdict = self.verdicts[z] = z > (spread + slack) * (1.0 + 1e-9)
        if not verdict:
            self.held.clear()
            self.held[z] = times
        return verdict

    def keeps_fewer_than(self, k, z):
        """True when a primal-dual run at ``z`` keeps fewer than ``k``
        centers after pruning, at every stop weight: a many-center
        certificate for tables whose costs are often exactly 0, read without
        a run.

        Demand j's clique is the candidates u with c_{j,u} = 0. A greedy
        cover takes, while some candidate is uncovered, the clique that
        covers most of them; once none covers two, each candidate left is a
        clique of its own. Say it takes r0 cliques. When r0 < k and

            z > 2 W 1e-12 (1 + cmax),

        with W the total weight, every run at ``z`` keeps at most r0
        centers:

        - Every dual is at least theta1 >= fl(z / W), the first opening
          level: an opening time pays ``z`` with weights summing to at most
          W, and no freeze time or stop level lies below it.
        - No dual exceeds max(theta1, cmax) by more than the loop's relative
          1e-12, by :meth:`keeps_one_center`'s argument, so pruning's
          tolerance 1e-12 (1 + max alpha) lies below theta1. Pruning then
          runs, and two candidates at cost 0 to one demand conflict.
        - Kept centers never conflict, so a run keeps at most one center of
          each clique.

        The cover stops at k cliques, so it costs O(k n m), once per ``k``;
        after that a verdict is one comparison."""
        floor = self.floors.get(k)
        if floor is None:
            floor = self.floors[k] = self._zero_clique_floor(k)
        return z > floor

    def _zero_clique_floor(self, k):
        """The least facility cost :meth:`keeps_fewer_than` certifies for
        ``k``: inf when the greedy cover takes k cliques or more."""
        zero = self.matrix == 0.0
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
        if cliques >= k:
            return np.inf
        return 2.0 * self.total * 1e-12 * (1.0 + self.cmax)

    def _spread(self, u):
        """max over candidates v of sum_j w_j (c_{j,u} - c_{j,v})+, over
        column blocks that keep the temporaries small next to the table."""
        C = self.matrix
        n, m = C.shape
        step = max(1, _BLOCK_ENTRIES // n)
        spread = 0.0
        for r in range(0, m, step):
            gap = C[:, u, None] - C[:, r:r + step]
            np.maximum(gap, 0.0, out=gap)
            spread = max(spread, float((self.weights @ gap).max()))
        return spread


@dataclass(frozen=True)
class _Run:
    """The events of one primal-dual run, in order. The run takes steps;
    each sets the level ``thetas[step]``, may open one candidate, and then
    freezes a batch of demands. ``frozen`` lists the demands in the order
    they froze, with their freeze ``times`` and ``steps``; ``opened`` lists
    the candidate columns in the order they opened, with their ``opened_at``
    steps. ``floor`` is the least stop weight the run answers: the
    unconnected weight it stopped at, or 0 when growth could go no further."""

    frozen: np.ndarray
    times: np.ndarray
    steps: np.ndarray
    thetas: np.ndarray
    opened: np.ndarray
    opened_at: np.ndarray
    floor: int


def jv_facility_location(instance, z, objective, tau=0.0, stop_weight=0, table=None):
    """Primal-dual facility location with uniform opening cost ``z``.

    All unconnected demands grow a shared dual; a facility opens once the
    excess duals tight with it cover ``z``; demands connect (freeze) on
    reaching an open facility. Growth stops as soon as the unconnected
    weight drops to ``stop_weight``. A conflict-free subset of the opened
    facilities (greedy by opening time) survives pruning. Returns the kept
    centers and the duals (:class:`JVResult`), not the copies left
    unconnected: :func:`solution_from_centers` re-derives outliers.

    The probe is a run and a cut. The run (:func:`_event_run`, or
    :func:`_zero_cost_run` at ``z = 0``) records every opening and every
    freeze, a whole freeze batch at a time, until the unconnected weight is
    at most ``stop_weight`` after a batch. ``stop_weight`` enters only that
    test, so the run with a smaller stop weight has the same events up to
    there. :func:`_cut` then stops the run where the loop would have
    stopped and builds the result. So one run at ``z`` answers every stop
    weight down to the weight it ran to, and the table keeps it in
    ``table.runs``: a probe at a facility cost already run (every q of a
    site's bisection starts from the same costs) reuses that run if it
    went far enough, or runs again and replaces it.

    ``table`` is the :class:`SortedCosts` of this instance's
    ``(objective, tau)`` cost matrix; probes of one facility-cost search,
    and of a site's whole q grid, share it. Built here when omitted.
    """
    if z < 0:
        raise InvalidParameterError("facility cost must be >= 0")
    table = SortedCosts.ensure(table, instance, objective, tau)
    stop_weight = max(int(stop_weight), 0)
    run = table.runs.get(z)
    if run is None or stop_weight < run.floor:
        if z == 0:
            run = _zero_cost_run(instance, table.matrix)
        else:
            run = _event_run(instance, table, z, stop_weight)
        table.runs[z] = run
    return _cut(instance, table.matrix, run, stop_weight)


def _opening_estimate(order, costs, live_w, req, theta):
    """Opening time of one candidate under the current duals: its row of a
    :class:`SortedCosts` table (``order``, ``costs``), the weight of every
    demand that is still active (0 once frozen) and the facility cost
    ``req`` its frozen demands do not pay yet. The least level, at least
    ``theta``, at which the active demands' duals pay ``req``; ``theta``
    itself when nothing is left to pay, and inf when no level does."""
    if req <= 0:
        return theta
    wa = live_w[order]
    cw = wa.cumsum()
    wa *= costs
    cand = wa.cumsum()
    cand += req
    live = cw > 0
    np.divide(cand, cw, out=cand, where=live)
    ok = cand >= costs - 1e-12
    ok &= live
    ok[:-1] &= cand[:-1] <= costs[1:] + 1e-12
    cand = cand[ok]
    return max(float(cand.min()), theta) if cand.size else np.inf


def _opening_estimates(order, costs, live_w, req, theta):
    """:func:`_opening_estimate` of several candidates, one row each of
    ``order`` and ``costs`` per entry of ``req``. Each row does the same
    float operations, so each estimate has the same bits. Rows may omit
    frozen demands, order kept, with the same bits: a frozen entry adds +0.0
    to both sums, so it repeats its predecessor's value, and its window
    [c - 1e-12, c_next + 1e-12] stretches that entry's to the next active
    one; frozen entries before the first active one have no weight."""
    wa = live_w[order]
    cw = wa.cumsum(axis=1)
    wa *= costs
    cand = wa.cumsum(axis=1)
    cand += req[:, None]
    live = cw > 0
    np.divide(cand, cw, out=cand, where=live)
    ok = cand >= costs - 1e-12
    ok &= live
    ok[:, :-1] &= cand[:, :-1] <= costs[:, 1:] + 1e-12
    est = np.maximum(np.where(ok, cand, np.inf).min(axis=1), theta)
    est[req <= 0] = theta
    return est


def _next_opening(key, estimate, estimates, batch_size):
    """The next opening of a lazy binary heap of (time, index) pairs, with
    the stored times ``key`` (inf for candidates that opened).

    The heap pops the least pair and re-estimates it under the current
    duals. If the estimate is later than the stored time by more than 1e-12
    relative, the candidate is stale: the heap pushes it back with the
    estimate and goes on; otherwise it returns that pair. The duals do not
    move during one search, so its outcome has a closed form: with K' the
    estimate of a stale candidate and the stored time K of a fresh one, the
    heap returns the least (K', index), and it stores the estimate of every
    stale candidate whose (K, index) comes before that answer.

    Most searches end at their first candidate, so the least key is
    re-estimated alone (``estimate(u)``). When it is stale, the next keys in
    (K, index) order are estimated in batches (``estimates(us)``): a batch
    is every key not yet estimated up to the best (K', index) found so far,
    at most ``batch_size`` of them, so no key past that best is estimated.
    Batches go on until the least key not yet estimated comes after the
    best. Returns that (K', index) and updates ``key`` as the heap would;
    (inf, None) when every key is inf.
    """
    u = int(key.argmin())
    tu = float(key[u])
    if math.isinf(tu):
        return np.inf, None
    best = estimate(u)
    if best <= tu + 1e-12 * (1.0 + abs(tu)):
        return tu, u
    # Every key in (K, index) order; u, the least, comes first.
    by_key = key.argsort(kind="stable")
    sorted_keys = key[by_key]
    finite = int(sorted_keys.searchsorted(np.inf))
    key[u] = best
    examined = []
    lo = 1
    while lo < finite:
        low = sorted_keys[lo]
        if low > best or (low == best and by_key[lo] > u):
            break
        # low <= best, so the gap holds at least this row.
        hi = min(int(sorted_keys.searchsorted(best, side="right")), lo + batch_size, finite)
        us, ks = by_key[lo:hi], sorted_keys[lo:hi]
        es = estimates(us)
        stale = es > ks + 1e-12 * (1.0 + np.abs(ks))
        kp = np.where(stale, es, ks)
        low = kp.min()
        v = int(us[kp == low].min())
        if low < best or (low == best and v < u):
            best, u = float(low), v
        examined.append((us, ks, es, stale))
        lo = hi
    for us, ks, es, stale in examined:
        stale &= (ks < best) | ((ks == best) & (us < u))
        key[us[stale]] = es[stale]
    return best, u


def _paid_openings(key, theta, estimates, batch_size, freezes):
    """The lazy heap's next openings after one at ``theta`` that froze
    nothing, all at ``theta``, with the stored times ``key`` (inf for
    candidates that opened).

    Until the next freeze the duals do not move, so every search re-estimates
    a key to the same value, and the heap answers with the candidates in
    (K', index) order, K' as in :func:`_next_opening`. An answer with
    K' <= ``theta`` opens at ``theta`` itself, and the first whose column
    reaches an active demand within the level (``freezes(us)``, one flag per
    candidate) ends the openings with a freeze. A key above ``theta`` has
    K' above it, so only keys at or below it are estimated, in batches of
    ``batch_size``. Returns the candidates to open, in order; stores, as the
    heap would, the estimate of every stale key whose (K, index) comes
    before the last of them, and does not mark them open."""
    us = np.flatnonzero(key <= theta)
    if not us.size:
        return us
    ks = key[us]
    es = np.concatenate([estimates(us[r:r + batch_size])
                         for r in range(0, len(us), batch_size)])
    stale = es > ks + 1e-12 * (1.0 + np.abs(ks))
    kp = np.where(stale, es, ks)
    due = np.flatnonzero(kp <= theta)
    due = due[np.lexsort((us[due], kp[due]))]
    for r in range(0, len(due), batch_size):
        hit = np.flatnonzero(freezes(us[due[r:r + batch_size]]))
        if hit.size:
            due = due[:r + int(hit[0]) + 1]
            break
    if due.size:
        best, u = kp[due[-1]], us[due[-1]]
        stale &= (ks < best) | ((ks == best) & (us < u))
        key[us[stale]] = es[stale]
    return us[due]


def _event_run(instance, table, z, stop_weight):
    """The primal-dual event loop at ``z > 0``, up to the end of the first
    freeze batch that leaves at most ``stop_weight`` unconnected.

    ``key`` holds one stored opening time per candidate (inf once it
    opens). Each is a lower bound, since freezing demands only delays an
    opening, and :func:`_next_opening` picks the next opening from them as
    a lazy heap would. It re-estimates a candidate on its own sorted row
    (:func:`_opening_estimate`) and several at once on theirs
    (:func:`_opening_estimates`), as many per batch as the block budget
    allows. A batch row does the float operations of the one-row estimate,
    so every pick, every stored key, and the run, is bit for bit that of
    the heap. Once fewer than half of a row's entries are active, every row
    drops its frozen demands (bit for bit, see :func:`_opening_estimates`)
    and the batch cap counts the narrowed width, which no answer depends on.

    ``t_freeze``, the least cost to an open candidate over the active
    demands, changes only when a candidate opens or demands freeze, and is
    recomputed only then. Most openings freeze nothing, and most of those
    open a candidate that frozen demands have paid for: after an opening
    that freezes nothing, every candidate the heap would open next at the
    same level opens in one loop iteration (:func:`_paid_openings`), one
    recorded step each, up to the first that freezes a demand.
    """
    C = table.matrix
    n, m = C.shape
    w = instance.weights
    wi = w.astype(int)
    order, Csort = table.order, table.costs

    active = np.ones(n, dtype=bool)
    live_w = w.copy()   # w where active, 0.0 once frozen
    frozen_base = np.zeros(m)
    open_time = np.full(m, np.inf)
    open_seq = []
    opened_at = []
    minopen = np.full(n, np.inf)
    t_freeze = np.inf
    frozen, times, steps, thetas = [], [], [], []
    remaining = int(wi.sum())
    n_active = n
    theta = 0.0

    key = table.initial_opening_times(z)
    freeze_rows = max(1, _BLOCK_ENTRIES // m)
    estimate_rows = max(1, _BLOCK_ENTRIES // n)

    def estimate(u):
        return _opening_estimate(order[u], Csort[u], live_w, z - frozen_base[u], theta)

    def estimates(us):
        return _opening_estimates(order[us], Csort[us], live_w, z - frozen_base[us], theta)

    def freezes(us):
        return (C[:, us][active] <= level).any(axis=0)

    # ``remaining`` is the weight of the active demands, so some are active.
    while remaining > stop_weight:
        if 2 * n_active < order.shape[1]:
            keep = active[order]   # n_active in each row: it holds every demand once
            order = order[keep].reshape(m, n_active)
            Csort = Csort[keep].reshape(m, n_active)
            estimate_rows = max(1, _BLOCK_ENTRIES // n_active)
        t_open, u_next = _next_opening(key, estimate, estimates, estimate_rows)
        t_open = max(t_open, theta)
        if math.isinf(t_open) and math.isinf(t_freeze):
            break  # pragma: no cover - no facility can ever open
        theta = min(t_open, t_freeze)
        level = theta + 1e-12 * (1.0 + theta)
        if t_open <= t_freeze:
            key[u_next] = np.inf
            opening = [u_next]
            np.minimum(minopen, C[:, u_next], out=minopen)
            t_freeze = float(minopen.min(where=active, initial=np.inf))
            if t_freeze > level:   # it freezes nothing
                paid = _paid_openings(key, theta, estimates, estimate_rows, freezes)
                if paid.size:
                    key[paid] = np.inf
                    opening += paid.tolist()
                    np.minimum(minopen, C[:, paid].min(axis=1), out=minopen)
                    t_freeze = float(minopen.min(where=active, initial=np.inf))
            open_time[opening] = theta
            open_seq += opening
            opened_at += range(len(thetas), len(thetas) + len(opening))
            thetas += [theta] * (len(opening) - 1)
        if t_freeze > level:   # openings that freeze nothing
            thetas.append(theta)
            continue
        batch = np.flatnonzero(active & (minopen <= level))
        cols = np.array(open_seq, dtype=int)
        connect = np.maximum(open_time[cols], C[batch[:, None], cols]).min(axis=1)
        active[batch] = False
        live_w[batch] = 0.0
        # frozen_base + the batch's excess duals, added in demand order: a
        # cumulative sum down blocks of rows is the sum a loop makes. Each
        # block is built in place and freed with its step, which keeps the
        # peak memory of the loop it replaces.
        for r in range(0, len(batch), freeze_rows):
            rows = batch[r:r + freeze_rows]
            add = np.empty((len(rows) + 1, m))
            add[0] = frozen_base
            gain = add[1:]
            np.take(C, rows, axis=0, out=gain)
            np.subtract(connect[r:r + freeze_rows, None], gain, out=gain)
            np.maximum(gain, 0.0, out=gain)
            gain *= w[rows, None]
            np.copyto(frozen_base, add.cumsum(axis=0, out=add)[-1])
        frozen.extend(batch.tolist())
        times.extend(connect.tolist())
        steps.extend([len(thetas)] * len(batch))
        thetas.append(theta)
        remaining -= int(wi[batch].sum())
        n_active -= len(batch)
        t_freeze = float(minopen.min(where=active, initial=np.inf))

    return _Run(np.array(frozen, dtype=int), np.array(times), np.array(steps, dtype=int),
                np.array(thetas), np.array(open_seq, dtype=int),
                np.array(opened_at, dtype=int),
                remaining if remaining <= stop_weight else 0)


def _zero_cost_run(instance, C):
    """The event loop's run at ``z = 0`` in closed form, to its end.

    Every stored opening time is 0 and every re-estimate is 0 too, since
    the required excess ``z - frozen`` is never positive. So candidate u
    opens at level 0 in step u, and freezes the active demands whose first
    column with cost <= 1e-12 it is, in index order, each at the later of
    0 and that cost. Once all m are open, the other demands freeze at their
    cheapest cost in ascending order, in steps m, m + 1, ... that batch
    costs within the loop's 1e-12 relative tolerance of the step's first,
    in index order within a step."""
    n, m = C.shape
    zero = C <= 1e-12
    first = np.where(zero.any(axis=1), zero.argmax(axis=1), m)
    early = np.argsort(first, kind="stable")
    early = early[first[early] < m]
    rest = np.flatnonzero(first == m)
    low = C[rest].min(axis=1)
    by_cost = np.argsort(low, kind="stable")
    rest, low = rest[by_cost], low[by_cost]
    batches = np.empty(len(rest), dtype=int)
    thetas = [0.0] * m
    i = 0
    while i < len(rest):
        theta = float(low[i])
        end = int(np.searchsorted(low, theta + 1e-12 * (1.0 + theta), side="right"))
        batches[i:end] = len(thetas)
        thetas.append(theta)
        i = end
    in_batch = np.lexsort((rest, batches))
    cols = np.arange(m)
    return _Run(np.concatenate([early, rest[in_batch]]),
                np.concatenate([np.maximum(0.0, C[early, first[early]]), low[in_batch]]),
                np.concatenate([first[early], batches[in_batch]]),
                np.array(thetas), cols, cols, 0)


def _cut(instance, C, run, stop_weight):
    """The probe's result at ``stop_weight``, read off ``run``.

    Growth stops at the first freeze that leaves at most ``stop_weight``
    unconnected. When it leaves exactly ``stop_weight`` and more of its
    batch is to come, the loop still freezes the next demand of the batch.
    The demands frozen by then keep their freeze times as duals, and every
    other demand the level of the stop's step. With no stop in the run, it
    ran to its end.

    A conflict-free subset of the candidates opened up to the stop's step,
    greedy in opening order, survives pruning. Two candidates conflict when
    some demand's dual exceeds its cost to both by more than 1e-12
    relative; with no dual above any cost by that much, all are kept
    without the conflict matrix. Costs are >= 0, so that holds when every
    dual is within the tolerance, as at ``z = 0``: a frozen demand's dual
    is its cheapest open cost, and an active one's level is at most that."""
    w = instance.weights
    if instance.total_weight <= stop_weight:
        return JVResult((), np.zeros(len(w)))
    left = instance.total_weight - np.cumsum(w[run.frozen])
    hit = np.flatnonzero(left <= stop_weight)
    if hit.size:
        done = int(hit[0]) + 1
        step = int(run.steps[done - 1])
        if left[done - 1] == stop_weight and done < len(left) and run.steps[done] == step:
            done += 1
    else:  # pragma: no cover - growth ended before the stop
        done = len(left)
        step = len(run.thetas) - 1
    alpha = np.full(len(w), float(run.thetas[step]) if step >= 0 else 0.0)
    alpha[run.frozen[:done]] = run.times[:done]
    opened = run.opened[:int(np.searchsorted(run.opened_at, step, side="right"))]
    amax = float(alpha.max())
    tol = 1e-12 * (1.0 + amax)
    if len(opened) and amax > tol:
        pos = C[:, opened]
        np.subtract(alpha[:, None], pos, out=pos)
        pos = pos > tol
        if pos.any():
            # Sums of nonnegative 0/1 products: any overlap stays >= 1 in float32.
            pos = pos.astype(np.float32)
            conflict = (pos.T @ pos) > 0
            kept = []
            blocked = np.zeros(len(opened), dtype=bool)   # conflicts with a kept one
            for i in range(len(opened)):
                if not blocked[i]:
                    kept.append(i)
                    blocked |= conflict[i]
            opened = opened[kept]
    return JVResult(tuple(instance.candidates[opened].tolist()), alpha)


# ---------------------------------------------------------------------------
# Bicriteria (k, t)-median / means


@dataclass(frozen=True)
class BicriteriaConfig:
    """Knobs for the primal-dual bicriteria solver.

    ``relax`` picks which budget may stretch by (1 + epsilon): ``"outliers"``
    keeps at most k centers, ``"centers"`` keeps at most t outliers.
    ``trials``, the number of rounding draws, is ceil(8/epsilon * ln 100),
    capped at 200.
    """

    epsilon: float = 1.0
    relax: str = "outliers"

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise InvalidParameterError("epsilon must be finite and > 0")
        if self.relax not in ("outliers", "centers"):
            raise InvalidParameterError("relax must be 'outliers' or 'centers'")

    @property
    def trials(self):
        return math.ceil(min(8.0 / self.epsilon * math.log(100.0), 200))


# Bisection steps of the facility-cost search, at most.
_FACILITY_COST_SEARCH_ITERS = 64


def _padding_costs(instance, centers, pool, objective, budget, tau):
    """``solution_from_centers(instance, centers + [c], objective, budget,
    tau).cost`` for every ``c`` in ``pool``, bit for bit, one column per
    trial: the nearest cost is the least of the current one and ``c``'s,
    the greedy exclusion drops ``min(budget, W)`` copies in the same order,
    and the rest is priced as :func:`price` prices it (a served copy count
    of 0 adds 0.0 to the sum)."""
    near = instance.cost_columns(objective, centers, tau).min(axis=1)
    costs = np.minimum(near[:, None], instance.cost_columns(objective, pool, tau))
    by_cost = np.argsort(-costs, axis=0, kind="stable")
    w = instance.counts[by_cost]
    budget = min(int(budget), instance.total_weight)
    before = np.cumsum(w, axis=0) - w
    live = np.empty_like(w)
    np.put_along_axis(live, by_cost, w - np.clip(budget - before, 0, w), axis=0)
    if objective is Objective.CENTER:
        return np.where(live > 0, costs, 0.0).max(axis=0, initial=0.0)
    return np.cumsum(np.vstack([np.zeros(len(pool)), live * costs]), axis=0)[-1]


def _rank_key(sol):
    return (sol.cost, len(sol.centers), sol.centers)


def bicriteria_median(instance, k, t, cfg=None, objective=Objective.MEDIAN, seed=0,
                      tau=0.0, report_tau=None, table=None):
    """Bicriteria (k, t)-median/means via primal-dual + rounding.

    Binary-searches the uniform facility cost until either some run opens
    exactly k facilities (returned with exactly t outliers) or two runs
    bracket k. The bracket is rounded: with relax="outliers" a seeded
    pairing lottery draws k-center candidates, each completed by excluding
    at most floor((1+eps) t) copies, and the best-cost valid candidate wins
    (the small solution with exactly t outliers always competes). With
    relax="centers" the union of both bracket solutions is used when it fits
    under ceil((1+eps) k) centers, else the small solution padded greedily
    up to the cap. Only the probes' kept centers are read: each answer's
    outliers come from :func:`solution_from_centers` at its budget.

    With k >= 2, a facility cost that :meth:`SortedCosts.keeps_fewer_than`
    or :meth:`SortedCosts.keeps_one_center` certifies is taken as a run
    with fewer than k centers without making the run; it is made only when
    the search ends with that cost on the small side. The search visits the
    same costs, so the answer is that of running every probe.

    ``tau`` truncates the metric the duals grow against; ``report_tau``
    (defaulting to ``tau``) is the truncation the returned solution is
    assigned and measured under. ``table`` is the :class:`SortedCosts` of the
    ``(objective, tau)`` cost matrix, for callers that solve one instance at
    several budgets; built here when omitted.
    """
    cfg = cfg or BicriteriaConfig()
    _check_kt(instance, k, t)
    measure = tau if report_tau is None else report_tau
    relaxed_t = int((1.0 + cfg.epsilon) * t + 1e-9)
    final_budget = relaxed_t if cfg.relax == "outliers" else t

    m = len(instance.candidates)
    if m <= k:
        return solution_from_centers(instance, instance.candidates, objective,
                                     final_budget, measure)
    table = SortedCosts.ensure(table, instance, objective, tau)
    if table.cmax == 0.0:
        return solution_from_centers(instance, instance.candidates[:k], objective,
                                     final_budget, measure)

    def probe(zv):
        return jv_facility_location(instance, zv, objective, tau, stop_weight=t, table=table)

    def finish(centers, budget, note=None):
        sol = solution_from_centers(instance, centers, objective, budget, measure)
        sol.note = note
        return sol

    def fewer(zv):
        # A certified run keeps fewer than k centers: the search moves on
        # without it, and runs it only if its centers are needed. The
        # many-center verdict is one comparison, so it is read first.
        return k >= 2 and (table.keeps_fewer_than(k, zv) or table.keeps_one_center(zv))

    z_lo, z_hi = 0.0, table.total * table.cmax + 1.0
    res_lo = probe(z_lo)
    if len(res_lo.centers) == k:
        return finish(res_lo.centers, t, "exact")
    if len(res_lo.centers) < k:
        return finish(res_lo.centers, t, "bracket-low")
    res_hi = None if fewer(z_hi) else probe(z_hi)
    if res_hi is not None:
        if len(res_hi.centers) == k:
            return finish(res_hi.centers, t, "exact")
        if len(res_hi.centers) > k:
            return finish(res_hi.centers, final_budget, "bracket-failed")

    sol_large, sol_small = res_lo, res_hi   # None: the run at z_hi is not made yet
    for _ in range(_FACILITY_COST_SEARCH_ITERS):
        if z_hi - z_lo <= 1e-9 * max(1.0, z_hi):
            break
        mid = 0.5 * (z_lo + z_hi)
        if fewer(mid):
            z_hi, sol_small = mid, None
            continue
        r = probe(mid)
        c = len(r.centers)
        if c == k:
            return finish(r.centers, t, "exact")
        if c > k:
            z_lo, sol_large = mid, r
        else:
            z_hi, sol_small = mid, r

    if sol_small is None:
        sol_small = probe(z_hi)
    K1, K2 = sol_small.centers, sol_large.centers
    k1, k2 = len(K1), len(K2)
    a = (k2 - k) / (k2 - k1)

    if cfg.relax == "centers":
        cap = int(math.ceil((1.0 + cfg.epsilon) * k - 1e-9))
        if k1 + k2 <= cap:
            return finish(tuple(sorted(set(K1) | set(K2))), t, "union")
        candidates = [finish(K1, t, "small")]
        centers = list(K1)
        pool = sorted(set(K2) - set(K1))
        while len(centers) < cap and pool:
            # Trials differ in one center, so the least (cost, id) is the
            # least _rank_key; the pool is sorted and argmin takes the first.
            best = pool[int(np.argmin(_padding_costs(instance, centers, pool, objective,
                                                     t, measure)))]
            centers.append(best)
            pool.remove(best)
            candidates.append(finish(centers, t, "padded"))
        return min(candidates, key=_rank_key)

    candidates = [finish(K1, t, "small")]
    if a < cfg.epsilon / 2.0:
        pair_block = instance.counter.block(instance.space, K1, K2)
        partners = []
        taken = set()
        for i1 in range(k1):
            best_j = min(
                (j for j in range(k2) if j not in taken),
                key=lambda j: (pair_block[i1, j], K2[j]),
            )
            taken.add(best_j)
            partners.append(K2[best_j])
        leftovers = np.array(sorted(set(K2) - set(partners)), dtype=int)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        for _ in range(cfg.trials):
            if rng.random() < a:
                chos = K1
            else:
                extra = rng.choice(leftovers, size=k - k1, replace=False)
                chos = tuple(partners) + tuple(int(x) for x in extra)
            candidates.append(finish(chos, relaxed_t, "rounded"))
    return min(candidates, key=_rank_key)


# ---------------------------------------------------------------------------
# Exhaustive oracle


def exact_oracle(instance, k, t, objective):
    """Optimal (k, t) clustering by enumerating all k-subsets of candidates.

    Guarded to n <= 18 demands and k <= 4. Weighted outlier budgets split
    copies greedily (largest assignment cost first), which is optimal for
    all three objectives. Ties resolve to the lexicographically smallest
    center tuple.
    """
    if instance.n > 18 or k > 4:
        raise OracleSizeLimitError(
            f"oracle guard: n={instance.n} (max 18), k={k} (max 4)"
        )
    if k < 1 or t < 0:
        raise InvalidParameterError("need k >= 1 and t >= 0")
    M = instance.cost_matrix(objective)
    w = instance.weights
    if instance.total_weight <= t:
        lone = (int(instance.candidates[0]),)
        return solution_from_centers(instance, lone, objective, t)
    m = len(instance.candidates)
    kk = min(k, m)
    best = None
    for combo in itertools.combinations(range(m), kk):
        sub = M[:, combo]
        costs = sub.min(axis=1)
        excluded = _greedy_exclude(costs, w, t)
        value = 0.0
        worst = 0.0
        for j in range(instance.n):
            live = w[j] - excluded.get(j, 0)
            if live > 0:
                value += live * costs[j]
                worst = max(worst, float(costs[j]))
        score = worst if objective is Objective.CENTER else value
        key = (score, tuple(int(instance.candidates[u]) for u in combo))
        if best is None or key < best:
            best = key
    return solution_from_centers(instance, best[1], objective, t)

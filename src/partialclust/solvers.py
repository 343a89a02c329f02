"""Centralized clustering-with-outliers solvers.

Four families live here:

* :func:`gonzalez_order` — farthest-first traversal with insertion radii, the
  engine behind the center-objective protocols, computed one distance row
  per chosen point and stopped at the prefix the caller reads;
* :func:`kt_center_outliers` — threshold sweep with greedy disk covering
  (3-approximate k-center with outliers, weighted via copy counting), run
  incrementally over one sort of the cost matrix with exact integer gains;
* :func:`bicriteria_median` — facility-location primal-dual with uniform
  opening cost, a binary search over that cost bracketing the center count,
  and randomized convex-combination rounding; relaxes either the outlier
  budget or the center count. :func:`bicriteria_truncated_center` runs the
  same machinery over threshold-truncated expected distances;
* :func:`exact_oracle` — exhaustive enumeration at desk scale, the ground
  truth the approximation bounds are tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
    """Best solution with the given centers: nearest-center assignment plus
    exact-budget greedy exclusion (weighted copies may split)."""
    centers = tuple(sorted({int(c) for c in centers}))
    if not centers:
        raise InvalidParameterError("need at least one center")
    sub = instance.cost_columns(objective, centers, tau)
    best = np.argmin(sub, axis=1)
    costs = sub[np.arange(instance.n), best]
    w = instance.weights
    budget = min(int(budget), int(w.sum()))
    excluded = _greedy_exclude(costs, w, budget)
    assignment = {}
    total = 0.0
    worst = 0.0
    for j in range(instance.n):
        live = instance.demands[j].weight - excluded.get(j, 0)
        if live == 0:
            continue
        assignment[j] = centers[best[j]]
        total += live * costs[j]
        worst = max(worst, float(costs[j]))
    cost = worst if objective is Objective.CENTER else total
    return ClusteringSolution(centers, excluded, assignment, float(cost))


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
    L points costs (L - 1) * n evaluations, not n^2.
    """
    n = instance.n
    length = n if length is None else min(int(length), n)
    order = [0]
    radii = []
    mind = np.full(n, np.inf)
    while len(order) < length:
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


def kt_center_outliers(instance, k, t):
    """3-approximate (k, t)-center on weighted demands.

    Sweeps the distinct costs r in ascending order; for each, greedily opens
    the disk (cost <= r) covering the most uncovered weight and removes its
    3x-expanded disk (cost <= 3r), k times, ties to the lowest candidate.
    The first radius leaving at most t uncovered weight wins; the returned
    solution excludes exactly t copies (largest costs first).

    The sweep is incremental. The cost matrix is sorted once, and two
    pointers into that order add the entries newly within r and 3r to a 0/1
    disk matrix, a candidate-major expanded-disk mask and each candidate's
    disk weight, so a radius costs only its k picks. A pick subtracts the
    weight of the rows it newly covers from the gains rather than
    recomputing them all. Demand weights are positive integers, so every
    gain is an integer-valued float far below 2**53 and any summation order
    gives the same value: the picks, and the solution, are exactly those of
    rebuilding both disks and every gain at each radius.
    """
    _check_kt(instance, k, t)
    M = instance.cost_matrix(Objective.CENTER)
    w = instance.weights
    n, m = M.shape
    order = np.argsort(M, axis=None, kind="stable")
    vals = M.ravel()[order]
    radii = vals[np.r_[True, vals[1:] != vals[:-1]]]
    inner = np.searchsorted(vals, radii + 1e-12, side="right")
    outer = np.searchsorted(vals, 3.0 * radii + 1e-12, side="right")
    within = np.zeros((n, m))
    expanded = np.zeros((m, n), dtype=bool)
    gain0 = np.zeros(m)
    done_in = done_out = 0
    for p_in, p_out in zip(inner, outer):
        rows, cols = np.divmod(order[done_in:p_in], m)
        within[rows, cols] = 1.0
        gain0 += np.bincount(cols, weights=w[rows], minlength=m)
        rows, cols = np.divmod(order[done_out:p_out], m)
        expanded[cols, rows] = True
        done_in, done_out = p_in, p_out
        gain = gain0.copy()
        uncovered = w.copy()
        picks = []
        for _ in range(min(k, m)):
            # Array methods, not the np.* wrappers: this runs k times at each
            # of thousands of radii on small arrays. Rows covered earlier
            # hold 0 in uncovered, so they subtract nothing.
            u = int(gain.argmax())
            picks.append(u)
            hit = expanded[u].nonzero()[0]
            gain -= uncovered[hit] @ within[hit]
            uncovered[hit] = 0.0
        if uncovered.sum() <= t + 1e-9:
            centers = instance.candidates[picks].tolist()
            return solution_from_centers(instance, centers, Objective.CENTER, t)
    raise InfeasibleError("threshold sweep found no feasible radius")  # pragma: no cover


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
class DualCertificate:
    """Dual values grown by the primal-dual phase plus the set of demand
    copies still unconnected when growth stopped."""

    alpha: np.ndarray
    unprocessed: dict
    stop_time: float

    @property
    def unprocessed_weight(self):
        return sum(self.unprocessed.values())


@dataclass
class JVResult:
    centers: tuple
    temp_open: tuple
    certificate: DualCertificate


_BLOCK_ENTRIES = 1 << 15
_ESTIMATE_BATCH = 32


@dataclass(frozen=True)
class SortedCosts:
    """One cost matrix sorted per candidate, shared by every primal-dual
    probe on it. Row ``u`` of each array belongs to candidate column ``u``:
    ``order[u]`` lists the demands by ascending cost to ``u`` (stable),
    ``costs[u]`` those costs, and ``cum_w[u]`` / ``cum_wc[u]`` the running
    sums of weight and of weight times cost along that order."""

    matrix: np.ndarray
    order: np.ndarray
    costs: np.ndarray
    cum_w: np.ndarray
    cum_wc: np.ndarray

    @classmethod
    def build(cls, instance, objective, tau=0.0):
        C = instance.cost_matrix(objective, tau)
        cmax = float(C.max())
        # The facility-cost search adds facility costs up to W * cmax to cost
        # sums up to W * cmax.
        if not math.isfinite(2.0 * instance.total_weight * cmax):
            raise InvalidPointError(
                f"costs overflow: {instance.total_weight} copies at cost up to "
                f"{cmax:.3g} sum past the float range; scale the input down")
        order = np.argsort(C.T, axis=1, kind="stable")
        costs = np.take_along_axis(C.T, order, axis=1)
        w_sorted = instance.weights[order]
        cum_w = np.cumsum(w_sorted, axis=1)
        w_sorted *= costs
        return cls(C, order, costs, cum_w, np.cumsum(w_sorted, axis=1))

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
        nothing is frozen: the least cost level theta at which the duals
        max(theta - c, 0) summed over the demands reach ``z``."""
        m, n = self.costs.shape
        times = np.zeros(m)
        if z <= 0:
            return times
        # Blocks of candidates keep the temporaries small next to the table.
        # Demand weights are >= 1, so every cum_w entry is > 0.
        step = max(1, _BLOCK_ENTRIES // n)
        for r in range(0, m, step):
            rows = slice(r, r + step)
            costs = self.costs[rows]
            cand = (z + self.cum_wc[rows]) / self.cum_w[rows]
            ok = cand >= costs - 1e-12
            ok[:, :-1] &= cand[:, :-1] <= costs[:, 1:] + 1e-12
            cand[~ok] = np.inf
            times[rows] = cand.min(axis=1)
        return np.maximum(times, 0.0)


def jv_facility_location(instance, z, objective, tau=0.0, stop_weight=0, table=None):
    """Primal-dual facility location with uniform opening cost ``z``.

    All unconnected demands grow a shared dual; a facility opens once the
    excess duals tight with it cover ``z``; demands connect (freeze) on
    reaching an open facility. Growth stops as soon as the unconnected
    weight drops to ``stop_weight`` — those copies are the unprocessed
    outliers. A conflict-free subset of the opened facilities (greedy by
    opening time) survives pruning.

    ``key`` holds one stored opening time per candidate (inf once it
    opens). Each is a lower bound, since freezing demands only delays an
    opening. The next opening is found lazily: the smallest key, lowest
    index on ties, is re-estimated under the current duals, and if the
    estimate is later it is stored and the search goes on. The duals do not
    move during one search, so after the first stale candidate the smallest
    unestimated keys are estimated in batches of up to 32 and looked up as
    the search reaches them; only the candidates the search examines have
    their estimate stored. Each batch row does the float operations of a
    one-candidate estimate, so every pick, and the result, is bit for bit
    that of a lazy binary heap of (time, index) pairs.

    ``table`` is the :class:`SortedCosts` of this instance's
    ``(objective, tau)`` cost matrix; probes of one facility-cost search
    share it. Built here when omitted.
    """
    if z < 0:
        raise InvalidParameterError("facility cost must be >= 0")
    table = SortedCosts.ensure(table, instance, objective, tau)
    C = table.matrix
    n, m = C.shape
    w = instance.weights
    wi = [d.weight for d in instance.demands]
    total = int(sum(wi))
    stop_weight = max(int(stop_weight), 0)

    order, Csort = table.order, table.costs

    active = np.ones(n, dtype=bool)
    freeze = np.full(n, np.inf)
    frozen_base = np.zeros(m)
    open_time = np.full(m, np.inf)
    open_seq = []
    minopen = np.full(n, np.inf)
    remaining = total
    unprocessed = {}
    theta = 0.0

    def estimates(us):
        """Opening times of candidates ``us`` under the current duals, one
        row per candidate (``initial_opening_times`` with frozen demands)."""
        req = z - frozen_base[us]
        cols = order[us]
        wa = w[cols] * active[cols]
        cw = wa.cumsum(axis=1)
        costs = Csort[us]
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

    key = table.initial_opening_times(z)
    batch_size = min(_ESTIMATE_BATCH, m)

    def next_opening():
        memo = {}   # estimates made in this search, by candidate
        while True:
            u = int(key.argmin())
            tu = float(key[u])
            if math.isinf(tu):
                return np.inf, None
            if u not in memo:
                # Most searches need one estimate, so the first goes alone.
                if memo:
                    pending = key.copy()
                    pending[list(memo)] = np.inf
                    pending[u] = -np.inf
                    us = np.argpartition(pending, batch_size - 1)[:batch_size]
                    us = us[pending[us] < np.inf]
                else:
                    us = np.array([u])
                memo.update(zip(us.tolist(), estimates(us).tolist()))
            t2 = memo[u]
            if t2 > tu + 1e-12 * (1.0 + abs(tu)):
                key[u] = t2
                continue
            return max(tu, theta), u

    stopped = False
    while remaining > stop_weight and not stopped:
        act_idx = np.where(active)[0]
        if act_idx.size == 0:
            break
        t_freeze = float(minopen[act_idx].min()) if open_seq else np.inf
        t_open, u_next = next_opening()
        if math.isinf(t_open) and math.isinf(t_freeze):
            break  # pragma: no cover - no facility can ever open
        if t_open <= t_freeze:
            theta = t_open
            key[u_next] = np.inf
            open_time[u_next] = theta
            open_seq.append(u_next)
            np.minimum(minopen, C[:, u_next], out=minopen)
        else:
            theta = t_freeze
        batch = np.where(active & (minopen <= theta + 1e-12 * (1.0 + theta)))[0]
        cols = np.array(open_seq, dtype=int)
        connect = np.maximum(open_time[cols], C[batch[:, None], cols]).min(axis=1)
        for j, tj in zip(batch, connect):
            freeze[j] = tj
            active[j] = False
            if remaining - wi[j] < stop_weight:
                frozen_copies = remaining - stop_weight
                if frozen_copies < wi[j]:
                    unprocessed[int(j)] = wi[j] - frozen_copies
                remaining = stop_weight
                stopped = True
                break
            remaining -= wi[j]
            frozen_base += w[j] * np.maximum(freeze[j] - C[j], 0.0)

    for j in np.where(active)[0]:
        unprocessed[int(j)] = wi[j]
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
    cert = DualCertificate(alpha, unprocessed, float(theta))
    return JVResult(centers, tuple(int(instance.candidates[u]) for u in open_seq), cert)


# ---------------------------------------------------------------------------
# Bicriteria (k, t)-median / means


@dataclass(frozen=True)
class BicriteriaConfig:
    """Knobs for the primal-dual bicriteria solver.

    ``relax`` picks which budget may stretch by (1 + epsilon): ``"outliers"``
    keeps at most k centers, ``"centers"`` keeps at most t outliers.
    ``rounding_trials`` defaults to ceil(8/epsilon * ln 100), capped at 200.
    """

    epsilon: float = 1.0
    relax: str = "outliers"
    rounding_trials: int | None = None
    facility_cost_search_iters: int = 64

    def __post_init__(self):
        if self.epsilon <= 0:
            raise InvalidParameterError("epsilon must be > 0")
        if self.relax not in ("outliers", "centers"):
            raise InvalidParameterError("relax must be 'outliers' or 'centers'")
        if self.rounding_trials is not None and self.rounding_trials < 1:
            raise InvalidParameterError("rounding_trials must be >= 1")
        if self.facility_cost_search_iters < 1:
            raise InvalidParameterError("facility_cost_search_iters must be >= 1")

    @property
    def trials(self):
        if self.rounding_trials is not None:
            return min(self.rounding_trials, 200)
        return min(math.ceil(8.0 / self.epsilon * math.log(100.0)), 200)


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
    up to the cap.

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
    M = instance.cost_matrix(objective, tau)
    cmax = float(M.max())
    if cmax == 0.0:
        return solution_from_centers(instance, instance.candidates[:k], objective,
                                     final_budget, measure)
    table = SortedCosts.ensure(table, instance, objective, tau)

    def probe(zv):
        return jv_facility_location(instance, zv, objective, tau, stop_weight=t, table=table)

    def finish(centers, budget, note=None):
        sol = solution_from_centers(instance, centers, objective, budget, measure)
        sol.note = note
        return sol

    z_lo, z_hi = 0.0, instance.total_weight * cmax + 1.0
    res_lo = probe(z_lo)
    if len(res_lo.centers) == k:
        return finish(res_lo.centers, t, "exact")
    if len(res_lo.centers) < k:
        return finish(res_lo.centers, t, "bracket-low")
    res_hi = probe(z_hi)
    if len(res_hi.centers) == k:
        return finish(res_hi.centers, t, "exact")
    if len(res_hi.centers) > k:
        return finish(res_hi.centers, final_budget, "bracket-failed")

    sol_large, sol_small = res_lo, res_hi
    for _ in range(cfg.facility_cost_search_iters):
        if z_hi - z_lo <= 1e-9 * max(1.0, z_hi):
            break
        mid = 0.5 * (z_lo + z_hi)
        r = probe(mid)
        c = len(r.centers)
        if c == k:
            return finish(r.centers, t, "exact")
        if c > k:
            z_lo, sol_large = mid, r
        else:
            z_hi, sol_small = mid, r

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
            best = None
            for c2 in pool:
                trial = finish(centers + [c2], t)
                if best is None or _rank_key(trial) < _rank_key(best[0]):
                    best = (trial, c2)
            centers.append(best[1])
            pool.remove(best[1])
            candidates.append(finish(centers, t, "padded"))
        return min(candidates, key=_rank_key)

    candidates = [finish(K1, t, "small")]
    if a < cfg.epsilon / 2.0:
        pair_block = instance.space.block(list(K1), list(K2))
        instance.counter.add(pair_block.size)
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


def bicriteria_truncated_center(instance, k, t, tau, cfg=None, seed=0):
    """Truncated-objective preclustering: duals grow against costs capped at
    ``tau``; the returned assignment and cost use the 3x-looser truncation
    (9 tau under relax="outliers", 3 tau under relax="centers"), matching the
    hop count of the rounding argument."""
    cfg = cfg or BicriteriaConfig()
    if tau < 0:
        raise InvalidParameterError("tau must be >= 0")
    factor = 9.0 if cfg.relax == "outliers" else 3.0
    return bicriteria_median(instance, k, t, cfg, Objective.MEDIAN, seed,
                             tau=tau, report_tau=factor * tau)


# ---------------------------------------------------------------------------
# Exhaustive oracle


def exact_oracle(instance, k, t, objective, tau=0.0):
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
    M = instance.cost_matrix(objective, tau)
    w = instance.weights
    if instance.total_weight <= t:
        lone = (int(instance.candidates[0]),)
        return solution_from_centers(instance, lone, objective, t, tau)
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
    return solution_from_centers(instance, best[1], objective, t, tau)

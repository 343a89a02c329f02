"""Simulated coordinator-model protocols with exact word accounting.

Every protocol runs s sites against one coordinator. Site work only reads
the site's own points; everything the coordinator learns travels through
:class:`Message` records in a :class:`CommLedger`, whose word counts are the
protocol's communication cost: a word per entry of what a message carries
(:func:`_send`), where a point costs the metric space's word width B.

Every runner configures one two-round driver. Sites summarize the trade-off
between local outliers and local cost, as the hull of a cost curve
(:func:`_curve_round`) or as farthest-first insertion radii
(:func:`_center_round`); the coordinator allocates the global outlier budget
by pooling marginal savings (see :mod:`.allocation`) and broadcasts the pivot;
sites answer with a small weighted summary, which the coordinator solves,
lifts back onto the sites' points and reports (:func:`_coordinate`).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .allocation import (
    Allocation,
    allocate,
    exceptional_adjust,
    geometric_index_set,
    lower_hull,
    merge_two_solutions,
)
from .errors import (
    InfeasibleError,
    InternalInvariantError,
    InvalidParameterError,
    PreconditionError,
)
from .metric import (
    ClusteringSolution,
    DemandArrays,
    EvalCounter,
    Instance,
    Objective,
)
from .solvers import (
    BicriteriaConfig,
    SortedCosts,
    bicriteria_median,
    gonzalez_order,
    insertion_marginals,
    kt_center_outliers,
    pad_centers,
    price,
    serve_nearest,
    solution_from_centers,
)


@dataclass(frozen=True)
class Partition:
    """Assignment of every point of a metric space to exactly one site."""

    space: object
    sites: tuple

    def __post_init__(self):
        _check_cover(self.sites, self.space.n, "point")

    @property
    def n_sites(self):
        return len(self.sites)

    @classmethod
    def round_robin(cls, space, s):
        _check_site_count(space.n, s, "point")
        return cls(space, tuple(tuple(range(i, space.n, s)) for i in range(s)))

    @classmethod
    def contiguous(cls, space, s):
        _check_site_count(space.n, s, "point")
        parts = np.array_split(np.arange(space.n), s)
        return cls(space, tuple(tuple(int(p) for p in part) for part in parts))

    @classmethod
    def from_lists(cls, space, lists):
        return cls(space, tuple(tuple(int(p) for p in pts) for pts in lists))


def _check_site_count(n, s, unit):
    if not isinstance(s, (int, np.integer)) or s < 1:
        raise InvalidParameterError("site count must be a positive integer")
    if s > n:
        raise InvalidParameterError(f"cannot spread {n} {unit}s over {s} sites")


def _check_cover(sites, n, unit):
    """Every one of the ``n`` items (``unit``s) sits on exactly one of the
    nonempty ``sites``. A failure names what a scan site by site meets
    first: an empty site or an item seen before."""
    if not sites:
        raise InvalidParameterError("partition needs at least one site")
    sizes = np.fromiter(map(len, sites), np.int64, len(sites))
    try:
        items = np.fromiter(itertools.chain.from_iterable(sites), np.int64, sizes.sum())
    except OverflowError:       # an id beyond int64 stays a Python int
        items = np.array(list(itertools.chain.from_iterable(sites)), dtype=object)
    empty = np.flatnonzero(sizes == 0)
    if (not empty.size and len(items) == n and 0 <= items.min()
            and items.max() < n and (np.bincount(items, minlength=n) == 1).all()):
        return
    seen_before = np.ones(len(items), bool)
    seen_before[np.unique(items, return_index=True)[1]] = False
    repeat = np.flatnonzero(seen_before)
    if repeat.size and (not empty.size or repeat[0] < sizes[:empty[0]].sum()):
        raise InvalidParameterError(f"{unit} {items[repeat[0]]} placed on two sites")
    if empty.size:
        raise InvalidParameterError(f"site {empty[0]} holds no {unit}s")
    raise InvalidParameterError(f"sites must cover every {unit} exactly once")


@dataclass(frozen=True)
class Message:
    """One transmission. ``words`` is its exact cost in machine words."""

    round: int
    direction: str      # "site->coord" or "coord->site"
    site: int
    kind: str           # "cost-curve" | "marginals" | "pivot" | "summary"
    words: int


class CommLedger:
    """Ordered record of every message a protocol run produced."""

    def __init__(self):
        self.messages = []

    def add(self, round_no, direction, site, kind, words):
        self.messages.append(Message(round_no, direction, site, kind, int(words)))

    @property
    def total_words(self):
        return sum(m.words for m in self.messages)

    def words(self, kind=None, round_no=None, direction=None):
        return sum(
            m.words
            for m in self.messages
            if (kind is None or m.kind == kind)
            and (round_no is None or m.round == round_no)
            and (direction is None or m.direction == direction)
        )

    def to_records(self):
        return [asdict(m) for m in self.messages]


@dataclass
class ProtocolReport:
    """Everything one protocol run produced.

    ``solution`` is point-level over the original ids (node-level for the
    uncertain protocols); ``budgets`` are the final per-site outlier budgets;
    ``site_seconds`` are each site worker's CPU time (``time.thread_time``);
    they are deliberately kept out of serialized reports so byte-identical
    replay stays possible. ``curves`` are the sites' round-1 cost-curve
    hulls, in site order, for the runners that send them (kt-median,
    kt-means, kt-median-co). ``extras`` holds only JSON-ready values and is
    printed as it is.
    """

    solution: ClusteringSolution
    ledger: CommLedger
    rounds: int
    allocation: Allocation | None
    budgets: tuple | None
    site_evals: tuple
    coord_evals: int
    site_seconds: tuple
    curves: tuple | None = None
    extras: dict = field(default_factory=dict)

    @property
    def total_evals(self):
        return sum(self.site_evals) + self.coord_evals


def _norm_objective(objective, allow_center=True):
    obj = Objective.from_string(objective) if isinstance(objective, str) else objective
    if not allow_center and obj is Objective.CENTER:
        raise InvalidParameterError("center objective has its own protocol")
    return obj


def _validate_common(k, t, epsilon=1.0, rho=None, seed=0):
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidParameterError("k must be a positive integer")
    if not isinstance(t, (int, np.integer)) or t < 0:
        raise InvalidParameterError("t must be a nonnegative integer")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidParameterError("seed must be a nonnegative integer")
    if not (epsilon > 0 and math.isfinite((1.0 + epsilon) * t)):
        raise InvalidParameterError("epsilon must be finite and > 0, (1 + epsilon) t finite")
    if rho is not None and not 1.0 < rho <= 2.0:
        raise InvalidParameterError("rho must lie in (1, 2]")


def _site_instances(partition, t):
    """One instance per site, once t is known to leave some point served."""
    insts = [Instance.from_points(partition.space, pts) for pts in partition.sites]
    total = sum(inst.total_weight for inst in insts)
    if total <= t:
        raise InfeasibleError(f"outlier budget t={t} >= {total} total points")
    return insts


def _run_sites(worker, s, seconds):
    """``worker(i)`` for every site, in site order, on the calling thread.

    There is no thread pool because one lost on every workload measured on a
    two-core host: numpy drops and retakes the interpreter lock on every
    mid-size operation, so six center-g inputs took 16.1 s wall and 17.5 s
    CPU on two threads against 7.6-8.0 s serially (a 60x60 ufunc loop on two
    threads costs 1.8x the wall and 2.5x the CPU of one), kt-median lost
    12-26% of its wall time on two threads and one-round center 35% on
    four. Real parallelism needs site steps that share nothing and a tracer
    that sees spans recorded in child processes.

    Adds each worker's CPU seconds (``time.thread_time``) to ``seconds[i]``
    and returns the results in site order.
    """
    results = []
    for i in range(s):
        start = time.thread_time()
        results.append(worker(i))
        seconds[i] += time.thread_time() - start
    return results


def _local_solution(inst, k, q, objective, table=None, tau=0.0):
    """sol(A_i, 2k, q): local bicriteria with doubled centers, exactly
    min(q, |A_i|) excluded copies. Center objective uses the first
    min(2k, n_i) points of a farthest-first traversal instead of the
    primal-dual machinery, and reads only those centers' cost columns: in
    euclidean mode min(2k, n_i) * n_i distance evaluations, or n_i when one
    center takes every copy out.

    ``tau`` > 0 solves center-g's truncated surrogate: the duals grow against
    costs truncated at 2 tau (max(d - 2 tau, 0)), and the solution is
    assigned and measured at 6 tau, the looser truncation the rounding
    argument pays for. ``table`` is the site's shared :class:`SortedCosts`
    of the ``(objective, 2 tau)`` cost matrix, if any."""
    cap = inst.total_weight
    qq = min(int(q), cap)
    target = 2 * k
    measure = 6.0 * tau
    if qq >= cap:
        lone = [int(inst.candidates[0])]
        return solution_from_centers(inst, lone, objective, qq, measure)
    if objective is Objective.CENTER:
        gorder = gonzalez_order(inst, target)
        return solution_from_centers(inst, inst.anchors[list(gorder.order)],
                                     objective, qq)
    cfg = BicriteriaConfig(epsilon=1.0, relax="centers")
    sol = bicriteria_median(inst, k, qq, cfg, objective, tau=2.0 * tau,
                            report_tau=measure, table=table)
    return pad_centers(inst, sol, target, objective, qq, measure)


# ---------------------------------------------------------------------------
# Coordinator assembly, lifting, and point-level expansion


def _center_attachments(inst, sol, objective, tau=0.0):
    """Every demand ``sol`` serves, as arrays (local demand, its center, its
    surviving copies) sorted by center, then farthest from it first, then by
    demand."""
    live = inst.counts.copy()
    live[list(sol.outliers)] -= np.fromiter(sol.outliers.values(), np.int64,
                                            len(sol.outliers))
    js = np.flatnonzero(live > 0)
    ctrs = np.array([sol.assignment[j] for j in js.tolist()], dtype=np.int64)
    copies = live[js]
    centers = sorted(set(sol.centers))
    costs = inst.cost_columns(objective, centers, tau)[js, np.searchsorted(centers, ctrs)]
    order = np.lexsort((js, -costs, ctrs))
    return js[order], ctrs[order], copies[order]


def _assemble_coordinator(site_instances, site_sols, objective, summary, counter,
                          ledger, round_no=2, tau=0.0):
    """Build the coordinator's weighted instance from round-2 site messages.

    A site sends its surviving preclustering centers as weighted point
    demands (B + 1 words each), then its excluded copies as ``summary``
    says: ``"point"`` B words a copy, ``"tentacle"`` B + 1 (anchor plus
    collapse offset), ``"node"`` 2 per support point, or ``"count"`` one
    count word, keeping the copies. A forwarded copy keeps its own demand.
    Each coordinator demand has a provenance record (site, local demands,
    their copies): the site copies it stands for, those of a center
    farthest from it first (on the cost surface truncated at ``tau``), so
    :func:`_lift_solution` can map the coordinator's verdict back. Under
    ``"node"`` only the forwarded centers are candidates. Returns no
    instance when the sites keep no copy.
    """
    B = site_instances[0].space.word_width
    per_copy = {"point": B, "tentacle": B + 1}
    parts, prov, center_pts = [], [], []
    for i, (inst, sol) in enumerate(zip(site_instances, site_sols)):
        js, ctrs, copies = _center_attachments(inst, sol, objective, tau)
        centers, first = np.unique(ctrs, return_index=True)
        bounds = np.r_[first, len(js)]
        held = np.r_[0, np.cumsum(copies)]
        parts.append(DemandArrays.points(centers, held[bounds[1:]] - held[first],
                                         centers, np.ones_like(centers)))
        prov += [(i, js[lo:hi], copies[lo:hi]) for lo, hi in zip(first, bounds[1:])]
        center_pts.append(centers)
        words = (B + 1) * len(centers)
        if summary == "count":
            words += 1
        elif sol.outliers:
            out = np.array(sorted(sol.outliers), dtype=np.int64)
            sent = np.array([sol.outliers[j] for j in out.tolist()], dtype=np.int64)
            parts.append(inst.arrays.take(out, sent))
            prov += [(i, out[k:k + 1], sent[k:k + 1]) for k in range(len(out))]
            if summary == "node":
                if ((inst.counts[out] != 1) | (sent != 1)).any():
                    raise InternalInvariantError("node demands must carry unit weight")
                words += 2 * int(inst.arrays.slen[out].sum())
            elif summary in per_copy:
                words += per_copy[summary] * int(sent.sum())
            else:
                raise InternalInvariantError(f"unknown round-2 summary {summary!r}")
        if ledger is not None:
            ledger.add(round_no, "site->coord", i, "summary", words)
    arrays = DemandArrays.stack(parts)
    if not len(arrays.counts):
        return None, prov
    cands = np.concatenate(center_pts)
    if summary != "node" or not cands.size:
        cands = arrays.anchors
    return Instance(site_instances[0].space, arrays, cands, counter=counter), prov


def _lift_solution(site_instances, prov, final, objective, counter,
                   site_excluded=None):
    """Map the coordinator's solution back onto the concatenated site demands.

    A copy excluded from a coordinator demand takes out the first site copy
    it stands for (of a center, the attached copy farthest from it); a copy
    a site kept (``site_excluded``, per site {local demand: copies}) stays
    out; everything surviving is served at its nearest final center
    (:func:`~partialclust.solvers.serve_nearest`). Exclusion counts are
    preserved exactly. Returns the solution and its view: the instance of
    the site demands with the final centers as candidates, whose cached
    ``cost_matrix(objective)`` priced it, each distinct point against each
    center once.
    """
    offsets = np.cumsum([0] + [inst.n for inst in site_instances]).tolist()
    excluded = {}

    def exclude(site, local, copies):
        if copies > 0:
            g = offsets[site] + local
            excluded[g] = excluded.get(g, 0) + copies

    for i, held in enumerate(site_excluded or ()):
        for j, copies in held.items():
            exclude(i, j, copies)
    for dj, (site, local, copies) in enumerate(prov):
        e = final.excluded_copies(dj)
        if e == 0:
            continue
        take = np.minimum(copies, np.maximum(e - np.cumsum(copies) + copies, 0))
        if take.sum() != e:
            raise InternalInvariantError("excluded more copies than attached")
        for j, c in zip(local.tolist(), take.tolist()):
            exclude(site, j, c)

    view = Instance(site_instances[0].space,
                    DemandArrays.stack([inst.arrays for inst in site_instances]),
                    final.centers, counter=counter)
    C = view.cost_matrix(objective)
    nearest = np.argmin(C, axis=1)
    sol = serve_nearest(tuple(int(c) for c in view.candidates), nearest,
                        C[np.arange(view.n), nearest], view.weights, excluded,
                        objective)
    return sol, view


def _expand_points(view, demand_sol, objective):
    """Demand-level solution over ``view``'s demands -> point-level over
    original ids (via tags).

    Excluded copies take a demand's highest original ids. A served point
    costs its demand's entry at its center in ``view.cost_matrix(objective)``,
    the matrix the lift already priced with, so no distance is evaluated
    here; the reported cost is priced point by point in ascending id order.
    """
    live = view.counts.copy()
    out = demand_sol.outliers
    live[list(out)] -= np.fromiter(out.values(), np.int64, len(out))
    served = np.flatnonzero(live > 0)
    ctrs = np.zeros(view.n, dtype=np.int64)
    ctrs[served] = np.fromiter(map(demand_sol.assignment.__getitem__,
                                   served.tolist()), np.int64, len(served))
    costs = view.cost_matrix(objective)[np.arange(view.n),
                                        np.searchsorted(view.candidates, ctrs)]
    # each tag id's demand, and its rank among that demand's ids
    tlen = view.arrays.tlen
    owner = np.repeat(np.arange(view.n), tlen)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(tlen) - tlen, tlen)
    keep = rank < live[owner]
    ids = view.arrays.tags
    order = np.argsort(ids[keep])
    pts, owners = ids[keep][order], owner[keep][order]
    return ClusteringSolution(
        demand_sol.centers, dict.fromkeys(np.sort(ids[~keep]).tolist(), 1),
        dict(zip(pts.tolist(), ctrs[owners].tolist())),
        price(costs[owners], 1, objective))


def _node_solution(view, demand_sol):
    """Demand-level solution over unit-weight node demands -> node-level via
    node-id tags."""
    nids = view.arrays.tags[np.cumsum(view.arrays.tlen) - view.arrays.tlen].tolist()
    return ClusteringSolution(
        demand_sol.centers, dict.fromkeys([nids[g] for g in sorted(demand_sol.outliers)], 1),
        {nids[g]: c for g, c in demand_sol.assignment.items()}, demand_sol.cost)


# ---------------------------------------------------------------------------
# The two-round driver: site summaries, allocation, coordinator tail


def _send(ledger, round_no, direction, site, kind, *payload):
    """Record a message on ``ledger``, if any: a word per entry it carries
    (``np.size``: an array one per element, a scalar or None one)."""
    if ledger is not None:
        ledger.add(round_no, direction, site, kind, sum(np.size(p) for p in payload))


def _broadcast_pivot(ledger, alloc, s, *more):
    """Send each site the pivot entry (site, index, value), then ``more``."""
    for i in range(s):
        _send(ledger, 1, "coord->site", i, "pivot", alloc.pivot_site,
              alloc.pivot_q, alloc.pivot_value, *more)


def _curve_round(site_insts, k, t, rho, objective, seconds, ledger,
                 adjust=True, tau=0.0):
    """Round 1 of the sum-objective protocols.

    Every site solves its local (2k, q) problems on the geometric grid (at
    truncation ``tau``, see :func:`_local_solution`) and ships the lower hull
    of its cost curve; the coordinator allocates, rounds the pivot site's
    budget up to its next hull vertex when ``adjust`` is set (so it answers
    with a solution it already computed) and broadcasts the pivot. Messages
    go to ``ledger``, if any. Site CPU time adds to ``seconds``. Returns
    (site solutions by q, curves, allocation).
    """
    qs = geometric_index_set(t, rho)

    def worker(i):
        # One sorted-cost table serves the site's whole q grid. It lives only
        # while this worker runs, so finished sites hold none. A site with at
        # most k candidates answers every q from them without a search, so it
        # builds none.
        inst = site_insts[i]
        table = None
        if len(inst.candidates) > k:
            table = SortedCosts.build(inst, objective, 2.0 * tau)
        sols = {q: _local_solution(inst, k, q, objective, table, tau) for q in qs}
        return sols, lower_hull(i, [(q, sol.cost) for q, sol in sols.items()])

    results = _run_sites(worker, len(site_insts), seconds)
    curves = [c for _, c in results]
    for i, c in enumerate(curves):
        _send(ledger, 1, "site->coord", i, "cost-curve", c.hull_q, c.hull_cost)
    alloc = allocate([c.marginals() for c in curves], t, rho)
    if adjust and alloc.pivot_site is not None:
        alloc = exceptional_adjust(alloc, curves[alloc.pivot_site])
    _broadcast_pivot(ledger, alloc, len(curves))
    return [sols for sols, _ in results], curves, alloc


def _center_round(site_insts, k, t, rho, seconds, ledger):
    """Site work of the two-round center protocols.

    Each site runs a farthest-first traversal up to position k + t and
    sends the t insertion radii after position k, its exact marginal-gain
    curve; the coordinator allocates and broadcasts the pivot. No adjustment
    follows, since every integer budget is already realizable: each site
    answers with its first k + t_i traversal points, whose cost columns in
    euclidean mode are the traversal's own rows, so a site of n_i demands
    evaluates at most (k + t) * n_i distances (matrix mode reads the columns
    apart). Both steps run as site work, their CPU time added to
    ``seconds``. Returns (allocation, site solutions).
    """
    def traverse(i):
        gorder = gonzalez_order(site_insts[i], k + t)
        return gorder, insertion_marginals(gorder, k, t)

    results = _run_sites(traverse, len(site_insts), seconds)
    for i, (_, radii) in enumerate(results):
        _send(ledger, 1, "site->coord", i, "marginals", radii)
    alloc = allocate([m for _, m in results], t, rho)
    _broadcast_pivot(ledger, alloc, len(site_insts))

    def answer(i):
        inst, (gorder, _) = site_insts[i], results[i]
        size = min(k + alloc.t_by_site[i], inst.n)
        return solution_from_centers(inst, inst.anchors[list(gorder.order[:size])],
                                     Objective.CENTER, 0)

    return alloc, _run_sites(answer, len(site_insts), seconds)


def _coordinate(site_insts, site_sols, objective, k, t, ledger, summary, *,
                allocation, site_seconds, epsilon=1.0, seed=0, score=None,
                tau=0.0):
    """The coordinator's tail, shared by every distributed runner.

    Assembles the sites' round-2 messages (``summary`` and ``tau`` go to
    :func:`_assemble_coordinator`), solves them (threshold sweep for the
    center objective, bicriteria with floor((1 + epsilon) t) excluded copies
    otherwise), lifts the verdict onto the site demands, pricing each
    distinct site point against each final center once, and reports it
    point-level for ``"point"`` and ``"count"`` (each point's cost read from
    that pricing; under ``"count"`` the copies sites kept stay excluded),
    node-level otherwise. Without an ``allocation`` the run took one round
    and a site's budget is the copies it excluded. ``score(solution,
    counter)`` returns extras measured on the final solution, with its
    distance evaluations counted as the coordinator's. Sites that keep their
    outliers may leave it t copies or fewer: its budget then stays below the
    copies it holds, as a site's does, and holding none it ignores every
    point around one lone center.
    """
    rounds = 1 if allocation is None else 2
    coord_counter = EvalCounter()
    coord_inst, prov = _assemble_coordinator(
        site_insts, site_sols, objective, summary, coord_counter, ledger,
        round_no=rounds, tau=tau)
    if coord_inst is None:
        final = ClusteringSolution((int(site_insts[0].candidates[0]),), {}, {}, 0.0)
    else:
        t = min(t, coord_inst.total_weight - 1)
        if objective is Objective.CENTER:
            final = kt_center_outliers(coord_inst, k, t)
        else:
            cfg = BicriteriaConfig(epsilon=epsilon, relax="outliers")
            final = bicriteria_median(coord_inst, k, t, cfg, objective,
                                      seed=(seed, 3))
    held = [dict(s.outliers) for s in site_sols] if summary == "count" else None
    demand_sol, view = _lift_solution(site_insts, prov, final, objective,
                                      coord_counter, site_excluded=held)
    extras = {"coordinator_excluded": final.total_excluded}
    if summary in ("point", "count"):
        solution = _expand_points(view, demand_sol, objective)
    else:
        solution = _node_solution(view, demand_sol)
    if score is not None:
        extras.update(score(solution, coord_counter))
    budgets = (tuple(s.total_excluded for s in site_sols) if allocation is None
               else allocation.t_by_site)
    return ProtocolReport(
        solution=solution, ledger=ledger, rounds=rounds, allocation=allocation,
        budgets=budgets,
        site_evals=tuple(inst.counter.count for inst in site_insts),
        coord_evals=coord_counter.count, site_seconds=tuple(site_seconds),
        extras=extras,
    )


# ---------------------------------------------------------------------------
# The runners


def run_kt_median(partition, k, t, rho=2.0, epsilon=1.0,
                  objective=Objective.MEDIAN, seed=0):
    """Two-round (k, t)-median/means with outlier forwarding.

    Round 1: cost-curve hulls up, budget pivot down; the pivot site's budget
    rounds up to its next hull vertex, so every site answers with a solution
    it already computed and the total site budget stays at most 3t (for
    rho = 2). Round 2: 2k weighted centers plus the budgeted outlier points.
    The coordinator solve keeps k centers and excludes at most
    floor((1 + epsilon) t) copies. The report's ``allocation`` is the one
    after the pivot adjustment, so its ``t_by_site`` equals ``budgets``.
    """
    objective = _norm_objective(objective, allow_center=False)
    _validate_common(k, t, epsilon, rho, seed)
    site_insts = _site_instances(partition, t)
    ledger, secs = CommLedger(), [0.0] * partition.n_sites
    sols_by_q, curves, alloc = _curve_round(
        site_insts, k, t, rho, objective, secs, ledger)
    site_sols = [sols[q] for sols, q in zip(sols_by_q, alloc.t_by_site)]
    report = _coordinate(
        site_insts, site_sols, objective, k, t, ledger, "point",
        allocation=alloc, site_seconds=secs, epsilon=epsilon, seed=seed)
    report.curves = tuple(curves)
    report.extras["site_excluded"] = tuple(s.total_excluded for s in site_sols)
    return report


def run_kt_median_clustering_only(partition, k, t, delta=0.25, epsilon=1.0,
                                  objective=Objective.MEDIAN, seed=0):
    """Clustering-only variant: centers travel, outlier identities do not.

    Runs the curve round with rho = 1 + delta and no budget adjustment, so
    the total site budget is at most (1 + delta) t. The pivot site's budget
    usually falls between two hull vertices; that site serves the union of
    the two bracketing local solutions' centers (at most 4k) with exactly
    the allocated outlier count, the dearest copies excluded (see
    :func:`~partialclust.allocation.merge_two_solutions`). Sites report
    only their outlier counts (one word); excluded points stay hidden, so
    the final solution ignores at most (2 + epsilon + delta) t points. A
    site picks its answer as site work, so a merge counts in
    ``site_seconds``.
    """
    objective = _norm_objective(objective, allow_center=False)
    _validate_common(k, t, epsilon, seed=seed)
    if not 0.0 < delta <= 1.0:
        raise InvalidParameterError("delta must lie in (0, 1]")
    site_insts = _site_instances(partition, t)
    ledger, secs = CommLedger(), [0.0] * partition.n_sites
    sols_by_q, curves, alloc = _curve_round(
        site_insts, k, t, 1.0 + delta, objective, secs, ledger, adjust=False)

    def answer(i):
        inst, sols, curve = site_insts[i], sols_by_q[i], curves[i]
        # a site cannot ignore more copies than it holds
        ti = min(alloc.t_by_site[i], inst.total_weight)
        if ti in sols:
            return sols[ti]
        lo = curve.vertex_at_or_below(ti)
        hi = curve.vertex_at_or_above(ti)
        return merge_two_solutions(inst, sols[lo], sols[hi], ti, objective)

    site_sols = _run_sites(answer, partition.n_sites, secs)
    report = _coordinate(
        site_insts, site_sols, objective, k, t, ledger, "count",
        allocation=alloc, site_seconds=secs, epsilon=epsilon, seed=seed)
    site_excluded = tuple(s.total_excluded for s in site_sols)
    report.curves = tuple(curves)
    report.extras.update(
        site_excluded=site_excluded,
        total_ignored=report.extras["coordinator_excluded"] + sum(site_excluded))
    return report


def run_kt_center(partition, k, t, rho=2.0):
    """Two-round (k, t)-center.

    Round 1: each site sends its farthest-first insertion radii and the same
    pivot allocation as the median protocol splits the budget (see
    :func:`_center_round`). Round 2: the first k + t_i traversal points with
    attached counts; a site excludes no copy, so it forwards no outlier.
    The coordinator's threshold sweep keeps k centers and excludes exactly
    t copies. The traversal and the sweep are deterministic, so it takes no
    seed.
    """
    _validate_common(k, t, rho=rho)
    site_insts = _site_instances(partition, t)
    ledger, secs = CommLedger(), [0.0] * partition.n_sites
    alloc, site_sols = _center_round(site_insts, k, t, rho, secs, ledger)
    return _coordinate(
        site_insts, site_sols, Objective.CENTER, k, t, ledger, "point",
        allocation=alloc, site_seconds=secs)


def run_one_round(partition, k, t, objective=Objective.MEDIAN, epsilon=1.0,
                  seed=0):
    """Single-round baseline: every site sends its full (2k, t) summary.

    No allocation happens, so each site budgets t outliers of its own and
    the outlier payload grows as s * t * B words, the regime the two-round
    protocols exist to avoid. With one site this is exactly the second round
    of the median protocol.
    """
    objective = _norm_objective(objective)
    _validate_common(k, t, epsilon, seed=seed)
    site_insts = _site_instances(partition, t)
    secs = [0.0] * partition.n_sites
    site_sols = _run_sites(
        lambda i: _local_solution(site_insts[i], k, t, objective),
        partition.n_sites, secs)
    return _coordinate(
        site_insts, site_sols, objective, k, t, CommLedger(), "point",
        allocation=None, site_seconds=secs, epsilon=epsilon, seed=seed)


# ---------------------------------------------------------------------------
# Sequential subquadratic solver


@dataclass(frozen=True)
class SubquadraticReport:
    solution: ClusteringSolution
    depth: int
    evals: int
    levels: tuple       # (demands, simulated sites or 0 when solved directly)
    view: Instance      # the instance whose cost matrix priced ``solution``


def subquadratic_solve(instance, k, t, alpha, seed=0, objective=Objective.MEDIAN):
    """(k, t)-median/means in o(n^2) distance evaluations, t <= sqrt(n).

    Simulates the two-round protocol on one machine: split the demands over
    about n^(2/3) virtual sites, run the curve round and budget allocation,
    and recurse on the coordinator's weighted summary, which is a constant
    factor smaller. The recursion depth ceil(log2(1 + 1/alpha)) keeps the
    total work at O(n^(1 + alpha)) up to logarithmic factors; the leaf is a
    direct bicriteria solve, so at most 2t copies end up excluded.
    """
    objective = _norm_objective(objective, allow_center=False)
    _validate_common(k, t, seed=seed)
    depth = math.log2(1.0 + 1.0 / alpha) if 0 < alpha < math.inf else math.nan
    if not math.isfinite(depth):
        raise InvalidParameterError("alpha must be finite and > 0, 1 / alpha finite")
    W = instance.total_weight
    if t > math.sqrt(W) + 1e-9:
        raise PreconditionError(f"t={t} exceeds sqrt(n)={math.sqrt(W):.3f}")
    if W <= t:
        raise InfeasibleError(f"outlier budget t={t} >= {W} total weight")
    depth = int(math.ceil(depth - 1e-12))
    levels = []
    # the caller's counter may carry earlier work; report only this run's
    start = instance.counter.count
    sol, view = _subquadratic_level(instance, k, t, depth, objective, seed,
                                    levels)
    return SubquadraticReport(sol, depth, instance.counter.count - start,
                              tuple(levels), view)


def _subquadratic_level(inst, k, t, depth, objective, seed, levels):
    """Solve one level; returns the solution over ``inst``'s demands and the
    instance it was priced on: ``inst`` itself at a leaf, else the lift's
    view."""
    n = inst.n
    s = max(2, min(int(round(n ** (2.0 / 3.0))), n // (k + t + 1)))
    if depth <= 0 or n <= 64 or n // (k + t + 1) < 2:
        levels.append((n, 0))
        cfg = BicriteriaConfig(epsilon=1.0, relax="outliers")
        return bicriteria_median(inst, k, t, cfg, objective,
                                 seed=(seed, 7, depth)), inst
    levels.append((n, s))
    parts = np.array_split(np.arange(n), s)
    subinsts = [inst.subset([int(j) for j in p]) for p in parts]
    sols_by_q, _, alloc = _curve_round(
        subinsts, k, t, 2.0, objective, [0.0] * s, None)
    site_sols = [sols[q] for sols, q in zip(sols_by_q, alloc.t_by_site)]
    coord, prov = _assemble_coordinator(subinsts, site_sols, objective, "point",
                                        inst.counter, None)
    sub, _ = _subquadratic_level(coord, k, t, depth - 1, objective, seed, levels)
    return _lift_solution(subinsts, prov, sub, objective, inst.counter)

"""Simulated coordinator-model protocols with exact word accounting.

Every protocol runs s sites against one coordinator. Site work only reads
the site's own points; everything the coordinator learns travels through
:class:`Message` records in a :class:`CommLedger`, whose word counts are the
protocol's communication cost (a point costs the metric space's word width
B, a scalar or count costs 1).

Every runner configures one two-round driver. Sites summarize the trade-off
between local outliers and local cost, as the hull of a cost curve
(:func:`_curve_round`) or as farthest-first insertion radii
(:func:`_center_round`); the coordinator allocates the global outlier budget
by pooling marginal savings (:func:`_allocate`, see :mod:`.allocation`); sites
answer with a small weighted summary, which the coordinator solves, lifts
back onto the sites' points and reports (:func:`_coordinate`).
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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
    Demand,
    EvalCounter,
    Instance,
    Objective,
    point_demand,
)
from .solvers import (
    BicriteriaConfig,
    SortedCosts,
    bicriteria_median,
    gonzalez_order,
    insertion_marginals,
    kt_center_outliers,
    pad_centers,
    solution_from_centers,
)


@dataclass(frozen=True)
class Partition:
    """Assignment of every point of a metric space to exactly one site."""

    space: object
    sites: tuple

    def __post_init__(self):
        seen = set()
        if not self.sites:
            raise InvalidParameterError("partition needs at least one site")
        for i, pts in enumerate(self.sites):
            if len(pts) == 0:
                raise InvalidParameterError(f"site {i} holds no points")
            for p in pts:
                if p in seen:
                    raise InvalidParameterError(f"point {p} placed on two sites")
                seen.add(p)
        if seen != set(range(self.space.n)):
            raise InvalidParameterError("sites must cover every point exactly once")

    @property
    def n_sites(self):
        return len(self.sites)

    @classmethod
    def round_robin(cls, space, s):
        _check_site_count(space, s)
        return cls(space, tuple(tuple(range(i, space.n, s)) for i in range(s)))

    @classmethod
    def contiguous(cls, space, s):
        _check_site_count(space, s)
        parts = np.array_split(np.arange(space.n), s)
        return cls(space, tuple(tuple(int(p) for p in part) for part in parts))

    @classmethod
    def from_lists(cls, space, lists):
        return cls(space, tuple(tuple(int(p) for p in pts) for pts in lists))


def _check_site_count(space, s):
    if not isinstance(s, (int, np.integer)) or s < 1:
        raise InvalidParameterError("site count must be a positive integer")
    if s > space.n:
        raise InvalidParameterError(f"cannot spread {space.n} points over {s} sites")


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
        return [
            {"round": m.round, "direction": m.direction, "site": m.site,
             "kind": m.kind, "words": m.words}
            for m in self.messages
        ]


@dataclass
class ProtocolReport:
    """Everything one protocol run produced.

    ``solution`` is point-level over the original ids (node-level for the
    uncertain protocols); ``budgets`` are the final per-site outlier budgets;
    ``site_seconds`` are each site worker's CPU time on its own thread
    (``time.thread_time``), so under ``jobs > 1`` they leave out time spent
    waiting for the interpreter lock; they are deliberately kept out of
    serialized reports so byte-identical replay stays possible.
    """

    solution: ClusteringSolution
    ledger: CommLedger
    rounds: int
    allocation: Allocation | None
    budgets: tuple | None
    site_evals: tuple
    coord_evals: int
    site_seconds: tuple
    extras: dict = field(default_factory=dict)

    @property
    def total_evals(self):
        return sum(self.site_evals) + self.coord_evals


def _norm_objective(objective, allow_center=True):
    obj = Objective.from_string(objective) if isinstance(objective, str) else objective
    if not allow_center and obj is Objective.CENTER:
        raise InvalidParameterError("center objective has its own protocol")
    return obj


def _validate_common(k, t, seed, epsilon=1.0, rho=None):
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidParameterError("k must be a positive integer")
    if not isinstance(t, (int, np.integer)) or t < 0:
        raise InvalidParameterError("t must be a nonnegative integer")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidParameterError("seed must be a nonnegative integer")
    if epsilon <= 0:
        raise InvalidParameterError("epsilon must be > 0")
    if rho is not None and not 1.0 < rho <= 2.0:
        raise InvalidParameterError("rho must lie in (1, 2]")


def _site_instances(partition, t):
    """One instance per site, once t is known to leave some point served."""
    insts = [Instance.from_points(partition.space, pts) for pts in partition.sites]
    total = sum(inst.total_weight for inst in insts)
    if total <= t:
        raise InfeasibleError(f"outlier budget t={t} >= {total} total points")
    return insts


def _run_sites(worker, s, jobs):
    """``worker(i)`` for every site, on ``jobs`` threads when jobs > 1.

    Returns the results in site order and each worker's CPU seconds on its
    own thread (``time.thread_time``).
    """
    def timed(i):
        start = time.thread_time()
        result = worker(i)
        return result, time.thread_time() - start

    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=int(jobs)) as ex:
            pairs = list(ex.map(timed, range(s)))
    else:
        pairs = [timed(i) for i in range(s)]
    return [r for r, _ in pairs], [dt for _, dt in pairs]


def _local_solution(inst, k, q, objective, seed, table=None):
    """sol(A_i, 2k, q): local bicriteria with doubled centers, exactly
    min(q, |A_i|) excluded copies. Center objective uses the first
    min(2k, n_i) points of a farthest-first traversal instead of the
    primal-dual machinery, and reads only those centers' cost columns: in
    euclidean mode min(2k, n_i) * n_i distance evaluations, or n_i when one
    center takes every copy out. ``table`` is the site's shared
    :class:`SortedCosts`, if any."""
    cap = inst.total_weight
    qq = min(int(q), cap)
    target = 2 * k
    if qq >= cap:
        lone = [int(inst.candidates[0])]
        return solution_from_centers(inst, lone, objective, qq)
    if objective is Objective.CENTER:
        gorder = gonzalez_order(inst, target)
        prefix = [inst.demands[j].anchor for j in gorder.order]
        return solution_from_centers(inst, prefix, objective, qq)
    cfg = BicriteriaConfig(epsilon=1.0, relax="centers")
    sol = bicriteria_median(inst, k, qq, cfg, objective, seed=seed, table=table)
    return pad_centers(inst, sol, target, objective, qq)


# ---------------------------------------------------------------------------
# Coordinator assembly, lifting, and point-level expansion


@dataclass(frozen=True)
class _CenterProv:
    """Coordinator demand that is a site preclustering center."""

    site: int
    center: int
    attached: tuple     # (local demand, copies, cost) sorted cost-descending


@dataclass(frozen=True)
class _ForwardProv:
    """Coordinator demand that is a forwarded site outlier."""

    site: int
    local: int
    copies: int


def _center_attachments(inst, sol, objective, tau=0.0):
    att = {c: [] for c in sol.centers}
    M = inst.cost_columns(objective, sol.centers, tau)
    col = {c: i for i, c in enumerate(sol.centers)}
    for j in range(inst.n):
        live = inst.demands[j].weight - sol.excluded_copies(j)
        if live <= 0:
            continue
        if sol.copy_assignment and j in sol.copy_assignment:
            parts = sol.copy_assignment[j]
        else:
            parts = ((sol.assignment[j], live),)
        for ctr, copies in parts:
            att[ctr].append((j, int(copies), float(M[j, col[ctr]])))
    return att


def _payload_words(demand, copies, kind, B):
    if kind == "point":
        return copies * B
    if kind == "tentacle":
        return copies * (B + 1)
    if kind == "node":
        if demand.weight != 1 or copies != 1:
            raise InternalInvariantError("node demands must carry unit weight")
        return 2 * len(demand.support)
    raise InvalidParameterError(f"unknown payload kind {kind!r}")


def _tag_slice(demand, copies):
    if len(demand.tag) == demand.weight:
        return demand.tag[demand.weight - copies:]
    return demand.tag


def _assemble_coordinator(space, site_instances, site_sols, objective, counter,
                          forward_outliers, ledger, payload_kind,
                          count_word=False, round_no=2, tau=0.0,
                          centers_only_candidates=False):
    """Build the coordinator's weighted instance from round-2 site summaries.

    Each surviving preclustering center becomes a weighted point demand; each
    forwarded outlier keeps its own demand (support, collapse, excluded copy
    count). Provenance records let :func:`_lift_solution` map the
    coordinator's verdict back onto site demands. ``tau`` picks the truncated
    cost surface the attachment order (farthest first) is read from;
    ``centers_only_candidates`` restricts the coordinator's candidate centers
    to the forwarded center points (set when outliers are whole
    distributions rather than points).
    """
    B = space.word_width
    demands, prov = [], []
    center_anchors = set()
    for i, (inst, sol) in enumerate(zip(site_instances, site_sols)):
        words = 0
        att = _center_attachments(inst, sol, objective, tau)
        for c in sorted(att):
            weight = sum(x[1] for x in att[c])
            if weight == 0:
                continue
            demands.append(point_demand(c, weight, tag=("center", i, c)))
            prov.append(_CenterProv(i, c, tuple(sorted(att[c], key=lambda x: (-x[2], x[0])))))
            center_anchors.add(int(c))
            words += B + 1
        if forward_outliers:
            for j in sorted(sol.outliers):
                copies = sol.outliers[j]
                d = inst.demands[j]
                demands.append(Demand(d.support, d.probs, d.collapse, copies,
                                      _tag_slice(d, copies)))
                prov.append(_ForwardProv(i, j, copies))
                words += _payload_words(d, copies, payload_kind, B)
        elif count_word:
            words += 1
        if ledger is not None:
            ledger.add(round_no, "site->coord", i, "summary", words)
    if centers_only_candidates and center_anchors:
        anchors = sorted(center_anchors)
    else:
        anchors = sorted({d.anchor for d in demands})
    coord = Instance(space, demands, anchors, counter=counter, payload_kind=payload_kind)
    return coord, prov


def _lift_solution(space, site_instances, prov, final, objective, counter,
                   site_excluded=None):
    """Map the coordinator's solution back onto the concatenated site demands.

    A copy excluded from a weighted center demand takes out the attached site
    copy farthest from that center; an excluded forwarded copy takes out the
    copy it stands for; everything surviving is reassigned to its nearest
    final center. Exclusion counts are preserved exactly.
    """
    offsets, all_demands = [], []
    for inst in site_instances:
        offsets.append(len(all_demands))
        all_demands.extend(inst.demands)
    excluded = {}

    def exclude(site, local, copies):
        if copies > 0:
            g = offsets[site] + local
            excluded[g] = excluded.get(g, 0) + copies

    if site_excluded is not None:
        for i, held in enumerate(site_excluded):
            for j, copies in held.items():
                exclude(i, j, copies)
    for dj, p in enumerate(prov):
        e = final.excluded_copies(dj)
        if e == 0:
            continue
        if isinstance(p, _CenterProv):
            rem = e
            for j, copies, _ in p.attached:
                take = min(copies, rem)
                exclude(p.site, j, take)
                rem -= take
                if rem == 0:
                    break
            if rem:
                raise InternalInvariantError("excluded more copies than attached")
        else:
            exclude(p.site, p.local, e)

    view = Instance(space, all_demands, final.centers, counter=counter,
                    payload_kind="point")
    C = view.cost_matrix(objective)
    best = np.argmin(C, axis=1)
    assignment = {}
    total = 0.0
    worst = 0.0
    for g, d in enumerate(all_demands):
        live = d.weight - excluded.get(g, 0)
        if live <= 0:
            continue
        assignment[g] = int(view.candidates[best[g]])
        total += live * C[g, best[g]]
        worst = max(worst, float(C[g, best[g]]))
    cost = worst if objective is Objective.CENTER else total
    sol = ClusteringSolution(tuple(int(c) for c in view.candidates), excluded,
                             assignment, float(cost))
    return sol, view


def _expand_points(space, all_demands, demand_sol, objective, counter):
    """Demand-level solution -> point-level over original ids (via tags).

    Excluded copies take a demand's highest original ids; the reported cost
    is re-accumulated point by point in ascending id order.
    """
    assigned = {}
    out_ids = []
    for g, d in enumerate(all_demands):
        e = demand_sol.excluded_copies(g)
        live_tags = d.tag[: d.weight - e]
        out_ids.extend(d.tag[d.weight - e:])
        if live_tags:
            ctr = demand_sol.assignment[g]
            for p in live_tags:
                assigned[int(p)] = ctr
    centers = demand_sol.centers
    total = 0.0
    worst = 0.0
    pts = sorted(assigned)
    if pts:
        D = space.block(pts, list(centers))
        counter.add(D.size)
        col = {c: i for i, c in enumerate(centers)}
        for r, p in enumerate(pts):
            c = float(D[r, col[assigned[p]]]) ** objective.power
            total += c
            worst = max(worst, c)
    cost = worst if objective is Objective.CENTER else total
    outliers = {int(p): 1 for p in sorted(int(x) for x in out_ids)}
    return ClusteringSolution(centers, outliers, assigned, float(cost))


def _node_solution(all_demands, demand_sol):
    """Demand-level solution -> node-level via node-id tags."""
    assignment = {}
    outliers = {}
    for g, d in enumerate(all_demands):
        nid = int(d.tag[0])
        if demand_sol.excluded_copies(g) > 0:
            outliers[nid] = 1
        else:
            assignment[nid] = demand_sol.assignment[g]
    return ClusteringSolution(demand_sol.centers, outliers, assignment,
                              demand_sol.cost)


# ---------------------------------------------------------------------------
# The two-round driver: site summaries, allocation, coordinator tail


def _site_curve(i, qs, solve):
    """Site i's round-1 summary: ``solve(qi, q)`` at every grid count q, and
    the lower hull of the resulting (q, cost) points."""
    sols = {q: solve(qi, q) for qi, q in enumerate(qs)}
    return sols, lower_hull(i, [(q, sol.cost) for q, sol in sols.items()])


def _broadcast_pivot(ledger, s, words=3):
    for i in range(s):
        ledger.add(1, "coord->site", i, "pivot", words)


def _allocate(marginals, t, rho, ledger=None, curves=None):
    """The coordinator's allocation step.

    Keeps the floor(rho * t) largest pooled marginals. Given the sites'
    ``curves``, the pivot site's budget then rounds up to its next hull
    vertex, so every site answers with a solution it already computed; given
    a ``ledger``, the pivot is broadcast (three words per site). Returns the
    allocation before and after that adjustment.
    """
    alloc = allocate(marginals, t, rho)
    adjusted = alloc
    if curves is not None and alloc.pivot_site is not None:
        adjusted = exceptional_adjust(alloc, curves[alloc.pivot_site])
    if ledger is not None:
        _broadcast_pivot(ledger, len(marginals))
    return alloc, adjusted


def _curve_round(site_insts, k, t, rho, objective, salt, jobs, ledger,
                 adjust=True):
    """Round 1 of the sum-objective protocols.

    Every site solves its local (2k, q) problems on the geometric grid, with
    seeds ``(*salt, i, qi)``, and ships the lower hull of its cost curve (two
    words per vertex); the coordinator allocates, adjusting the pivot site
    when ``adjust`` is set. Returns (site solutions by q, curves, allocation,
    adjusted allocation, site seconds).
    """
    qs = geometric_index_set(t, rho)

    def worker(i):
        # One sorted-cost table serves the site's whole q grid. It lives only
        # while this worker runs, so finished sites hold none.
        inst = site_insts[i]
        table = SortedCosts.build(inst, objective)
        return _site_curve(i, qs, lambda qi, q: _local_solution(
            inst, k, q, objective, seed=(*salt, i, qi), table=table))

    results, secs = _run_sites(worker, len(site_insts), jobs)
    curves = [c for _, c in results]
    if ledger is not None:
        for i, c in enumerate(curves):
            ledger.add(1, "site->coord", i, "cost-curve", 2 * c.n_vertices)
    alloc, adjusted = _allocate([c.marginals() for c in curves], t, rho, ledger,
                                curves if adjust else None)
    return [sols for sols, _ in results], curves, alloc, adjusted, secs


def _center_round(site_insts, k, t, rho, jobs, ledger):
    """Site work of the two-round center protocols.

    Each site runs a farthest-first traversal up to position k + t and
    sends the t insertion radii after position k, its exact marginal-gain
    curve (t words). No adjustment follows the allocation, since every
    integer budget is already realizable: each site answers with its first
    k + t_i traversal points, whose cost columns in euclidean mode are the
    traversal's own rows, so a site of n_i demands evaluates at most
    (k + t) * n_i distances (matrix mode reads the columns apart). Returns
    (allocation, site solutions, site seconds).
    """
    def worker(i):
        gorder = gonzalez_order(site_insts[i], k + t)
        return gorder, insertion_marginals(gorder, k, t)

    results, secs = _run_sites(worker, len(site_insts), jobs)
    for i in range(len(site_insts)):
        ledger.add(1, "site->coord", i, "marginals", t)
    alloc, _ = _allocate([m for _, m in results], t, rho, ledger)
    site_sols = []
    for inst, (gorder, _), ti in zip(site_insts, results, alloc.t_by_site):
        prefix = [inst.demands[j].anchor for j in gorder.order[:min(k + ti, inst.n)]]
        site_sols.append(solution_from_centers(inst, prefix, Objective.CENTER, 0))
    return alloc, site_sols, secs


def _coordinate(space, site_insts, site_sols, objective, k, t, ledger, *,
                allocation, budgets, site_seconds, rounds=2, epsilon=1.0,
                seed=0, site_excluded=None, score=None, **assemble):
    """The coordinator's tail, shared by every distributed runner.

    Assembles the sites' summaries (``assemble`` goes to
    :func:`_assemble_coordinator`), solves them (threshold sweep for the
    center objective, bicriteria with floor((1 + epsilon) t) excluded copies
    otherwise), lifts the verdict onto the site demands and reports it
    point-level, or node-level for node payloads. ``score(solution,
    counter)`` returns extras measured on the final solution, with its
    distance evaluations counted as the coordinator's.
    """
    coord_counter = EvalCounter()
    coord_inst, prov = _assemble_coordinator(
        space, site_insts, site_sols, objective, coord_counter, ledger=ledger,
        round_no=rounds, **assemble)
    if objective is Objective.CENTER:
        final = kt_center_outliers(coord_inst, k, t)
    else:
        cfg = BicriteriaConfig(epsilon=epsilon, relax="outliers")
        final = bicriteria_median(coord_inst, k, t, cfg, objective, seed=(seed, 3))
    demand_sol, view = _lift_solution(space, site_insts, prov, final, objective,
                                      coord_counter, site_excluded=site_excluded)
    extras = {"coordinator_excluded": final.total_excluded}
    if coord_inst.payload_kind == "point":
        solution = _expand_points(space, view.demands, demand_sol, objective,
                                  coord_counter)
        extras["demand_solution"] = demand_sol
    else:
        solution = _node_solution(view.demands, demand_sol)
    if score is not None:
        extras.update(score(solution, coord_counter))
    return ProtocolReport(
        solution=solution, ledger=ledger, rounds=rounds,
        allocation=allocation, budgets=budgets,
        site_evals=tuple(inst.counter.count for inst in site_insts),
        coord_evals=coord_counter.count, site_seconds=tuple(site_seconds),
        extras=extras,
    )


# ---------------------------------------------------------------------------
# The runners


def run_kt_median(partition, k, t, rho=2.0, epsilon=1.0,
                  objective=Objective.MEDIAN, seed=0, jobs=1):
    """Two-round (k, t)-median/means with outlier forwarding.

    Round 1: cost-curve hulls up, budget pivot down; the pivot site's budget
    rounds up to its next hull vertex, so every site answers with a solution
    it already computed and the total site budget stays at most 3t (for
    rho = 2). Round 2: 2k weighted centers plus the budgeted outlier points.
    The coordinator solve keeps k centers and excludes at most
    floor((1 + epsilon) t) copies. The report's ``allocation`` is the one
    before the pivot adjustment; ``budgets`` and ``extras["adjusted"]`` are
    after it.
    """
    objective = _norm_objective(objective, allow_center=False)
    _validate_common(k, t, seed, epsilon, rho)
    site_insts = _site_instances(partition, t)
    ledger = CommLedger()
    sols_by_q, curves, alloc, adjusted, secs = _curve_round(
        site_insts, k, t, rho, objective, (seed, 11), jobs, ledger)
    site_sols = [sols[q] for sols, q in zip(sols_by_q, adjusted.t_by_site)]
    report = _coordinate(
        partition.space, site_insts, site_sols, objective, k, t, ledger,
        allocation=alloc, budgets=adjusted.t_by_site, site_seconds=secs,
        epsilon=epsilon, seed=seed, forward_outliers=True, payload_kind="point")
    report.extras.update(curves=curves, adjusted=adjusted, site_excluded=tuple(
        s.total_excluded for s in site_sols))
    return report


def run_kt_median_clustering_only(partition, k, t, delta=0.25, epsilon=1.0,
                                  objective=Objective.MEDIAN, seed=0, jobs=1):
    """Clustering-only variant: centers travel, outlier identities do not.

    Runs the curve round with rho = 1 + delta and no budget adjustment, so
    the total site budget is at most (1 + delta) t. The pivot site's budget
    usually falls between two hull vertices; that site merges the two
    bracketing local solutions (see
    :func:`~partialclust.allocation.merge_two_solutions`) into one with
    exactly the allocated outlier count and at most 4k centers. Sites report
    only their outlier counts (one word); excluded points stay hidden, so
    the final solution ignores at most (2 + epsilon + delta) t points.
    """
    objective = _norm_objective(objective, allow_center=False)
    _validate_common(k, t, seed, epsilon)
    if not 0.0 < delta <= 1.0:
        raise InvalidParameterError("delta must lie in (0, 1]")
    site_insts = _site_instances(partition, t)
    ledger = CommLedger()
    sols_by_q, curves, alloc, _, secs = _curve_round(
        site_insts, k, t, 1.0 + delta, objective, (seed, 12), jobs, ledger,
        adjust=False)
    site_sols = []
    for inst, sols, curve, ti in zip(site_insts, sols_by_q, curves,
                                     alloc.t_by_site):
        # a site cannot ignore more copies than it holds
        ti = min(ti, inst.total_weight)
        if ti in sols:
            site_sols.append(sols[ti])
            continue
        lo = curve.vertex_at_or_below(ti)
        hi = curve.vertex_at_or_above(ti)
        site_sols.append(merge_two_solutions(inst, sols[lo], sols[hi], ti,
                                             objective))
    report = _coordinate(
        partition.space, site_insts, site_sols, objective, k, t, ledger,
        allocation=alloc, budgets=alloc.t_by_site, site_seconds=secs,
        epsilon=epsilon, seed=seed,
        site_excluded=[dict(s.outliers) for s in site_sols],
        forward_outliers=False, payload_kind="point", count_word=True)
    site_excluded = tuple(s.total_excluded for s in site_sols)
    report.extras.update(
        curves=curves, site_excluded=site_excluded,
        total_ignored=report.extras["coordinator_excluded"] + sum(site_excluded))
    return report


def run_kt_center(partition, k, t, rho=2.0, seed=0, jobs=1):
    """Two-round (k, t)-center.

    Round 1: each site sends its farthest-first insertion radii and the same
    pivot allocation as the median protocol splits the budget (see
    :func:`_center_round`). Round 2: the first k + t_i traversal points with
    attached counts. The coordinator's threshold sweep keeps k centers and
    excludes exactly t copies.
    """
    _validate_common(k, t, seed, rho=rho)
    site_insts = _site_instances(partition, t)
    ledger = CommLedger()
    alloc, site_sols, secs = _center_round(site_insts, k, t, rho, jobs, ledger)
    return _coordinate(
        partition.space, site_insts, site_sols, Objective.CENTER, k, t, ledger,
        allocation=alloc, budgets=alloc.t_by_site, site_seconds=secs,
        forward_outliers=False, payload_kind="point")


def run_one_round(partition, k, t, objective=Objective.MEDIAN, epsilon=1.0,
                  seed=0, jobs=1):
    """Single-round baseline: every site sends its full (2k, t) summary.

    No allocation happens, so each site budgets t outliers of its own and
    the outlier payload grows as s * t * B words, the regime the two-round
    protocols exist to avoid. With one site this is exactly the second round
    of the median protocol.
    """
    objective = _norm_objective(objective)
    _validate_common(k, t, seed, epsilon)
    site_insts = _site_instances(partition, t)
    site_sols, secs = _run_sites(
        lambda i: _local_solution(site_insts[i], k, t, objective, seed=(seed, 21, i)),
        partition.n_sites, jobs)
    return _coordinate(
        partition.space, site_insts, site_sols, objective, k, t, CommLedger(),
        rounds=1, allocation=None,
        budgets=tuple(s.total_excluded for s in site_sols), site_seconds=secs,
        epsilon=epsilon, seed=seed, forward_outliers=True, payload_kind="point")


# ---------------------------------------------------------------------------
# Sequential subquadratic solver


@dataclass(frozen=True)
class SubquadraticReport:
    solution: ClusteringSolution
    depth: int
    evals: int
    levels: tuple       # (demands, simulated sites or 0 when solved directly)


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
    _validate_common(k, t, seed)
    if alpha <= 0:
        raise InvalidParameterError("alpha must be > 0")
    W = instance.total_weight
    if t > math.sqrt(W) + 1e-9:
        raise PreconditionError(f"t={t} exceeds sqrt(n)={math.sqrt(W):.3f}")
    if W <= t:
        raise InfeasibleError(f"outlier budget t={t} >= {W} total weight")
    depth = int(math.ceil(math.log2(1.0 + 1.0 / alpha) - 1e-12))
    levels = []
    # the caller's counter may carry earlier work; report only this run's
    start = instance.counter.count
    sol = _subquadratic_level(instance, k, t, depth, objective, seed, levels)
    return SubquadraticReport(sol, depth, instance.counter.count - start,
                              tuple(levels))


def _subquadratic_level(inst, k, t, depth, objective, seed, levels):
    n = inst.n
    s = max(2, min(int(round(n ** (2.0 / 3.0))), n // (k + t + 1)))
    if depth <= 0 or n <= 64 or n // (k + t + 1) < 2:
        levels.append((n, 0))
        cfg = BicriteriaConfig(epsilon=1.0, relax="outliers")
        return bicriteria_median(inst, k, t, cfg, objective, seed=(seed, 7, depth))
    levels.append((n, s))
    parts = np.array_split(np.arange(n), s)
    subinsts = [inst.subset([int(j) for j in p]) for p in parts]
    sols_by_q, _, _, alloc, _ = _curve_round(
        subinsts, k, t, 2.0, objective, (seed, 13, depth), 1, None)
    site_sols = [sols[q] for sols, q in zip(sols_by_q, alloc.t_by_site)]
    coord, prov = _assemble_coordinator(
        inst.space, subinsts, site_sols, objective, inst.counter,
        forward_outliers=True, ledger=None, payload_kind="point")
    sub = _subquadratic_level(coord, k, t, depth - 1, objective, seed, levels)
    lifted, _ = _lift_solution(inst.space, subinsts, prov, sub, objective,
                               inst.counter)
    return lifted

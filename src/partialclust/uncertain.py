"""Clustering uncertain data: nodes that are distributions over the universe.

An :class:`UncertainNode` realizes one of finitely many universe points with
known probabilities. Under expected-distance objectives, each node collapses
onto its 1-median ``y_j`` at additive cost ``l_j``; the pairs (y_j, l_j) form
a compressed graph of "tentacles" whose optimum is within a constant factor
of the universe optimum, and whose solutions map back losslessly (the final
assignment is evaluated under both metrics, and the factor is asserted on
every run). For the expected-maximum center objective the collapse is not
sound; :func:`run_center_g` instead runs the sum objectives' curve round once
per truncation threshold of a geometric grid, on whole node distributions,
and forwards those distributions at the threshold it picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleError,
    InternalInvariantError,
    InvalidParameterError,
    OracleSizeLimitError,
)
from .metric import (
    Demand,
    EvalCounter,
    Instance,
    Objective,
    extremes,
)
from .protocol import (
    CommLedger,
    _broadcast_pivot,
    _center_round,
    _check_cover,
    _check_site_count,
    _coordinate,
    _curve_round,
    _run_sites,
    _send,
    _validate_common,
)


@dataclass(frozen=True)
class UncertainNode:
    """A distribution over universe point indices."""

    node_id: int
    support: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.support) != len(self.probs) or not self.support:
            raise InvalidParameterError("support and probs must be nonempty and aligned")
        if len(set(self.support)) != len(self.support):
            raise InvalidParameterError("support points must be distinct")
        if any(p <= 0 for p in self.probs):
            raise InvalidParameterError("support probabilities must be positive")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise InvalidParameterError("support probabilities must sum to 1")


@dataclass(frozen=True)
class OneMedianSummary:
    """Best single universe point for one node, with its expected cost."""

    node_id: int
    point: int
    value: float


def one_median(space, node, objective=Objective.MEDIAN, counter=None):
    """Exhaustive 1-median (or 1-mean) of a node over the whole universe.

    Ties break toward the lower point index. This is the collapse step: the
    node is later represented by the pair (point, value). The nodes of one
    party (one ``counter``) that share a support evaluate its distances to
    the universe once; without a counter they are not counted.
    """
    D = (counter or EvalCounter()).block(space, node.support, space.ids)
    if objective.power == 2:
        D = D * D
    vals = np.asarray(node.probs) @ D
    best = int(np.argmin(vals))
    return OneMedianSummary(node.node_id, best, float(vals[best]))


def build_compressed_graph(space, nodes, objective=Objective.MEDIAN, counter=None):
    """The compressed graph of a node family, as a list of tentacle demands.

    A tentacle demand anchors at the node's 1-median and carries the collapse
    cost as an additive offset, so d-hat(j, u) = l_j + d(y_j, u): an upper
    bound on the expected distance that is at most a factor 2 loose (4 for
    squared distances). Its tag is the node id. With a ``counter``, each
    distinct support is evaluated once.
    """
    summaries = (one_median(space, nd, objective, counter) for nd in nodes)
    return [Demand((s.point,), (1.0,), s.value, 1, (s.node_id,))
            for s in summaries]


@dataclass(frozen=True)
class NodePartition:
    """Assignment of every node of an uncertain dataset to exactly one site.

    The universe (the metric space) is shared knowledge; only node
    distributions are private to their site.
    """

    space: object
    nodes: tuple
    sites: tuple

    def __post_init__(self):
        for i, nd in enumerate(self.nodes):
            if nd.node_id != i:
                raise InvalidParameterError("node ids must equal their positions")
        _check_cover(self.sites, len(self.nodes), "node")

    @property
    def n_sites(self):
        return len(self.sites)

    @classmethod
    def round_robin(cls, space, nodes, s):
        _check_site_count(len(nodes), s, "node")
        return cls(space, tuple(nodes),
                   tuple(tuple(range(i, len(nodes), s)) for i in range(s)))

    @classmethod
    def contiguous(cls, space, nodes, s):
        _check_site_count(len(nodes), s, "node")
        parts = np.array_split(np.arange(len(nodes)), s)
        return cls(space, tuple(nodes), tuple(tuple(int(j) for j in p) for p in parts))

    @classmethod
    def from_lists(cls, space, nodes, lists):
        return cls(space, tuple(nodes), tuple(tuple(int(j) for j in l) for l in lists))


def node_universe_cost(space, node, center, objective, tau=0.0, counter=None):
    """Expected cost of serving one node from ``center`` on the universe:
    E_{a ~ node} max(d(a, center) - tau, 0) ^ p, with p = 2 for means.

    The party of ``counter`` evaluates the (support, center) block once, so
    pricing it again, at another threshold or for another node of the same
    support, evaluates nothing.
    """
    D = (counter or EvalCounter()).block(space, node.support, [center])[:, 0]
    if tau > 0:
        D = np.maximum(D - tau, 0.0)
    if objective.power == 2:
        D = D * D
    return float(np.asarray(node.probs) @ D)


_UNCERTAIN_OBJECTIVES = {
    "median": Objective.MEDIAN,
    "means": Objective.MEANS,
    "center-pp": Objective.CENTER,
}


def run_uncertain(npartition, k, t, objective="median", epsilon=1.0, seed=0,
                  rho=2.0):
    """Distributed (k, t) clustering of uncertain nodes via collapse.

    Phase 0 is communication-free: every site collapses its own nodes onto
    their 1-medians (1-means for the squared objective). The deterministic
    two-round machinery then runs on the tentacle demands; a forwarded
    outlier costs B + 1 words (anchor plus collapse offset); center-pp sites
    answer with traversal prefixes that exclude nothing, so forward none.
    The report's solution is node-level; its cost is the compressed-graph
    cost, and the expected-distance cost of the same assignment on the
    universe (recorded in ``extras``) is asserted to be at most 2x that (4x
    for means).
    """
    if objective not in _UNCERTAIN_OBJECTIVES:
        raise InvalidParameterError(
            f"objective must be one of {sorted(_UNCERTAIN_OBJECTIVES)}")
    obj = _UNCERTAIN_OBJECTIVES[objective]
    _validate_common(k, t, epsilon, rho, seed)
    space = npartition.space
    if len(npartition.nodes) <= t:
        raise InfeasibleError(f"outlier budget t={t} >= {len(npartition.nodes)} nodes")
    collapse_obj = Objective.MEANS if obj is Objective.MEANS else Objective.MEDIAN

    def collapse_site(i):
        counter = EvalCounter()
        demands = build_compressed_graph(
            space, [npartition.nodes[j] for j in npartition.sites[i]],
            collapse_obj, counter)
        counter.forget()   # no later step reads the 1-median blocks
        return Instance(space, demands, [d.anchor for d in demands],
                        counter=counter)

    ledger, secs = CommLedger(), [0.0] * npartition.n_sites
    site_insts = _run_sites(collapse_site, npartition.n_sites, secs)
    if obj is Objective.CENTER:
        alloc, site_sols = _center_round(site_insts, k, t, rho, secs, ledger)
    else:
        sols_by_q, _, alloc = _curve_round(site_insts, k, t, rho, obj, secs, ledger)
        site_sols = [sols[q] for sols, q in zip(sols_by_q, alloc.t_by_site)]

    def universe_check(node_sol, counter):
        graph_cost = node_sol.cost
        total = 0.0
        worst = 0.0
        for nid in sorted(node_sol.assignment):
            c = node_universe_cost(space, npartition.nodes[nid],
                                   node_sol.assignment[nid], obj, counter=counter)
            total += c
            worst = max(worst, c)
        universe = worst if obj is Objective.CENTER else total
        factor = 4.0 if obj is Objective.MEANS else 2.0
        if universe > factor * graph_cost + 1e-9 * (1.0 + graph_cost):
            raise InternalInvariantError(
                f"universe cost {universe} exceeds {factor}x graph cost {graph_cost}")
        return {"graph_cost": graph_cost, "universe_cost": universe,
                "mapping_factor": factor}

    return _coordinate(
        site_insts, site_sols, obj, k, t, ledger, "tentacle",
        allocation=alloc, site_seconds=secs, epsilon=epsilon, seed=seed,
        score=universe_check)


# ---------------------------------------------------------------------------
# Expected-maximum center objective: truncation grid


@dataclass(frozen=True)
class TauGrid:
    taus: tuple


def tau_grid(d_min, d_max):
    """Geometric truncation grid {2^i * d_min / 18} with ceil(log2 spread) + 3
    levels; the top level truncates every distance in the universe to zero."""
    if not 0 < d_min <= d_max:
        raise InvalidParameterError("need 0 < d_min <= d_max")
    top = int(math.ceil(math.log2(d_max / d_min) - 1e-12)) + 2
    return TauGrid(tuple(2.0 ** i * d_min / 18.0 for i in range(top + 1)))


def run_center_g(npartition, k, t, epsilon=1.0):
    """Two-round (k, t)-center under the expected-maximum objective.

    No collapse is sound here, so sites keep full node distributions. Round
    1 is the curve round of the sum objectives (:func:`_curve_round`), run
    once per threshold tau of a geometric grid on the truncated surrogate:
    every site solves its local clusterings with duals truncated at 2 tau and
    costs measured at 6 tau, and sends one cost-curve message holding its
    hulls at every level. The coordinator allocates budgets per level, picks
    tau-hat, the smallest tau whose allocated site costs sum to at most
    12 tau, and broadcasts tau-hat with that level's pivot. Round 2 forwards
    the 2k weighted centers plus the budgeted outliers as whole nodes
    (2 |support| words each); the final threshold sweep keeps k centers and
    excludes floor((1 + epsilon) t) nodes under expected distances. No step
    draws at random, so it takes no seed.
    """
    _validate_common(k, t, epsilon=epsilon)
    space = npartition.space
    n_nodes = len(npartition.nodes)
    relaxed_t = int((1.0 + epsilon) * t + 1e-9)
    if n_nodes <= relaxed_t:
        raise InfeasibleError(
            f"relaxed outlier budget {relaxed_t} >= {n_nodes} nodes")
    d_min, d_max, _ = extremes(space)
    grid = tau_grid(d_min, d_max)
    ledger, secs = CommLedger(), [0.0] * npartition.n_sites

    def site_instance(i):
        # whole node distributions as demands, their 1-medians as candidates
        counter = EvalCounter()
        nodes = [npartition.nodes[j] for j in npartition.sites[i]]
        demands = [Demand(nd.support, nd.probs, 0.0, 1, (nd.node_id,))
                   for nd in nodes]
        cands = [one_median(space, nd, Objective.MEDIAN, counter).point
                 for nd in nodes]
        counter.forget()   # no later step reads the 1-median blocks
        return Instance(space, demands, cands, counter=counter)

    site_insts = _run_sites(site_instance, npartition.n_sites, secs)
    # (site solutions by q, curves, allocation) per threshold
    levels = [_curve_round(site_insts, k, t, 2.0, Objective.MEDIAN, secs, None,
                           tau=tau)
              for tau in grid.taus]
    for i in range(npartition.n_sites):
        _send(ledger, 1, "site->coord", i, "cost-curve", *(
            a for _, curves, _ in levels for a in (curves[i].hull_q, curves[i].hull_cost)))

    tau_sums = [sum(c.value(min(q, c.t)) for c, q in zip(curves, alloc.t_by_site))
                for _, curves, alloc in levels]
    tau_hat_idx = next(
        (ti for ti, (tau, s_cost) in enumerate(zip(grid.taus, tau_sums))
         if s_cost <= 12.0 * tau * (1.0 + 1e-12) + 1e-12), None)
    if tau_hat_idx is None:
        raise InternalInvariantError(
            "no grid threshold satisfied the 12 tau budget rule")
    tau_hat = grid.taus[tau_hat_idx]
    sols_by_q, _, chosen_alloc = levels[tau_hat_idx]
    _broadcast_pivot(ledger, chosen_alloc, npartition.n_sites, tau_hat)
    site_sols = [sols[q] for sols, q in zip(sols_by_q, chosen_alloc.t_by_site)]

    def truncated_costs(node_sol, counter):
        rho2 = 0.0
        rho6 = 0.0
        for nid in sorted(node_sol.assignment):
            node, center = npartition.nodes[nid], node_sol.assignment[nid]
            rho2 = max(rho2, node_universe_cost(
                space, node, center, Objective.MEDIAN, 2.0 * tau_hat, counter))
            rho6 = max(rho6, node_universe_cost(
                space, node, center, Objective.MEDIAN, 6.0 * tau_hat, counter))
        return {"tau_hat": tau_hat, "tau_hat_index": tau_hat_idx,
                "tau_grid": grid.taus, "tau_sums": tuple(tau_sums),
                "rho2_cost": rho2, "rho6_cost": rho6}

    # sites attach their demands in the order of expected distances truncated
    # at 6 tau-hat; the sweep opens only forwarded centers and excludes the
    # relaxed budget
    return _coordinate(
        site_insts, site_sols, Objective.CENTER, k, relaxed_t, ledger, "node",
        allocation=chosen_alloc, site_seconds=secs, score=truncated_costs,
        tau=6.0 * tau_hat)


# ---------------------------------------------------------------------------
# Evaluating the expected-maximum objective


@dataclass(frozen=True)
class ObjectiveEstimate:
    value: float
    half_width: float       # 0 for the exact method
    method: str
    samples: int


def eval_center_g_objective(space, nodes, solution, method="auto", samples=10000,
                            seed=0):
    """E[max over served nodes of d(realized point, assigned center)].

    ``method="exact"`` enumerates the product distribution (guarded to 1e6
    joint outcomes); ``"mc"`` draws seeded samples and reports a 95 percent
    half-width; ``"auto"`` picks exact when it fits. Outlier nodes do not
    participate.
    """
    if method not in ("auto", "exact", "mc"):
        raise InvalidParameterError("method must be auto, exact, or mc")
    served = sorted(solution.assignment)
    rows = []
    for nid in served:
        nd = nodes[nid]
        D = space.block(list(nd.support), [solution.assignment[nid]])
        rows.append((np.asarray(D[:, 0]), np.asarray(nd.probs)))
    if not rows:
        return ObjectiveEstimate(0.0, 0.0, "exact", 1)

    combos = 1
    for d, _ in rows:
        combos *= len(d)
        if combos > 10 ** 6:
            break
    if method == "exact" and combos > 10 ** 6:
        raise OracleSizeLimitError(
            f"{combos}+ joint outcomes exceed the exact-evaluation guard")
    if method == "mc" or (method == "auto" and combos > 10 ** 6):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 101)))
        if samples < 2:
            raise InvalidParameterError("need at least two samples")
        maxes = np.zeros(samples)
        for d, p in rows:
            draws = rng.choice(len(d), size=samples, p=p)
            np.maximum(maxes, d[draws], out=maxes)
        mean = float(maxes.mean())
        half = float(1.96 * maxes.std(ddof=1) / math.sqrt(samples))
        return ObjectiveEstimate(mean, half, "mc", samples)

    vals = np.zeros(1)
    probs = np.ones(1)
    for d, p in rows:
        vals = np.maximum.outer(vals, d).ravel()
        probs = np.outer(probs, p).ravel()
    return ObjectiveEstimate(float(probs @ vals), 0.0, "exact", int(combos))

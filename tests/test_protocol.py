"""Coordinator protocols: word accounting, budgets, end-to-end quality."""

import hashlib
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partialclust import (
    CommLedger,
    Instance,
    MetricSpace,
    NodePartition,
    Objective,
    Partition,
    UncertainNode,
    exact_oracle,
    geometric_index_set,
    run_kt_center,
    run_kt_median,
    run_kt_median_clustering_only,
    run_one_round,
    subquadratic_solve,
)
from partialclust.cli import gen_planted
from partialclust.errors import (
    InfeasibleError,
    InvalidParameterError,
    PreconditionError,
)
from partialclust import protocol
from partialclust.protocol import _run_sites

from helpers import instance_cost, random_points, solution_cost


def planted_partition(n=60, k=3, t=4, sites=4, seed=5):
    pts = gen_planted(n, k, t, dim=2, seed=seed)
    space = MetricSpace.euclidean(pts)
    return space, Partition.round_robin(space, sites)


# ---------------------------------------------------------------------------
# partitions and the ledger


def test_partition_round_robin_and_contiguous():
    space = MetricSpace.euclidean(random_points(0, 10))
    rr = Partition.round_robin(space, 3)
    assert rr.n_sites == 3
    assert rr.sites[0] == (0, 3, 6, 9)
    cg = Partition.contiguous(space, 3)
    assert cg.sites[0] == (0, 1, 2, 3)
    assert sum(len(g) for g in cg.sites) == 10


def test_partition_validates_cover():
    space = MetricSpace.euclidean(random_points(1, 6))
    with pytest.raises(InvalidParameterError):
        Partition.from_lists(space, [[0, 1], [1, 2], [3, 4, 5]])  # overlap
    with pytest.raises(InvalidParameterError):
        Partition.from_lists(space, [[0, 1], [2, 3]])  # not a cover
    with pytest.raises(InvalidParameterError):
        Partition.from_lists(space, [[0, 1, 2, 3, 4, 5], []])  # empty site
    with pytest.raises(InvalidParameterError):
        Partition.round_robin(space, 7)  # more sites than points


@pytest.mark.parametrize("lists, message", [
    ([], "partition needs at least one site"),
    ([[0, 1, 2, 3, 4, 5], []], "site 1 holds no {unit}s"),
    # the scan meets the repeated 1 on site 1 before the empty site 2
    ([[0, 1], [2, 1], [], [3, 4, 5]], "{unit} 1 placed on two sites"),
    ([[0, 1], [], [2, 1], [3, 4, 5]], "site 1 holds no {unit}s"),
    ([[0, 1], [2, 3]], "sites must cover every {unit} exactly once"),
    ([[0, 1, 2], [3, 4, 6]], "sites must cover every {unit} exactly once"),
    ([[0, 1, 2], [3, 4, -1]], "sites must cover every {unit} exactly once"),
    ([[0, 1, 2], [3, 4, 2 ** 70]], "sites must cover every {unit} exactly once"),
], ids=["no site", "empty", "repeat first", "empty first", "short",
        "out of range", "negative", "beyond int64"])
@pytest.mark.parametrize("unit", ["point", "node"])
def test_partition_cover_messages(lists, message, unit):
    """Each way a partition fails to cover its items has its own message,
    naming the first site or item a scan site by site meets."""
    space = MetricSpace.euclidean(random_points(1, 6))
    nodes = [UncertainNode(i, (i,), (1.0,)) for i in range(6)]
    with pytest.raises(InvalidParameterError) as ei:
        if unit == "point":
            Partition.from_lists(space, lists)
        else:
            NodePartition.from_lists(space, nodes, lists)
    assert str(ei.value) == message.format(unit=unit)


def _scan_cover_error(sites, n):
    """Reference for the cover check: the message of a scan site by site and
    item by item, or None for a partition of 0..n-1."""
    if not sites:
        return "partition needs at least one site"
    seen = set()
    for i, items in enumerate(sites):
        if len(items) == 0:
            return f"site {i} holds no points"
        for p in items:
            if p in seen:
                return f"point {p} placed on two sites"
            seen.add(p)
    return None if seen == set(range(n)) else "sites must cover every point exactly once"


def test_partition_cover_matches_scan():
    rng = np.random.default_rng(98)
    space = MetricSpace.euclidean(random_points(1, 6))
    for trial in range(1500):
        if trial % 3:
            lists = [rng.integers(-1, 8, size=rng.integers(0, 5)).tolist()
                     for _ in range(rng.integers(0, 5))]
        else:       # a partition of 0..5, perhaps with an empty site
            cuts = np.sort(rng.integers(0, 7, size=rng.integers(0, 4)))
            lists = [p.tolist() for p in np.split(rng.permutation(6), cuts)]
        try:
            Partition.from_lists(space, lists)
            got = None
        except InvalidParameterError as exc:
            got = str(exc)
        assert got == _scan_cover_error(lists, 6), lists


@pytest.mark.parametrize("cls", [Partition, NodePartition])
def test_partitions_reject_bad_site_counts(cls):
    space = MetricSpace.euclidean(random_points(1, 6))
    items = () if cls is Partition else (
        [UncertainNode(i, (i,), (1.0,)) for i in range(6)],)
    for split in (cls.round_robin, cls.contiguous):
        assert split(space, *items, 6).n_sites == 6
        for s in (0, -1, 1.5, "2", 7):
            with pytest.raises(InvalidParameterError, match="site"):
                split(space, *items, s)


def test_ledger_word_bookkeeping():
    led = CommLedger()
    led.add(1, "site->coord", 0, "cost-curve", 10)
    led.add(1, "coord->site", 0, "pivot", 3)
    led.add(2, "site->coord", 1, "preclustering", 20)
    assert led.total_words == 33
    assert led.words(round_no=1) == 13
    assert led.words(direction="site->coord") == 30
    assert led.words(kind="pivot") == 3
    recs = led.to_records()
    assert len(recs) == 3
    assert recs[0]["words"] == 10


# ---------------------------------------------------------------------------
# two-round median


def test_median_recovers_planted_outliers():
    space, part = planted_partition()
    rep = run_kt_median(part, 3, 4, seed=3)
    assert rep.rounds == 2
    assert sorted(rep.solution.outliers) == [56, 57, 58, 59]
    assert solution_cost(space, rep.solution, Objective.MEDIAN) == pytest.approx(
        rep.solution.cost)


def test_median_word_formula_exact():
    """round 1 = sum of 2|H_i| curve words + 3 pivot words per site;
    round 2 = 2k centers at B+1 words each plus t_i outlier points."""
    space, part = planted_partition()
    B = space.word_width
    for k, t in [(2, 3), (3, 4), (2, 6)]:
        rep = run_kt_median(part, k, t, seed=1)
        curves = rep.curves
        s = part.n_sites
        round1 = sum(2 * c.n_vertices for c in curves) + 3 * s
        round2 = sum(2 * k * (B + 1) + ti * B for ti in rep.budgets)
        assert rep.ledger.words(round_no=1) == round1
        assert rep.ledger.words(round_no=2) == round2
        assert rep.ledger.total_words == round1 + round2


def test_median_budget_bounds_loop():
    rng = np.random.default_rng(2)
    for trial in range(25):
        n = int(rng.integers(24, 48))
        s = int(rng.integers(2, 5))
        t = int(rng.integers(1, 7))
        space = MetricSpace.euclidean(random_points(600 + trial, n))
        part = Partition.round_robin(space, s)
        rep = run_kt_median(part, 2, t, seed=trial)
        assert sum(rep.budgets) <= 3 * t
        assert rep.extras["coordinator_excluded"] <= 2 * t
        assert rep.solution.total_excluded <= 2 * t


@pytest.mark.parametrize("s", [1, 3])
def test_run_sites_runs_in_order_on_the_calling_thread(s, monkeypatch):
    calls = []
    clock = iter(range(1000))
    # each read of the CPU clock moves it on by one second
    monkeypatch.setattr(time, "thread_time", lambda: float(next(clock)))

    def worker(i):
        calls.append((i, threading.get_ident()))
        next(clock)         # the worker's own CPU second
        return 10 * i

    secs = [0.5] * s
    assert _run_sites(worker, s, secs) == [10 * i for i in range(s)]
    assert calls == [(i, threading.get_ident()) for i in range(s)]
    assert secs == [2.5] * s
    # a second call adds each site's seconds to what is there
    _run_sites(worker, s, secs)
    assert secs == [4.5] * s


def test_median_reports_the_adjusted_allocation():
    # the pivot site's budget rounds up from 1 to its next hull vertex, 4
    space = MetricSpace.euclidean(gen_planted(120, 3, 5, seed=2))
    rep = run_kt_median(Partition.round_robin(space, 4), 3, 5, seed=2)
    assert rep.allocation.pivot_site == 1 and rep.allocation.pivot_q == 1
    assert rep.allocation.t_by_site == rep.budgets == (5, 4, 2, 2)
    assert "adjusted" not in rep.extras


def test_median_means_objective():
    space, part = planted_partition()
    rep = run_kt_median(part, 3, 4, objective=Objective.MEANS, seed=3)
    assert sorted(rep.solution.outliers) == [56, 57, 58, 59]
    assert solution_cost(space, rep.solution, Objective.MEANS) == pytest.approx(
        rep.solution.cost)


def test_median_rejects_bad_parameters():
    space, part = planted_partition()
    with pytest.raises(InvalidParameterError):
        run_kt_median(part, 0, 4)
    with pytest.raises(InvalidParameterError):
        run_kt_median(part, 3, -1)
    with pytest.raises(InvalidParameterError):
        run_kt_median(part, 3, 4, rho=2.5)
    with pytest.raises(InvalidParameterError):
        run_kt_median(part, 3, 4, objective=Objective.CENTER)


def test_median_infeasible_budget():
    space = MetricSpace.euclidean(random_points(3, 8))
    part = Partition.round_robin(space, 2)
    with pytest.raises(InfeasibleError):
        run_kt_median(part, 2, 8)


# ---------------------------------------------------------------------------
# clustering-only median


def test_clustering_only_budget_and_ignore_bounds():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(24, 48))
        s = int(rng.integers(2, 5))
        t = int(rng.integers(1, 7))
        space = MetricSpace.euclidean(random_points(700 + trial, n))
        part = Partition.round_robin(space, s)
        rep = run_kt_median_clustering_only(part, 2, t, delta=0.25, seed=trial)
        assert sum(rep.budgets) <= (1 + 0.25) * t + 1e-9
        assert rep.extras["total_ignored"] <= (2 + 1.0 + 0.25) * t + 1e-9
        assert rep.solution.total_excluded == rep.extras["total_ignored"]


def test_clustering_only_merged_site_words():
    """Sites send centers plus one outlier-count word and nothing else."""
    space, part = planted_partition()
    B = space.word_width
    k, t = 3, 5
    rep = run_kt_median_clustering_only(part, k, t, delta=0.25, seed=2)
    curves = rep.curves
    s = part.n_sites
    assert rep.ledger.words(round_no=1) == sum(2 * c.n_vertices for c in curves) + 3 * s
    round2 = rep.ledger.words(round_no=2)
    # between 1 and 4k centers per site, each B+1 words, plus the count word
    assert s * (1 * (B + 1) + 1) <= round2 <= s * (4 * k * (B + 1) + 1)
    # no payload message carries outlier points
    assert all(r["kind"] != "outliers" for r in rep.ledger.to_records())


def test_clustering_only_exercises_merge():
    """With t past the dense part of the geometric grid, some budget lands
    between two evaluated outlier counts and the site has to interpolate."""
    merged = 0
    for trial in range(12):
        space = MetricSpace.euclidean(random_points(800 + trial, 80))
        part = Partition.round_robin(space, 3)
        rep = run_kt_median_clustering_only(part, 2, 12, delta=0.25, seed=trial)
        grid = set(geometric_index_set(12, 1.25))
        merged += sum(1 for ti in rep.budgets if ti not in grid)
        assert rep.solution.total_excluded == rep.extras["total_ignored"]
    assert merged > 0


# ---------------------------------------------------------------------------
# two-round center


def test_center_recovers_planted_outliers():
    space, part = planted_partition()
    rep = run_kt_center(part, 3, 4)
    assert rep.rounds == 2
    assert sorted(rep.solution.outliers) == [56, 57, 58, 59]
    assert solution_cost(space, rep.solution, Objective.CENTER) == pytest.approx(
        rep.solution.cost)


def test_center_word_formula_exact():
    space, part = planted_partition()
    B = space.word_width
    for k, t in [(2, 3), (3, 4)]:
        rep = run_kt_center(part, k, t)
        s = part.n_sites
        assert rep.ledger.words(round_no=1) == s * t + 3 * s
        round2 = sum((k + ti) * (B + 1) for ti in rep.budgets)
        assert rep.ledger.words(round_no=2) == round2


def test_center_nine_approx_spot():
    for seed in range(8):
        pts = random_points(900 + seed, 14)
        space = MetricSpace.euclidean(pts)
        part = Partition.round_robin(space, 2)
        rep = run_kt_center(part, 2, 2)
        opt = exact_oracle(Instance.from_points(space), 2, 2, Objective.CENTER)
        assert rep.solution.cost <= 9.0 * opt.cost + 1e-9
        assert rep.solution.total_excluded == 2


@pytest.mark.parametrize("alg", ["kt-center", "uncertain-center-pp"])
@pytest.mark.parametrize("seed", range(4))
def test_center_site_answers_exclude_nothing(alg, seed, monkeypatch):
    """Every round-2 answer of a center site is a traversal prefix that
    excludes no copy, so these runs forward no outlier."""
    from partialclust import run_uncertain, uncertain
    from helpers import random_uncertain_nodes
    answers = []
    center_round = protocol._center_round

    def recorded(*args):
        alloc, sols = center_round(*args)
        answers.extend(sols)
        return alloc, sols

    monkeypatch.setattr(protocol, "_center_round", recorded)
    monkeypatch.setattr(uncertain, "_center_round", recorded)
    if alg == "kt-center":
        # duplicates give weighted demands
        pts = np.repeat(random_points(300 + seed, 20), [1, 2] * 10, axis=0)
        rep = run_kt_center(Partition.round_robin(MetricSpace.euclidean(pts), 3),
                            2, 5)
    else:
        space, nodes = random_uncertain_nodes(seed, 18, 25)
        rep = run_uncertain(NodePartition.round_robin(space, nodes, 3), 2, 5,
                            objective="center-pp", seed=seed)
    assert len(answers) == 3 and sum(rep.budgets) >= 5
    assert all(sol.outliers == {} for sol in answers)


# ---------------------------------------------------------------------------
# one-round baseline


def test_one_round_word_formula_exact():
    space, part = planted_partition()
    B = space.word_width
    for k, t in [(2, 3), (3, 4)]:
        rep = run_one_round(part, k, t, seed=1)
        s = part.n_sites
        assert rep.rounds == 1
        assert rep.ledger.total_words == s * (2 * k * (B + 1) + t * B)
        assert rep.ledger.words(round_no=1) == rep.ledger.total_words


def test_one_round_center_objective():
    space, part = planted_partition()
    rep = run_one_round(part, 3, 4, objective=Objective.CENTER, seed=3)
    assert sorted(rep.solution.outliers) == [56, 57, 58, 59]


def test_one_round_single_site_is_local_solve():
    space = MetricSpace.euclidean(random_points(10, 20))
    part = Partition.round_robin(space, 1)
    rep = run_one_round(part, 2, 2, seed=0)
    assert rep.solution.total_excluded <= 4
    assert solution_cost(space, rep.solution, Objective.MEDIAN) == pytest.approx(
        rep.solution.cost)


# ---------------------------------------------------------------------------
# center protocols on small inputs


_POINT_RUNS = {
    "kt-median": lambda part: run_kt_median(part, 3, 4, seed=1),
    "kt-means": lambda part: run_kt_median(part, 3, 4, objective=Objective.MEANS,
                                           seed=1),
    "kt-median-co": lambda part: run_kt_median_clustering_only(part, 3, 4, seed=1),
    "kt-center": lambda part: run_kt_center(part, 3, 4),
    "one-round-center": lambda part: run_one_round(part, 3, 4,
                                                   objective=Objective.CENTER),
}


@pytest.mark.parametrize("make_partition", [Partition.round_robin,
                                            Partition.contiguous],
                         ids=["round-robin", "contiguous"])
@pytest.mark.parametrize("alg", sorted(_POINT_RUNS))
def test_point_report_evaluates_each_coordinator_distance_once(
        alg, make_partition, monkeypatch):
    # Every point appears twice: contiguous sites merge the two copies into
    # one demand of weight 2, round-robin sites hold one copy each.
    pts = np.repeat(gen_planted(40, 3, 4, dim=2, seed=3), 2, axis=0)
    space = MetricSpace.euclidean(pts)
    part = make_partition(space, 3)
    pairs, lifting = [], []
    block, lift = MetricSpace.block, protocol._lift_solution

    def recorded_block(self, rows, cols):
        if lifting:
            pairs.extend((int(r), int(c)) for r in rows for c in cols)
        return block(self, rows, cols)

    def recorded_lift(*args, **kwargs):
        lifting.append(True)
        return lift(*args, **kwargs)

    monkeypatch.setattr(MetricSpace, "block", recorded_block)
    monkeypatch.setattr(protocol, "_lift_solution", recorded_lift)
    rep = _POINT_RUNS[alg](part)
    served = len(rep.solution.assignment)
    # the lift prices each distinct served point against each center once
    assert served <= len(pairs) == len(set(pairs)) <= len(pts) * len(rep.solution.centers)


@st.composite
def _center_runs(draw):
    """Up to 14 integer-grid points (duplicates allowed) over 1-3 sites,
    split round-robin or contiguously, with k in 1..3 and t in 0..n-1."""
    coords = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                           min_size=1, max_size=14))
    space = MetricSpace.euclidean(np.array(coords, dtype=float))
    split = draw(st.sampled_from([Partition.round_robin, Partition.contiguous]))
    part = split(space, draw(st.integers(1, min(3, space.n))))
    return part, draw(st.integers(1, 3)), draw(st.integers(0, space.n - 1))


@pytest.mark.parametrize("protocol", ["kt-center", "one-round"])
@settings(max_examples=150, deadline=None)
@given(case=_center_runs())
def test_center_protocol_properties(protocol, case):
    part, k, t = case
    space, s, B = part.space, part.n_sites, part.space.word_width

    def run():
        if protocol == "kt-center":
            return run_kt_center(part, k, t)
        return run_one_round(part, k, t, objective=Objective.CENTER, seed=4)

    rep = run()
    sol = rep.solution
    assert sol.total_excluded == t
    points = Instance.from_points(space, merge_duplicates=False)
    assert instance_cost(points, sol, Objective.CENTER) == sol.cost
    opt = exact_oracle(Instance.from_points(space), k, t, Objective.CENTER)
    assert sol.cost >= opt.cost
    other = run()
    assert other.solution == sol
    assert other.allocation == rep.allocation
    assert other.budgets == rep.budgets
    assert other.ledger.to_records() == rep.ledger.to_records()
    assert (other.site_evals, other.coord_evals) == (rep.site_evals, rep.coord_evals)
    assert other.extras == rep.extras
    if protocol == "kt-center":
        assert rep.ledger.words(round_no=1) == s * t + 3 * s
        return
    # A site sends at most 2k centers and t outliers; exactly that many once
    # it holds 2k + t distinct points, since no center then loses its copy.
    closed = s * (2 * k * (B + 1) + t * B)
    full = all(len({tuple(space.coords[p]) for p in pts}) >= 2 * k + t
               for pts in part.sites)
    assert rep.ledger.total_words <= closed
    if full:
        assert rep.ledger.total_words == closed


@st.composite
def _sum_runs(draw):
    """Up to 16 integer-grid points (duplicates allowed) over 1-4 sites,
    split round-robin or contiguously, with k in 1..3 and t from 0 to about
    n/2, where the budgets are loosest."""
    coords = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                           min_size=2, max_size=16))
    space = MetricSpace.euclidean(np.array(coords, dtype=float))
    split = draw(st.sampled_from([Partition.round_robin, Partition.contiguous]))
    part = split(space, draw(st.integers(1, min(4, space.n))))
    return part, draw(st.integers(1, 3)), draw(st.integers(0, space.n // 2))


# The high-budget clustering-only run the README describes: 38 of 40 ignored.
_HIGH_BUDGET = (Partition.round_robin(MetricSpace.euclidean(gen_planted(40, 3, 4, seed=1)), 4),
                3, 17)


@pytest.mark.parametrize("alg, objective", [
    pytest.param("kt-median", Objective.MEDIAN, id="kt-median"),
    pytest.param("kt-median-co", Objective.MEDIAN, id="kt-median-co"),
    pytest.param("one-round", Objective.MEDIAN, id="one-round"),
    pytest.param("kt-median", Objective.MEANS, id="kt-means"),
    pytest.param("kt-median-co", Objective.MEANS, id="kt-median-co means"),
    pytest.param("one-round", Objective.MEANS, id="one-round means")])
@settings(max_examples=100, deadline=None)
@given(case=_sum_runs())
@example(case=_HIGH_BUDGET)
def test_sum_protocol_budget_properties(alg, objective, case):
    """The median and means protocols keep their README budgets at every t
    up to about n/2 (epsilon 1, delta 0.25): kt-median, kt-means and
    one-round ignore at most floor((1 + eps) t) points, the kt sites budget
    at most 3t, and kt-median-co ignores at most (2 + eps + delta) t, its
    sites at most (1 + delta) t. ``instance_cost`` recomputes the reported
    cost under the same objective."""
    part, k, t = case
    if alg == "kt-median":
        rep = run_kt_median(part, k, t, objective=objective, seed=3)
        assert sum(rep.budgets) <= 3 * t
        bound = 2 * t
    elif alg == "one-round":
        rep = run_one_round(part, k, t, objective=objective, seed=3)
        bound = 2 * t
    else:
        rep = run_kt_median_clustering_only(part, k, t, delta=0.25, objective=objective,
                                            seed=3)
        assert sum(rep.budgets) <= 1.25 * t + 1e-9
        assert rep.solution.total_excluded == rep.extras["total_ignored"]
        bound = (2 + 1.0 + 0.25) * t + 1e-9
    sol = rep.solution
    assert sol.total_excluded <= bound
    assert len(sol.centers) <= k
    points = Instance.from_points(part.space, merge_duplicates=False)
    assert instance_cost(points, sol, objective) == pytest.approx(sol.cost, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# center sites at the extremes: exact distance evaluations


def _extreme_space(case):
    if case == "one-point sites":
        return MetricSpace.euclidean(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])), 3
    if case == "sites within 2k":
        return MetricSpace.euclidean(random_points(7, 10)), 3
    if case == "k over distinct points":
        spots = np.array([[0.0, 0.0], [5.0, 1.0], [2.0, 7.0]])
        return MetricSpace.euclidean(spots[[0, 1, 2, 0, 1, 0, 2, 0, 1]]), 2
    if case == "matrix mode":
        x = random_points(8, 9, dim=1)[:, 0]
        return MetricSpace.from_matrix(np.abs(x[:, None] - x[None, :])), 2
    return MetricSpace.euclidean(random_points(9, 8)), 2


# (case, k, t, sha256 of the kt-center report and of the one-round center
# report without their evaluation counts, or the error both raise)
_EXTREMES = [
    ("one-point sites", 1, 1,
     "5e1eb11c9f7429c8e7ddcebb924a341f9ec7b104ff14ee2e26437a1c85575de5",
     "bee39d5fef6bd7fe33ea8cf1533da5a0725a20df98e4483d94428767731f5cca"),
    ("sites within 2k", 2, 2,
     "702faf88a17bf39456b8ce07abcff0a411944577603d05a1e5d217c9adc67b46",
     "71b88a322f068d0a7ada3671e4c7ce6110249d3e3bb99afe2ebf50a2a67875f4"),
    ("k over distinct points", 4, 1,
     "b29e74c9a43f8352915d32d773e221ace8d74a4c1c2347a06e661f8e5d326a9a",
     "5be84a2b6a2e253c8c09c91fffe4a922d10df2dc45a6fc6c6e7f963709467784"),
    ("matrix mode", 1, 2,
     "dd5632d7c19ec95379c6fa1dcd70d8ecf5eaad2a7089e4e4b87268c82e923e37",
     "1e6924041cc1b93d60e88bdee8f70550861f180cfc1eed8273e18fc76bf08631"),
    ("t = n - 1", 1, 7,
     "425bfd732f3b8d0c330b39ea7dc4e3051409cb2eeacef6ff03390937feeea42b",
     "2729a3f9ddffbca51020f795f4d80e07a0c4f8df637c0dc36cc0388fe9f34f1d"),
    ("t = n", 1, 8, InfeasibleError, InfeasibleError),
]


def _kt_center_site_evals(n, k, t, ti, mode):
    """A kt-center site of n distinct points: the traversal computes a row
    for each of its first L - 1 points, and the answer's P centers need
    a column each. In euclidean mode a row is also its point's column."""
    L, P = min(k + t, n), min(k + ti, n)
    return n * (max(L - 1, P) if mode == "euclidean" else L - 1 + P)


def _one_round_site_evals(n, copies, k, t, mode):
    """A one-round center site: the first L = min(2k, n) traversal points
    are its centers; one column when a lone center takes every copy out."""
    if t >= copies:
        return n
    L = min(2 * k, n)
    return n * (L if mode == "euclidean" else 2 * L - 1)


def _sha_without_evals(rep):
    sol = rep.solution
    body = [
        [int(c) for c in sol.centers],
        sorted((int(j), int(c)) for j, c in sol.outliers.items()),
        sorted((int(j), int(c)) for j, c in sol.assignment.items()),
        float(sol.cost).hex(),
        [int(b) for b in rep.budgets],
        rep.ledger.to_records(),
    ]
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()


@pytest.mark.parametrize("case, k, t, kt_sha, one_sha", _EXTREMES,
                         ids=[c[0] for c in _EXTREMES])
def test_center_sites_at_the_extremes(case, k, t, kt_sha, one_sha):
    """Center sites evaluate exactly the rows and columns their prefix
    needs, never an n_i x n_i block, and report what they always did."""
    space, s = _extreme_space(case)
    part = Partition.round_robin(space, s)
    if not isinstance(kt_sha, str):
        with pytest.raises(kt_sha):
            run_kt_center(part, k, t)
        with pytest.raises(one_sha):
            run_one_round(part, k, t, objective=Objective.CENTER, seed=2)
        return
    sizes = [Instance.from_points(space, pts).n for pts in part.sites]
    rep = run_kt_center(part, k, t)
    assert _sha_without_evals(rep) == kt_sha
    assert rep.site_evals == tuple(_kt_center_site_evals(n, k, t, ti, space.mode)
                                   for n, ti in zip(sizes, rep.budgets))
    rep = run_one_round(part, k, t, objective=Objective.CENTER, seed=2)
    assert _sha_without_evals(rep) == one_sha
    assert rep.site_evals == tuple(
        _one_round_site_evals(n, len(pts), k, t, space.mode)
        for n, pts in zip(sizes, part.sites))


def _sum_extreme_space(case):
    if case == "matrix zeros":
        # Distinct points at distance 0: rows differ, so none merge.
        x = np.rint(random_points(8, 9, dim=1)[:, 0])
        D = np.abs(x[:, None] - x[None, :])
        for a, b in [(0, 3), (1, 4), (2, 7), (5, 6)]:
            D[a, b] = D[b, a] = 0.0
        return MetricSpace.from_matrix(D), 2
    return _extreme_space(case)


_SUM_RUNNERS = {
    "kt-median": lambda part, k, t, obj: run_kt_median(part, k, t, objective=obj, seed=2),
    "kt-median-co": lambda part, k, t, obj: run_kt_median_clustering_only(
        part, k, t, objective=obj, seed=2),
    "one-round": lambda part, k, t, obj: run_one_round(part, k, t, objective=obj, seed=2),
}

# (case, k, t, the error each of kt-median, kt-median-co and one-round
# raises under either objective, or None when it answers)
_SUM_EXTREMES = [
    ("one-point sites", 1, 1, (None, None, None)),
    ("k over distinct points", 4, 1, (None, None, None)),
    ("t = n - 1", 1, 7, (None, None, None)),
    ("matrix zeros", 2, 2, (None, None, None)),
    ("t = n", 1, 8, (InfeasibleError,) * 3),
]


@pytest.mark.parametrize(
    "case, k, t, errors, objective",
    [(*c, obj) for obj in (Objective.MEDIAN, Objective.MEANS) for c in _SUM_EXTREMES],
    ids=[c[0] + suffix for suffix in ("", ", means") for c in _SUM_EXTREMES])
def test_sum_protocols_at_the_extremes(case, k, t, errors, objective):
    """Each sum-objective runner either raises its typed error or ignores
    no more than its bound, reports the cost its solution has, and is never
    cheaper than the optimum with as many copies ignored, under both the
    median and the means objective. Every facility-cost search starts with
    a z = 0 probe, and on these inputs many stop there."""
    space, s = _sum_extreme_space(case)
    part = Partition.round_robin(space, s)
    points = Instance.from_points(space, merge_duplicates=False)
    for (name, run), error in zip(_SUM_RUNNERS.items(), errors):
        if error is not None:
            with pytest.raises(error):
                run(part, k, t, objective)
            continue
        rep = run(part, k, t, objective)
        sol = rep.solution
        if name == "kt-median-co":
            assert sol.total_excluded == rep.extras["total_ignored"]
            assert sol.total_excluded <= (2 + 1.0 + 0.25) * t + 1e-9
        else:
            assert sol.total_excluded <= 2 * t
        assert len(sol.centers) <= k
        assert instance_cost(points, sol, objective) == pytest.approx(sol.cost)
        opt = exact_oracle(Instance.from_points(space), k, sol.total_excluded, objective)
        assert sol.cost >= opt.cost - 1e-9 * (1.0 + opt.cost)


@pytest.mark.parametrize("objective", [Objective.MEDIAN, Objective.MEANS],
                         ids=["median", "means"])
@pytest.mark.parametrize("n, k, planted, seed, s",
                         [(40, 3, 4, 1, 4), (34, 1, 0, 34, 2)],
                         ids=["capped", "kept none"])
def test_clustering_only_answers_every_budget(n, k, planted, seed, s, objective):
    """kt-median-co answers every t below n. Its sites keep their outliers,
    so the coordinator may hold t copies or fewer: it then ignores fewer
    than it holds, and when the sites keep no copy every point is ignored
    around one center. Under either objective the first input reaches the
    capped coordinator from t = 18 on, the second keeps no copy from t = 28
    on."""
    space = MetricSpace.euclidean(gen_planted(n, k, planted, seed=seed))
    part = Partition.round_robin(space, s)
    points = Instance.from_points(space, merge_duplicates=False)
    capped = kept_none = False
    for t in range(n):
        rep = run_kt_median_clustering_only(part, k, t, objective=objective, seed=t)
        sol = rep.solution
        site_excluded = sum(rep.extras["site_excluded"])
        capped |= n - site_excluded <= t
        kept_none |= site_excluded == n
        assert sol.total_excluded == rep.extras["total_ignored"]
        assert sol.total_excluded <= (2 + 1.0 + 0.25) * t
        assert 1 <= len(sol.centers) <= k
        assert instance_cost(points, sol, objective) == pytest.approx(sol.cost)
    assert capped and kept_none == (k == 1)


def test_clustering_only_merge_runs_as_site_work(monkeypatch):
    """The pivot site's merge of its two bracketing solutions is site work:
    it runs inside a site worker, so its CPU time is in ``site_seconds``.
    Site 0's budget of 6 falls between its hull vertices 4 and 15."""
    in_site, merges = [False], []
    run_sites, merge = protocol._run_sites, protocol.merge_two_solutions

    def tracked_run_sites(worker, s, seconds):
        def site(i):
            in_site[0] = True
            try:
                return worker(i)
            finally:
                in_site[0] = False

        return run_sites(site, s, seconds)

    def tracked_merge(*args, **kwargs):
        merges.append(in_site[0])
        return merge(*args, **kwargs)

    monkeypatch.setattr(protocol, "_run_sites", tracked_run_sites)
    monkeypatch.setattr(protocol, "merge_two_solutions", tracked_merge)
    space = MetricSpace.euclidean(gen_planted(40, 3, 4, seed=1))
    rep = run_kt_median_clustering_only(Partition.round_robin(space, 4), 3, 15)
    assert rep.budgets[0] == 6 and rep.curves[0].hull_q == (0, 3, 4, 15)
    assert merges == [True]
    assert len(rep.site_seconds) == 4


# ---------------------------------------------------------------------------
# sequential subquadratic solver


def test_subquadratic_depth_follows_alpha():
    space = MetricSpace.euclidean(gen_planted(120, 2, 5, seed=6))
    inst = Instance.from_points(space)
    r1 = subquadratic_solve(inst, 2, 5, alpha=1.0, seed=0)
    assert r1.depth == 1
    r2 = subquadratic_solve(inst, 2, 5, alpha=0.5, seed=0)
    assert r2.depth == 2


def test_subquadratic_precondition():
    inst = Instance.from_points(MetricSpace.euclidean(random_points(11, 50)))
    with pytest.raises(PreconditionError):
        subquadratic_solve(inst, 2, 9, alpha=1.0)
    with pytest.raises(InvalidParameterError):
        subquadratic_solve(inst, 2, 3, alpha=0.0)


def test_subquadratic_outliers_and_determinism():
    space = MetricSpace.euclidean(gen_planted(150, 2, 6, seed=7))
    inst = Instance.from_points(space)
    a = subquadratic_solve(inst, 2, 6, alpha=1.0, seed=4)
    b = subquadratic_solve(inst, 2, 6, alpha=1.0, seed=4)
    assert a.solution == b.solution
    assert a.evals == b.evals
    assert a.solution.total_excluded <= 2 * 6
    assert a.evals > 0
    # levels shrink toward the leaf
    sizes = [n for n, _ in a.levels]
    assert sizes == sorted(sizes, reverse=True)


def test_subquadratic_saves_distance_evaluations():
    space = MetricSpace.euclidean(gen_planted(400, 2, 5, seed=8))
    inst = Instance.from_points(space)
    rep = subquadratic_solve(inst, 2, 5, alpha=1.0, seed=0)
    # the scaling exponent is pinned down in the acceptance suite; here just
    # confirm the run does substantially less than all-pairs work
    assert rep.evals < 400 * 400 / 3

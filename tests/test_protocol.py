"""Coordinator protocols: word accounting, budgets, end-to-end quality."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialclust import (
    CommLedger,
    Instance,
    MetricSpace,
    Objective,
    Partition,
    exact_oracle,
    geometric_index_set,
    instance_cost,
    run_kt_center,
    run_kt_median,
    run_kt_median_clustering_only,
    run_one_round,
    solution_cost,
    subquadratic_solve,
)
from partialclust.cli import gen_planted
from partialclust.errors import (
    InfeasibleError,
    InvalidParameterError,
    PreconditionError,
)

from helpers import random_points


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
        curves = rep.extras["curves"]
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


def test_median_jobs_do_not_change_anything():
    space, part = planted_partition()
    a = run_kt_median(part, 3, 4, seed=9, jobs=1)
    b = run_kt_median(part, 3, 4, seed=9, jobs=3)
    assert a.solution == b.solution
    assert a.budgets == b.budgets
    assert a.ledger.to_records() == b.ledger.to_records()
    assert a.site_evals == b.site_evals
    assert a.coord_evals == b.coord_evals


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
    curves = rep.extras["curves"]
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
    rep = run_kt_center(part, 3, 4, seed=3)
    assert rep.rounds == 2
    assert sorted(rep.solution.outliers) == [56, 57, 58, 59]
    assert solution_cost(space, rep.solution, Objective.CENTER) == pytest.approx(
        rep.solution.cost)


def test_center_word_formula_exact():
    space, part = planted_partition()
    B = space.word_width
    for k, t in [(2, 3), (3, 4)]:
        rep = run_kt_center(part, k, t, seed=1)
        s = part.n_sites
        assert rep.ledger.words(round_no=1) == s * t + 3 * s
        round2 = sum((k + ti) * (B + 1) for ti in rep.budgets)
        assert rep.ledger.words(round_no=2) == round2


def test_center_nine_approx_spot():
    for seed in range(8):
        pts = random_points(900 + seed, 14)
        space = MetricSpace.euclidean(pts)
        part = Partition.round_robin(space, 2)
        rep = run_kt_center(part, 2, 2, seed=seed)
        opt = exact_oracle(Instance.from_points(space), 2, 2, Objective.CENTER)
        assert rep.solution.cost <= 9.0 * opt.cost + 1e-9
        assert rep.solution.total_excluded == 2


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

    def run(jobs):
        if protocol == "kt-center":
            return run_kt_center(part, k, t, seed=4, jobs=jobs)
        return run_one_round(part, k, t, objective=Objective.CENTER, seed=4, jobs=jobs)

    rep = run(1)
    sol = rep.solution
    assert sol.total_excluded == t
    points = Instance.from_points(space, merge_duplicates=False)
    assert instance_cost(points, sol, Objective.CENTER) == sol.cost
    opt = exact_oracle(Instance.from_points(space), k, t, Objective.CENTER)
    assert sol.cost >= opt.cost
    other = run(2)
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
            run_kt_center(part, k, t, seed=2)
        with pytest.raises(one_sha):
            run_one_round(part, k, t, objective=Objective.CENTER, seed=2)
        return
    sizes = [Instance.from_points(space, pts).n for pts in part.sites]
    rep = run_kt_center(part, k, t, seed=2)
    assert _sha_without_evals(rep) == kt_sha
    assert rep.site_evals == tuple(_kt_center_site_evals(n, k, t, ti, space.mode)
                                   for n, ti in zip(sizes, rep.budgets))
    rep = run_one_round(part, k, t, objective=Objective.CENTER, seed=2)
    assert _sha_without_evals(rep) == one_sha
    assert rep.site_evals == tuple(
        _one_round_site_evals(n, len(pts), k, t, space.mode)
        for n, pts in zip(sizes, part.sites))


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

"""Centralized solvers: Gonzalez, threshold sweep, primal-dual, the oracle."""

import hashlib
import heapq
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialclust import (
    BicriteriaConfig,
    Demand,
    Instance,
    MetricSpace,
    Objective,
    bicriteria_median,
    exact_oracle,
    gonzalez_order,
    insertion_marginals,
    jv_facility_location,
    kt_center_outliers,
    pad_centers,
    solution_from_centers,
)
from partialclust import solvers
from partialclust.cli import gen_planted, gen_uncertain_planted
from partialclust.errors import (
    InfeasibleError,
    InvalidParameterError,
    OracleSizeLimitError,
)
from partialclust.metric import extremes
from partialclust.solvers import SortedCosts
from partialclust.uncertain import one_median, tau_grid

from helpers import (
    full_gonzalez_order,
    instance_cost,
    lazy_heap_jv_facility_location,
    loop_solution_from_centers,
    naive_kt_center_outliers,
    plain_center_lower_bound,
    random_instance,
    random_points,
    record_blocks,
)


# ---------------------------------------------------------------------------
# assignment helpers


def test_solution_from_centers_exact_budget(line_space):
    inst = Instance.from_points(line_space)
    sol = solution_from_centers(inst, (0,), Objective.MEDIAN, 1)
    assert sol.total_excluded == 1
    assert sol.outliers == {3: 1}  # the far point goes first
    assert sol.cost == pytest.approx(1.0 + 2.0)


def test_solution_from_centers_splits_weighted_demand():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [9.0, 0.0]])
    space = MetricSpace.euclidean(pts)
    inst = Instance.from_points(space)  # merges into weights (3, 1)
    sol = solution_from_centers(inst, (3,), Objective.MEDIAN, 2)
    # two of the three coincident copies are excluded, one copy remains
    assert sol.total_excluded == 2
    assert sol.outliers == {0: 2}
    assert sol.cost == pytest.approx(9.0)


@st.composite
def _assignment_cases(draw):
    """(instance, centers, objective, budget, tau): integer-grid points, so
    many costs are 0 or tied; up to 16 demands, enough for a pairwise sum to
    round otherwise, of weight 1-4 with up to three support points and
    collapse offsets; and budgets from 0 past the total weight, which
    exclude some demands in full and split the boundary one."""
    coords = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                           min_size=1, max_size=10))
    n = len(coords)
    demands = []
    for _ in range(draw(st.integers(1, 16))):
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                                unique=True))
        raw = draw(st.lists(st.integers(1, 4), min_size=len(support),
                            max_size=len(support)))
        demands.append(Demand(tuple(support), tuple(r / sum(raw) for r in raw),
                              draw(st.sampled_from([0.0, 0.0, 0.5])),
                              draw(st.integers(1, 4))))
    cands = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    inst = Instance(MetricSpace.euclidean(np.array(coords, dtype=float)), demands, cands)
    centers = draw(st.lists(st.sampled_from(cands), min_size=1, max_size=len(cands)))
    return (inst, centers, draw(st.sampled_from(list(Objective))),
            draw(st.integers(0, inst.total_weight + 2)), draw(st.sampled_from([0.0, 0.5])))


@settings(max_examples=300, deadline=None)
@given(case=_assignment_cases())
def test_solution_from_centers_matches_loop(case):
    inst, centers, objective, budget, tau = case
    sol = solution_from_centers(inst, centers, objective, budget, tau)
    want = loop_solution_from_centers(inst, centers, objective, budget, tau)
    assert (sol.centers, sol.outliers, sol.assignment) == want[:3]
    assert all(type(x) is int for pair in sol.assignment.items() for x in pair)
    assert sol.cost.hex() == want[3].hex()


def test_pad_centers_adds_and_never_hurts(line_space):
    inst = Instance.from_points(line_space)
    base = solution_from_centers(inst, (0,), Objective.MEDIAN, 1)
    padded = pad_centers(inst, base, 3, Objective.MEDIAN, 1)
    assert len(padded.centers) == 3
    assert padded.total_excluded == 1
    assert padded.cost <= base.cost + 1e-12


@st.composite
def _padding_cases(draw):
    """(instance, centers, pool, objective, budget, tau) for one round of
    the relax="centers" padding: at least 16 demands, enough for a pairwise
    sum to round otherwise. Either integer-grid points, some repeated so
    that they merge into weights (many costs tie), or weighted multi-support
    demands with collapse offsets at tau > 0. Budgets from 0 past the total
    weight."""
    coords = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                           min_size=16, max_size=24, unique=True))
    n = len(coords)
    tau = 0.0
    if draw(st.booleans()):
        repeats = draw(st.lists(st.integers(0, n - 1), max_size=12))
        pts = np.array(coords + [coords[i] for i in repeats], dtype=float)
        inst = Instance.from_points(MetricSpace.euclidean(pts))
    else:
        demands = []
        for _ in range(draw(st.integers(16, 24))):
            support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                                    unique=True))
            raw = draw(st.lists(st.integers(1, 4), min_size=len(support),
                                max_size=len(support)))
            demands.append(Demand(tuple(support), tuple(r / sum(raw) for r in raw),
                                  draw(st.sampled_from([0.0, 0.5, 1.25])),
                                  draw(st.integers(1, 4))))
        cands = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
        inst = Instance(MetricSpace.euclidean(np.array(coords, dtype=float)), demands, cands)
        tau = draw(st.sampled_from([0.5, 1.5]))
    cands = inst.candidates.tolist()
    centers = draw(st.lists(st.sampled_from(cands), min_size=1, max_size=len(cands) - 1,
                            unique=True))
    rest = [c for c in cands if c not in centers]
    pool = sorted(draw(st.lists(st.sampled_from(rest), min_size=1, unique=True)))
    W = inst.total_weight
    budget = draw(st.one_of(st.sampled_from([0, W, W + 3]), st.integers(0, W)))
    return inst, centers, pool, draw(st.sampled_from(list(Objective))), budget, tau


@settings(max_examples=300, deadline=None)
@given(case=_padding_cases())
def test_padding_costs_match_solution_from_centers(case):
    """Every trial the padding prices at once costs, bit for bit, what
    solution_from_centers makes of it, and the pick is the least
    (cost, id): the least rank of the solutions built one at a time."""
    inst, centers, pool, objective, budget, tau = case
    costs = solvers._padding_costs(inst, centers, pool, objective, budget, tau)
    trials = [solution_from_centers(inst, centers + [c], objective, budget, tau)
              for c in pool]
    assert [float(c).hex() for c in costs] == [sol.cost.hex() for sol in trials]
    best = min(zip(pool, trials), key=lambda pair: solvers._rank_key(pair[1]))[0]
    assert pool[int(np.argmin(costs))] == best


# ---------------------------------------------------------------------------
# farthest-first traversal


def test_gonzalez_order_line(line_space):
    inst = Instance.from_points(line_space)
    g = gonzalez_order(inst)
    assert g.order == (0, 3, 2, 1)
    assert g.radii == pytest.approx((100.0, 2.0, 1.0))


def test_gonzalez_ties_break_low_index():
    pts = np.array([[0.0], [5.0], [-5.0]])
    inst = Instance.from_points(MetricSpace.euclidean(pts))
    g = gonzalez_order(inst)
    assert g.order[1] == 1  # both at distance 5; lower index wins


def test_insertion_marginals(line_space):
    inst = Instance.from_points(line_space)
    g = gonzalez_order(inst)
    assert insertion_marginals(g, 1, 3) == pytest.approx([100.0, 2.0, 1.0])
    assert insertion_marginals(g, 2, 3) == pytest.approx([2.0, 1.0, 0.0])
    # exhausted traversal yields zero marginals
    assert insertion_marginals(g, 4, 2) == pytest.approx([0.0, 0.0])


@st.composite
def _gonzalez_cases(draw):
    """A builder of one instance (called twice, so the prefix and the
    reference each get a fresh one), a prefix length L in 1..n+2 and an
    outlier budget. Shapes: integer-grid points whose duplicates merge into
    weights; real points in 2, 3, 8 or 17 dimensions; tentacle demands with
    collapse offsets, some sharing an anchor; matrix-mode spaces whose
    entries sit up to 5e-13 off symmetric, so a row is not its column."""
    shape = draw(st.sampled_from(["grid", "real", "tentacle", "matrix"]))
    size = draw(st.integers(1, 14))
    if shape == "real":
        dim = draw(st.sampled_from([2, 3, 8, 17]))
        pts = random_points(draw(st.integers(0, 2**16)), size, dim=dim)
    else:
        coords = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                               min_size=size, max_size=size))
        pts = np.array(coords, dtype=float)
    if shape == "matrix":
        D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        flags = draw(st.lists(st.booleans(), min_size=size * size,
                              max_size=size * size))
        D = D + 5e-13 * np.triu(np.array(flags, dtype=float).reshape(size, size), 1)

        def build():
            return Instance.from_points(MetricSpace.from_matrix(D))
    elif shape == "tentacle":
        anchors = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=10))
        demands = [Demand((a,), (1.0,), draw(st.sampled_from([0.0, 0.1, 0.5, 1.25])),
                          draw(st.integers(1, 3))) for a in anchors]

        def build():
            return Instance(MetricSpace.euclidean(pts), demands, anchors)
    else:
        def build():
            return Instance.from_points(MetricSpace.euclidean(pts))
    n = build().n
    return build, draw(st.integers(1, n + 2)), draw(st.integers(0, 3 * n))


@settings(max_examples=300, deadline=None)
@given(case=_gonzalez_cases())
def test_gonzalez_prefix_matches_full_traversal(case):
    build, L, budget = case
    inst, ref = build(), build()
    full = full_gonzalez_order(ref)
    got = gonzalez_order(inst, L)
    L = min(L, inst.n)
    assert got.order == full.order[:L]
    assert got.radii == full.radii[:L - 1]
    # n evaluations per distinct anchor among the first L - 1 points that
    # come before a zero radius: tentacles on one anchor share its row
    rows = {int(inst.anchors[j]) for j, r in zip(got.order[:L - 1], (np.inf,) + got.radii)
            if r > 0}
    assert inst.counter.count == len(rows) * inst.n

    # Column costs of the prefix centers are the full matrix's, bit for bit,
    # and the solution built from them is the full-matrix one.
    prefix = [inst.demands[j].anchor for j in got.order]
    centers = sorted(set(prefix))
    cols = [ref.candidate_column(c) for c in centers]
    M = ref.cost_matrix(Objective.CENTER)
    assert inst.cost_columns(Objective.CENTER, centers).tobytes() == M[:, cols].tobytes()
    sol = solution_from_centers(inst, prefix, Objective.CENTER, budget)
    want = solution_from_centers(ref, prefix, Objective.CENTER, budget)
    assert sol.centers == want.centers
    assert sol.outliers == want.outliers
    assert sol.assignment == want.assignment
    assert sol.cost == want.cost


def test_gonzalez_prefix_two_approx_spot():
    """Radius of the k-prefix is within 2x of the best k-center radius."""
    from itertools import combinations
    for seed in range(10):
        inst = random_instance(seed, 9)
        D = inst.pair_matrix()
        g = gonzalez_order(inst)
        for k in range(1, 5):
            prefix = list(g.order[:k])
            got = D[:, prefix].min(axis=1).max()
            best = min(
                D[:, list(c)].min(axis=1).max()
                for c in combinations(range(inst.n), k))
            assert got <= 2.0 * best + 1e-9


# ---------------------------------------------------------------------------
# k-center with outliers


def test_kt_center_outliers_line(line_space):
    inst = Instance.from_points(line_space)
    sol = kt_center_outliers(inst, 1, 1)
    assert sol.centers == (1,)
    assert sol.outliers == {3: 1}
    assert sol.cost == pytest.approx(1.0)


def test_kt_center_outliers_three_approx():
    from itertools import combinations
    for seed in range(15):
        inst = random_instance(100 + seed, 10)
        M = inst.cost_matrix(Objective.CENTER)
        for k, t in [(1, 1), (2, 1), (2, 2)]:
            sol = kt_center_outliers(inst, k, t)
            assert sol.total_excluded == t
            best = None
            for combo in combinations(range(inst.n), k):
                costs = np.sort(M[:, list(combo)].min(axis=1))
                r = costs[-(t + 1)]  # drop the t worst
                best = r if best is None else min(best, r)
            assert sol.cost <= 3.0 * best + 1e-9


def test_kt_center_rejects_exhausted_budget(line_space):
    inst = Instance.from_points(line_space)
    with pytest.raises(InfeasibleError):
        kt_center_outliers(inst, 1, 4)
    with pytest.raises(InvalidParameterError):
        kt_center_outliers(inst, 0, 1)


def _kt_golden_instance(kind):
    if kind == "weighted":
        rng = np.random.default_rng(41)
        base = gen_planted(400, 5, 40, seed=41)
        # 560 draws from 400 points merge into 301 weighted demands
        return Instance.from_points(
            MetricSpace.euclidean(base[rng.integers(0, 400, size=560)]))
    # integer L1 distances: 10,766 distinct values among 67,600 entries
    base = np.rint(gen_planted(260, 5, 30, seed=42) * 100.0)
    return Instance.from_points(MetricSpace.from_matrix(
        np.abs(base[:, None, :] - base[None, :, :]).sum(axis=2)))


# Recorded from the sweep that rebuilt both disks and every gain at each
# radius. The first instance is feasible at the 7,343rd of 45,151 radii, the
# second at the 3,867th of 10,766: both run the long sweep the coordinator
# of a center protocol runs.
_KT_GOLDEN = [
    (("weighted", 5, 40),
     ((1, 2, 9, 12, 42),
      ((20, 2), (31, 1), (32, 1), (45, 2), (58, 2), (59, 2), (69, 1), (71, 1),
       (74, 2), (81, 3), (90, 2), (93, 2), (115, 2), (139, 2), (160, 1), (175, 1),
       (176, 2), (187, 1), (192, 2), (201, 1), (231, 2), (244, 1), (247, 1),
       (248, 1), (266, 1), (281, 1)),
      "0x1.014f453fe0198p+5")),
    (("matrix", 5, 20),
     ((0, 232, 235, 236, 241),
      tuple((j, 1) for j in (230, 233, 237, 239, *range(243, 246), *range(247, 260))),
      "0x1.259e000000000p+15")),
]


@pytest.mark.parametrize("case,pin", _KT_GOLDEN)
def test_kt_center_golden_pins(case, pin):
    kind, k, t = case
    sol = kt_center_outliers(_kt_golden_instance(kind), k, t)
    assert (sol.centers, tuple(sorted(sol.outliers.items())), sol.cost.hex()) == pin


_LARGE_SHAPES = ("large", "low-t")


@st.composite
def _kt_center_cases(draw, small=False):
    """(instance, k, t) in the shapes a coordinator sweeps: integer-grid
    points (tied costs) whose duplicates merge into weights, matrix-mode
    spaces with costs 1e-12 apart, "nonmetric" matrices of small integers
    that break the triangle inequality, and multi-support demands with
    collapse offsets; k up to past the candidate count, t anywhere in
    0..W-1 and often at either end. On a "line" of integer points a pick
    change often makes the first feasible radius. The "large" shape, 20-60
    random or integer-grid points with weighted duplicates and k up to 6,
    has hundreds of radii, so the sweep tests several blocks of them; its
    "low-t" variant keeps k + t + 1 well below the demand count, so the
    sweep's lower bound skips radii. ``small`` keeps to at most 14 demands
    and k <= 4, in reach of ``exact_oracle``."""
    shapes = ["grid", "line", "matrix", "nonmetric", "support"]
    shape = draw(st.sampled_from(shapes if small else shapes + list(_LARGE_SHAPES)))
    coords = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           min_size=1, max_size=14))
    pts = np.array(coords, dtype=float)
    n = len(coords)
    if shape == "line":
        xs = draw(st.lists(st.integers(0, 9), min_size=1, max_size=8))
        inst = Instance.from_points(MetricSpace.euclidean(np.array(xs, dtype=float)))
    elif shape in _LARGE_SHAPES:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        size = draw(st.integers(20, 60))
        if draw(st.booleans()):
            pts = rng.integers(-6, 7, size=(size, 2)).astype(float)
        else:
            pts = rng.random((size, 2))
        dups = rng.integers(0, size, size=draw(st.integers(0, size)))
        inst = Instance.from_points(MetricSpace.euclidean(np.vstack([pts, pts[dups]])))
    elif shape == "nonmetric":
        # Costs 1..4, and 9 between the first and the last point: more than
        # any path through a third point.
        vals = draw(st.lists(st.integers(1, 4), min_size=n * n, max_size=n * n))
        D = np.triu(np.array(vals, dtype=float).reshape(n, n), 1)
        if n > 2:
            D[0, n - 1] = 9.0
        inst = Instance.from_points(MetricSpace.from_matrix(D + D.T))
    elif shape == "grid":
        inst = Instance.from_points(MetricSpace.euclidean(pts))
    elif shape == "matrix":
        D = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
        # Some costs sit exactly at another cost r plus the 1e-12 tolerance
        # of the disks, so they count as within r.
        flags = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        nudge = np.triu(np.array(flags, dtype=float).reshape(n, n), 1)
        D = D + 1e-12 * (nudge + nudge.T)
        inst = Instance.from_points(MetricSpace.from_matrix(D))
    else:
        demands = []
        for _ in range(draw(st.integers(1, 10))):
            support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                                    unique=True))
            raw = draw(st.lists(st.integers(1, 4), min_size=len(support),
                                max_size=len(support)))
            demands.append(Demand(tuple(support), tuple(r / sum(raw) for r in raw),
                                  draw(st.sampled_from([0.0, 0.5, 1.25])),
                                  draw(st.integers(1, 4))))
        cands = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        inst = Instance(MetricSpace.euclidean(pts), demands, cands)
    k = draw(st.integers(1, 6 if shape in _LARGE_SHAPES else len(inst.candidates) + 2))
    if small:
        k = min(k, 4)
    top = inst.n // 6 if shape == "low-t" else inst.total_weight - 1
    t = draw(st.sampled_from([0, top]) | st.integers(0, top))
    return inst, k, t


@settings(max_examples=300, deadline=None)
@given(case=_kt_center_cases())
def test_kt_center_matches_naive_sweep(case):
    inst, k, t = case
    fast = kt_center_outliers(inst, k, t)
    slow = naive_kt_center_outliers(inst, k, t)
    assert fast.centers == slow.centers
    assert fast.outliers == slow.outliers
    assert fast.assignment == slow.assignment
    assert fast.cost == slow.cost


@pytest.mark.parametrize("block", [1, 2])
@settings(max_examples=100, deadline=None)
@given(case=_kt_center_cases())
def test_kt_center_short_blocks_match_naive_sweep(block, case):
    """Blocks of one or two radii put the pick changes on the first and the
    last radius of a block, and leave many blocks without one."""
    inst, k, t = case
    with mock.patch.object(solvers, "_SWEEP_BLOCK", block):
        fast = kt_center_outliers(inst, k, t)
    slow = naive_kt_center_outliers(inst, k, t)
    assert (fast.centers, fast.outliers, fast.cost) == (slow.centers, slow.outliers, slow.cost)


@settings(max_examples=200, deadline=None)
@given(case=_kt_center_cases(small=True))
def test_center_lower_bound_below_optimum(case):
    """The sweep's lower bound never passes the (k, t) optimum, on metric
    and non-metric costs alike, and its truncated rows give the bound of
    the whole pair matrix."""
    inst, k, t = case
    M = inst.cost_matrix(Objective.CENTER)
    kk = min(k, len(inst.candidates))
    lb = solvers._center_lower_bound(M, kk, t)
    assert lb <= exact_oracle(inst, k, t, Objective.CENTER).cost
    assert lb == plain_center_lower_bound(M, kk, t)


# The bound on each _KT_GOLDEN instance: the sweep's first rerun is at the
# 385th and the 2,407th radius, not the first.
_KT_GOLDEN_BOUNDS = ["0x1.65c292d32a7b6p+0", "0x1.9950000000000p+14"]


@pytest.mark.parametrize("golden,pin", zip(_KT_GOLDEN, _KT_GOLDEN_BOUNDS))
def test_kt_center_golden_bounds(golden, pin):
    (kind, k, t), _ = golden
    M = _kt_golden_instance(kind).cost_matrix(Objective.CENTER)
    assert solvers._center_lower_bound(M, k, t).hex() == pin


# ---------------------------------------------------------------------------
# primal-dual facility location


def test_jv_zero_cost_opens_everything():
    inst = random_instance(3, 8)
    res = jv_facility_location(inst, 0.0, Objective.MEDIAN)
    assert len(res.centers) == 8  # free facilities: every demand self-serves


def test_jv_early_stop_leaves_exact_weight():
    inst = random_instance(4, 10)
    for t in (1, 2, 3):
        table = SortedCosts.build(inst, Objective.MEDIAN)
        res = jv_facility_location(inst, 5.0, Objective.MEDIAN, stop_weight=t, table=table)
        left = inst.total_weight - np.cumsum(inst.weights[table.runs[5.0].frozen])
        assert t in left   # unit weights: the stop leaves exactly t unconnected
        assert all(c in inst.candidates for c in res.centers)


def test_jv_deterministic():
    inst = random_instance(5, 12)
    a = jv_facility_location(inst, 7.5, Objective.MEDIAN, stop_weight=2)
    b = jv_facility_location(inst, 7.5, Objective.MEDIAN, stop_weight=2)
    assert a.centers == b.centers
    assert np.array_equal(a.alpha, b.alpha)


def test_jv_fewer_centers_as_price_rises():
    inst = random_instance(6, 12)
    opened = [
        len(jv_facility_location(inst, z, Objective.MEDIAN).centers)
        for z in (0.0, 1.0, 10.0, 1e4)
    ]
    assert opened[0] == 12
    assert all(a >= b for a, b in zip(opened, opened[1:]))
    assert opened[-1] == 1


def _golden_instance(kind):
    rng = np.random.default_rng({"weighted": 11, "support": 12, "means": 13}[kind])
    if kind == "weighted":
        base = rng.uniform(-10.0, 10.0, size=(14, 2))
        pts = base[rng.integers(0, 14, size=30)]  # duplicates merge into weights
        return Instance.from_points(MetricSpace.euclidean(pts))
    if kind == "support":
        space = MetricSpace.euclidean(rng.uniform(-6.0, 6.0, size=(20, 2)))
        demands = []
        for _ in range(12):
            size = int(rng.integers(1, 4))
            support = tuple(int(u) for u in rng.choice(20, size=size, replace=False))
            probs = rng.uniform(0.2, 1.0, size=size)
            probs = tuple(float(p) for p in probs / probs.sum())
            demands.append(Demand(support, probs, float(rng.uniform(0.0, 0.5)),
                                  int(rng.integers(1, 4))))
        return Instance(space, demands, range(20))
    return Instance.from_points(MetricSpace.euclidean(rng.uniform(-5.0, 5.0, size=(16, 3))))


def _jv_pin(res):
    return res.centers, hashlib.sha256(res.alpha.tobytes()).hexdigest()[:16]


# Recorded from the per-probe implementation that re-sorted the cost matrix
# on every call; the shared sorted-cost table must reproduce it bit for bit.
_JV_GOLDEN = [
    (("weighted", 0.0, Objective.MEDIAN, 0.0, 0),
     ((0, 2, 3, 4, 5, 6, 7, 8, 12, 15, 20, 24), "2ea9ab9198d16380")),
    (("weighted", 6.0, Objective.MEDIAN, 0.0, 0),
     ((0, 15, 2, 3, 5, 7, 6, 8, 12, 4), "4b703a4706debc7a")),
    (("weighted", 6.0, Objective.MEDIAN, 0.0, 4),
     ((0, 15, 2, 3, 5, 7, 6, 8), "1631968cb982950c")),
    (("weighted", 25.0, Objective.MEDIAN, 0.0, 7),
     ((15, 0, 5), "d0417f24c5d93971")),
    (("support", 0.0, Objective.MEDIAN, 1.5, 2),
     (tuple(range(20)), "a94c997feb8f90ba")),
    (("support", 3.0, Objective.MEDIAN, 1.5, 0),
     ((8, 3, 1), "71002a19bb2a478c")),
    (("support", 3.0, Objective.MEDIAN, 1.5, 5),
     ((8, 3, 1), "0dd4150b0034feee")),
    (("support", 12.0, Objective.MEANS, 0.0, 3),
     ((8, 3, 9, 6, 15, 7), "9b1406c401259471")),
    (("means", 0.0, Objective.MEANS, 0.0, 0),
     (tuple(range(16)), "38723a2e5e8a17aa")),
    (("means", 20.0, Objective.MEANS, 0.0, 2),
     ((14, 8, 4, 0, 1), "33558d2215c52501")),
    (("means", 80.0, Objective.MEANS, 0.0, 0),
     ((14, 15), "6ae4e6c023aa1609")),
]


@pytest.mark.parametrize("probe,pin", _JV_GOLDEN)
def test_jv_golden_pins(probe, pin):
    kind, z, objective, tau, stop_weight = probe
    inst = _golden_instance(kind)
    res = jv_facility_location(inst, z, objective, tau, stop_weight=stop_weight)
    assert _jv_pin(res) == pin


# Recorded from the heap-based probe. Each runs on one 375-point site of a
# round-robin split of a planted median-large input, at a facility cost
# between the bracket ends; one opening step re-estimates 370 (first) and
# 255 (second) stale candidates in a row.
_JV_BURST_GOLDEN = [
    ((0, Objective.MEDIAN, "0x1.6fe4578ccaaaap+10", 0),
     ((176, 167, 235, 288, 114), "7d0853e735d69459")),
    ((1, Objective.MEANS, "0x1.1179d93afdd78p+9", 2),
     ((290, 171, 179, 227, 343), "48f614de4774d870")),
] + [
    # Recorded from the event loop at z = 0. Every site demand freezes at 0
    # on its own candidate, so the probe stops before the last candidates
    # open and alpha is all zeros.
    ((seed, objective, "0x0.0p+0", stop_weight),
     (tuple(range(375 - stop_weight)), "c81ca5eda5947c78"))
    for seed in (0, 1) for objective in (Objective.MEDIAN, Objective.MEANS)
    for stop_weight in (0, 10)
] + [
    # Recorded from the event loop at z = 0 on a center-g site: 53 of its 60
    # nodes cost 0 at some candidate and freeze as the candidates open, which
    # leaves 7 copies for a stop at 4. So all 51 candidates open, and 3 more
    # nodes freeze at their cheapest cost, the last at theta = 0.103.
    ((("center-g", 0, 10), Objective.MEDIAN, "0x0.0p+0", 4),
     ((2, 6, 7, 11, 14, 16, 18, 20, 22, 25, 30, 34, 35, 44, 49, 55, 57, 60, 61, 68,
       69, 70, 71, 72, 74, 76, 77, 79, 81, 85, 88, 90, 95, 96, 101, 105, 106, 110,
       111, 120, 126, 131, 147, 155, 160, 173, 176, 177, 186, 234, 236),
      "f85dd2296b1ec1a8")),
]


def _burst_instance(source):
    """(instance, tau) of a burst pin. An int is the seed of a planted
    median-large input, split round-robin over 4 sites, whose first site is
    taken. ("center-g", seed, level) is the first of two round-robin sites
    of the centerg-threads input of that seed: its uncertain nodes as
    multi-support demands, their 1-medians as candidates, and the duals'
    truncation 2 tau at that level of the tau grid, as the center-g sites
    probe it."""
    if isinstance(source, int):
        site = gen_planted(1500, 5, 10, seed=source)[0::4]
        return Instance.from_points(MetricSpace.euclidean(site)), 0.0
    _, seed, level = source
    universe, nodes = gen_uncertain_planted(120, 3, 4, seed=seed)
    space = MetricSpace.euclidean(universe)
    site = nodes[0::2]
    demands = [Demand(nd.support, nd.probs, 0.0, 1, (nd.node_id,)) for nd in site]
    cands = [one_median(space, nd, Objective.MEDIAN).point for nd in site]
    return Instance(space, demands, cands), 2.0 * tau_grid(*extremes(space)[:2]).taus[level]


@pytest.mark.parametrize("probe,pin", _JV_BURST_GOLDEN)
def test_jv_burst_golden_pins(probe, pin):
    source, objective, z, stop_weight = probe
    inst, tau = _burst_instance(source)
    res = jv_facility_location(inst, float.fromhex(z), objective, tau,
                               stop_weight=stop_weight)
    assert _jv_pin(res) == pin


def _reached_stops(inst, z, objective, tau):
    """Stop weights a probe at ``z`` reaches exactly, read off a fresh run
    to the end: the unconnected weight left after each freeze, and after
    each freeze with more of its batch to come."""
    table = SortedCosts.build(inst, objective, tau)
    jv_facility_location(inst, z, objective, tau, 0, table=table)
    run = table.runs[z]
    left = [int(r) for r in inst.total_weight - np.cumsum(inst.weights[run.frozen])]
    mid = [r for r, a, b in zip(left, run.steps, run.steps[1:]) if a == b]
    return left, mid


def _zero_cost_stops(inst, objective, tau):
    """Stop weights a z = 0 probe reaches exactly: the unconnected weight
    left after each freeze while candidates still open, and after each
    freeze with more of its batch to come. At z = 0 the candidates open at
    time 0 in column order, each freezing the active demands it serves at
    cost <= 1e-12; once all are open, the rest freeze in ascending order of
    their cheapest cost, within 1e-12 relative of the batch's first. A
    batch freezes in index order."""
    C = inst.cost_matrix(objective, tau)
    n, m = C.shape
    zero = C <= 1e-12
    batch = np.where(zero.any(axis=1), zero.argmax(axis=1), m)
    low = C.min(axis=1)
    late = np.flatnonzero(batch == m)
    late = late[np.argsort(low[late], kind="stable")]
    first, label = None, m
    for j in late:
        if first is None or low[j] > low[first] + 1e-12 * (1.0 + low[first]):
            first, label = j, label + 1
        batch[j] = label
    order = np.lexsort((np.arange(n), batch))
    left = [int(r) for r in inst.total_weight - np.cumsum(inst.weights[order])]
    early = [r for r, a in zip(left, batch[order]) if a < m]
    mid = [r for r, a, b in zip(left, batch[order], batch[order][1:]) if a == b]
    return early, mid


@st.composite
def _jv_cases(draw, zero=False):
    """(instance, z, objective, tau, stop_weight) for one probe, in three
    shapes: integer-grid points whose duplicates merge into weights (tied
    opening times); matrix-mode spaces of the same points in which some
    pairs of distinct points sit at distance 0 or 1e-13 (coordinates cannot
    give this, since coinciding points merge); weighted multi-support
    demands with collapse offsets under tau > 0, some at cost 0 on a
    candidate and some 1e-13 apart, inside the freeze batches' tolerance.
    Up to 48 candidates, so one search can run past a batch of estimates;
    z at either end of the facility-cost bracket or anywhere between. With
    ``zero`` z is 0, and the stop weight is often one the probe reaches
    exactly (:func:`_zero_cost_stops`)."""
    shape = draw(st.sampled_from(["grid", "matrix", "support"]))
    size = draw(st.integers(1, 48))
    coords = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                           min_size=size, max_size=size))
    pts = np.array(coords, dtype=float)
    objective = draw(st.sampled_from([Objective.MEDIAN, Objective.MEANS]))
    tau = 0.0
    if shape == "grid":
        inst = Instance.from_points(MetricSpace.euclidean(pts))
    elif shape == "matrix":
        D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        for a, b, v in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                               st.integers(0, size - 1),
                                               st.sampled_from([0.0, 1e-13])),
                                     max_size=12)):
            if a != b:
                D[a, b] = D[b, a] = v
        inst = Instance.from_points(MetricSpace.from_matrix(D))
    else:
        n = len(coords)
        demands = []
        for _ in range(draw(st.integers(1, 12))):
            support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                                    unique=True))
            raw = draw(st.lists(st.integers(1, 4), min_size=len(support),
                                max_size=len(support)))
            demands.append(Demand(tuple(support), tuple(r / sum(raw) for r in raw),
                                  draw(st.sampled_from([0.0, 0.5, 0.5 + 1e-13, 1.25])),
                                  draw(st.integers(1, 4))))
        cands = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        inst = Instance(MetricSpace.euclidean(pts), demands, cands)
        tau = draw(st.sampled_from([0.5, 1.5]))
    W = inst.total_weight
    if zero:
        stops = [st.integers(0, W)]
        stops += [st.sampled_from(ws) for ws in _zero_cost_stops(inst, objective, tau) if ws]
        return inst, 0.0, objective, tau, draw(st.one_of(stops))
    z_hi = W * float(inst.cost_matrix(objective, tau).max()) + 1.0
    # At z = 1 (or 2) every grid candidate with unit-distance neighbours
    # opens at the same time up to rounding; a nudge near the 1e-12
    # staleness tolerance then decides which stored times count as fresh.
    z = draw(st.one_of(st.sampled_from([0.0, z_hi]),
                       st.integers(1, 16).map(lambda e: z_hi * 2.0 ** -e),
                       st.builds(lambda a, b: a + b, st.sampled_from([1.0, 2.0]),
                                 st.sampled_from([1e-14, 1e-13, 5e-13, 2e-12])),
                       st.floats(0.0, z_hi)))
    return inst, z, objective, tau, draw(st.integers(0, W - 1))


def _assert_matches_lazy_heap(inst, z, objective, tau, stop_weight):
    fast = jv_facility_location(inst, z, objective, tau, stop_weight)
    slow = lazy_heap_jv_facility_location(inst, z, objective, tau, stop_weight)
    assert fast.centers == slow.centers
    assert fast.alpha.tobytes() == slow.alpha.tobytes()


@settings(max_examples=100, deadline=None)
@given(case=_jv_cases(), data=st.data())
def test_jv_shared_table_matches_own_table(case, data):
    """One table serves a sequence of probes whose facility costs repeat,
    with stop weights in any order: a run is reused for a larger stop
    weight and re-run for a smaller one. Every result matches a probe with
    its own table and the heap reference bit for bit."""
    inst, z, objective, tau, _ = case
    W = inst.total_weight
    z_hi = W * float(inst.cost_matrix(objective, tau).max()) + 1.0
    zs = [z] + data.draw(st.lists(st.one_of(st.just(0.0), st.just(z_hi),
                                            st.floats(0.0, z_hi)), max_size=2))
    stops = {zv: [st.integers(0, W)] + [st.sampled_from(ws) for ws in
                                        _reached_stops(inst, zv, objective, tau) if ws]
             for zv in zs if zv > 0}
    stops[0.0] = [st.integers(0, W)] + [st.sampled_from(ws) for ws in
                                        _zero_cost_stops(inst, objective, tau) if ws]
    table = SortedCosts.build(inst, objective, tau)
    for _ in range(data.draw(st.integers(1, 8))):
        zv = data.draw(st.sampled_from(zs))
        stop_weight = data.draw(st.one_of(stops[zv]))
        shared = jv_facility_location(inst, zv, objective, tau, stop_weight, table=table)
        assert table.runs[zv].floor <= stop_weight
        for other in (jv_facility_location(inst, zv, objective, tau, stop_weight),
                      lazy_heap_jv_facility_location(inst, zv, objective, tau, stop_weight)):
            assert shared.centers == other.centers
            assert shared.alpha.tobytes() == other.alpha.tobytes()


@settings(max_examples=300, deadline=None)
@given(case=_jv_cases())
def test_jv_matches_lazy_heap_probe(case):
    _assert_matches_lazy_heap(*case)


@settings(max_examples=400, deadline=None)
@given(case=_jv_cases(zero=True))
def test_jv_zero_matches_lazy_heap_probe(case):
    _assert_matches_lazy_heap(*case)


@pytest.mark.parametrize("entries", [1, 64])
@settings(max_examples=100, deadline=None)
@given(case=_jv_cases())
def test_jv_short_batches_match_lazy_heap(entries, case):
    """A block budget of 1 or 64 entries caps each batch of estimates at
    one row or 64 // n (one or two past 21 demands), so a search that
    re-estimates more than one candidate crosses batch boundaries, with the
    answer, a tie on its key or the last stale candidate on either side of
    one; the freeze and opening-time blocks split too."""
    with mock.patch.object(solvers, "_BLOCK_ENTRIES", entries):
        _assert_matches_lazy_heap(*case)


def _heap_next_opening(key, est):
    """One search of a lazy binary heap of (key, index) pairs with the
    estimates ``est``: the reference :func:`solvers._next_opening` mirrors."""
    heap = [(float(k), u) for u, k in enumerate(key) if k < np.inf]
    heapq.heapify(heap)
    while heap:
        tu, u = heap[0]
        if est[u] > tu + 1e-12 * (1.0 + abs(tu)):
            heapq.heapreplace(heap, (float(est[u]), u))
            key[u] = est[u]
            continue
        return tu, u
    return np.inf, None


@pytest.mark.parametrize("batch", [1, 2, 3, 32])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_next_opening_matches_heap_search(batch, data):
    """Keys and estimates from a few values, so that keys and estimates tie
    across candidates, and estimates within or just past the staleness
    tolerance of their key: the same answer and the same stored keys as
    the heap. No batch holds more than ``batch`` rows, nor a row whose key
    lies above the best (K', index) known when the batch was cut."""
    m = data.draw(st.integers(1, 40))
    values = [0.0, 1.0, 1.0 + 1e-13, 2.0, 2.0 + 5e-12, 3.0, np.inf]
    key = np.array(data.draw(st.lists(st.sampled_from(values), min_size=m, max_size=m)))
    bumps = st.one_of(st.sampled_from(values),
                      st.sampled_from([0.0, -1e-13, 1e-12, 3e-12]).map(lambda d: ("rel", d)))
    est = np.empty(m)
    for u, b in enumerate(data.draw(st.lists(bumps, min_size=m, max_size=m))):
        est[u] = key[u] * (1.0 + b[1]) if isinstance(b, tuple) else max(b, key[u] - 1e-13)
    fast_key, slow_key = key.copy(), key.copy()
    calls = []
    seen = []   # K' of every candidate estimated so far

    def known(us):
        stale = est[us] > key[us] + 1e-12 * (1.0 + np.abs(key[us]))
        seen.extend(np.where(stale, est[us], key[us]).tolist())

    def estimate(u):
        known(np.array([u]))
        return float(est[u])

    def estimates(us):
        calls.append(len(us))
        assert key[us].max() <= min(seen)
        known(us)
        return est[us]

    fast = solvers._next_opening(fast_key, estimate, estimates, batch)
    slow = _heap_next_opening(slow_key, est)
    assert fast[0] == slow[0]
    if fast[0] < np.inf:
        assert fast[1] == slow[1]
    assert fast_key.tobytes() == slow_key.tobytes()
    assert all(c <= batch for c in calls)


@st.composite
def _estimate_rows(draw):
    """(order, costs, live weights, req, theta) of a few candidates: integer
    costs, some nudged by 1e-13 onto their neighbours, rows in which every
    demand is frozen, and facility costs left to pay at or below 0."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 6))
    grid = st.integers(0, 6).map(float)
    C = np.array(draw(st.lists(st.lists(grid, min_size=m, max_size=m),
                               min_size=n, max_size=n)))
    C += np.array(draw(st.lists(st.lists(st.sampled_from([0.0, 1e-13]), min_size=m,
                                         max_size=m), min_size=n, max_size=n)))
    order = np.argsort(C.T, axis=1, kind="stable")
    costs = np.take_along_axis(C.T, order, axis=1)
    w = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), dtype=float)
    live = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if draw(st.booleans()):
        live[:] = False
    req = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 1e-13, 0.5, 1.0, 3.0, 7.5,
                                                  40.0]), min_size=m, max_size=m)))
    theta = draw(st.sampled_from([0.0, 0.5, 2.0]))
    return order, costs, np.where(live, w, 0.0), req, theta


@settings(max_examples=300, deadline=None)
@given(rows=_estimate_rows())
def test_one_row_estimate_matches_batch_row(rows):
    order, costs, live_w, req, theta = rows
    batch = solvers._opening_estimates(order, costs, live_w, req, theta)
    for u in range(len(req)):
        one = solvers._opening_estimate(order[u], costs[u], live_w, req[u], theta)
        assert np.float64(one).tobytes() == batch[u].tobytes()
        if req[u] <= 0:
            assert one == theta
        elif not live_w.any():
            assert one == np.inf


@settings(max_examples=300, deadline=None)
@given(rows=_estimate_rows(), data=st.data())
def test_estimates_on_rows_without_frozen_demands(rows, data):
    """Dropping frozen (zero-weight) entries from the sorted rows, order
    kept, leaves every estimate's bits: the same demands from every row for
    the batch, any entries of its own row for the one-row estimate."""
    order, costs, live_w, req, theta = rows
    m, n = order.shape
    full = solvers._opening_estimates(order, costs, live_w, req, theta)
    drop = (live_w == 0) & np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                                       max_size=n)))
    if not drop.all():
        keep = ~drop[order]
        narrow = solvers._opening_estimates(order[keep].reshape(m, -1),
                                            costs[keep].reshape(m, -1), live_w, req, theta)
        assert narrow.tobytes() == full.tobytes()
    for u in range(m):
        keep = ~((live_w[order[u]] == 0) & np.array(
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n))))
        if keep.any():
            one = solvers._opening_estimate(order[u][keep], costs[u][keep], live_w, req[u],
                                            theta)
            assert np.float64(one).tobytes() == full[u].tobytes()


@pytest.mark.parametrize("e", [4, 6, 8])
@pytest.mark.parametrize("stop_weight", [0, 5])
def test_jv_narrowed_rows_match_lazy_heap(e, stop_weight):
    """A run on 60 demands whose rows narrow at least twice, with a block
    budget of 64 entries so that a narrowed batch fills its cap and the
    search goes on in another: the same probe as the heap reference."""
    inst = random_instance(3, 60)
    z = (inst.total_weight * float(inst.cost_matrix(Objective.MEDIAN).max()) + 1.0) * 2.0 ** -e
    shapes = []
    real = solvers._opening_estimates

    def spy(order, *rest):
        shapes.append(order.shape)
        return real(order, *rest)

    with mock.patch.object(solvers, "_BLOCK_ENTRIES", 64), \
            mock.patch.object(solvers, "_opening_estimates", spy):
        _assert_matches_lazy_heap(inst, z, Objective.MEDIAN, 0.0, stop_weight)
    assert len({w for _, w in shapes if w < 60}) >= 2
    assert any(w < 60 and rows == max(1, 64 // w) for rows, w in shapes)


@settings(max_examples=300, deadline=None)
@given(case=_jv_cases(), tau=st.sampled_from([None, 0.5, 1.5]))
def test_sorted_costs_match_stable_argsort(case, tau):
    """The table's order and costs are those of a stable argsort of every
    row, bit for bit, on integer-grid points with weighted duplicates,
    matrix-mode spaces with equal entries and multi-support demands, each
    also truncated at tau so that many costs tie at 0. The heap reference
    shares the table, so the JV properties cannot see a wrong sort."""
    inst, _, objective, tau0, _ = case
    tau = tau0 if tau is None else tau
    table = SortedCosts.build(inst, objective, tau)
    CT = inst.cost_matrix(objective, tau).T
    order = np.argsort(CT, axis=1, kind="stable")
    assert table.order.tobytes() == order.tobytes()
    assert table.costs.tobytes() == np.take_along_axis(CT, order, axis=1).tobytes()


@pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf")])
def test_bicriteria_config_rejects_epsilon(epsilon):
    with pytest.raises(InvalidParameterError):
        BicriteriaConfig(epsilon=epsilon)


def test_bicriteria_trials_cap_a_tiny_epsilon():
    """8 / epsilon overflows to inf below about 1e-308; the cap still holds."""
    assert BicriteriaConfig(epsilon=1e-320).trials == 200
    assert [BicriteriaConfig(epsilon=e).trials for e in (0.1, 1.0, 2.0)] == [200, 37, 19]


def test_jv_rejects_table_of_another_matrix():
    inst = random_instance(7, 8)
    table = SortedCosts.build(inst, Objective.MEANS)
    with pytest.raises(InvalidParameterError):
        jv_facility_location(inst, 3.0, Objective.MEDIAN, table=table)


@settings(max_examples=300, deadline=None)
@given(case=_jv_cases(), tau=st.sampled_from([None, 0.5, 1.5]), data=st.data())
def test_initial_opening_times_match_first_estimates(case, tau, data):
    """Each initial opening time is, bit for bit, the estimate of its
    candidate on its whole row with every demand active, the float
    operations of the event loop's first search, so the first candidate
    to open is their argmin (the premise of the one-center certificate).
    Costs include those at which a row's whole-row level sits just above or
    below its largest cost; a break of a drawn row (the cost at which its
    level reaches one of its costs), one ulp either side of it and 1e-12
    relative either side; and one below 1e-9. Each table is also truncated
    at tau, so that many costs tie at 0 and many breaks coincide."""
    inst, z, objective, tau0, _ = case
    tau = tau0 if tau is None else tau
    table = SortedCosts.build(inst, objective, tau)
    W = float(inst.total_weight)
    u = data.draw(st.integers(0, len(inst.candidates) - 1))
    edge = W * float(table.costs[u, -1]) - float(table.cum_wc[u, -1])
    zs = [z] + [edge * (1.0 + f) for f in (-1e-7, -1e-10, 0.0, 1e-10, 1e-7)]
    b = float(data.draw(st.sampled_from(table.costs[u] * table.cum_w[u] - table.cum_wc[u])))
    zs += [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), b * (1.0 - 1e-12),
           b * (1.0 + 1e-12), data.draw(st.floats(0.0, 1e-9, exclude_min=True))]
    for zv in (zv for zv in zs if zv > 0):
        times = table.initial_opening_times(zv)
        want = [solvers._opening_estimate(table.order[v], table.costs[v], inst.weights.copy(),
                                          zv, 0.0) for v in range(len(inst.candidates))]
        assert [float(x).hex() for x in times] == [float(x).hex() for x in want]


def _spreads(inst, objective, tau):
    """spread(u) = max over v of sum_j w_j (c_{j,u} - c_{j,v})+, for every
    candidate column u, one column pair at a time."""
    C = inst.cost_matrix(objective, tau)
    w = inst.weights
    m = C.shape[1]
    return [max(float(np.sum(w * np.maximum(C[:, u] - C[:, v], 0.0))) for v in range(m))
            for u in range(m)]


@settings(max_examples=300, deadline=None)
@given(case=_jv_cases(), data=st.data())
def test_one_center_certificate_holds(case, data):
    """Whenever ``keeps_one_center(z)`` holds, a probe at ``z`` opens the
    argmin of the initial opening times first and keeps at most that one
    center, at every stop weight from 0 to W - 1. The costs sit just above
    and just below each candidate's spread, and on the facility-cost
    search's top halvings. A verdict implies z > spread(u1); z well past
    spread(u1) gives one; and a probe after a failed verdict, which reads
    the opening times the verdict held, matches the heap reference."""
    inst, _, objective, tau, _ = case
    W = inst.total_weight
    cmax = float(inst.cost_matrix(objective, tau).max())
    spreads = _spreads(inst, objective, tau)
    zs = [s * f for s in set(spreads) for f in (1 - 1e-6, 1 - 1e-12, 1 + 1e-12, 1 + 1e-8, 1 + 1e-3)]
    zs += [(W * cmax + 1.0) * 2.0 ** -e for e in range(6)]
    zs = data.draw(st.lists(st.sampled_from(sorted({z for z in zs if z > 0} or {1.0})),
                            min_size=1, max_size=4))
    table = SortedCosts.build(inst, objective, tau)
    for z in zs:
        times = SortedCosts.build(inst, objective, tau).initial_opening_times(z)
        u1 = int(times.argmin())
        holds = table.keeps_one_center(z)
        assert table.keeps_one_center(z) == holds
        if holds:
            assert z > spreads[u1]
        elif z > (spreads[u1] + 8e-12 * W * (1.0 + times[u1] + cmax)) * (1.0 + 1e-8):
            pytest.fail(f"no verdict at z={z!r}, far past spread {spreads[u1]!r}")
        for stop_weight in data.draw(st.lists(st.integers(0, W - 1), min_size=1, max_size=3)):
            res = jv_facility_location(inst, z, objective, tau, stop_weight, table=table)
            if holds:
                assert len(res.centers) <= 1
                assert table.runs[z].opened[0] == u1
            else:
                slow = lazy_heap_jv_facility_location(inst, z, objective, tau, stop_weight)
                assert res.centers == slow.centers
                assert res.alpha.tobytes() == slow.alpha.tobytes()


_QUANTILES = [0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.98]


@st.composite
def _zero_heavy_cases(draw):
    """(instance, objective, tau) of a table whose truncation sends most
    costs to exactly 0, as at center-g's tau levels: uncertain nodes in up
    to three blobs 8 apart, each node's support up to 3 steps around its
    blob's center on the integer grid (points of different nodes may
    coincide), and one support point of each node as a candidate, as
    center-g's sites hold them; points whose duplicates merge
    into weights; and matrix-mode spaces of such points in which some pairs
    of distinct points sit at distance 0. tau is a quantile, from 10% to
    98%, of the untruncated median costs, so up to nearly every cost
    truncates to 0 and some candidates have no demand at cost 0."""
    shape = draw(st.sampled_from(["nodes", "points", "matrix"]))
    grid = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    if shape == "nodes":
        blobs = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                              min_size=1, max_size=3, unique_by=lambda b: b[:2])
                     .map(lambda bs: [b + (r,) for b, r in zip(bs, (1, 3, 0))]))
        coords, demands, cands = [], [], []
        for _ in range(draw(st.integers(8, 40))):
            bx, by, r = draw(st.sampled_from(blobs))
            cx, cy = 8 * bx, 8 * by
            steps = draw(st.lists(st.tuples(st.integers(-r, r), st.integers(-r, r)),
                                  min_size=1, max_size=3, unique=True))
            raw = draw(st.lists(st.integers(1, 4), min_size=len(steps), max_size=len(steps)))
            demands.append(Demand(tuple(range(len(coords), len(coords) + len(steps))),
                                  tuple(r / sum(raw) for r in raw), 0.0,
                                  draw(st.integers(1, 3))))
            cands.append(len(coords) + draw(st.integers(0, len(steps) - 1)))
            coords += [(cx + dx, cy + dy) for dx, dy in steps]
        inst = Instance(MetricSpace.euclidean(np.array(coords, dtype=float)), demands, cands)
        return inst, draw(st.sampled_from([Objective.MEDIAN, Objective.MEANS])), \
            _cost_quantile(inst, draw(st.sampled_from(_QUANTILES)))
    size = draw(st.integers(2, 40))
    pts = np.array(draw(st.lists(grid, min_size=size, max_size=size)), dtype=float)
    if shape == "points":
        inst = Instance.from_points(MetricSpace.euclidean(pts))
    else:
        D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        for a, b in draw(st.lists(st.tuples(st.integers(0, size - 1),
                                            st.integers(0, size - 1)), max_size=12)):
            if a != b:
                D[a, b] = D[b, a] = 0.0
        inst = Instance.from_points(MetricSpace.from_matrix(D))
    return inst, draw(st.sampled_from([Objective.MEDIAN, Objective.MEANS])), \
        _cost_quantile(inst, draw(st.sampled_from(_QUANTILES)))


def _cost_quantile(inst, q):
    return float(np.quantile(inst.cost_matrix(Objective.MEDIAN), q))


@settings(max_examples=300, deadline=None)
@given(case=_zero_heavy_cases(), k=st.integers(2, 5), data=st.data())
def test_many_center_certificate_holds(case, k, data):
    """Whenever ``keeps_fewer_than(k, z)`` holds, a probe at ``z`` keeps
    fewer than k centers, at every stop weight from 0 to W - 1. The costs
    run from far below the certificate's threshold 2 W 1e-12 (1 + cmax),
    where pruning's tolerance can pass the first opening level and clique
    members survive together, to the facility-cost search's top halvings.
    The verdict is cached: asked again, it is the same."""
    inst, objective, tau = case
    W = inst.total_weight
    cmax = float(inst.cost_matrix(objective, tau).max())
    threshold = 2e-12 * W * (1.0 + cmax)
    zs = [threshold * 2.0 ** e for e in range(-12, 4)] + [threshold * (1.0 + 1e-9)]
    zs += [(W * cmax + 1.0) * 2.0 ** -e for e in range(0, 40, 3)]
    table = SortedCosts.build(inst, objective, tau)
    for z in data.draw(st.lists(st.sampled_from(zs), min_size=1, max_size=4, unique=True)):
        holds = table.keeps_fewer_than(k, z)
        assert table.keeps_fewer_than(k, z) == holds
        if holds:
            for stop_weight in range(W):
                res = jv_facility_location(inst, z, objective, tau, stop_weight, table=table)
                assert len(res.centers) < k


def test_many_center_certificate_on_a_crafted_table():
    """Matrix mode: candidates 0, 1, 2 at distance 0 from each other and
    from their demands (one clique), candidate 4 at distance 1 from its only
    demand 5 (a clique of its own: no demand costs 0 there), and demand 3 at
    1000 from every candidate. The cover takes two cliques, so k = 2 gets
    no verdict, and its runs keep two centers from z = 1 on. k = 3 gets one
    above 2 W 1e-12 (1 + cmax), about 1e-8. Below it, at z = 3 * 2^-30,
    the clique's demands freeze at 2^-30, within pruning's tolerance
    1e-12 (1 + 1000) of their cost 0, and the run keeps all four."""
    D = np.full((6, 6), 1000.0)
    D[:3, :3] = 0.0
    D[4, 5] = D[5, 4] = 1.0
    np.fill_diagonal(D, 0.0)
    inst = Instance(MetricSpace.from_matrix(D), [Demand((j,), (1.0,)) for j in (0, 1, 2, 3, 5)],
                    [0, 1, 2, 4])
    table = SortedCosts.build(inst, Objective.MEDIAN)
    low = 3.0 * 2.0 ** -30
    assert jv_facility_location(inst, low, Objective.MEDIAN, table=table).centers == (0, 1, 2, 4)
    assert jv_facility_location(inst, 1.0, Objective.MEDIAN, table=table).centers == (0, 4)
    assert not table.keeps_fewer_than(3, low)
    assert not table.keeps_fewer_than(2, 1.0)
    assert table.keeps_fewer_than(3, 1.0)
    for z in (low, 1e-8, 1.0, 5e3):
        for k in (2, 3):
            if table.keeps_fewer_than(k, z):
                for stop_weight in range(inst.total_weight):
                    res = jv_facility_location(inst, z, Objective.MEDIAN, 0.0, stop_weight,
                                               table=table)
                    assert len(res.centers) < k


def _heap_paid_openings(key, est, theta, freezes):
    """The lazy heap's searches after an opening at ``theta`` that froze
    nothing, with the estimates ``est`` fixed until the next freeze: each
    answer at or below ``theta`` opens, up to the first that freezes. The
    search whose answer lies above ``theta`` belongs to the next step, so
    its stored keys are not kept."""
    opened = []
    while True:
        trial = key.copy()
        t, u = _heap_next_opening(trial, est)
        if u is None or t > theta:
            return opened
        key[:] = trial
        key[u] = np.inf
        opened.append(u)
        if freezes[u]:
            return opened


@pytest.mark.parametrize("batch", [1, 2, 32])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_paid_openings_match_heap_searches(batch, data):
    """Keys, estimates and theta from a few values, so that they tie and
    estimates fall within or just past a key's staleness tolerance: the
    same openings, in the same order, and the same stored keys as the
    heap's searches, with the opened candidates still unmarked."""
    m = data.draw(st.integers(1, 40))
    values = [0.0, 1.0, 1.0 + 1e-13, 2.0, 2.0 + 5e-12, 3.0, np.inf]
    key = np.array(data.draw(st.lists(st.sampled_from(values), min_size=m, max_size=m)))
    theta = data.draw(st.sampled_from([0.0, 1.0, 2.0, 2.0 + 5e-12]))
    bumps = st.one_of(st.sampled_from(values + [theta]),
                      st.sampled_from([0.0, -1e-13, 1e-12, 3e-12]).map(lambda d: ("rel", d)))
    est = np.empty(m)
    for u, b in enumerate(data.draw(st.lists(bumps, min_size=m, max_size=m))):
        est[u] = key[u] * (1.0 + b[1]) if isinstance(b, tuple) else max(b, key[u] - 1e-13)
    freezes = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    fast_key, slow_key = key.copy(), key.copy()

    def estimates(us):
        assert len(us) <= batch and (key[us] <= theta).all()
        return est[us]

    def reach(us):
        assert len(us) <= batch
        return freezes[us]

    fast = solvers._paid_openings(fast_key, theta, estimates, batch, reach)
    slow = _heap_paid_openings(slow_key, est, theta, freezes)
    assert fast.tolist() == slow
    fast_key[fast] = np.inf
    assert fast_key.tobytes() == slow_key.tobytes()


@pytest.mark.parametrize("entries", [None, 1, 64])
@settings(max_examples=150, deadline=None)
@given(case=_zero_heavy_cases(), data=st.data())
def test_jv_paid_openings_match_lazy_heap(entries, case, data):
    """On heavily truncated tables most openings are paid for by frozen
    demands, and a run opens them several in one step: the probe is the
    heap reference's bit for bit, also with a block budget of 1 or 64
    entries, which splits the estimates and the freeze checks of those
    steps into batches of one row or a few."""
    inst, objective, tau = case
    W = inst.total_weight
    z_hi = W * float(inst.cost_matrix(objective, tau).max()) + 1.0
    z = data.draw(st.one_of(st.integers(1, 30).map(lambda e: z_hi * 2.0 ** -e),
                            st.floats(0.0, z_hi)))
    stop_weight = data.draw(st.integers(0, W - 1))
    budget = solvers._BLOCK_ENTRIES if entries is None else entries
    with mock.patch.object(solvers, "_BLOCK_ENTRIES", budget):
        _assert_matches_lazy_heap(inst, z, objective, tau, stop_weight)


@pytest.mark.parametrize("seed,level", [(18, 10), (19, 14), (20, 12)])
def test_paid_openings_open_several_in_one_step(seed, level):
    """On a center-g site at a tau level that truncates about 30% of its
    costs to 0, runs down the facility-cost search's halvings open up to
    15 paid candidates after one opening, in one loop iteration, and each
    probe is the heap reference's bit for bit."""
    inst, tau = _burst_instance(("center-g", seed, level))
    z_hi = inst.total_weight * float(inst.cost_matrix(Objective.MEDIAN, tau).max()) + 1.0
    sizes = []
    real = solvers._paid_openings

    def spy(*args):
        paid = real(*args)
        sizes.append(len(paid))
        return paid

    with mock.patch.object(solvers, "_paid_openings", spy):
        for e in range(1, 40, 3):
            _assert_matches_lazy_heap(inst, z_hi * 2.0 ** -e, Objective.MEDIAN, tau, 4)
    assert max(sizes) >= 2


# ---------------------------------------------------------------------------
# bicriteria solver


@st.composite
def _search_cases(draw):
    """(instance, k, t, cfg, objective, tau) for one facility-cost search:
    the shapes of :func:`_jv_cases` and :func:`_zero_heavy_cases`, k from 1
    to 4 and t from 0 to W - 1, under both ``relax`` modes."""
    if draw(st.booleans()):
        inst, _, objective, tau, t = draw(_jv_cases())
    else:
        inst, objective, tau = draw(_zero_heavy_cases())
        t = draw(st.integers(0, inst.total_weight - 1))
    cfg = BicriteriaConfig(epsilon=draw(st.sampled_from([0.5, 1.0])),
                           relax=draw(st.sampled_from(["outliers", "centers"])))
    return inst, draw(st.integers(1, 4)), t, cfg, objective, tau


def _without_certificate(monkeypatch):
    """The search with every verdict of both certificates failed: it runs
    every probe."""
    monkeypatch.setattr(SortedCosts, "keeps_one_center", lambda self, z: False)
    monkeypatch.setattr(SortedCosts, "keeps_fewer_than", lambda self, k, z: False)


@settings(max_examples=200, deadline=None)
@given(case=_search_cases(), seed=st.integers(0, 3), data=st.data())
def test_bicriteria_same_without_certificate(case, seed, data):
    """Skipping the certified probes changes no solution: the search is
    that of running every probe, under both relax modes and at k = 1, where
    no verdict is read. Several budgets share one table, and its verdicts,
    as a site's q grid does."""
    inst, k, t, cfg, objective, tau = case
    ts = [t] + data.draw(st.lists(st.integers(0, inst.total_weight - 1), max_size=2))
    table = SortedCosts.build(inst, objective, tau)
    with_cert = [bicriteria_median(inst, k, q, cfg, objective, seed, tau, table=table)
                 for q in ts]
    with pytest.MonkeyPatch.context() as mp:
        _without_certificate(mp)
        assert [bicriteria_median(inst, k, q, cfg, objective, seed, tau) for q in ts] == with_cert


@pytest.mark.parametrize("relax,note", [("outliers", "rounded"), ("centers", "union")])
def test_bicriteria_runs_a_deferred_small_side(relax, note, monkeypatch):
    """Six points 1e-11 apart (matrix mode): the z = 0 run keeps four
    centers and every later cost is certified, so the search halves down to
    its stop with no run, then makes the run of its small side once, for
    K1. The answer is that of the search that runs every probe."""
    D = np.full((6, 6), 1e-11)
    np.fill_diagonal(D, 0.0)
    inst = Instance.from_points(MetricSpace.from_matrix(D))
    cfg = BicriteriaConfig(epsilon=1.0, relax=relax)
    probes = []
    jv = solvers.jv_facility_location

    def counted(instance, z, *args, **kwargs):
        res = jv(instance, z, *args, **kwargs)
        probes.append((z, len(res.centers)))
        return res

    monkeypatch.setattr(solvers, "jv_facility_location", counted)
    sol = bicriteria_median(inst, 3, 2, cfg, seed=5)
    assert sol.note == note
    (z0, c0), (z_small, c_small) = probes
    assert (z0, c0, c_small) == (0.0, 4, 1)
    assert 0.0 < z_small <= 1e-9
    probes.clear()
    _without_certificate(monkeypatch)
    assert bicriteria_median(inst, 3, 2, cfg, seed=5) == sol
    assert len(probes) > 30 and probes[-1][0] == z_small


def test_bicriteria_outlier_relax_respects_caps():
    for seed in range(20):
        inst = random_instance(200 + seed, 12)
        cfg = BicriteriaConfig(epsilon=1.0, relax="outliers")
        sol = bicriteria_median(inst, 2, 2, cfg, seed=seed)
        assert len(sol.centers) <= 2
        assert sol.total_excluded <= 4  # floor((1+eps) t)
        assert instance_cost(inst, sol, Objective.MEDIAN) == pytest.approx(sol.cost)


def test_bicriteria_center_relax_respects_caps():
    for seed in range(20):
        inst = random_instance(300 + seed, 12)
        cfg = BicriteriaConfig(epsilon=1.0, relax="centers")
        sol = bicriteria_median(inst, 2, 2, cfg, seed=seed)
        assert len(sol.centers) <= 4  # ceil((1+eps) k)
        assert sol.total_excluded == 2
        assert instance_cost(inst, sol, Objective.MEDIAN) == pytest.approx(sol.cost)


def test_bicriteria_randomized_rounding_pins(monkeypatch):
    """Integer-grid points (two of them coincide) whose facility-cost search
    ends in a bracket that the seeded lottery rounds: at most k centers and
    floor((1 + eps) t) excluded copies, the same solution for the same seed,
    and the bracket's K1 x K2 block evaluated and counted once however often
    the instance is solved."""
    pts = np.array([[2, 5], [5, 5], [2, 1], [2, 3], [0, 2], [2, 2], [4, 4],
                    [1, 0], [2, 1], [1, 2]], dtype=float)
    blocks = record_blocks(monkeypatch)
    inst = Instance.from_points(MetricSpace.euclidean(pts))
    cfg = BicriteriaConfig(epsilon=1.0, relax="outliers")
    sol = bicriteria_median(inst, 4, 4, cfg, seed=57)
    assert sol.note == "rounded"
    assert (sol.centers, sol.total_excluded, sol.cost) == ((2, 4), 8, 0.0)
    assert len(sol.centers) <= 4 and sol.total_excluded <= 8
    assert instance_cost(inst, sol, Objective.MEDIAN) == sol.cost
    assert bicriteria_median(inst, 4, 4, cfg, seed=57) == sol
    # the support x candidates block of the cost matrix, then K1 x K2
    assert [len(b.rows) for b in blocks] == [inst.n, 2]
    assert all(b.counter is inst.counter for b in blocks)
    assert inst.counter.count == sum(b.entries for b in blocks)


def test_bicriteria_cost_vs_oracle_spot():
    for seed in range(15):
        inst = random_instance(400 + seed, 12)
        cfg = BicriteriaConfig(epsilon=1.0, relax="outliers")
        sol = bicriteria_median(inst, 2, 1, cfg, seed=seed)
        opt = exact_oracle(inst, 2, 1, Objective.MEDIAN)
        assert sol.cost <= 6.0 * opt.cost + 1e-9


def test_bicriteria_zero_spread_instance():
    pts = np.zeros((6, 2))
    inst = Instance.from_points(MetricSpace.euclidean(pts), merge_duplicates=False)
    sol = bicriteria_median(inst, 2, 1, BicriteriaConfig(relax="outliers"))
    assert sol.cost == 0.0
    assert sol.total_excluded <= 2


def test_bicriteria_few_candidates_short_circuit():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    inst = Instance.from_points(MetricSpace.euclidean(pts))
    sol = bicriteria_median(inst, 3, 0, BicriteriaConfig())
    assert set(sol.centers) == {0, 1, 2}
    assert sol.cost == 0.0


def test_truncated_center_measures_looser_radius():
    """Duals grow against costs truncated at ``tau``; the answer is assigned
    and measured at ``report_tau``, the looser truncation its rounding pays
    for (9 tau when the outliers stretch, 3 tau when the centers do)."""
    inst = random_instance(7, 10)
    tau = 0.5
    sol = bicriteria_median(inst, 2, 1, BicriteriaConfig(epsilon=1.0, relax="outliers"),
                            tau=tau, report_tau=9 * tau)
    assert instance_cost(inst, sol, Objective.MEDIAN, tau=9 * tau) == pytest.approx(sol.cost)
    solc = bicriteria_median(inst, 2, 1, BicriteriaConfig(epsilon=1.0, relax="centers"),
                             tau=tau, report_tau=3 * tau)
    assert instance_cost(inst, solc, Objective.MEDIAN, tau=3 * tau) == pytest.approx(solc.cost)
    with pytest.raises(InvalidParameterError):
        bicriteria_median(inst, 2, 1, tau=-1.0)


# ---------------------------------------------------------------------------
# exhaustive oracle


def test_oracle_line_instance(line_space):
    inst = Instance.from_points(line_space)
    sol = exact_oracle(inst, 2, 1, Objective.MEDIAN)
    assert sol.cost == pytest.approx(1.0)
    assert sol.outliers == {3: 1}
    assert sol.centers == (0, 1)  # ties resolve to the smallest center tuple


def test_oracle_center_objective(line_space):
    inst = Instance.from_points(line_space)
    sol = exact_oracle(inst, 1, 1, Objective.CENTER)
    assert sol.cost == pytest.approx(1.0)
    assert sol.centers == (1,)


def test_oracle_with_budget_over_total_weight(line_space):
    """t at or above the total weight excludes every copy and keeps the
    lowest candidate as its lone center, at cost 0."""
    inst = Instance.from_points(line_space)
    for t in (inst.total_weight, inst.total_weight + 3):
        sol = exact_oracle(inst, 2, t, Objective.MEDIAN)
        assert sol.centers == (0,) and sol.assignment == {} and sol.cost == 0.0
        assert sol.outliers == {j: 1 for j in range(inst.n)}


def test_oracle_guard():
    inst = random_instance(8, 19)
    with pytest.raises(OracleSizeLimitError):
        exact_oracle(inst, 2, 1, Objective.MEDIAN)
    small = random_instance(9, 8)
    with pytest.raises(OracleSizeLimitError):
        exact_oracle(small, 5, 1, Objective.MEDIAN)


def test_oracle_never_beaten_by_heuristics():
    for seed in range(10):
        inst = random_instance(500 + seed, 11)
        opt = exact_oracle(inst, 2, 2, Objective.MEDIAN)
        cfg = BicriteriaConfig(epsilon=1.0, relax="centers")
        heur = bicriteria_median(inst, 2, 2, cfg, seed=seed)
        assert opt.cost <= heur.cost + 1e-9


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
    random_instance,
    random_points,
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
    assert inst.counter.count == (L - 1) * inst.n

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


@st.composite
def _kt_center_cases(draw):
    """(instance, k, t) in the shapes a coordinator sweeps: integer-grid
    points (tied costs) whose duplicates merge into weights, matrix-mode
    spaces with costs 1e-12 apart, and multi-support demands with collapse
    offsets; k up to past the candidate count, t anywhere in 0..W-1. On a
    "line" of integer points a pick change often makes the first feasible
    radius. The "large" shape, 20-60 random or integer-grid points with
    weighted duplicates and k up to 6, has hundreds of radii, so the sweep
    tests several blocks of them."""
    shape = draw(st.sampled_from(["grid", "line", "matrix", "support", "large"]))
    coords = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           min_size=1, max_size=14))
    pts = np.array(coords, dtype=float)
    n = len(coords)
    if shape == "line":
        xs = draw(st.lists(st.integers(0, 9), min_size=1, max_size=8))
        inst = Instance.from_points(MetricSpace.euclidean(np.array(xs, dtype=float)))
    elif shape == "large":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        size = draw(st.integers(20, 60))
        if draw(st.booleans()):
            pts = rng.integers(-6, 7, size=(size, 2)).astype(float)
        else:
            pts = rng.random((size, 2))
        dups = rng.integers(0, size, size=draw(st.integers(0, size)))
        inst = Instance.from_points(MetricSpace.euclidean(np.vstack([pts, pts[dups]])))
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
    k = draw(st.integers(1, 6 if shape == "large" else len(inst.candidates) + 2))
    t = draw(st.integers(0, inst.total_weight - 1))
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


# ---------------------------------------------------------------------------
# primal-dual facility location


def test_jv_zero_cost_opens_everything():
    inst = random_instance(3, 8)
    res = jv_facility_location(inst, 0.0, Objective.MEDIAN)
    assert len(res.centers) == 8  # free facilities: every demand self-serves


def test_jv_early_stop_leaves_exact_weight():
    inst = random_instance(4, 10)
    for t in (1, 2, 3):
        res = jv_facility_location(inst, 5.0, Objective.MEDIAN, stop_weight=t)
        assert res.certificate.unprocessed_weight == t
        assert all(c in inst.candidates for c in res.centers)


def test_jv_deterministic():
    inst = random_instance(5, 12)
    a = jv_facility_location(inst, 7.5, Objective.MEDIAN, stop_weight=2)
    b = jv_facility_location(inst, 7.5, Objective.MEDIAN, stop_weight=2)
    assert a.centers == b.centers
    assert np.array_equal(a.certificate.alpha, b.certificate.alpha)


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
    cert = res.certificate
    return (res.centers, res.temp_open,
            hashlib.sha256(cert.alpha.tobytes()).hexdigest()[:16],
            tuple(sorted(cert.unprocessed.items())), cert.stop_time.hex())


# Recorded from the per-probe implementation that re-sorted the cost matrix
# on every call; the shared sorted-cost table must reproduce it bit for bit.
_JV_GOLDEN = [
    (("weighted", 0.0, Objective.MEDIAN, 0.0, 0),
     ((0, 2, 3, 4, 5, 6, 7, 8, 12, 15, 20, 24), (0, 2, 3, 4, 5, 6, 7, 8, 12, 15, 20, 24),
      "2ea9ab9198d16380", (), "0x0.0p+0")),
    (("weighted", 6.0, Objective.MEDIAN, 0.0, 0),
     ((0, 15, 2, 3, 5, 7, 6, 8, 12, 4), (0, 15, 2, 3, 5, 7, 6, 8, 12, 4),
      "4b703a4706debc7a", (), "0x1.8000000000000p+2")),
    (("weighted", 6.0, Objective.MEDIAN, 0.0, 4),
     ((0, 15, 2, 3, 5, 7, 6, 8), (0, 15, 2, 3, 5, 7, 6, 8),
      "1631968cb982950c", ((3, 1), (8, 2), (11, 1)), "0x1.8000000000000p+1")),
    (("weighted", 25.0, Objective.MEDIAN, 0.0, 7),
     ((15, 0, 5), (15, 0, 5),
      "d0417f24c5d93971", ((3, 1), (6, 3), (8, 2), (11, 1)), "0x1.99463325dd684p+2")),
    (("support", 0.0, Objective.MEDIAN, 1.5, 2),
     (tuple(range(20)), tuple(range(20)),
      "a94c997feb8f90ba", ((1, 2),), "0x1.2806fb5be292cp+2")),
    (("support", 3.0, Objective.MEDIAN, 1.5, 0),
     ((8, 3, 1), (8, 3, 1, 2, 9, 13),
      "71002a19bb2a478c", (), "0x1.589a1fc25fc10p+2")),
    (("support", 3.0, Objective.MEDIAN, 1.5, 5),
     ((8, 3, 1), (8, 3, 1, 2, 9, 13),
      "0dd4150b0034feee", ((1, 2), (2, 2), (5, 1)), "0x1.aace3771b5282p+1")),
    (("support", 12.0, Objective.MEANS, 0.0, 3),
     ((8, 3, 9, 6, 15, 7), (8, 3, 9, 1, 6, 15, 19, 2, 7),
      "9b1406c401259471", ((1, 2), (2, 1)), "0x1.1e12b527ee53ap+5")),
    (("means", 0.0, Objective.MEANS, 0.0, 0),
     (tuple(range(16)), tuple(range(16)),
      "38723a2e5e8a17aa", (), "0x0.0p+0")),
    (("means", 20.0, Objective.MEANS, 0.0, 2),
     ((14, 8, 4, 0, 1), (14, 8, 9, 4, 10, 0, 6, 1),
      "33558d2215c52501", ((2, 1), (3, 1)), "0x1.08ce6d62d3695p+4")),
    (("means", 80.0, Objective.MEANS, 0.0, 0),
     ((14, 15), (14, 11, 15, 10, 1),
      "6ae4e6c023aa1609", (), "0x1.3208936335d5dp+5")),
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
     ((176, 167, 235, 288, 114), (176, 167, 235, 288, 114),
      "7d0853e735d69459", (), "0x1.3b19fd8ae8bedp+9")),
    ((1, Objective.MEANS, "0x1.1179d93afdd78p+9", 2),
     ((290, 171, 179, 227, 343), (290, 171, 179, 227, 343),
      "48f614de4774d870", ((373, 1), (374, 1)), "0x1.683f11c77fa36p+3")),
] + [
    # Recorded from the event loop at z = 0. Every site demand freezes at 0
    # on its own candidate, so the probe stops before the last candidates
    # open and alpha is all zeros.
    ((seed, objective, "0x0.0p+0", stop_weight),
     (tuple(range(375 - stop_weight)), tuple(range(375 - stop_weight)),
      "c81ca5eda5947c78", tuple((j, 1) for j in range(375 - stop_weight, 375)),
      "0x0.0p+0"))
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
      (2, 6, 7, 11, 14, 16, 18, 20, 22, 25, 30, 34, 35, 44, 49, 55, 57, 60, 61, 68,
       69, 70, 71, 72, 74, 76, 77, 79, 81, 85, 88, 90, 95, 96, 101, 105, 106, 110,
       111, 120, 126, 131, 147, 155, 160, 173, 176, 177, 186, 234, 236),
      "f85dd2296b1ec1a8", ((43, 1), (52, 1), (58, 1), (59, 1)), "0x1.a5efe4e4739a7p-4")),
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
    assert fast.temp_open == slow.temp_open
    assert fast.certificate.alpha.tobytes() == slow.certificate.alpha.tobytes()
    assert fast.certificate.unprocessed == slow.certificate.unprocessed
    assert fast.certificate.stop_time == slow.certificate.stop_time


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
            assert shared.temp_open == other.temp_open
            assert shared.certificate.alpha.tobytes() == other.certificate.alpha.tobytes()
            assert shared.certificate.unprocessed == other.certificate.unprocessed
            assert shared.certificate.stop_time == other.certificate.stop_time


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


def test_jv_rejects_table_of_another_matrix():
    inst = random_instance(7, 8)
    table = SortedCosts.build(inst, Objective.MEANS)
    with pytest.raises(InvalidParameterError):
        jv_facility_location(inst, 3.0, Objective.MEDIAN, table=table)


# ---------------------------------------------------------------------------
# bicriteria solver


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


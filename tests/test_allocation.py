"""Budget allocation: index sets, hulls, marginal pooling, the convex merge."""

from fractions import Fraction

import numpy as np
import pytest

from partialclust import (
    Instance,
    MetricSpace,
    Objective,
    allocate,
    bicriteria_median,
    exceptional_adjust,
    geometric_index_set,
    lower_hull,
    merge_two_solutions,
    site_budget_from_pivot,
)
from partialclust.errors import InvalidParameterError
from partialclust.solvers import BicriteriaConfig

from helpers import (
    dp_min_curve_sum,
    hull_value_exact,
    instance_cost,
    random_curve_points,
    random_points,
    solution_cost_exact,
)


# ---------------------------------------------------------------------------
# index sets


def test_geometric_index_set_rho2():
    # the grid starts at r = 1, so q = 1 only appears via the endpoints
    assert geometric_index_set(10, 2.0) == (0, 2, 4, 8, 10)
    assert geometric_index_set(0, 2.0) == (0,)
    assert geometric_index_set(1, 2.0) == (0, 1)
    assert geometric_index_set(8, 2.0) == (0, 2, 4, 8)


def test_geometric_index_set_fractional_rho():
    got = geometric_index_set(6, 1.5)
    # 1.5, 2.25, 3.375, 5.0625 floor to 1, 2, 3, 5
    assert got == (0, 1, 2, 3, 5, 6)


def test_geometric_index_set_size_is_logarithmic():
    vals = geometric_index_set(1000, 2.0)
    assert len(vals) <= 12
    assert vals[0] == 0 and vals[-1] == 1000


def test_geometric_index_set_rejects_bad_args():
    with pytest.raises(InvalidParameterError):
        geometric_index_set(-1, 2.0)
    with pytest.raises(InvalidParameterError):
        geometric_index_set(4, 1.0)


# ---------------------------------------------------------------------------
# lower hulls


def test_lower_hull_known_curve():
    curve = lower_hull(0, [(0, 8.0), (1, 4.0), (2, 6.0), (4, 2.0), (8, 0.0)])
    # (2, 6) is clamped to (2, 4) by monotonicity, then lies above the
    # segment (1,4)-(4,2) so it is not a vertex
    assert curve.hull_q == (0, 1, 4, 8)
    assert curve.value(2) == pytest.approx(10.0 / 3.0)
    assert curve.value(0) == 8.0
    assert curve.value(8) == 0.0


def test_lower_hull_validation():
    with pytest.raises(InvalidParameterError):
        lower_hull(0, [(1, 3.0), (2, 1.0)])  # no q = 0
    with pytest.raises(InvalidParameterError):
        lower_hull(0, [(0, 3.0), (0, 1.0)])
    with pytest.raises(InvalidParameterError):
        lower_hull(0, [(0, -3.0)])
    with pytest.raises(InvalidParameterError):
        lower_hull(0, [])


def test_lower_hull_clamps_rising_costs():
    curve = lower_hull(0, [(0, 5.0), (1, 7.0), (2, 1.0)])
    assert curve.value(1) <= 5.0
    m = curve.marginals()
    assert np.all(m >= 0)


def test_marginals_nonincreasing_random():
    rng = np.random.default_rng(7)
    for trial in range(200):
        t = int(rng.integers(1, 9))
        curve = lower_hull(0, random_curve_points(rng, t))
        m = curve.marginals()
        assert len(m) == curve.t
        assert np.all(np.diff(m) <= 1e-12)
        # value(q-1) - value(q) really is the marginal
        for q in range(1, curve.t + 1):
            assert curve.value(q - 1) - curve.value(q) == pytest.approx(m[q - 1])


def test_hull_vertices_at_or_around():
    curve = lower_hull(0, [(0, 8.0), (1, 4.0), (4, 2.0), (8, 0.0)])
    assert curve.vertex_at_or_above(2) == 4
    assert curve.vertex_at_or_above(4) == 4
    assert curve.vertex_at_or_below(3) == 1
    assert curve.vertex_at_or_below(0) == 0
    with pytest.raises(InvalidParameterError):
        curve.vertex_at_or_above(9)


def test_interpolation_matches_exact_rationals():
    rng = np.random.default_rng(11)
    for trial in range(100):
        t = int(rng.integers(1, 10))
        curve = lower_hull(0, random_curve_points(rng, t))
        for q in range(t + 1):
            assert curve.value(q) == pytest.approx(float(hull_value_exact(curve, q)), abs=1e-9)


# ---------------------------------------------------------------------------
# marginal pooling and allocation


def test_allocate_tie_order():
    """Value descending, then (site, q) ascending: the pivot walks the
    stable order (0,1,5) (1,1,5) (1,2,4) (0,2,3) as the rank grows."""
    margs = [np.array([5.0, 3.0]), np.array([5.0, 4.0])]
    walk = [(1, (0, 1, 5.0), (1, 0)), (2, (1, 1, 5.0), (1, 1)),
            (3, (1, 2, 4.0), (1, 2)), (4, (0, 2, 3.0), (2, 2))]
    for rank, pivot, budgets in walk:
        alloc = allocate(margs, t=1, rho=rank + 0.5)
        assert alloc.rank == rank
        assert (alloc.pivot_site, alloc.pivot_q, alloc.pivot_value) == pivot
        assert alloc.t_by_site == budgets


def test_allocate_counts_and_pivot():
    curves = [
        lower_hull(0, [(0, 10.0), (1, 4.0), (2, 0.0)]),
        lower_hull(1, [(0, 3.0), (1, 1.0), (2, 0.0)]),
    ]
    alloc = allocate([c.marginals() for c in curves], t=2, rho=2.0)
    assert alloc.rank == 4
    assert alloc.total == 4
    assert alloc.t_by_site == (2, 2)
    # lowest surviving marginal is site 1's second unit
    assert (alloc.pivot_site, alloc.pivot_q) == (1, 2)
    assert alloc.pivot_value == pytest.approx(1.0)


def test_allocate_zero_budget():
    curves = [lower_hull(0, [(0, 5.0), (3, 0.0)])]
    alloc = allocate([c.marginals() for c in curves], t=0, rho=2.0)
    assert alloc.t_by_site == (0,)
    assert alloc.pivot_site is None


def test_allocate_rank_capped_by_available_marginals():
    curves = [lower_hull(0, [(0, 5.0), (1, 0.0)])]
    alloc = allocate([c.marginals() for c in curves], t=3, rho=2.0)
    assert alloc.rank == 6
    assert alloc.total == 1  # only one marginal exists


def test_sites_reconstruct_budgets_from_pivot():
    """The budgets and pivot equal those of the first floor(rho * t) entries
    of a plain sort of (-value, site, q), and each site rebuilds its own
    budget from the pivot alone."""
    rng = np.random.default_rng(23)
    for trial in range(300):
        s = int(rng.integers(1, 5))
        t = int(rng.integers(1, 7))
        curves = [lower_hull(i, random_curve_points(rng, t)) for i in range(s)]
        margs = [c.marginals() for c in curves]
        alloc = allocate(margs, t, rho=2.0)
        ranked = sorted((-v, i, q) for i, m in enumerate(margs)
                        for q, v in enumerate(m.tolist(), start=1))[:alloc.rank]
        if not ranked:
            assert alloc.pivot_site is None
            continue
        assert alloc.t_by_site == tuple(sum(e[1] == i for e in ranked) for i in range(s))
        v, i, q = ranked[-1]
        assert (alloc.pivot_site, alloc.pivot_q, alloc.pivot_value) == (i, q, -v)
        rebuilt = tuple(
            site_budget_from_pivot(margs[i], i, alloc.pivot_site,
                                   alloc.pivot_q, alloc.pivot_value)
            for i in range(s))
        assert rebuilt == alloc.t_by_site


def test_nonpivot_budgets_land_on_hull_vertices():
    """Equal-value marginal runs enter or leave the prefix together, so every
    site except the pivot's ends up exactly at a vertex of its own hull."""
    rng = np.random.default_rng(31)
    for trial in range(300):
        s = int(rng.integers(2, 5))
        t = int(rng.integers(1, 7))
        curves = [lower_hull(i, random_curve_points(rng, t)) for i in range(s)]
        alloc = allocate([c.marginals() for c in curves], t, rho=2.0)
        for i, curve in enumerate(curves):
            if i == alloc.pivot_site:
                continue
            assert alloc.t_by_site[i] in curve.hull_q


def test_exceptional_adjust_moves_pivot_to_vertex():
    rng = np.random.default_rng(43)
    bumped = 0
    for trial in range(300):
        s = int(rng.integers(1, 5))
        t = int(rng.integers(1, 7))
        curves = [lower_hull(i, random_curve_points(rng, t)) for i in range(s)]
        alloc = allocate([c.marginals() for c in curves], t, rho=2.0)
        if alloc.pivot_site is None:
            continue
        adj = exceptional_adjust(alloc, curves[alloc.pivot_site])
        assert adj.t_by_site[adj.pivot_site] in curves[adj.pivot_site].hull_q
        assert adj.t_by_site[adj.pivot_site] >= alloc.pivot_q
        if adj.total > alloc.total:
            bumped += 1
        # rho = 2: adjusted total stays within 3t
        assert adj.total <= 3 * t
    assert bumped > 0  # the adjustment is exercised, not vacuous


def test_exceptional_adjust_without_pivot_returns_input():
    """A zero budget allocates nothing and names no pivot; there is nothing
    to adjust, whichever curve comes along."""
    curves = [lower_hull(i, [(0, 4.0), (1, 1.0), (2, 0.0)]) for i in range(2)]
    alloc = allocate([c.marginals() for c in curves], t=0, rho=2.0)
    assert alloc.pivot_site is None and alloc.t_by_site == (0, 0)
    assert exceptional_adjust(alloc, curves[1]) is alloc


def test_exceptional_adjust_rejects_foreign_curve():
    curves = [
        lower_hull(0, [(0, 10.0), (2, 0.0)]),
        lower_hull(1, [(0, 3.0), (2, 0.0)]),
    ]
    alloc = allocate([c.marginals() for c in curves], t=2, rho=2.0)
    wrong = curves[0] if alloc.pivot_site != 0 else curves[1]
    with pytest.raises(InvalidParameterError):
        exceptional_adjust(alloc, wrong)


def test_allocation_matches_exact_dp_spot():
    """Greedy-by-marginals equals the DP optimum on convex curves."""
    rng = np.random.default_rng(5)
    for trial in range(60):
        s = int(rng.integers(1, 5))
        t = int(rng.integers(1, 7))
        curves = [lower_hull(i, random_curve_points(rng, t)) for i in range(s)]
        alloc = allocate([c.marginals() for c in curves], t, rho=2.0)
        spent = min(alloc.rank, s * t)
        got = sum(hull_value_exact(c, q) for c, q in zip(curves, alloc.t_by_site))
        assert got == dp_min_curve_sum(curves, spent)


# ---------------------------------------------------------------------------
# convex merge


def _two_solutions(seed, n, k, t1, t2):
    pts = random_points(seed, n)
    inst = Instance.from_points(MetricSpace.euclidean(pts))
    cfg = BicriteriaConfig(epsilon=1.0, relax="centers")
    a = bicriteria_median(inst, k, t1, cfg, Objective.MEDIAN, seed=seed)
    b = bicriteria_median(inst, k, t2, cfg, Objective.MEDIAN, seed=seed + 1)
    return inst, a, b


def test_merge_interpolates_outlier_count():
    inst, a, b = _two_solutions(3, 16, 2, 1, 6)
    for target in range(1, 7):
        merged = merge_two_solutions(inst, a, b, target)
        assert merged.total_excluded == target


def test_merge_cost_within_convex_bound():
    rng = np.random.default_rng(17)
    for trial in range(40):
        n = int(rng.integers(10, 18))
        t2 = int(rng.integers(3, 7))
        inst, a, b = _two_solutions(100 + trial, n, 2, 1, t2)
        t1, t2 = a.total_excluded, b.total_excluded
        if t1 == t2:
            continue
        target = int(rng.integers(min(t1, t2), max(t1, t2) + 1))
        merged = merge_two_solutions(inst, a, b, target)
        theta = Fraction(target - min(t1, t2), abs(t2 - t1))
        lo, hi = (a, b) if t1 < t2 else (b, a)
        bound = (1 - theta) * solution_cost_exact(inst, lo, Objective.MEDIAN) \
            + theta * solution_cost_exact(inst, hi, Objective.MEDIAN)
        got = solution_cost_exact(inst, merged, Objective.MEDIAN)
        assert got <= bound
        # the reported float cost agrees with the exact recomputation
        assert merged.cost == pytest.approx(float(got), rel=1e-9)


@pytest.mark.parametrize("objective", [Objective.MEDIAN, Objective.MEANS],
                         ids=["median", "means"])
def test_merge_serves_union_cheapest(objective):
    """A merge strictly between the two outlier counts excludes exactly the
    target copies, keeps its centers within the union (at most 4k), serves
    every kept copy at a nearest union center, and excludes no copy that
    costs less than a served one (exact rationals). Rounded coordinates
    repeat points, so demands carry several copies."""
    rng = np.random.default_rng(1717)
    cfg = BicriteriaConfig(epsilon=1.0, relax="centers")
    k, merges = 2, 0
    for trial in range(60):
        pts = np.round(random_points(500 + trial, int(rng.integers(10, 18)), scale=4.0))
        inst = Instance.from_points(MetricSpace.euclidean(pts))
        a = bicriteria_median(inst, k, 1, cfg, objective, seed=trial)
        b = bicriteria_median(inst, k, int(rng.integers(3, 7)), cfg, objective,
                              seed=trial + 1)
        union = set(a.centers) | set(b.centers)
        M = inst.cost_matrix(objective)
        near = [min(Fraction(float(M[j, inst.candidate_column(c)])) for c in union)
                for j in range(inst.n)]
        lo, hi = sorted((a.total_excluded, b.total_excluded))
        for target in range(lo + 1, hi):
            merged = merge_two_solutions(inst, a, b, target, objective)
            assert merged.total_excluded == target
            assert set(merged.centers) <= union and len(merged.centers) <= 4 * k
            for j, ctr in merged.assignment.items():
                assert Fraction(float(M[j, inst.candidate_column(ctr)])) == near[j]
            served = max(near[j] for j in merged.assignment)
            assert all(near[j] >= served for j in merged.outliers)
            merges += 1
    assert merges >= 100


def test_merge_at_endpoint_returns_input():
    inst, a, b = _two_solutions(9, 14, 2, 2, 5)
    assert merge_two_solutions(inst, a, b, a.total_excluded) is a


def test_merge_takes_its_inputs_in_either_order():
    """Given the solution with more outliers first, the merge swaps them:
    every target gives the solution the ascending order gives, and each
    endpoint returns the input with that many outliers."""
    inst, a, b = _two_solutions(3, 16, 2, 1, 6)
    lo, hi = a.total_excluded, b.total_excluded
    assert lo < hi - 1
    assert merge_two_solutions(inst, b, a, lo) is a
    assert merge_two_solutions(inst, b, a, hi) is b
    for target in range(lo + 1, hi):
        assert merge_two_solutions(inst, b, a, target) == merge_two_solutions(
            inst, a, b, target)


def test_merge_rejects_target_outside_range():
    inst, a, b = _two_solutions(4, 14, 2, 1, 5)
    with pytest.raises(InvalidParameterError):
        merge_two_solutions(inst, a, b, 7)


def test_merged_solution_is_consistent():
    inst, a, b = _two_solutions(21, 15, 2, 1, 5)
    merged = merge_two_solutions(inst, a, b, 3)
    # instance_cost validates budgets and assignments while recomputing
    assert instance_cost(inst, merged, Objective.MEDIAN) == pytest.approx(merged.cost)
    assert merged.note == "merged"

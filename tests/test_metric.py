import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partialclust import (
    ClusteringSolution,
    Demand,
    EvalCounter,
    Instance,
    MetricSpace,
    Objective,
    extremes,
)
from partialclust.errors import (
    DegenerateInstanceError,
    InvalidParameterError,
    InvalidPointError,
)

from helpers import (
    InconsistentSolutionError,
    dedupe_demands,
    instance_cost,
    random_points,
    solution_cost,
)


def test_objective_powers_and_sums():
    assert Objective.MEDIAN.power == 1
    assert Objective.MEANS.power == 2
    assert Objective.CENTER.power == 1


def test_objective_from_string():
    assert Objective.from_string("median") is Objective.MEDIAN
    assert Objective.from_string("means") is Objective.MEANS
    assert Objective.from_string("center") is Objective.CENTER
    with pytest.raises(InvalidParameterError):
        Objective.from_string("center-pp")


def test_euclidean_distances_match_numpy():
    pts = random_points(1, 12, dim=3)
    space = MetricSpace.euclidean(pts)
    for u in range(12):
        for v in range(12):
            assert space.distance(u, v) == pytest.approx(
                np.linalg.norm(pts[u] - pts[v]), abs=1e-12)
    assert space.word_width == 3
    assert space.n == 12


def test_block_matches_pairwise(square_space):
    rows, cols = [0, 2, 4], [1, 3]
    blk = square_space.block(rows, cols)
    for a, u in enumerate(rows):
        for b, v in enumerate(cols):
            assert blk[a, b] == pytest.approx(square_space.distance(u, v))


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 9), scale=st.sampled_from([1.0, 1e150, 1e-300, 0.0]),
       data=st.data())
def test_block_matches_broadcast_sum(d, scale, data):
    """The block is, bit for bit, the square root of the summed squared
    differences over an n x m x d broadcast: random, huge (near the
    overflow guard), tiny (subnormal) and all-zero coordinates, with
    -0.0 among them, and rows and columns that repeat or are empty."""
    n = data.draw(st.integers(1, 12))
    coords = np.array(data.draw(st.lists(
        st.lists(st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, 1.0])),
                 min_size=d, max_size=d), min_size=n, max_size=n))) * scale
    space = MetricSpace.euclidean(coords)
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=10)), dtype=int)
    cols = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=10)), dtype=int)
    diff = coords[rows][:, None, :] - coords[cols][None, :, :]
    want = np.sqrt((diff * diff).sum(axis=2))
    assert space.block(rows, cols).tobytes() == want.tobytes()


def test_matrix_space_roundtrip_and_width():
    pts = random_points(2, 6)
    eu = MetricSpace.euclidean(pts)
    M = np.array([[eu.distance(i, j) for j in range(6)] for i in range(6)])
    sp = MetricSpace.from_matrix(M)
    assert sp.word_width == 1
    assert sp.distance(1, 4) == eu.distance(1, 4)


def test_matrix_space_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        MetricSpace.from_matrix(np.ones((2, 3)))
    M = np.zeros((3, 3))
    M[0, 1], M[1, 0] = 1.0, 2.0
    with pytest.raises(InvalidParameterError):
        MetricSpace.from_matrix(M)
    N = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(InvalidParameterError):
        MetricSpace.from_matrix(N)


def test_euclidean_rejects_coordinates_whose_distances_overflow():
    with pytest.raises(InvalidPointError):
        MetricSpace.euclidean([[1e154, 0.0], [-1e154, 0.0], [0.0, 1e154]])
    # the bound shrinks with the dimension: 4 max|c|^2 d must stay finite
    with pytest.raises(InvalidPointError):
        MetricSpace.euclidean(np.full((2, 16), 2e153) * [[1.0], [-1.0]])
    space = MetricSpace.euclidean([[4e153, 0.0], [-4e153, 0.0], [0.0, 4e153]])
    assert np.isfinite(space.block([0, 1, 2], [0, 1, 2])).all()


def test_point_index_bounds(square_space):
    with pytest.raises(InvalidPointError):
        square_space.distance(0, 5)
    with pytest.raises(InvalidPointError):
        square_space.distance(-1, 0)


def test_extremes(square_space):
    d_min, d_max, spread = extremes(square_space)
    assert d_min == pytest.approx(1.0)
    assert d_max == pytest.approx(np.sqrt(50.0**2 + 1.0))
    assert spread == pytest.approx(d_max / d_min)


def test_extremes_rejects_duplicates():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(DegenerateInstanceError):
        extremes(MetricSpace.euclidean(pts))


def test_demand_validation():
    with pytest.raises(InvalidParameterError):
        Demand((), ())
    with pytest.raises(InvalidParameterError):
        Demand((0,), (0.5,))
    with pytest.raises(InvalidParameterError):
        Demand((0, 1), (0.5, 0.5), weight=0)
    with pytest.raises(InvalidParameterError):
        Demand((0,), (1.0,), collapse=-1.0)
    d = Demand((3, 4), (0.25, 0.75), collapse=2.0, weight=2)
    assert d.anchor == 3


def test_dedupe_merges_coincident_points():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    space = MetricSpace.euclidean(pts)
    demands = Instance.from_points(space, range(5)).demands
    assert [d.anchor for d in demands] == [0, 1, 4]
    assert [d.weight for d in demands] == [2, 2, 1]
    assert demands[0].tag == (0, 2)
    assert demands[1].tag == (1, 3)


@st.composite
def _spaces_with_duplicates(draw):
    """A euclidean or matrix space whose points repeat, with -0.0 among the
    coordinates (or matrix zeros), and a subset of its points."""
    dim = draw(st.integers(1, 3))
    pool = draw(st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 7.0]),
                                  min_size=dim, max_size=dim),
                         min_size=1, max_size=6))
    pts = np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40)))
    space = MetricSpace.euclidean(pts)
    if draw(st.booleans()):
        diff = pts[:, None, :] - pts[None, :, :]
        D = np.sqrt((diff * diff).sum(axis=2))
        D[D == 0.0] = draw(st.sampled_from([0.0, -0.0]))
        space = MetricSpace.from_matrix(D)
    keep = draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)))
    idx = [i for i, k in enumerate(keep) if k] or [0]
    return space, draw(st.permutations(idx))


@settings(max_examples=200, deadline=None)
@given(case=_spaces_with_duplicates())
def test_from_points_groups_as_the_dict_reference(case):
    """One np.unique grouping gives the demands, anchors, weights and tags
    of the dict-based reference, with -0.0 folded into 0.0."""
    space, idx = case
    inst = Instance.from_points(space, idx)
    ref = dedupe_demands(space, sorted(idx))
    assert inst.demands == tuple(ref)
    assert inst.anchors.tolist() == [d.anchor for d in ref]
    assert inst.counts.tolist() == [d.weight for d in ref]
    assert inst.candidates.tolist() == sorted(d.anchor for d in ref)
    # a subset reads the same arrays
    sub = inst.subset(range(inst.n - 1, -1, -2))
    assert sub.demands == tuple(ref[inst.n - 1::-2])


def test_instance_per_demand_data_is_read_only(square_space):
    inst = Instance(square_space, [Demand((0,), (1.0,), weight=2), Demand((3,), (1.0,))],
                    [0, 3])
    assert inst.weights.tolist() == [2.0, 1.0]
    assert inst.total_weight == 3
    with pytest.raises(ValueError):
        inst.weights[0] = 5.0
    with pytest.raises(TypeError):
        inst.demands[0] = Demand((1,), (1.0,))


def test_instance_counts_distance_evaluations(square_space):
    counter = EvalCounter()
    inst = Instance.from_points(square_space, counter=counter)
    assert counter.count == 0
    inst.cost_matrix(Objective.MEDIAN)
    first = counter.count
    assert first == inst.n * len(inst.candidates)
    # cached: asking again is free
    inst.cost_matrix(Objective.MEDIAN)
    assert counter.count == first
    inst.cost_matrix(Objective.MEANS)
    assert counter.count == 2 * first


def test_eval_counter_forget_drops_kept_blocks(square_space):
    """A kept block is handed back without a count; once forgotten, it is
    evaluated and counted again, and the tally stays."""
    counter = EvalCounter()
    first = counter.block(square_space, [0, 1], [2, 3, 4])
    assert counter.block(square_space, [0, 1], [2, 3, 4]) is first
    assert counter.count == 6
    counter.forget()
    assert counter.count == 6
    again = counter.block(square_space, [0, 1], [2, 3, 4])
    assert again is not first and np.array_equal(again, first)
    assert counter.count == 12


def test_cost_matrix_values_with_collapse(square_space):
    d = Demand((0, 1), (0.5, 0.5), collapse=3.0)
    inst = Instance(square_space, (d,), (0, 4))
    M1 = inst.cost_matrix(Objective.MEDIAN)
    expect = 3.0 + 0.5 * square_space.distance(0, 4) + 0.5 * square_space.distance(1, 4)
    assert M1[0, 1] == pytest.approx(expect)
    M2 = inst.cost_matrix(Objective.MEANS)
    expect2 = 3.0 + 0.5 * square_space.distance(0, 4) ** 2 + 0.5 * square_space.distance(1, 4) ** 2
    assert M2[0, 1] == pytest.approx(expect2)


def test_cost_matrix_truncation(square_space):
    inst = Instance.from_points(square_space)
    tau = 2.0
    M = inst.cost_matrix(Objective.MEDIAN, tau)
    for j in range(inst.n):
        for c in range(len(inst.candidates)):
            d = square_space.distance(inst.demands[j].anchor, inst.candidates[c])
            assert M[j, c] == pytest.approx(max(d - tau, 0.0))


def test_pair_matrix_symmetric_zero_diagonal(square_instance):
    P = square_instance.pair_matrix()
    assert np.allclose(P, P.T)
    assert np.all(np.diag(P) == 0.0)


def test_subset_shares_counter(square_space):
    counter = EvalCounter()
    inst = Instance.from_points(square_space, counter=counter)
    sub = inst.subset([0, 1, 2])
    sub.cost_matrix(Objective.MEDIAN)
    assert counter.count > 0
    assert sub.counter is inst.counter


def test_instance_cost_recomputes_and_validates(square_space):
    inst = Instance.from_points(square_space)
    sol = ClusteringSolution(
        centers=(0,), outliers={4: 1},
        assignment={0: 0, 1: 0, 2: 0, 3: 0}, cost=0.0)
    got = instance_cost(inst, sol, Objective.MEDIAN)
    expect = sum(square_space.distance(j, 0) for j in range(4))
    assert got == pytest.approx(expect)
    bad = ClusteringSolution(centers=(0,), outliers={}, assignment={0: 0}, cost=0.0)
    with pytest.raises(InconsistentSolutionError):
        instance_cost(inst, bad, Objective.MEDIAN)


def test_solution_cost_center_takes_max(square_space):
    sol = ClusteringSolution(
        centers=(0,), outliers={4: 1},
        assignment={0: 0, 1: 0, 2: 0, 3: 0}, cost=0.0)
    got = solution_cost(square_space, sol, Objective.CENTER)
    assert got == pytest.approx(square_space.distance(3, 0))


def test_total_excluded_property():
    sol = ClusteringSolution(centers=(0,), outliers={1: 2, 5: 1}, assignment={}, cost=0.0)
    assert sol.total_excluded == 3
    assert sol.excluded_copies(1) == 2
    assert sol.excluded_copies(9) == 0

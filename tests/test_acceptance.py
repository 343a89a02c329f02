"""Acceptance gate: ten end-to-end properties at their stated tolerances.

Each test prints a single verdict line (kept visible outside capture) and
then asserts it, so a plain ``pytest`` run shows one pass/fail line per
criterion. Sample sizes, constants, and time budgets live inline next to
the checks they govern.
"""

import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from partialclust import (
    BicriteriaConfig,
    ClusteringSolution,
    Instance,
    MetricSpace,
    NodePartition,
    Objective,
    Partition,
    allocate,
    bicriteria_median,
    build_compressed_graph,
    eval_center_g_objective,
    exact_oracle,
    gonzalez_order,
    lower_hull,
    merge_two_solutions,
    node_universe_cost,
    run_center_g,
    run_kt_center,
    run_kt_median,
    run_kt_median_clustering_only,
    run_one_round,
    run_uncertain,
    subquadratic_solve,
)
from partialclust.cli import gen_planted, gen_uncertain_planted, main
from partialclust.io import write_nodes_jsonl, write_points_jsonl

from helpers import (
    dp_min_curve_sum,
    exact_uncertain_optimum,
    hull_value_exact,
    min_split_sum,
    random_curve_points,
    random_instance,
    random_points,
    random_uncertain_nodes,
    solution_cost_exact,
)


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_allocation_is_optimal(capsys):
    """Greedy-by-marginals equals the exact DP optimum on every curve set."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    sets, exact = 0, True
    for trial in range(520):
        s = int(rng.integers(1, 5))
        t = int(rng.integers(1, 7))
        rho = 2.0 if trial % 2 == 0 else 1.25
        curves = [lower_hull(i, random_curve_points(rng, t)) for i in range(s)]
        alloc = allocate([c.marginals() for c in curves], t, rho=rho)
        spent = min(alloc.rank, s * t)
        got = sum(hull_value_exact(c, q) for c, q in zip(curves, alloc.t_by_site))
        if got != dp_min_curve_sum(curves, spent):
            exact = False
            break
        sets += 1
    elapsed = time.perf_counter() - start
    ok = exact and sets >= 500 and elapsed < 10.0
    _verdict(capsys, 1, "allocation equals DP optimum", ok,
             f"{sets} curve sets exact, {elapsed:.1f}s < 10s")


def test_criterion_02_budget_bounds(capsys):
    """Site budgets: sum <= 3t at rho=2, sum <= 1.25t clustering-only."""
    rng = np.random.default_rng(202)
    runs, ok = 0, True
    for trial in range(200):
        s = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        t = int(rng.integers(1, 7))
        n = int(rng.integers(s * (t + 2 * k + 2), 64))
        space = MetricSpace.euclidean(random_points(20000 + trial, n))
        part = Partition.round_robin(space, s)
        rep = run_kt_median(part, k, t, rho=2.0, seed=trial)
        if sum(rep.budgets) > 3 * t:
            ok = False
        rep = run_kt_median_clustering_only(part, k, t, delta=0.25, seed=trial)
        if sum(rep.budgets) > 1.25 * t + 1e-12:
            ok = False
        runs += 1
    _verdict(capsys, 2, "site budget bounds", ok,
             f"{runs} runs each: sum t_i <= 3t (rho=2) and <= 1.25t (delta=0.25)")


def test_criterion_03_bicriteria_quality(capsys):
    """<= 2t excluded; cost <= 6x oracle (median) / 24x (means) at eps=1."""
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    cfg = BicriteriaConfig(epsilon=1.0, relax="outliers")
    checked, ok = 0, True
    worst = {Objective.MEDIAN: 0.0, Objective.MEANS: 0.0}
    factor = {Objective.MEDIAN: 6.0, Objective.MEANS: 24.0}
    for trial in range(300):
        n = int(rng.integers(8, 15))
        k = int(rng.integers(1, 4))
        t = int(rng.integers(1, 4))
        inst = random_instance(30000 + trial, n)
        for objective in (Objective.MEDIAN, Objective.MEANS):
            sol = bicriteria_median(inst, k, t, cfg, objective, seed=trial)
            opt = exact_oracle(inst, k, t, objective)
            if sol.total_excluded > 2 * t:
                ok = False
            if sol.cost > factor[objective] * opt.cost + 1e-9:
                ok = False
            if opt.cost > 0:
                worst[objective] = max(worst[objective], sol.cost / opt.cost)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and checked >= 300 and elapsed < 60.0
    _verdict(capsys, 3, "bicriteria quality", ok,
             f"{checked} instances, worst median {worst[Objective.MEDIAN]:.2f}x"
             f" <= 6x, worst means {worst[Objective.MEANS]:.2f}x <= 24x,"
             f" {elapsed:.1f}s < 60s")


def test_criterion_04_merge_bound(capsys):
    """Merged cost <= (1-theta) f(t1) + theta f(t2), outliers == target."""
    rng = np.random.default_rng(404)
    cfg = BicriteriaConfig(epsilon=1.0, relax="centers")
    merges, ok = 0, True
    trial = 0
    while merges < 200 and trial < 400:
        trial += 1
        n = int(rng.integers(10, 18))
        t2 = int(rng.integers(2, 7))
        inst = random_instance(40000 + trial, n)
        a = bicriteria_median(inst, 2, 1, cfg, Objective.MEDIAN, seed=trial)
        b = bicriteria_median(inst, 2, t2, cfg, Objective.MEDIAN, seed=trial + 1)
        t1e, t2e = a.total_excluded, b.total_excluded
        if t1e == t2e:
            continue
        target = int(rng.integers(min(t1e, t2e), max(t1e, t2e) + 1))
        merged = merge_two_solutions(inst, a, b, target)
        if merged.total_excluded != target:
            ok = False
        theta = Fraction(target - min(t1e, t2e), abs(t2e - t1e))
        lo, hi = (a, b) if t1e < t2e else (b, a)
        bound = ((1 - theta) * solution_cost_exact(inst, lo, Objective.MEDIAN)
                 + theta * solution_cost_exact(inst, hi, Objective.MEDIAN))
        if solution_cost_exact(inst, merged, Objective.MEDIAN) > bound:
            ok = False
        merges += 1
    ok = ok and merges >= 200
    _verdict(capsys, 4, "convex merge bound", ok,
             f"{merges} merges, exact-rational bound and exact outlier count")


def test_criterion_05_center_pipeline(capsys):
    """2 rounds; end-to-end <= 9x oracle; Gonzalez prefix <= 2x exact."""
    rng = np.random.default_rng(505)
    ok = True
    worst_e2e = 0.0
    for seed in range(20):
        n = int(rng.integers(10, 15))
        k = int(rng.integers(2, 4))
        t = int(rng.integers(1, 3))
        space = MetricSpace.euclidean(random_points(50000 + seed, n))
        part = Partition.round_robin(space, 2)
        rep = run_kt_center(part, k, t)
        if rep.rounds != 2:
            ok = False
        opt = exact_oracle(Instance.from_points(space), k, t, Objective.CENTER)
        if rep.solution.cost > 9.0 * opt.cost + 1e-9:
            ok = False
        if opt.cost > 0:
            worst_e2e = max(worst_e2e, rep.solution.cost / opt.cost)
    prefix_checks = 0
    for seed in range(30):
        n = int(rng.integers(7, 11))
        inst = random_instance(55000 + seed, n)
        gorder = gonzalez_order(inst)
        D = inst.pair_matrix()
        for r in range(1, 7):
            if r >= n:
                break
            prefix_cost = gorder.radii[r - 1]
            opt_r = min(
                float(D[:, list(c)].min(axis=1).max())
                for c in combinations(range(n), r)
            )
            if prefix_cost > 2.0 * opt_r + 1e-12:
                ok = False
            prefix_checks += 1
    _verdict(capsys, 5, "center pipeline", ok,
             f"20 runs at 2 rounds, worst end-to-end {worst_e2e:.2f}x <= 9x,"
             f" {prefix_checks} exhaustive prefix checks <= 2x")


def test_criterion_06_word_accounting(capsys):
    """Ledger matches closed forms; cross-term appears only one-round.

    The closed forms count the paper's messages: round 1 sends each site's
    hull as a (q, cost) pair per vertex, or its t insertion radii, and
    broadcasts the pivot (site, index, value), with tau-hat added under
    center-g; round 2 sends a center as a point and its count, and an
    outlier as a point (plus its collapse offset for a tentacle). They are
    checked in points mode and in matrix mode, where a point is one word.
    """
    pts = gen_planted(320, 2, 8, seed=6)
    space = MetricSpace.euclidean(pts)
    mspace = MetricSpace.from_matrix(np.linalg.norm(pts[:, None] - pts[None, :], axis=2))
    B = space.word_width
    assert mspace.word_width == 1
    k = 2
    grid = [(s, t) for s in (2, 4, 8) for t in (8, 16, 32)]
    failed = []

    def check(name, got, want):
        if got != want:
            failed.append(f"{name}: {got} != {want}")

    def curve_round(name, rep, s):
        """Each site's own cost-curve message, then the whole round 1."""
        sent = [(m.site, m.words) for m in rep.ledger.messages
                if m.kind == "cost-curve"]
        check(f"{name} cost-curve", sent,
              [(i, 2 * c.n_vertices) for i, c in enumerate(rep.curves)])
        round1 = sum(2 * c.n_vertices for c in rep.curves) + 3 * s
        check(f"{name} round 1", rep.ledger.words(round_no=1), round1)
        return round1

    def median_and_one_round(space, s, t):
        width = space.word_width
        part = Partition.round_robin(space, s)
        rep = run_kt_median(part, k, t, seed=1)
        round1 = curve_round("kt-median", rep, s)
        round2 = sum(2 * k * (width + 1) + ti * width for ti in rep.budgets)
        check("kt-median round 2", rep.ledger.words(round_no=2), round2)
        check("kt-median total", rep.ledger.total_words, round1 + round2)
        one = run_one_round(part, k, t, seed=1)
        check("one-round", one.ledger.total_words, s * (2 * k * (width + 1) + t * width))
        return rep.ledger.total_words, one.ledger.total_words

    def center(space, s, t):
        width = space.word_width
        cen = run_kt_center(Partition.round_robin(space, s), k, t)
        check("kt-center round 1", cen.ledger.words(round_no=1), s * t + 3 * s)
        check("kt-center round 2", cen.ledger.words(round_no=2),
              sum((k + ti) * (width + 1) for ti in cen.budgets))

    med_total, one_total = {}, {}
    for s, t in grid:
        med_total[(s, t)], one_total[(s, t)] = median_and_one_round(space, s, t)
    for s, t in ((2, 8), (4, 16)):
        median_and_one_round(mspace, s, t)
        center(mspace, s, t)
    center(space, 4, 8)
    for sp in (space, mspace):
        co = run_kt_median_clustering_only(Partition.round_robin(sp, 4), k, 8, seed=1)
        curve_round("kt-median-co", co, 4)

    universe, nodes = gen_uncertain_planted(20, 2, 2, seed=2)
    uspace = MetricSpace.euclidean(universe)
    npart = NodePartition.round_robin(uspace, nodes, 3)
    unc = run_uncertain(npart, k, 2, seed=1)
    check("uncertain-median pivot", unc.ledger.words(kind="pivot"), 3 * 3)
    check("uncertain-median round 2", unc.ledger.words(round_no=2),
          sum(2 * k * (B + 1) + ti * (B + 1) for ti in unc.budgets))
    pp = run_uncertain(npart, k, 2, objective="center-pp")
    check("uncertain-center-pp round 1", pp.ledger.words(round_no=1), 3 * 2 + 3 * 3)
    cg = run_center_g(npart, k, 2)
    check("center-g pivot", cg.ledger.words(kind="pivot"), 4 * 3)

    def cross_term(totals):
        A = np.array([[1.0, s, t, s * t] for s, t in grid])
        y = np.array([float(totals[key]) for key in grid])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        return coef[3]

    d_med = cross_term(med_total)
    d_one = cross_term(one_total)
    regression_ok = abs(d_med) < 0.25 * B and abs(d_one - B) < 1e-6
    ok = not failed and regression_ok
    _verdict(capsys, 6, "communication accounting", ok,
             f"closed forms exact on {len(grid)} median/one-round runs"
             f" + matrix mode + center, clustering-only, uncertain and"
             f" center-g; s*t coefficient {d_med:.3f} (median)"
             f" vs {d_one:.3f} == B={B} (one-round)"
             + "".join(f"; {f}" for f in failed))


def test_criterion_07_compression_factors(capsys):
    """Mapped-back <= 2x graph cost; graph oracle <= 5x universe oracle."""
    rng = np.random.default_rng(707)
    ok = True
    for seed in range(25):
        space, nodes = random_uncertain_nodes(70000 + seed, n_nodes=14,
                                              universe_size=20)
        npart = NodePartition.round_robin(space, nodes, int(rng.integers(2, 4)))
        rep = run_uncertain(npart, 2, 2, objective="median", seed=seed)
        ex = rep.extras
        if ex["mapping_factor"] != 2.0:
            ok = False
        if ex["universe_cost"] > 2.0 * ex["graph_cost"] + 1e-9:
            ok = False
    oracle_pairs = 0
    worst = 0.0
    for seed in range(60):
        n_nodes = int(rng.integers(4, 9))
        space, nodes = random_uncertain_nodes(76000 + seed, n_nodes=n_nodes,
                                              universe_size=int(rng.integers(6, 10)),
                                              max_support=3)
        k = int(rng.integers(1, 3))
        t = int(rng.integers(0, min(3, n_nodes)))
        ginst = Instance(space, build_compressed_graph(space, nodes),
                         list(range(space.n)))
        gopt = exact_oracle(ginst, k, t, Objective.MEDIAN)
        uopt, _, _ = exact_uncertain_optimum(space, nodes, k, t, "median")
        if gopt.cost > 5.0 * uopt + 1e-9:
            ok = False
        if uopt > 0:
            worst = max(worst, gopt.cost / uopt)
        oracle_pairs += 1
    _verdict(capsys, 7, "uncertain compression factors", ok,
             f"25 runs mapped-back <= 2x, {oracle_pairs} oracle pairs"
             f" worst {worst:.2f}x <= 5x")


def test_criterion_08_center_g(capsys):
    """tau-hat exists with its stopping rule; exhaustive lower bound; MC."""
    rng = np.random.default_rng(808)
    ok = True
    for seed in range(25):
        space, nodes = random_uncertain_nodes(80000 + seed, n_nodes=12,
                                              universe_size=18)
        npart = NodePartition.round_robin(space, nodes, 2)
        rep = run_center_g(npart, 2, 2)
        ex = rep.extras
        i = ex["tau_hat_index"]
        grid, sums = ex["tau_grid"], ex["tau_sums"]
        if ex["tau_hat"] != grid[i]:
            ok = False
        if sums[i] > 12.0 * grid[i] + 1e-9:
            ok = False
        if any(sums[j] <= 12.0 * grid[j] - 1e-12 for j in range(i)):
            ok = False
    cond2 = 0
    for seed in range(40):
        if cond2 >= 20:
            break
        n_nodes = int(rng.integers(5, 9))
        space, nodes = random_uncertain_nodes(86000 + seed, n_nodes=n_nodes,
                                              universe_size=8, max_support=3)
        k = int(rng.integers(1, 3))
        t = int(rng.integers(1, 3))
        npart = NodePartition.round_robin(space, nodes, 2)
        rep = run_center_g(npart, k, t)
        ex = rep.extras
        if ex["tau_hat_index"] == 0:
            # the grid minimum was never rejected; the lower bound has no
            # predecessor to lean on
            continue
        tau_hat = ex["tau_hat"]
        vectors = []
        for site in npart.sites:
            site_nodes = [npart.nodes[j] for j in site]
            vectors.append([
                exact_uncertain_optimum(space, site_nodes, k, q, "center",
                                        tau=2.0 * tau_hat)[0]
                for q in range(t + 1)
            ])
        if min_split_sum(vectors, t) < 2.0 * tau_hat - 1e-9:
            ok = False
        cond2 += 1
    agree = 0
    for seed in range(100):
        space, nodes = random_uncertain_nodes(88000 + seed, n_nodes=6,
                                              universe_size=10, max_support=3)
        pick = np.random.default_rng(seed)
        centers = tuple(int(c) for c in pick.choice(10, size=2, replace=False))
        assignment = {
            nd.node_id: min(centers,
                            key=lambda c: node_universe_cost(space, nd, c,
                                                             Objective.MEDIAN))
            for nd in nodes[:-1]
        }
        sol = ClusteringSolution(centers=centers,
                                 outliers={nodes[-1].node_id: 1},
                                 assignment=assignment, cost=0.0)
        exact = eval_center_g_objective(space, nodes, sol, method="exact")
        mc = eval_center_g_objective(space, nodes, sol, method="mc",
                                     samples=4000, seed=seed)
        if abs(mc.value - exact.value) <= 3.0 * mc.half_width + 1e-12:
            agree += 1
        else:
            ok = False
    ok = ok and cond2 >= 20 and agree >= 100
    _verdict(capsys, 8, "tau search and estimator", ok,
             f"25 stopping-rule runs, {cond2} exhaustive lower-bound checks,"
             f" {agree}/100 MC-vs-exact within 3 half-widths")


def test_criterion_09_subquadratic(capsys):
    """Distance-evaluation exponent < 1.9; cost <= 72x oracle at n=14."""
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    ns = (100, 200, 400, 800)
    evals = []
    for n in ns:
        inst = random_instance(90000 + n, n)
        rep = subquadratic_solve(inst, 2, int(np.sqrt(n)), 1.0, seed=n)
        evals.append(rep.evals)
    slope = float(np.polyfit(np.log(ns), np.log(evals), 1)[0])
    ok = slope < 1.9
    worst = 0.0
    for seed in range(25):
        inst = random_instance(99000 + seed, 14)
        t = int(rng.integers(1, 4))
        sub = subquadratic_solve(inst, 2, t, 1.0, seed=seed)
        opt = exact_oracle(inst, 2, t, Objective.MEDIAN)
        if sub.solution.cost > 72.0 * opt.cost + 1e-9:
            ok = False
        if opt.cost > 0:
            worst = max(worst, sub.solution.cost / opt.cost)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _verdict(capsys, 9, "subquadratic scaling", ok,
             f"evals {evals} fit exponent {slope:.2f} < 1.9, worst cost"
             f" {worst:.2f}x <= 72x on 25 n=14 instances, {elapsed:.1f}s < 120s")


def test_criterion_10_determinism(tmp_path, capsys):
    """5 repeats of each protocol are byte-identical, including jobs > 1."""
    pts_f = tmp_path / "pts.jsonl"
    write_points_jsonl(pts_f, gen_planted(48, 2, 4, seed=6))
    universe, nodes = gen_uncertain_planted(14, 2, 2, seed=3)
    upts_f, nodes_f = tmp_path / "upts.jsonl", tmp_path / "nodes.jsonl"
    write_points_jsonl(upts_f, universe)
    write_nodes_jsonl(nodes_f, nodes)
    point_args = ["--input", str(pts_f), "--k", "2", "--t", "4",
                  "--sites", "3", "--seed", "5"]
    node_args = ["--input", str(upts_f), "--nodes", str(nodes_f),
                 "--k", "2", "--t", "2", "--seed", "5"]
    cases = [
        ["solve", "--alg", "kt-median", "--jobs", "3"] + point_args,
        ["solve", "--alg", "kt-median-co", "--jobs", "2"] + point_args,
        ["solve", "--alg", "kt-center", "--jobs", "3"] + point_args,
        ["solve", "--alg", "one-round", "--jobs", "2"] + point_args,
        ["solve", "--alg", "center-g", "--jobs", "2"] + node_args,
    ]
    ok = True
    for ci, argv in enumerate(cases):
        blobs = set()
        for rep in range(5):
            out = tmp_path / f"c{ci}r{rep}.json"
            if main(argv + ["--out", str(out)]) != 0:
                ok = False
            blobs.add(out.read_bytes())
        if len(blobs) != 1:
            ok = False
    _verdict(capsys, 10, "byte-identical reports", ok,
             f"{len(cases)} protocols x 5 repeats under --jobs > 1")

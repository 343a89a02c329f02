"""Command-line entry points.

``partialclust solve`` runs one protocol on a dataset and prints a report
(JSON by default, a one-line CSV row with ``--format csv``). Reports are
byte-identical across runs of the same command; wall-clock timings only
appear under ``--timings``. ``partialclust oracle`` solves small instances
exactly, and ``partialclust gen`` writes planted datasets whose last t ids
are the intended outliers.

Exit codes: 0 success, 2 unusable input or arguments, 3 infeasible budget,
4 oracle size guard.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from .errors import (
    ClusteringError,
    InfeasibleError,
    InvalidParameterError,
    OracleSizeLimitError,
)
from .io import (
    read_matrix,
    read_nodes_files,
    read_points_files,
    write_nodes_jsonl,
    write_points_jsonl,
)
from .metric import Demand, Instance, Objective
from .protocol import (
    Partition,
    _expand_points,
    _node_solution,
    run_kt_center,
    run_kt_median,
    run_kt_median_clustering_only,
    run_one_round,
    subquadratic_solve,
)
from .solvers import exact_oracle
from .uncertain import NodePartition, UncertainNode, run_center_g, run_uncertain


def _kt_median(a, part, objective):
    return run_kt_median(part, a.k, a.t, rho=a.rho, epsilon=a.epsilon,
                         objective=objective, seed=a.seed)


def _uncertain(a, npart, objective):
    return run_uncertain(npart, a.k, a.t, objective=objective,
                         epsilon=a.epsilon, seed=a.seed, rho=a.rho)


_SITES = ("sites", "partition", "transcript")
_UNCERTAIN = _SITES + ("nodes", "rho", "epsilon")
# --alg -> (input kind, objective its report names (None reads --objective),
# flags read beyond those every --alg takes, runner). "points" and "nodes"
# are spread over --sites, "instance" is one machine. A runner takes (args,
# partition or instance, objective) and looks its function up when called.
_ALGS = {
    "kt-median": ("points", "median", _SITES + ("rho", "epsilon"), _kt_median),
    "kt-means": ("points", "means", _SITES + ("rho", "epsilon"), _kt_median),
    "kt-center": ("points", "center", _SITES + ("rho",),
                  lambda a, p, _: run_kt_center(p, a.k, a.t, rho=a.rho)),
    "kt-median-co": ("points", "median", _SITES + ("delta", "epsilon"),
                     lambda a, p, _: run_kt_median_clustering_only(p, a.k, a.t,
                         delta=a.delta, epsilon=a.epsilon, seed=a.seed)),
    "one-round": ("points", None, _SITES + ("objective", "epsilon"),
                  lambda a, p, obj: run_one_round(p, a.k, a.t, objective=obj,
                      epsilon=a.epsilon, seed=a.seed)),
    "subquadratic": ("instance", None, ("objective", "alpha"),
                     lambda a, i, obj: subquadratic_solve(i, a.k, a.t, a.alpha,
                         seed=a.seed, objective=obj)),
    "uncertain-median": ("nodes", "median", _UNCERTAIN, _uncertain),
    "uncertain-means": ("nodes", "means", _UNCERTAIN, _uncertain),
    # its coordinator excludes exactly t copies, so --epsilon reaches nothing
    "uncertain-center-pp": ("nodes", "center-pp", _SITES + ("nodes", "rho"),
                            _uncertain),
    "center-g": ("nodes", "center", _SITES + ("nodes", "epsilon"),
                 lambda a, p, _: run_center_g(p, a.k, a.t, epsilon=a.epsilon)),
}
# Defaults of the flags some --alg does not read. Their argparse default is
# None, "not given", so a flag typed at its default value is still refused.
_DEFAULTS = {"sites": 2, "partition": "round-robin", "transcript": None,
             "nodes": None, "rho": 2.0, "delta": 0.25, "epsilon": 1.0,
             "alpha": 0.5, "objective": "median"}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="partialclust",
        description="Distributed clustering with outliers, with exact "
                    "communication accounting.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a protocol and print a report")
    solve.add_argument("--input", action="append", default=[],
                       help="points file (JSON lines); repeat for by-file sites")
    solve.add_argument("--matrix", help="distance-matrix file instead of points")
    solve.add_argument("--nodes", action="append",
                       help="uncertain-node file; repeat for by-file sites")
    solve.add_argument("--alg", required=True, choices=tuple(_ALGS))
    solve.add_argument("--k", type=int, required=True)
    solve.add_argument("--t", type=int, required=True)
    solve.add_argument("--sites", type=int)
    solve.add_argument("--partition",
                       choices=("round-robin", "contiguous", "by-file"))
    solve.add_argument("--rho", type=float)
    solve.add_argument("--delta", type=float)
    solve.add_argument("--epsilon", type=float,
                       help="the coordinator's outlier relaxation; one-round "
                            "--objective center takes it and ignores it")
    solve.add_argument("--alpha", type=float)
    solve.add_argument("--objective", choices=("median", "means", "center"),
                       help="objective for one-round and subquadratic")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--jobs", type=int, default=1,
                       help="taken by every --alg; must be >= 1 and changes "
                            "nothing: sites run in site order, which beat a "
                            "thread pool on every measured workload")
    solve.add_argument("--format", default="json", choices=("json", "csv"))
    solve.add_argument("--out", help="write the report here instead of stdout")
    solve.add_argument("--transcript",
                       help="write the message ledger as JSON lines")
    solve.add_argument("--timings", action="store_true",
                       help="include wall-clock timings (breaks byte-identity)")
    solve.set_defaults(func=_cmd_solve)

    oracle = sub.add_parser("oracle", help="exact solution at desk scale")
    oracle.add_argument("--input", action="append", default=[])
    oracle.add_argument("--matrix")
    oracle.add_argument("--nodes", action="append", default=[])
    oracle.add_argument("--objective", default="median",
                        choices=("median", "means", "center"))
    oracle.add_argument("--k", type=int, required=True)
    oracle.add_argument("--t", type=int, required=True)
    oracle.add_argument("--out")
    oracle.set_defaults(func=_cmd_oracle)

    gen = sub.add_parser("gen", help="write a planted dataset")
    gen.add_argument("--kind", required=True,
                     choices=("planted", "uncertain-planted"))
    gen.add_argument("--n", type=int, required=True,
                     help="points (or nodes) including the planted outliers")
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--t", type=int, required=True)
    gen.add_argument("--dim", type=int, default=2)
    gen.add_argument("--sep", type=float, default=30.0,
                     help="cluster separation; outliers sit farther out still")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="points file to write")
    gen.add_argument("--nodes-out", help="node file (uncertain-planted only)")
    gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ClusteringError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, OracleSizeLimitError):
            return 4
        return 3 if isinstance(exc, InfeasibleError) else 2


# ---------------------------------------------------------------------------


def _load_space(args):
    if args.matrix:
        if args.input:
            raise InvalidParameterError("give --input or --matrix, not both")
        return read_matrix(args.matrix), None
    if not args.input:
        raise InvalidParameterError("no --input files given")
    return read_points_files(args.input)


def _make_partition(args, groups, space, *nodes):
    """``args.partition`` of the points of ``space``, or of the ``nodes``
    over it; ``groups`` holds the items of each input file."""
    cls = NodePartition if nodes else Partition
    if args.partition == "round-robin":
        return cls.round_robin(space, *nodes, args.sites)
    if args.partition == "contiguous":
        return cls.contiguous(space, *nodes, args.sites)
    if groups is None or len(groups) < 1:
        raise InvalidParameterError("by-file partition needs --input files")
    return cls.from_lists(space, *nodes, groups)


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _solution_fields(sol):
    return {
        "cost": sol.cost,
        "centers": [int(c) for c in sol.centers],
        "outliers": sorted(int(p) for p in sol.outliers),
        "n_outliers": int(sol.total_excluded),
    }


def _report_payload(args, objective, report, n_items, label):
    ledger = report.ledger
    alloc = report.allocation
    return {
        "alg": args.alg,
        "params": {
            "k": args.k, "t": args.t, "sites": len(report.site_evals),
            "partition": args.partition, "rho": args.rho, "delta": args.delta,
            "epsilon": args.epsilon, "seed": args.seed, "objective": objective,
        },
        label: n_items,
        **_solution_fields(report.solution),
        "rounds": report.rounds,
        "words": {
            "total": ledger.total_words,
            "round1": ledger.words(round_no=1),
            "round2": ledger.words(round_no=2),
        },
        "evals": {
            "sites": list(report.site_evals),
            "coordinator": report.coord_evals,
            "total": report.total_evals,
        },
        "budgets": list(report.budgets) if report.budgets is not None else None,
        "allocation": dataclasses.asdict(alloc) if alloc is not None else None,
        "extras": report.extras,
    }


def _csv_row(payload):
    params, words = payload["params"], payload.get("words", {})
    row = {"alg": payload["alg"], "objective": params["objective"],
           "n": payload.get("n_points", payload.get("n_nodes")),
           **{c: params.get(c) for c in ("sites", "k", "t", "rho", "delta",
                                         "epsilon", "seed")},
           "cost": payload["cost"], "rounds": payload.get("rounds"),
           **{f"words_{c}": words.get(c) for c in ("total", "round1", "round2")},
           "evals_total": payload["evals"]["total"],
           "outliers": payload["n_outliers"]}
    vals = ("" if v is None else str(v) for v in row.values())
    return ",".join(row) + "\n" + ",".join(vals) + "\n"


def _cmd_solve(args):
    start = time.perf_counter()
    kind, objective, reads, run = _ALGS[args.alg]
    given = {flag: getattr(args, flag) for flag in _DEFAULTS
             if getattr(args, flag) is not None}
    refused = [f"--{flag}" for flag in given if flag not in reads]
    if refused:
        raise InvalidParameterError(
            f"--alg {args.alg} does not read {', '.join(refused)}")
    if kind == "nodes" and not args.nodes:
        raise InvalidParameterError(f"--alg {args.alg} needs --nodes")
    vars(args).update({**_DEFAULTS, **given})
    if args.jobs < 1:
        raise InvalidParameterError("jobs must be a positive integer")
    # center-g and kt-center take no seed, but every report prints one
    if args.seed < 0:
        raise InvalidParameterError("seed must be a nonnegative integer")
    objective = objective or args.objective
    space, groups = _load_space(args)
    if kind == "instance":
        sub = run(args, Instance.from_points(space), objective)
        solution = _expand_points(sub.view, sub.solution,
                                  Objective.from_string(objective))
        payload = {
            "alg": args.alg,
            "params": {"k": args.k, "t": args.t, "alpha": args.alpha,
                       "seed": args.seed, "objective": objective},
            "n_points": space.n,
            **_solution_fields(solution),
            "depth": sub.depth,
            "levels": [list(l) for l in sub.levels],
            "evals": {"total": sub.evals},
        }
        report = None
    elif kind == "nodes":
        nodes, groups = read_nodes_files(args.nodes, space)
        report = run(args, _make_partition(args, groups, space, nodes), objective)
        payload = _report_payload(args, objective, report, len(nodes), "n_nodes")
    else:
        report = run(args, _make_partition(args, groups, space), objective)
        payload = _report_payload(args, objective, report, space.n, "n_points")

    if args.timings:
        payload["timings"] = {
            "wall_seconds": time.perf_counter() - start,
            "site_seconds": list(report.site_seconds) if report else None,
        }
    if args.transcript:
        _emit("".join(json.dumps(r, sort_keys=True) + "\n"
                      for r in report.ledger.to_records()), args.transcript)
    if args.format == "csv":
        _emit(_csv_row(payload), args.out)
    else:
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_oracle(args):
    space, _ = _load_space(args)
    objective = Objective.from_string(args.objective)
    if args.nodes:
        nodes, _ = read_nodes_files(args.nodes, space)
        # full distributions; any universe point may host a center
        demands = [Demand(nd.support, nd.probs, 0.0, 1, (nd.node_id,)) for nd in nodes]
        inst = Instance(space, demands, list(range(space.n)))
        label, n_items = "n_nodes", len(nodes)
    else:
        inst = Instance.from_points(space)
        label, n_items = "n_points", space.n
    sol = exact_oracle(inst, args.k, args.t, objective)
    named = (_node_solution(inst, sol) if args.nodes
             else _expand_points(inst, sol, objective))
    payload = {
        "objective": args.objective, "k": args.k, "t": args.t, label: n_items,
        "cost": sol.cost,
        "centers": [int(c) for c in sol.centers],
        "outliers": sorted(named.outliers),
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# Dataset generation


def gen_planted(n, k, t, dim=2, sep=30.0, seed=0):
    """k unit-variance blobs plus t planted outliers, as an n x dim array.

    The last t ids are the outliers; each sits at least ``sep`` beyond every
    blob, strictly farther from every blob center than any inlier, so a
    correct (k, t) run on a comfortable budget must ignore exactly them.
    """
    if n < 1 or k < 1 or t < 0 or n - t < k:
        raise InvalidParameterError("need n - t >= k >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 51)))
    centers = np.zeros((k, dim))
    centers[:, 0] = sep * np.arange(k)
    pts = np.empty((n, dim))
    pts[:n - t] = centers[np.arange(n - t) % k] + rng.normal(size=(n - t, dim))
    far = sep * (k + 4)
    for j in range(t):
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        pts[n - t + j] = centers[-1] + (far + 2 * sep * j) * direction
    return pts


def gen_uncertain_planted(n, k, t, dim=2, sep=30.0, seed=0):
    """Point universe plus n nodes; the last t nodes live on far points."""
    if n < 1 or k < 1 or t < 0 or n - t < k:
        raise InvalidParameterError("need n - t >= k >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 52)))
    universe = gen_planted(2 * n, k, 2 * t if t else 1, dim=dim, sep=sep,
                           seed=seed + 1)
    m = universe.shape[0]
    far_ids = list(range(m - (2 * t if t else 1), m))
    blob_ids = [i for i in range(m - len(far_ids))]
    by_blob = {b: [i for i in blob_ids if i % k == b] for b in range(k)}
    nodes = []
    for j in range(n - t):
        members = by_blob[j % k]
        pick = rng.choice(len(members), size=min(2, len(members)), replace=False)
        support = tuple(int(members[x]) for x in sorted(pick))
        probs = (1.0,) if len(support) == 1 else (0.6, 0.4)
        nodes.append(UncertainNode(j, support, probs))
    for j in range(t):
        pick = rng.choice(len(far_ids), size=min(2, len(far_ids)), replace=False)
        support = tuple(int(far_ids[x]) for x in sorted(pick))
        probs = (1.0,) if len(support) == 1 else (0.5, 0.5)
        nodes.append(UncertainNode(n - t + j, support, probs))
    return universe, nodes


def _cmd_gen(args):
    if args.kind == "planted":
        pts = gen_planted(args.n, args.k, args.t, dim=args.dim, sep=args.sep,
                          seed=args.seed)
        write_points_jsonl(args.out, pts)
        return 0
    if not args.nodes_out:
        raise InvalidParameterError("uncertain-planted needs --nodes-out")
    universe, nodes = gen_uncertain_planted(args.n, args.k, args.t,
                                            dim=args.dim, sep=args.sep,
                                            seed=args.seed)
    write_points_jsonl(args.out, universe)
    write_nodes_jsonl(args.nodes_out, nodes)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of ``partialclust solve`` on three generated workloads.

Run from the repository root:

    python3 perfbench/run.py --workload median-large --seed 1 --seconds 35 --trace 0

Set-up imports partialclust from ``src/``, generates the workload's inputs
from ``--seed`` with the program's own generators and writes them as JSON
lines into a scratch directory inside the checkout, removed on exit. The run
then calls ``partialclust.cli.main(["solve", ...])`` in this process, over
and over until ``--seconds`` are spent, and checks every report.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced solves of the first input and prints the per-layer
metrics (see ``tracer.py``) plus the tracing overhead. Either way the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
the same figures for people. Metric names and units are checked against
BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    why: str
    alg: str
    kind: str           # "planted" points or "uncertain-planted" nodes
    n: int              # points, or nodes
    k: int
    t: int
    sites: int
    jobs: int
    inputs: int = 1     # independent inputs per run, all from --seed
    extra: tuple = ()
    # Rows per distance block in the reference work (see Reference), and the
    # seconds that work takes on a quiet host.
    ref_chunk: int = 25
    ref_nominal_s: float = 0.2

    def ignored_bounds(self, epsilon):
        if self.alg == "kt-median":
            return 0, 2 * self.t
        if self.alg == "center-g":
            relaxed = int((1.0 + epsilon) * self.t + 1e-9)
            return relaxed, relaxed
        return self.t, self.t


WORKLOADS = {
    "median-large": Workload(
        why="Few large JV probes on 375x375 site matrices; the site curve "
            "round is nearly all of solve, so a JV speed-up shows here first.",
        alg="kt-median", kind="planted", n=1500, k=5, t=10, sites=4, jobs=1,
        inputs=2),
    "centerg-threads": Workload(
        why="Many small JV probes over the center-g tau grid, multi-point "
            "demands, and the only thread-pool run (--jobs 2).",
        alg="center-g", kind="uncertain-planted", n=120, k=3, t=4, sites=2,
        jobs=2, inputs=6),
    "center-oneround": Workload(
        why="No JV at all: the k-center threshold sweep and the distance "
            "kernel dominate; the control a JV change must not move.",
        alg="one-round", kind="planted", n=8000, k=5, t=40, sites=6, jobs=1,
        extra=("--objective", "center"), inputs=6, ref_chunk=1000,
        ref_nominal_s=0.24),
}


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Environment and set-up


def pin_blas():
    """One BLAS thread: ``--jobs 2`` plus BLAS threads would oversubscribe
    a two-core box. Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def import_program():
    """Import partialclust from this checkout's ``src``; returns the package
    and its cli module."""
    src = ROOT / "src"
    if not (src / "partialclust" / "__init__.py").is_file():
        raise SetupError(f"no partialclust sources under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("partialclust")
    cli = importlib.import_module("partialclust.cli")
    if Path(pkg.__file__).resolve().parent != (src / "partialclust").resolve():
        raise SetupError(f"imported partialclust from {pkg.__file__}, not {src}")
    return pkg, cli


class Reference:
    """Fixed work outside the program, timed next to every measured step.

    The host's speed drifts by up to 1.7x within a minute (other tenants share
    its cores and memory), and every timed step drifts with it. A step's time
    is therefore reported as ``seconds * w.ref_nominal_s / ref``, where
    ``ref`` is the mean duration of this work just before and just after the
    step: seconds at the speed of a quiet host (a 2-vCPU Xeon at 2.1 GHz). A
    slower program shows in full, since this work does not change with it.
    It runs in this process, on the thread that solves.

    The mix follows the solves: a Python loop, many small numpy calls on
    375-vectors (as in the JV probes) and a 3000 x 1500 distance block (as
    in ``MetricSpace.block``), computed ``w.ref_chunk`` rows at a time. Small
    chunks stay in cache, like the JV workloads, and allocate about 1 MB at a
    time, so the solves, not this work, set their ``peak_rss_mb``. Chunks of
    1000 rows allocate fresh tens of MB, like the distance kernel of
    ``center-oneround``, whose own peak is far higher.
    """

    def __init__(self, np, w):
        self.np = np
        self.chunk = w.ref_chunk
        self.nominal = w.ref_nominal_s
        rng = np.random.default_rng(0)
        self.square = rng.random((375, 375))
        self.rows = rng.random((3000, 2))
        self.cols = rng.random((1500, 2))
        self.last = self.run()

    def run(self):
        np = self.np
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        for r in range(5000):
            col = self.square[:, r % 375]
            cw = np.cumsum(np.where(col > 0.5, col, 0.0))
            acc += float((cw / (cw[-1] + 1.0)).min())
        for lo in range(0, len(self.rows), self.chunk):
            diff = self.rows[lo:lo + self.chunk, None, :] - self.cols[None, :, :]
            acc += float(np.sqrt((diff * diff).sum(axis=2)).min())
        return time.perf_counter() - start

    def scale(self):
        """Factor turning the seconds of the step just ended into seconds at
        reference speed; the reference after it opens the next step."""
        before, self.last = self.last, self.run()
        return self.nominal / ((before + self.last) / 2.0)


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return (f"nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")


@dataclass
class Input:
    seed: int
    argv: list
    coords: object          # points, or the node universe
    nodes: list | None      # uncertain nodes, else None
    planted: frozenset      # ids the generator planted as outliers
    reference: bytes | None = None  # first report, for byte-identity


def generate(cli, w, seed, workdir, tag):
    """Generate one input with the program's generators and write it."""
    from partialclust.io import write_nodes_jsonl, write_points_jsonl

    points = workdir / f"{tag}-points.jsonl"
    argv = ["solve", "--input", str(points), "--alg", w.alg, "--k", str(w.k),
            "--t", str(w.t), "--sites", str(w.sites), "--jobs", str(w.jobs),
            "--seed", str(seed), *w.extra]
    planted = frozenset(range(w.n - w.t, w.n))
    if w.kind == "planted":
        coords = cli.gen_planted(w.n, w.k, w.t, seed=seed)
        write_points_jsonl(points, coords)
        return Input(seed, argv, coords, None, planted)
    coords, nodes = cli.gen_uncertain_planted(w.n, w.k, w.t, seed=seed)
    nodes_path = workdir / f"{tag}-nodes.jsonl"
    write_points_jsonl(points, coords)
    write_nodes_jsonl(nodes_path, nodes)
    return Input(seed, argv + ["--nodes", str(nodes_path)], coords, nodes, planted)


def set_up(cli, ref, w, seed, workdir):
    """Inputs for one run plus the set-up time in seconds at reference speed:
    the median over repeats of a fresh interpreter importing the program and
    then generating and writing the inputs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import partialclust.cli"],
                       env=env, cwd=ROOT, check=True)
        inputs = [generate(cli, w, seed * w.inputs + r, workdir, f"in{r}")
                  for r in range(w.inputs)]
        times.append((time.perf_counter() - start) * ref.scale())
    return inputs, statistics.median(times)


# ---------------------------------------------------------------------------
# One solve and its checks


@dataclass
class Solve:
    code: object
    report: bytes
    wall: float
    cpu: float
    scale: float = 1.0      # to seconds at reference speed
    payload: dict | None = None
    problems: list | None = None


def run_solve(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start_cpu = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:   # counted as a failed solve, with its traceback
        code = "exception"
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    cpu = time.process_time() - start_cpu
    solve = Solve(code, out.getvalue().encode(), wall, cpu)
    if code != 0:
        solve.problems = [f"exit code {code}: {err.getvalue().strip()}"]
    return solve


def recomputed_cost(np, inp, payload):
    """The objective the report names, from its centers and outliers alone,
    serving every other point (node) from its nearest center. On nodes the
    center objective is center-g's: the max over served nodes of the min
    expected distance."""
    objective = payload["params"]["objective"]
    if objective not in ("median", "center") or (
            inp.nodes is not None and objective != "center"):
        raise ValueError(f"no recomputation for objective {objective!r}")
    ids = np.asarray(payload["centers"], dtype=int)
    if ids.size == 0 or ids.min() < 0 or ids.max() >= len(inp.coords):
        raise ValueError(f"center ids {payload['centers']} out of range")
    centers = inp.coords[ids]
    skip = set(payload["outliers"])
    if inp.nodes is None:
        served = np.array([i for i in range(len(inp.coords)) if i not in skip])
        diff = inp.coords[served][:, None, :] - centers[None, :, :]
        near = np.sqrt((diff * diff).sum(axis=2)).min(axis=1)
        return float(near.sum()) if objective == "median" else float(near.max())
    worst = 0.0
    for nd in inp.nodes:
        if nd.node_id in skip:
            continue
        diff = inp.coords[list(nd.support)][:, None, :] - centers[None, :, :]
        expected = np.asarray(nd.probs) @ np.sqrt((diff * diff).sum(axis=2))
        worst = max(worst, float(expected.min()))
    return worst


def check(np, w, inp, solve):
    """Fill ``solve.payload`` and ``solve.problems`` for one report. A report
    the checks cannot read (not JSON, a missing key, a center out of range)
    is a problem of that solve, not of the benchmark."""
    if solve.problems:
        return
    problems = []
    if inp.reference is None:
        inp.reference = solve.report
    elif solve.report != inp.reference:
        problems.append("report differs from the first report of this input")
    try:
        payload = json.loads(solve.report)
        cost = payload["cost"]
        again = recomputed_cost(np, inp, payload)
        if abs(again - cost) > REL_TOL * max(abs(cost), 1e-300):
            problems.append(f"cost {cost!r} but recomputed {again!r}")
        ignored = len(payload["outliers"])
        lo, hi = w.ignored_bounds(payload["params"]["epsilon"])
        if not lo <= ignored <= hi or ignored != payload["n_outliers"]:
            problems.append(f"ignored {ignored} outside [{lo}, {hi}]")
        if w.alg == "one-round":
            B = inp.coords.shape[1]
            expect = w.sites * (2 * w.k * (B + 1) + w.t * B)
            if payload["words"]["total"] != expect:
                problems.append(f"words {payload['words']['total']} != {expect}")
        # read later for the metrics: a missing key fails the solve here
        payload["words"]["round1"], payload["words"]["round2"]
        payload["evals"]["total"]
    except Exception:   # an unreadable report fails this solve
        problems.append("report unreadable: " + traceback.format_exc())
        payload = None
    solve.payload = payload
    solve.problems = problems


def failed(solves):
    return sum(1 for s in solves if s.problems)


# ---------------------------------------------------------------------------
# Measurement loops


def measure(np, cli, ref, w, inputs, seconds):
    """Solve the inputs round-robin until ``seconds`` are spent, timing the
    reference after each solve; every input at least once and the first
    twice, so byte-identity is always checked. Returns {input index: [Solve]}."""
    deadline = time.perf_counter() + seconds
    done = {r: [] for r in range(len(inputs))}
    r = 0
    while True:
        if len(done[len(inputs) - 1]) >= 1 and len(done[0]) >= 2:
            last = done[r][-1].wall if done[r] else 0.0
            if time.perf_counter() + last + ref.last > deadline:
                break
        s = run_solve(cli, inputs[r].argv)
        s.scale = ref.scale()
        check(np, w, inputs[r], s)
        done[r].append(s)
        r = (r + 1) % len(inputs)
    return done


def end_to_end(inputs, done, setup_s):
    """End-to-end metrics: per-input medians (or exact values), then the
    mean over the run's inputs. None when an input has no correct solve."""
    ok = {r: [s for s in v if not s.problems] for r, v in done.items()}
    if any(not v for v in ok.values()):
        return None

    def over_inputs(fn):
        return statistics.fmean(fn(r, v) for r, v in ok.items())

    def recall(r, v):
        hit = inputs[r].planted & set(v[0].payload["outliers"])
        return len(hit) / len(inputs[r].planted)

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "solve_s": over_inputs(
            lambda r, v: statistics.median(s.wall * s.scale for s in v)),
        "solve_cpu_s": over_inputs(
            lambda r, v: statistics.median(s.cpu * s.scale for s in v)),
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "words_total": over_inputs(lambda r, v: v[0].payload["words"]["total"]),
        "evals_total": over_inputs(lambda r, v: v[0].payload["evals"]["total"]),
        "ignored": over_inputs(lambda r, v: len(v[0].payload["outliers"])),
        "planted_recall": over_inputs(recall),
    }


def traced_run(np, cli, pkg, w, inputs, seconds):
    """Alternate untraced and traced solves of the first input until
    ``seconds`` are spent; per-layer values are medians over traced solves."""
    from tracer import Tracer, layer_metrics

    tracer = Tracer(pkg)
    inp = inputs[0]
    # extremes() reads the whole universe once and is not counted in evals
    uncounted = len(inp.coords) ** 2 if inp.nodes is not None else 0
    plain, traced, layers, shares, problems = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(plain) < 2 or (
            time.perf_counter() + plain[-1].wall + traced[-1].wall <= deadline):
        plain.append(run_solve(cli, inp.argv))
        check(np, w, inp, plain[-1])
        with tracer.installed():
            solve = run_solve(cli, inp.argv)
        spans = tracer.take()
        check(np, w, inp, solve)
        traced.append(solve)
        m, self_s = layer_metrics(spans)
        layers.append(m)
        shares.append({k: v / solve.wall for k, v in self_s.items()})
        if solve.problems:
            continue
        evals = solve.payload["evals"]["total"]
        if m["metric.block.entries"] != evals + uncounted:
            problems.append(f"block entries {m['metric.block.entries']} != "
                            f"evals {evals} + {uncounted}")
        words = solve.payload["words"]
        if (m["protocol.words.round1"], m["protocol.words.round2"]) != (
                words["round1"], words["round2"]):
            problems.append(f"ledger words {m['protocol.words.round1']}, "
                            f"{m['protocol.words.round2']} != report {words}")
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(s.wall for s in traced)
        / statistics.median(s.wall for s in plain) - 1.0)
    top = {k: statistics.median(s.get(k, 0.0) for s in shares)
           for k in set().union(*shares)}
    return plain + traced, metrics, problems, top


# ---------------------------------------------------------------------------
# Output


def declared(bench, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def emit(correct, attempted, n_failed, metrics, units):
    """The result line; with no metrics (nothing correct to measure) every
    value is null and ``correct`` is false."""
    if metrics is None:
        correct, metrics = False, dict.fromkeys(units)
    if set(metrics) != set(units):
        raise SetupError(
            "metrics do not match BENCHMARK.json: missing "
            f"{sorted(set(units) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(units))}")
    out = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": n_failed, "metrics": out}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {x["name"]: x["why"] for x in bench["workloads"]}
    w = WORKLOADS[args.workload]
    if whys.get(args.workload) != w.why:
        raise SetupError(f"BENCHMARK.json disagrees on workload {args.workload}")
    units = declared(bench, args.trace)

    pin_blas()
    try:
        pkg, cli = import_program()
    except (SetupError, ImportError) as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    print(f"# {environment(np)}")
    print(f"# workload {args.workload} seed {args.seed}: {w.why}")
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ref = Reference(np, w)
        inputs, setup_s = set_up(cli, ref, w, args.seed, workdir)
        print(f"# solve {' '.join(inputs[0].argv[1:])} "
              f"({w.inputs} input(s), seeds {[i.seed for i in inputs]})")
        if args.trace:
            solves, metrics, problems, top = traced_run(
                np, cli, pkg, w, inputs, args.seconds)
            for name in sorted(top, key=top.get, reverse=True)[:6]:
                print(f"# self time / solve wall  {name:36s} {top[name]:7.1%}")
        else:
            done = measure(np, cli, ref, w, inputs, args.seconds)
            solves = [s for v in done.values() for s in v]
            metrics = end_to_end(inputs, done, setup_s)
            problems = []
            for r, v in done.items():
                print(f"# input seed {inputs[r].seed}: {len(v)} solves, wall "
                      f"{[round(s.wall, 3) for s in v]} s, cpu "
                      f"{[round(s.cpu, 3) for s in v]} s, host speed "
                      f"{[round(s.scale, 3) for s in v]} of reference")
            print("# no tail percentile: fewer than ten samples lie beyond any")
            costs = [v[0].payload["cost"] for v in done.values()
                     if v and v[0].payload]
            print(f"{'cost':36s} {costs} objective units (checked, not "
                  "bounded: it varies with the seed)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for s in solves:
        for p in s.problems or ():
            print(f"# FAILED solve: {p}", file=sys.stderr)
    for p in problems:
        print(f"# FAILED trace check: {p}", file=sys.stderr)
    n_failed = failed(solves)
    for name, unit in units.items():
        print(f"{name:36s} {(metrics or {}).get(name)!r:>24} {unit}")
    print(f"{'failed_ratio':36s} {n_failed / len(solves)!r:>24} failed/attempted")
    emit(n_failed == 0 and not problems, len(solves), n_failed, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in spans around the layers of partialclust.

The tracer changes nothing under ``src/``. While :meth:`Tracer.installed` is
active it replaces each target function or method below, and every alias a
module imported by name (``protocol.bicriteria_median``,
``uncertain.kt_center_outliers``, the package re-exports, ...), with a
wrapper that records a span; on exit the originals go back. A target that no
longer exists raises :class:`TraceSetupError`, so a rename cannot silently
zero a layer.

Spans carry wall time (``perf_counter``) and the CPU time of their own
thread (``thread_time``). A site worker started by ``protocol._run_sites``
opens a ``protocol.site`` span whose parent is the span open on the thread
that submitted it, so work done in pool threads is subtracted from the
caller's self time instead of being credited to it.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time
from collections import defaultdict

# (module, attribute path, span name). Each entry is a layer boundary that a
# per-layer metric in BENCHMARK.json is read from, or a child whose time must
# be subtracted from its caller's self time.
TARGETS = (
    ("metric", "MetricSpace.block", "metric.block"),
    ("metric", "Instance.cost_matrix", "metric.cost_matrix"),
    ("metric", "Instance.pair_matrix", "metric.pair_matrix"),
    ("metric", "extremes", "metric.extremes"),
    ("solvers", "jv_facility_location", "solvers.jv"),
    ("solvers", "bicriteria_median", None),     # named by cfg.relax below
    ("solvers", "solution_from_centers", "solvers.solution_from_centers"),
    ("solvers", "pad_centers", "solvers.pad_centers"),
    ("solvers", "kt_center_outliers", "solvers.kt_center_outliers"),
    ("solvers", "gonzalez_order", "solvers.gonzalez_order"),
    ("solvers", "insertion_marginals", "solvers.insertion_marginals"),
    ("allocation", "geometric_index_set", "allocation.geometric_index_set"),
    ("allocation", "lower_hull", "allocation.lower_hull"),
    ("allocation", "allocate", "allocation.allocate"),
    ("allocation", "exceptional_adjust", "allocation.exceptional_adjust"),
    ("allocation", "merge_two_solutions", "allocation.merge_two_solutions"),
    ("protocol", "run_kt_median", "protocol.run_kt_median"),
    ("protocol", "run_kt_median_clustering_only",
     "protocol.run_kt_median_clustering_only"),
    ("protocol", "run_kt_center", "protocol.run_kt_center"),
    ("protocol", "run_one_round", "protocol.run_one_round"),
    ("protocol", "subquadratic_solve", "protocol.run_subquadratic"),
    ("protocol", "_assemble_coordinator", "protocol.assemble"),
    ("protocol", "_lift_solution", "protocol.lift"),
    ("protocol", "_expand_points", "protocol.expand"),
    ("protocol", "CommLedger.add", "protocol.ledger"),
    ("uncertain", "one_median", "uncertain.one_median"),
    ("uncertain", "node_universe_cost", "uncertain.node_universe_cost"),
    ("uncertain", "tau_grid", "uncertain.tau_grid"),
    ("uncertain", "run_uncertain", "uncertain.run_uncertain"),
    ("uncertain", "run_center_g", "uncertain.run_center_g"),
    ("io", "read_points_files", "io.read_points_files"),
    ("io", "read_nodes_files", "io.read_nodes_files"),
    ("cli", "main", "cli.main"),
)

MODULES = ("metric", "solvers", "allocation", "protocol", "uncertain", "io",
           "cli")


class TraceSetupError(RuntimeError):
    """A traced name is missing from the program."""


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "c0", "c1", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.info = None
        self.c0 = time.thread_time()
        self.t0 = time.perf_counter()

    def close(self):
        self.t1 = time.perf_counter()
        self.c1 = time.thread_time()

    @property
    def wall(self):
        return self.t1 - self.t0

    @property
    def wait(self):
        """Wall time the span's thread did not spend on the CPU."""
        return self.wall - (self.c1 - self.c0)


def _block_info(args, result):
    space = args["self"]
    extra = result.size * space.coords.shape[1] if space.mode == "euclidean" else 0
    return {"entries": int(result.size),
            "bytes": int(result.nbytes + 8 * extra)}


def _files_info(args, result):
    return {"bytes": sum(os.path.getsize(p) for p in args["paths"])}


def _ledger_info(args, result):
    return {"round": int(args["round_no"]), "words": int(args["words"])}


def _tau_info(args, result):
    return {"levels": len(result.taus)}


_INFO = {
    "metric.block": _block_info,
    "io.read_points_files": _files_info,
    "io.read_nodes_files": _files_info,
    "protocol.ledger": _ledger_info,
    "uncertain.tau_grid": _tau_info,
}


class Tracer:
    """Records spans from the partialclust modules it is given.

    ``package`` is the imported ``partialclust`` package. Spans accumulate
    until :meth:`take` hands them over and starts a new list.
    """

    def __init__(self, package):
        self.package = package
        self.modules = [package] + [getattr(package, m) for m in MODULES]
        self._local = threading.local()
        self._spans = []
        self._default_relax = package.solvers.BicriteriaConfig().relax

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, parent)
        stack.append(span)
        self._spans.append(span)    # list.append is atomic under the GIL
        return span

    def close(self, span):
        span.close()
        self._stack().pop()

    def take(self):
        spans, self._spans = self._spans, []
        return spans

    # -- wrapping -----------------------------------------------------------

    def _resolve(self, module, path):
        owner = getattr(self.package, module, None)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        fn = getattr(owner, parts[-1], None)
        if owner is None or not callable(fn):
            raise TraceSetupError(
                f"traced name partialclust.{module}.{path} no longer exists; "
                "update TARGETS in perfbench/tracer.py")
        return owner, parts[-1], fn

    def _wrap(self, fn, name):
        tracer = self
        info = _INFO.get(name)
        sig = inspect.signature(fn) if (info or name is None) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if sig else None
            span = tracer.open(name or tracer._bicriteria_name(bound))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if info is not None:
                span.info = info(bound, result)
            return result

        return traced

    def _bicriteria_name(self, args):
        cfg = args.get("cfg")
        relax = cfg.relax if cfg is not None else self._default_relax
        return "solvers.bicriteria." + ("site" if relax == "centers" else "coord")

    def _wrap_run_sites(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(worker, s, jobs):
            parent = tracer.current()

            def site(i):
                span = tracer.open("protocol.site", parent=parent)
                try:
                    return worker(i)
                finally:
                    tracer.close(span)

            return fn(site, s, jobs)

        return traced

    def _swap(self, owner, attr, fn, wrapper, undo):
        """Point ``owner.attr`` and every module alias of ``fn`` at
        ``wrapper``, recording how to undo it."""
        undo.append((owner, attr, fn))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return      # methods are reached through the class alone
        for mod in self.modules:
            for alias, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, alias, fn))
                    setattr(mod, alias, wrapper)

    def install(self):
        """Wrap every target; returns the undo list for :meth:`uninstall`."""
        undo = []
        try:
            for module, path, name in TARGETS:
                owner, attr, fn = self._resolve(module, path)
                self._swap(owner, attr, fn, self._wrap(fn, name), undo)
            owner, attr, fn = self._resolve("protocol", "_run_sites")
            self._swap(owner, attr, fn, self._wrap_run_sites(fn), undo)
        except BaseException:
            self.uninstall(undo)
            raise
        return undo

    @staticmethod
    def uninstall(undo):
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)

    def installed(self):
        return _Installed(self)


class _Installed:
    def __init__(self, tracer):
        self.tracer = tracer
        self.undo = None

    def __enter__(self):
        self.undo = self.tracer.install()
        return self.tracer

    def __exit__(self, *exc):
        self.tracer.uninstall(self.undo)
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced solve


def _union_length(intervals):
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Each span's duration minus the union of its children's intervals
    (children on other threads included), keyed by ``id(span)``."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[id(s.parent)].append(s)
    out = {}
    for s in spans:
        covered = [(max(c.t0, s.t0), min(c.t1, s.t1)) for c in kids[id(s)]]
        out[id(s)] = s.wall - _union_length([iv for iv in covered if iv[1] > iv[0]])
    return out


def layer_metrics(spans):
    """Per-layer metric values (see BENCHMARK.json) for one traced solve."""
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    wait_s = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += own[id(s)]
        total_s[s.name] += s.wall
        wait_s[s.name] += s.wait

    def by_prefix(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    block_spans = [s for s in spans if s.name == "metric.block"]
    miss = {id(s.parent) for s in block_spans if s.parent is not None}
    cm = [s for s in spans if s.name == "metric.cost_matrix"]
    hits = sum(1 for s in cm if id(s) not in miss)
    words = defaultdict(int)
    for s in spans:
        if s.name == "protocol.ledger":
            words[s.info["round"]] += s.info["words"]
    probes = calls["solvers.jv"]
    m = {
        "metric.block.calls": calls["metric.block"],
        "metric.block.entries": sum(s.info["entries"] for s in block_spans),
        "metric.block.self_s": self_s["metric.block"],
        "metric.block.bytes_computed": sum(s.info["bytes"] for s in block_spans),
        "metric.cost_matrix.calls": len(cm),
        "metric.cost_matrix.self_s": self_s["metric.cost_matrix"],
        "metric.cost_matrix.hit_ratio": hits / len(cm) if cm else 0.0,
        "metric.pair_matrix.calls": calls["metric.pair_matrix"],
        "metric.pair_matrix.self_s": self_s["metric.pair_matrix"],
        "solvers.jv.probes": probes,
        "solvers.jv.self_s": self_s["solvers.jv"],
        "solvers.jv.s_per_probe": total_s["solvers.jv"] / probes if probes else 0.0,
        "solvers.jv.wait_s": wait_s["solvers.jv"],
        "solvers.bicriteria.site.calls": calls["solvers.bicriteria.site"],
        "solvers.bicriteria.site.self_s": self_s["solvers.bicriteria.site"],
        "solvers.bicriteria.coord.calls": calls["solvers.bicriteria.coord"],
        "solvers.bicriteria.coord.total_s": total_s["solvers.bicriteria.coord"],
        "solvers.solution_from_centers.calls": calls["solvers.solution_from_centers"],
        "solvers.solution_from_centers.self_s": self_s["solvers.solution_from_centers"],
        "solvers.kt_center_outliers.calls": calls["solvers.kt_center_outliers"],
        "solvers.kt_center_outliers.self_s": self_s["solvers.kt_center_outliers"],
        "solvers.gonzalez_order.calls": calls["solvers.gonzalez_order"],
        "solvers.gonzalez_order.self_s": self_s["solvers.gonzalez_order"],
        "protocol.run.self_s": by_prefix(self_s, "protocol.run_"),
        "protocol.assemble.self_s": self_s["protocol.assemble"],
        "protocol.lift.self_s": self_s["protocol.lift"],
        "protocol.expand.self_s": self_s["protocol.expand"],
        "protocol.site_wait_s": wait_s["protocol.site"],
        "protocol.words.round1": words[1],
        "protocol.words.round2": words[2],
        "uncertain.one_median.calls": calls["uncertain.one_median"],
        "uncertain.one_median.self_s": self_s["uncertain.one_median"],
        "uncertain.node_universe_cost.calls": calls["uncertain.node_universe_cost"],
        "uncertain.node_universe_cost.self_s": self_s["uncertain.node_universe_cost"],
        "uncertain.run.self_s": by_prefix(self_s, "uncertain.run_"),
        "uncertain.tau_levels": sum(s.info["levels"] for s in spans
                                    if s.name == "uncertain.tau_grid"),
        "allocation.lower_hull.calls": calls["allocation.lower_hull"],
        "allocation.lower_hull.self_s": self_s["allocation.lower_hull"],
        "allocation.allocate.calls": calls["allocation.allocate"],
        "allocation.allocate.self_s": self_s["allocation.allocate"],
        "allocation.exceptional_adjust.calls": calls["allocation.exceptional_adjust"],
        "allocation.exceptional_adjust.self_s": self_s["allocation.exceptional_adjust"],
        "io.read_points_files.self_s": self_s["io.read_points_files"],
        "io.read_nodes_files.self_s": self_s["io.read_nodes_files"],
        "io.bytes_read": sum(s.info["bytes"] for s in spans
                             if s.name.startswith("io.read_") and s.info),
        "cli.self_s": self_s["cli.main"],
    }
    return m, dict(self_s)

"""The benchmark's outside-in tracer still installs on the program.

``perfbench/tracer.py`` wraps protocol and solver layers by name; a refactor
that renames one of them, changes a traced signature, or hides a solver
behind a value the tracer cannot rebind would break ``--trace 1`` or drop
its spans without failing anything else.
"""

import json
import sys
from pathlib import Path

import partialclust
from partialclust.cli import gen_planted, gen_uncertain_planted, main
from partialclust.io import write_nodes_jsonl, write_points_jsonl

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer as tracer_mod  # noqa: E402


def _aliases(tracer):
    """Every module attribute and traced class attribute, by identity."""
    snap = {}
    for mod in tracer.modules:
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
    for module, path, _ in tracer_mod.TARGETS:
        if "." in path:
            owner, attr = path.split(".")
            cls = getattr(getattr(partialclust, module), owner)
            snap[(module, path)] = vars(cls)[attr]
    return snap


def _traced_solve(tracer, argv, capsys):
    with tracer.installed():
        code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    spans = tracer.take()
    metrics, _ = tracer_mod.layer_metrics(spans)
    return json.loads(out), metrics, {s.name for s in spans}


def test_tracer_spans_match_reports(tmp_path, capsys):
    tracer = tracer_mod.Tracer(partialclust)
    before = _aliases(tracer)

    pts = tmp_path / "pts.jsonl"
    write_points_jsonl(pts, gen_planted(40, 2, 3, seed=1))
    report, m, names = _traced_solve(
        tracer, ["solve", "--input", str(pts), "--alg", "kt-median", "--k", "2",
                 "--t", "3", "--sites", "2"], capsys)
    # the CLI reaches each runner through its module name, so the traced
    # wrapper, not the function the table saw at import, runs
    assert "protocol.run_kt_median" in names
    assert m["protocol.words.round1"] == report["words"]["round1"]
    assert m["protocol.words.round2"] == report["words"]["round2"]
    # Probe counts are deterministic: every call of jv_facility_location,
    # the z = 0 probes included, is one probe; a facility cost the one-center
    # or the many-center certificate settles is no call.
    assert m["solvers.jv.probes"] == 36

    universe, nodes = gen_uncertain_planted(12, 2, 2, seed=2)
    upts, unodes = tmp_path / "u.jsonl", tmp_path / "n.jsonl"
    write_points_jsonl(upts, universe)
    write_nodes_jsonl(unodes, nodes)
    report, m, names = _traced_solve(
        tracer, ["solve", "--input", str(upts), "--nodes", str(unodes),
                 "--alg", "center-g", "--k", "2", "--t", "2", "--jobs", "2"],
        capsys)
    assert "uncertain.run_center_g" in names
    assert m["protocol.words.round1"] == report["words"]["round1"]
    assert m["protocol.words.round2"] == report["words"]["round2"]
    assert m["solvers.jv.probes"] == 320
    assert m["solvers.kt_center_outliers.calls"] > 0

    # The center sites' per-row and per-column blocks are all counted.
    for alg, runner in ((["--alg", "kt-center"], "protocol.run_kt_center"),
                        (["--alg", "one-round", "--objective", "center"],
                         "protocol.run_one_round")):
        report, m, names = _traced_solve(
            tracer, ["solve", "--input", str(pts), "--k", "2", "--t", "3",
                     "--sites", "2"] + alg, capsys)
        assert runner in names
        assert m["metric.block.entries"] == report["evals"]["total"]
        assert m["solvers.gonzalez_order.calls"] > 0
        assert m["metric.pair_matrix.calls"] == 0

    after = _aliases(tracer)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

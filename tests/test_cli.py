"""Command-line interface: subcommands, formats, exit codes."""

import hashlib
import json
import warnings

import numpy as np
import pytest

from partialclust.cli import _NODE_ALGS, gen_planted, gen_uncertain_planted, main
from partialclust.io import write_matrix, write_nodes_jsonl, write_points_jsonl

from helpers import random_points


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def planted_file(tmp_path):
    path = tmp_path / "pts.jsonl"
    assert main(["gen", "--kind", "planted", "--n", "30", "--k", "2",
                 "--t", "3", "--out", str(path)]) == 0
    return path


def test_gen_planted_shape_and_outliers():
    pts = gen_planted(30, 2, 3, seed=4)
    assert pts.shape == (30, 2)
    centers = pts[:2]
    inlier_d = max(min(np.linalg.norm(p - c) for c in centers)
                   for p in pts[:27])
    outlier_d = min(min(np.linalg.norm(p - c) for c in centers)
                    for p in pts[27:])
    assert outlier_d > 3 * inlier_d


def test_gen_uncertain_planted_supports():
    universe, nodes = gen_uncertain_planted(12, 2, 2, seed=1)
    assert universe.shape[0] == 24
    assert len(nodes) == 12
    far = set(range(20, 24))
    for nd in nodes[:10]:
        assert not far & set(nd.support)
    for nd in nodes[10:]:
        assert set(nd.support) <= far


def test_solve_json_payload(planted_file, capsys):
    code, out, _ = run(["solve", "--input", str(planted_file),
                        "--alg", "kt-median", "--k", "2", "--t", "3",
                        "--sites", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["alg"] == "kt-median"
    assert payload["params"]["objective"] == "median"
    assert payload["n_points"] == 30
    assert payload["outliers"] == [27, 28, 29]
    assert payload["rounds"] == 2
    words = payload["words"]
    assert words["total"] == words["round1"] + words["round2"]
    assert "timings" not in payload


def test_solve_csv_row(planted_file, capsys):
    code, out, _ = run(["solve", "--input", str(planted_file),
                        "--alg", "kt-means", "--k", "2", "--t", "3",
                        "--format", "csv"], capsys)
    assert code == 0
    head, row, tail = out.split("\n")
    assert tail == ""
    cols = dict(zip(head.split(","), row.split(",")))
    assert cols["alg"] == "kt-means"
    assert cols["objective"] == "means"
    assert cols["n"] == "30"
    assert int(cols["words_total"]) > 0


def test_solve_out_file(planted_file, tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(["solve", "--input", str(planted_file),
                        "--alg", "kt-center", "--k", "2", "--t", "3",
                        "--out", str(dest)], capsys)
    assert code == 0 and out == ""
    payload = json.loads(dest.read_text())
    assert payload["params"]["objective"] == "center"


def test_solve_matrix_input(tmp_path, capsys):
    pts = random_points(7, 12)
    M = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    path = tmp_path / "m.txt"
    write_matrix(path, M)
    code, out, _ = run(["solve", "--matrix", str(path), "--alg", "kt-median",
                        "--k", "2", "--t", "1"], capsys)
    assert code == 0
    assert json.loads(out)["n_points"] == 12


def test_solve_by_file_partition(tmp_path, capsys):
    pts = gen_planted(20, 2, 2, seed=9)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_points_jsonl(a, pts[:12])
    with open(b, "w") as fh:
        for i in range(12, 20):
            fh.write(json.dumps({"id": i,
                                 "coords": [float(x) for x in pts[i]]}) + "\n")
    code, out, _ = run(["solve", "--input", str(a), "--input", str(b),
                        "--partition", "by-file", "--alg", "kt-median",
                        "--k", "2", "--t", "2"], capsys)
    assert code == 0
    assert json.loads(out)["params"]["sites"] == 2


def test_solve_transcript(planted_file, tmp_path, capsys):
    tr = tmp_path / "tr.jsonl"
    code, out, _ = run(["solve", "--input", str(planted_file),
                        "--alg", "kt-median", "--k", "2", "--t", "3",
                        "--transcript", str(tr)], capsys)
    assert code == 0
    payload = json.loads(out)
    records = [json.loads(l) for l in tr.read_text().splitlines()]
    assert sum(r["words"] for r in records) == payload["words"]["total"]
    assert {r["direction"] for r in records} <= {"site->coord", "coord->site"}


def test_subquadratic_payload_and_transcript_refusal(planted_file, capsys):
    code, out, _ = run(["solve", "--input", str(planted_file),
                        "--alg", "subquadratic", "--k", "2", "--t", "3",
                        "--alpha", "1.0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["depth"] == 1
    assert payload["evals"]["total"] > 0
    code, _, err = run(["solve", "--input", str(planted_file),
                        "--alg", "subquadratic", "--k", "2", "--t", "3",
                        "--transcript", "/tmp/never.jsonl"], capsys)
    assert code == 2 and "transcript" in err


def test_solve_timings_flag(planted_file, capsys):
    code, out, _ = run(["solve", "--input", str(planted_file),
                        "--alg", "kt-median", "--k", "2", "--t", "3",
                        "--timings"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["timings"]["wall_seconds"] > 0
    assert len(payload["timings"]["site_seconds"]) == 2


def test_solve_byte_identical_repeats(planted_file, capsys):
    argv = ["solve", "--input", str(planted_file), "--alg", "kt-median",
            "--k", "2", "--t", "3", "--sites", "3", "--seed", "5"]
    _, first, _ = run(argv, capsys)
    _, again, _ = run(argv, capsys)
    _, parallel, _ = run(argv + ["--jobs", "3"], capsys)
    assert first == again == parallel


def test_solve_uncertain_flow(tmp_path, capsys):
    pts_f, nodes_f = tmp_path / "u.jsonl", tmp_path / "n.jsonl"
    assert main(["gen", "--kind", "uncertain-planted", "--n", "16", "--k", "2",
                 "--t", "2", "--out", str(pts_f),
                 "--nodes-out", str(nodes_f)]) == 0
    capsys.readouterr()
    code, out, _ = run(["solve", "--input", str(pts_f), "--nodes",
                        str(nodes_f), "--alg", "uncertain-median",
                        "--k", "2", "--t", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["n_nodes"] == 16
    assert payload["outliers"] == [14, 15]
    assert payload["extras"]["mapping_factor"] == 2.0
    code, out, _ = run(["solve", "--input", str(pts_f), "--nodes",
                        str(nodes_f), "--alg", "center-g",
                        "--k", "2", "--t", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["objective"] == "center"
    assert "tau_hat" in payload["extras"]


def test_oracle_matches_solve_scale(tmp_path, capsys):
    pts = gen_planted(10, 2, 1, seed=3)
    path = tmp_path / "small.jsonl"
    write_points_jsonl(path, pts)
    code, out, _ = run(["oracle", "--input", str(path), "--k", "2", "--t", "1"],
                       capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["outliers"] == [9]
    assert payload["cost"] > 0


def test_oracle_size_guard(tmp_path, capsys):
    pts = random_points(11, 24)
    path = tmp_path / "big.jsonl"
    write_points_jsonl(path, pts)
    code, _, err = run(["oracle", "--input", str(path), "--k", "6", "--t", "0"],
                       capsys)
    assert code == 4 and "error" in err


def test_exit_codes(planted_file, tmp_path, capsys):
    # unusable arguments
    code, _, err = run(["solve", "--alg", "kt-median", "--k", "2", "--t", "3"],
                       capsys)
    assert code == 2 and "input" in err
    code, _, _ = run(["solve", "--input", str(planted_file), "--alg",
                      "kt-median", "--k", "0", "--t", "3"], capsys)
    assert code == 2
    # unusable file
    bad = tmp_path / "bad.jsonl"
    bad.write_text("nope\n")
    code, _, err = run(["solve", "--input", str(bad), "--alg", "kt-median",
                        "--k", "2", "--t", "3"], capsys)
    assert code == 2 and ":1:" in err
    # infeasible budget
    code, _, _ = run(["solve", "--input", str(planted_file), "--alg",
                      "kt-median", "--k", "2", "--t", "30"], capsys)
    assert code == 3
    # coordinates so large that distances would overflow to inf
    huge = tmp_path / "huge.jsonl"
    write_points_jsonl(huge, np.array([[1e154, 0.0], [-1e154, 0.0], [0.0, 1e154],
                                       [1.0, 1.0]]))
    code, out, err = run(["solve", "--input", str(huge), "--alg", "kt-center",
                          "--k", "1", "--t", "1"], capsys)
    assert code == 2 and out == "" and "coordinates" in err
    # costs that overflow under the squared objective: coordinates inside
    # that limit, and a matrix whose squared entries pass the float range
    near = tmp_path / "near.jsonl"
    pts = gen_planted(30, 2, 3, seed=1)
    write_points_jsonl(near, pts / np.abs(pts).max() * 4e153)
    mat = tmp_path / "big.txt"
    M = np.full((12, 12), 1e155)
    np.fill_diagonal(M, 0.0)
    write_matrix(mat, M)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(["solve", "--input", str(near), "--alg", "kt-means",
                              "--k", "2", "--t", "3"], capsys)
        assert code == 2 and out == "" and "overflow" in err
        code, out, err = run(["solve", "--matrix", str(mat), "--alg", "one-round",
                              "--objective", "means", "--k", "2", "--t", "1"],
                             capsys)
        assert code == 2 and out == "" and "overflow" in err
    # argparse rejections exit 2 via SystemExit
    with pytest.raises(SystemExit) as ei:
        main(["solve", "--input", str(planted_file), "--alg", "no-such",
              "--k", "2", "--t", "3"])
    assert ei.value.code == 2


def test_gen_validation(tmp_path, capsys):
    code, _, err = run(["gen", "--kind", "planted", "--n", "4", "--k", "3",
                        "--t", "2", "--out", str(tmp_path / "x.jsonl")], capsys)
    assert code == 2 and "n - t" in err
    code, _, err = run(["gen", "--kind", "uncertain-planted", "--n", "10",
                        "--k", "2", "--t", "1",
                        "--out", str(tmp_path / "y.jsonl")], capsys)
    assert code == 2 and "nodes-out" in err


# ---------------------------------------------------------------------------
# Golden reports: sha256 of the report and the transcript on the inputs of
# acceptance criterion 10, so a refactor that moves any byte of any report
# fails here.

_POINT_ARGS = ["--k", "2", "--t", "4", "--sites", "3", "--seed", "5"]
_NODE_ARGS = ["--k", "2", "--t", "2", "--seed", "5"]
_GOLDEN = [
    # (alg and flags, report sha256, transcript sha256 or None)
    (["--alg", "kt-median"],
     "f2b2d2f33d2c1a2c8dc910f55996d9af9c0d919b6c0a8af3e32659724786e1f7",
     "6ceeb0c4481a843f1c8b96bda6a0baf4e8495141cb60453e15695ade36d59f38"),
    (["--alg", "kt-means"],
     "8fec2566fb49a6170fdd87eda7ecfd5f537b3d77de9390c856c1be1251ffa3cf",
     "6ceeb0c4481a843f1c8b96bda6a0baf4e8495141cb60453e15695ade36d59f38"),
    (["--alg", "kt-means", "--format", "csv"],
     "22fb875aa41364562da66da1d12c4f9878b0a4edfc8f2a609c7947347ee7c3e4",
     "6ceeb0c4481a843f1c8b96bda6a0baf4e8495141cb60453e15695ade36d59f38"),
    (["--alg", "kt-center"],
     "2fc9de50005225f4cb4e6fd23e0a32dab9c484167e9fa5108ab02fa50ed5350d",
     "d2f6b2bfcb19181433dd9785bc29a15902c0eb97b9ffe4df279fb898331b334f"),
    (["--alg", "kt-median-co"],
     "d42869693cd6f32ca116a40a4302b78f91a84318b571e33292551c9980e13eb7",
     "d08563c65a2535f98dbbf58640e7f90bd02af63d2a8ea62a2d54c7428e4f8679"),
    (["--alg", "one-round", "--jobs", "2"],
     "1dcf09829289ff692b736f6b3f321c5ce33bdbe1e26f479210651a1f67f2ea14",
     "e18192d977b7af46b742b66f209acbfafc3a54a44508074c1c0fc94ba4f8b5ad"),
    (["--alg", "subquadratic"],
     "70474b1fa5510253ead84e99a9debe2fb9b8f3371f004059ca389a27aec19ee8",
     None),
    (["--alg", "uncertain-median"],
     "42efbfd542db477d6d9fe86fe6ab9ad25404cccee3bd59e5bc4ddae42dc037ee",
     "971f1530cc61586624a0a8e25af1c0553ab1bd71d8d084e83248a7cc1e447e99"),
    (["--alg", "uncertain-means"],
     "41e76bf8d7e7a15b8ca96d1593b62c2ac1c46d1fa65ead8967360b33103b659a",
     "f614e8ba2eafb15d2be4be7b6abfecc5b9d5e1234d6cd5ca049ed0741b0644c2"),
    (["--alg", "uncertain-center-pp"],
     "06ae099428a13130d6d18175a9b6e392a5aeb620a48b4ea407aeb878182a7c89",
     "87e13b2100d1c8a7fdd03e9323414d7d0c4fe03d0c5b2cf9698f4b388020dbd8"),
    (["--alg", "center-g"],
     "deba808202c451f810a55904ff7a26bcd4c2d7ee7309f955a248b5ff7f22bd43",
     "d0867427879ab02a91459fa8801df056fed737272109bcf478a62af81cbb1f1f"),
]


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    pts_f = root / "pts.jsonl"
    write_points_jsonl(pts_f, gen_planted(48, 2, 4, seed=6))
    universe, nodes = gen_uncertain_planted(14, 2, 2, seed=3)
    upts_f, nodes_f = root / "upts.jsonl", root / "nodes.jsonl"
    write_points_jsonl(upts_f, universe)
    write_nodes_jsonl(nodes_f, nodes)
    return root, (["--input", str(pts_f)] + _POINT_ARGS,
                  ["--input", str(upts_f), "--nodes", str(nodes_f)] + _NODE_ARGS)


@pytest.mark.parametrize("flags, report_sha, transcript_sha", _GOLDEN,
                         ids=[" ".join(g[0][1:]) for g in _GOLDEN])
def test_solve_golden_reports(golden_inputs, flags, report_sha, transcript_sha,
                              capsys):
    root, (point_args, node_args) = golden_inputs
    data = node_args if flags[1] in _NODE_ALGS else point_args
    argv = ["solve"] + flags + data
    tr = root / "transcript.jsonl"
    if transcript_sha is not None:
        argv += ["--transcript", str(tr)]
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == report_sha
    if transcript_sha is not None:
        assert hashlib.sha256(tr.read_bytes()).hexdigest() == transcript_sha


# Pins of the center-protocol reports with their "evals" block removed, so a
# change to how many distances the center sites evaluate may move the counts
# but no other byte of these reports.
_GOLDEN_NO_EVALS = [
    (["--alg", "kt-center"],
     "7a96c3d01f5c4cbe09b4a400e7d7980672972f12f896f928106d5a0892cf4cba"),
    (["--alg", "uncertain-center-pp"],
     "3d199c7aab91277fe22f2288381db6e053d089d522a6ad560739bcb923c9bf7c"),
    (["--alg", "one-round", "--objective", "center"],
     "53831dd72e2ef1366f67b913453d813ffbbe31a5c30aef7a9152acc6f9dc8abe"),
    (["--alg", "one-round", "--objective", "center", "--jobs", "2"],
     "53831dd72e2ef1366f67b913453d813ffbbe31a5c30aef7a9152acc6f9dc8abe"),
]


@pytest.mark.parametrize("flags, stripped_sha", _GOLDEN_NO_EVALS,
                         ids=[" ".join(g[0][1:]) for g in _GOLDEN_NO_EVALS])
def test_solve_golden_reports_without_evals(golden_inputs, flags, stripped_sha,
                                            capsys):
    _, (point_args, node_args) = golden_inputs
    data = node_args if flags[1] in _NODE_ALGS else point_args
    code, out, err = run(["solve"] + flags + data, capsys)
    assert code == 0, err
    report = json.loads(out)
    del report["evals"]
    blob = json.dumps(report, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == stripped_sha

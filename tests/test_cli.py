"""Command-line interface: subcommands, formats, exit codes."""

import json

import numpy as np
import pytest

from partialclust.cli import gen_planted, gen_uncertain_planted, main
from partialclust.io import write_matrix, write_points_jsonl

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

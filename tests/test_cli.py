"""Command-line interface: subcommands, formats, exit codes."""

import hashlib
import json
import warnings

import numpy as np
import pytest

from partialclust import MetricSpace, Partition, cli, run_kt_median_clustering_only
from partialclust.cli import gen_planted, gen_uncertain_planted, main
from partialclust.io import write_matrix, write_nodes_jsonl, write_points_jsonl

from helpers import random_points, record_blocks


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


def test_subquadratic_payload_and_transcript_refusal(planted_file, tmp_path,
                                                     monkeypatch, capsys):
    code, out, _ = run(["solve", "--input", str(planted_file),
                        "--alg", "subquadratic", "--k", "2", "--t", "3",
                        "--alpha", "1.0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["depth"] == 1
    assert payload["evals"]["total"] > 0

    # the transcript is refused before any solving
    def never(*args, **kwargs):
        raise AssertionError("solved a run whose transcript is refused")

    monkeypatch.setattr(cli, "subquadratic_solve", never)
    tr = tmp_path / "tr.jsonl"
    code, out, err = run(["solve", "--input", str(planted_file),
                          "--alg", "subquadratic", "--k", "2", "--t", "3",
                          "--transcript", str(tr)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: --alg subquadratic does not read --transcript\n"
    assert not tr.exists()


@pytest.mark.parametrize("n, k, t", [(120, 3, 5), (50, 2, 3)],
                         ids=["recursive", "leaf"])
def test_subquadratic_report_counts_every_distance(n, k, t, tmp_path,
                                                    monkeypatch, capsys):
    """Every distance the solve evaluates, point-level pricing included, is
    in the report's ``evals.total``: the points are expanded on the view the
    solution was priced on, so no distance is evaluated twice."""
    path = tmp_path / "pts.jsonl"
    write_points_jsonl(path, gen_planted(n, k, t, seed=1))
    blocks = record_blocks(monkeypatch)
    code, out, _ = run(["solve", "--input", str(path), "--alg", "subquadratic",
                        "--k", str(k), "--t", str(t), "--alpha", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert (payload["levels"][0][1] > 0) == (n > 64)
    assert sum(b.entries for b in blocks) == payload["evals"]["total"]


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
    # center-g takes no seed, yet its report prints the one given, and a
    # negative seed stays an unusable argument
    center_g = ["solve", "--input", str(pts_f), "--nodes", str(nodes_f),
                "--alg", "center-g", "--k", "2", "--t", "2", "--seed"]
    code, out, _ = run(center_g + ["9"], capsys)
    assert code == 0
    seeded = json.loads(out)
    assert seeded["params"].pop("seed") == 9 and payload["params"].pop("seed") == 0
    assert seeded == payload
    code, out, err = run(center_g + ["-1"], capsys)
    assert code == 2 and out == "" and "seed" in err


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
    for alg, jobs in (("kt-median", "0"), ("kt-median", "-3"), ("subquadratic", "0")):
        code, out, err = run(["solve", "--input", str(planted_file), "--alg",
                              alg, "--k", "2", "--t", "3",
                              "--jobs", jobs], capsys)
        assert code == 2 and out == "" and "jobs" in err
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


# (--alg, the flags that make epsilon, (1 + epsilon) t, alpha or the
# recursion depth non-finite)
_NON_FINITE = [(alg, ["--epsilon", e]) for alg in ("kt-median", "kt-median-co", "one-round")
               for e in ("nan", "inf", "1e308")] + [
    ("kt-means", ["--epsilon", "nan"]),
    ("one-round", ["--objective", "center", "--epsilon", "nan"]),
    ("uncertain-median", ["--epsilon", "inf"]),
    ("center-g", ["--epsilon", "nan"]),
    ("subquadratic", ["--alpha", "nan"]),
    ("subquadratic", ["--alpha", "inf"]),
    ("subquadratic", ["--alpha", "1e-320"]),
]


@pytest.mark.parametrize("alg, extra", _NON_FINITE,
                         ids=[f"{alg} {' '.join(extra)}" for alg, extra in _NON_FINITE])
def test_non_finite_epsilon_or_alpha_exits_2(tmp_path, alg, extra, capsys):
    """A non-finite epsilon or (1 + epsilon) t, or a non-finite alpha or
    recursion depth, is an unusable argument (exit 2), not a traceback.
    One-round center reads no epsilon, yet a NaN one is refused there too."""
    pts, nodes = tmp_path / "pts.jsonl", []
    if alg in ("uncertain-median", "center-g"):
        universe, node_list = gen_uncertain_planted(20, 2, 3, seed=1)
        write_points_jsonl(pts, universe)
        write_nodes_jsonl(tmp_path / "nodes.jsonl", node_list)
        nodes = ["--nodes", str(tmp_path / "nodes.jsonl")]
    else:
        write_points_jsonl(pts, gen_planted(40, 2, 3, seed=1))
    code, out, err = run(["solve", "--input", str(pts), "--alg", alg, "--k", "2",
                          "--t", "3"] + nodes + extra, capsys)
    assert (code, out) == (2, "") and extra[-2][2:] in err


_THREE_POINTS = "".join(json.dumps({"id": i, "coords": c}) + "\n" for i, c in
                        enumerate([[0.0, 0.0], [3.0, 4.0], [6.0, 0.0]]))
_THREE_BY_THREE = "3\n0 5 6\n5 0 5\n6 5 0\n"
_INPUT_ERRORS = [
    # (id, files to write, solve arguments naming them, message in stderr)
    ("matrix-empty", {"m.txt": ""}, ["--matrix", "m.txt"], "empty matrix file"),
    ("matrix-count", {"m.txt": "0\n"}, ["--matrix", "m.txt"],
     "point count must be positive"),
    ("matrix-short-row", {"m.txt": "2\n0 1\n1\n"}, ["--matrix", "m.txt"],
     "expected 2 entries, found 1"),
    ("matrix-not-number", {"m.txt": "2\n0 x\nx 0\n"}, ["--matrix", "m.txt"],
     "matrix entries must be numbers"),
    ("points-no-rows", {"p.jsonl": "\n"}, ["--input", "p.jsonl"],
     "file holds no points"),
    ("nodes-no-rows", {"p.jsonl": _THREE_POINTS, "n.jsonl": "\n"},
     ["--input", "p.jsonl", "--nodes", "n.jsonl", "--alg", "center-g"],
     "file holds no nodes"),
    ("input-and-matrix", {"p.jsonl": _THREE_POINTS, "m.txt": _THREE_BY_THREE},
     ["--input", "p.jsonl", "--matrix", "m.txt"], "give --input or --matrix, not both"),
    ("by-file-matrix", {"m.txt": _THREE_BY_THREE},
     ["--matrix", "m.txt", "--partition", "by-file"],
     "by-file partition needs --input files"),
    ("node-alg-no-nodes", {"p.jsonl": _THREE_POINTS},
     ["--input", "p.jsonl", "--alg", "uncertain-median"],
     "--alg uncertain-median needs --nodes"),
]


@pytest.mark.parametrize("files, args, message", [e[1:] for e in _INPUT_ERRORS],
                         ids=[e[0] for e in _INPUT_ERRORS])
def test_solve_input_errors_exit_2(tmp_path, files, args, message, capsys):
    """Unusable input files and input flags exit 2 with nothing on stdout
    and the reason on stderr. An --alg not given is kt-median."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in args]
    if "--alg" not in argv:
        argv += ["--alg", "kt-median"]
    code, out, err = run(["solve", "--k", "1", "--t", "0"] + argv, capsys)
    assert (code, out) == (2, "") and message in err


# What each --alg reads beyond --k, --t, the input, the output flags, --seed
# and --jobs, as the README's table gives it.
_SITES = ("--sites", "--partition", "--transcript")
_READS = {
    "kt-median": _SITES + ("--rho", "--epsilon"),
    "kt-means": _SITES + ("--rho", "--epsilon"),
    "kt-center": _SITES + ("--rho",),
    "kt-median-co": _SITES + ("--delta", "--epsilon"),
    "one-round": _SITES + ("--objective", "--epsilon"),
    "subquadratic": ("--objective", "--alpha"),
    "uncertain-median": _SITES + ("--nodes", "--rho", "--epsilon"),
    "uncertain-means": _SITES + ("--nodes", "--rho", "--epsilon"),
    "uncertain-center-pp": _SITES + ("--nodes", "--rho"),
    "center-g": _SITES + ("--nodes", "--epsilon"),
}
# Every flag some --alg does not read, at its default value; files go
# under each test's tmp_path.
_FLAG_VALUES = {"--sites": "2", "--partition": "round-robin",
                "--transcript": "tr.jsonl", "--nodes": "missing.jsonl",
                "--rho": "2.0", "--delta": "0.25", "--epsilon": "1.0",
                "--alpha": "0.5", "--objective": "median"}
_REFUSED = [(alg, [flag, _FLAG_VALUES[flag]]) for alg, reads in _READS.items()
            for flag in _FLAG_VALUES if flag not in reads] + [
    ("kt-median", ["--objective", "means", "--nodes", "missing.jsonl",
                   "--alpha", "0.3", "--delta", "0.9"]),
    ("one-round", ["--alpha", "1"]),
    ("kt-center", ["--epsilon", "1"]),
]


@pytest.mark.parametrize("alg, extra", _REFUSED,
                         ids=[f"{alg} {' '.join(extra)}" for alg, extra in _REFUSED])
def test_solve_refuses_flags_its_alg_does_not_read(planted_file, tmp_path, alg,
                                                   extra, monkeypatch, capsys):
    """A flag the --alg does not read exits 2 and is named, even typed at
    its default value, before any input file is read."""
    def never(*args, **kwargs):
        raise AssertionError("read the input of a refused command line")

    for name in ("read_points_files", "read_nodes_files", "read_matrix"):
        monkeypatch.setattr(cli, name, never)
    extra = [str(tmp_path / v) if v.endswith(".jsonl") else v for v in extra]
    nodes = (["--nodes", str(tmp_path / "nodes.jsonl")]
             if "--nodes" in _READS[alg] else [])
    code, out, err = run(["solve", "--input", str(planted_file), "--alg", alg,
                          "--k", "2", "--t", "3"] + nodes + extra, capsys)
    assert (code, out) == (2, "")
    assert all(flag in err for flag in extra if flag.startswith("--"))
    assert not (tmp_path / "tr.jsonl").exists()


@pytest.mark.parametrize("flag, first", [
    ("--input", b'{"id": 0, "coords": [1.0]}\n'),
    ("--matrix", b"2\n"),
], ids=["points", "matrix"])
def test_non_utf8_input_exits_2(tmp_path, capsys, flag, first):
    p = tmp_path / "bad.txt"
    p.write_bytes(first + b"0.0 \xff\n")
    code, out, err = run(["solve", flag, str(p), "--alg", "kt-center",
                          "--k", "1", "--t", "0", "--sites", "1"], capsys)
    assert code == 2 and out == ""
    assert f"{p}:?: not UTF-8 text" in err


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

_ONE_MACHINE_ARGS = ["--k", "2", "--t", "4", "--seed", "5"]
_POINT_ARGS = _ONE_MACHINE_ARGS + ["--sites", "3"]
_NODE_ARGS = ["--k", "2", "--t", "2", "--seed", "5"]
_GOLDEN = [
    # (alg and flags, report sha256, transcript sha256 or None)
    (["--alg", "kt-median"],
     "9b471c28425eb22a1f64c328840936a96b7c6d7b7b7460c2be5c5fb53ffa603f",
     "6ceeb0c4481a843f1c8b96bda6a0baf4e8495141cb60453e15695ade36d59f38"),
    (["--alg", "kt-means"],
     "6dc8070e1c8a23793c78bc5a46d262df63bda43740a59bb42ee12861957fccc6",
     "6ceeb0c4481a843f1c8b96bda6a0baf4e8495141cb60453e15695ade36d59f38"),
    (["--alg", "kt-means", "--format", "csv"],
     "a407b5586bb924a5dc609f2278d2ac47aa31fd4f702236cf39ce02923d662760",
     "6ceeb0c4481a843f1c8b96bda6a0baf4e8495141cb60453e15695ade36d59f38"),
    (["--alg", "kt-center"],
     "7b55099ef370943663f5bbf7cfad7d39881ecc781733a1eebb910982040cacf1",
     "d2f6b2bfcb19181433dd9785bc29a15902c0eb97b9ffe4df279fb898331b334f"),
    (["--alg", "kt-median-co"],
     "72f85727088ede10376264eda9c4d7cca618bb2ff8f2b1abfd98911b150b350b",
     "d08563c65a2535f98dbbf58640e7f90bd02af63d2a8ea62a2d54c7428e4f8679"),
    (["--alg", "one-round", "--jobs", "2"],
     "56d5fba6bdeb6c4ff562403566e6d5f6a7a4795873f33a6ed83a36ed40857988",
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
     "bbf7aada9457b81214062dcab363288282f08d2e90858f792cd6ecba5b8db905",
     "d0867427879ab02a91459fa8801df056fed737272109bcf478a62af81cbb1f1f"),
]


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    pts_f, matrix_f = root / "pts.jsonl", root / "matrix.txt"
    pts = gen_planted(48, 2, 4, seed=6)
    write_points_jsonl(pts_f, pts)
    write_matrix(matrix_f, np.linalg.norm(pts[:, None] - pts[None, :], axis=2))
    universe, nodes = gen_uncertain_planted(14, 2, 2, seed=3)
    upts_f, nodes_f = root / "upts.jsonl", root / "nodes.jsonl"
    write_points_jsonl(upts_f, universe)
    write_nodes_jsonl(nodes_f, nodes)
    large_f = root / "large.jsonl"
    write_points_jsonl(large_f, gen_planted(1500, 5, 10, seed=2))
    planted_f = root / "planted.jsonl"
    write_points_jsonl(planted_f, gen_planted(200, 3, 2, seed=1))
    universe, nodes = gen_uncertain_planted(120, 3, 4, seed=6)
    bench_upts_f, bench_nodes_f = root / "bench-upts.jsonl", root / "bench-nodes.jsonl"
    write_points_jsonl(bench_upts_f, universe)
    write_nodes_jsonl(bench_nodes_f, nodes)
    # keyed by the input kind of cli._ALGS: subquadratic's "instance" is the
    # points file on one machine, without --sites
    inputs = {"points": ["--input", str(pts_f)] + _POINT_ARGS,
              "instance": ["--input", str(pts_f)] + _ONE_MACHINE_ARGS,
              "nodes": ["--input", str(upts_f), "--nodes", str(nodes_f)]
              + _NODE_ARGS,
              "large": ["--input", str(large_f)],
              "planted": ["--input", str(planted_f), "--k", "3", "--t", "2",
                          "--alpha", "0.5"],
              "bench-nodes": ["--input", str(bench_upts_f),
                              "--nodes", str(bench_nodes_f)],
              "matrix": ["--matrix", str(matrix_f)] + _POINT_ARGS}
    # centerg-threads inputs at benchmark seeds 9 and 10, with its flags
    for seed in (9, 10):
        universe, nodes = gen_uncertain_planted(120, 3, 4, seed=seed)
        upts_f, nodes_f = root / f"upts-{seed}.jsonl", root / f"nodes-{seed}.jsonl"
        write_points_jsonl(upts_f, universe)
        write_nodes_jsonl(nodes_f, nodes)
        inputs[f"bench-nodes-{seed}"] = [
            "--input", str(upts_f), "--nodes", str(nodes_f), "--k", "3",
            "--t", "4", "--sites", "2", "--seed", str(seed)]
    return root, inputs


@pytest.mark.parametrize("flags, report_sha, transcript_sha", _GOLDEN,
                         ids=[" ".join(g[0][1:]) for g in _GOLDEN])
def test_solve_golden_reports(golden_inputs, flags, report_sha, transcript_sha,
                              capsys):
    root, inputs = golden_inputs
    argv = ["solve"] + flags + inputs[cli._ALGS[flags[1]][0]]
    tr = root / "transcript.jsonl"
    if transcript_sha is not None:
        argv += ["--transcript", str(tr)]
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == report_sha
    if transcript_sha is not None:
        assert hashlib.sha256(tr.read_bytes()).hexdigest() == transcript_sha


_PLAIN_GOLDEN = [g[0] for g in _GOLDEN if "--format" not in g[0]]


@pytest.mark.parametrize("flags, report_sha", [g[:2] for g in _GOLDEN],
                         ids=[" ".join(g[0][1:]) for g in _GOLDEN])
def test_solve_reads_its_flags_at_default_values(golden_inputs, tmp_path, flags,
                                                 report_sha, capsys):
    """Every flag an --alg reads, typed at its default value, is accepted
    and leaves the golden report as it is."""
    _, inputs = golden_inputs
    given = [f for flag in _READS[flags[1]] if flag not in ("--sites", "--nodes")
             for f in (flag, _FLAG_VALUES[flag])]
    given = [str(tmp_path / v) if v.endswith(".jsonl") else v for v in given]
    code, out, err = run(["solve"] + flags + inputs[cli._ALGS[flags[1]][0]] + given,
                         capsys)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == report_sha


@pytest.mark.parametrize("flags", _PLAIN_GOLDEN,
                         ids=[" ".join(f[1:]) for f in _PLAIN_GOLDEN])
def test_solve_prints_report_extras_as_they_are(golden_inputs, flags,
                                                monkeypatch, capsys):
    """Every algorithm's ``extras`` are JSON-ready: the payload prints them
    unfiltered. The round-1 hulls are the report's ``curves``."""
    _, inputs = golden_inputs
    reports = []
    build = cli._report_payload

    def recorded(args, objective, report, *rest):
        reports.append(report)
        return build(args, objective, report, *rest)

    monkeypatch.setattr(cli, "_report_payload", recorded)
    code, out, err = run(["solve"] + flags + inputs[cli._ALGS[flags[1]][0]],
                         capsys)
    assert code == 0, err
    payload = json.loads(out)
    if flags[1] == "subquadratic":     # one machine: no protocol report
        assert not reports and "extras" not in payload
        return
    (report,) = reports
    assert json.loads(json.dumps(report.extras)) == payload["extras"]
    assert (report.curves is not None) == (
        flags[1] in ("kt-median", "kt-means", "kt-median-co"))


def test_clustering_only_pivot_merge_golden(tmp_path, capsys):
    """A kt-median-co report whose pivot site merges: site 0's budget of 6
    falls between its hull vertices 4 and 15, so it serves the union of
    those two solutions' centers with exactly 6 copies excluded."""
    coords = gen_planted(40, 3, 4, seed=1)
    curves = run_kt_median_clustering_only(
        Partition.round_robin(MetricSpace.euclidean(coords), 4), 3, 15).curves
    assert curves[0].hull_q == (0, 3, 4, 15)
    pts, tr = tmp_path / "pts.jsonl", tmp_path / "transcript.jsonl"
    write_points_jsonl(pts, coords)
    code, out, err = run(["solve", "--input", str(pts), "--alg", "kt-median-co",
                          "--k", "3", "--t", "15", "--sites", "4",
                          "--transcript", str(tr)], capsys)
    assert code == 0, err
    report = json.loads(out)
    assert report["allocation"]["pivot_site"] == 0 and report["budgets"][0] == 6
    assert (report["cost"], report["n_outliers"]) == (1.8017870523957937, 33)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "297f4f782b522637c3aff9ea8ec2d681b00661c377e116a35129f26002b0bcde"
    assert hashlib.sha256(tr.read_bytes()).hexdigest() == \
        "2384b2c088816a64c10be4968455799bc2d9937425f8ccbd16712f6f13ad6b92"


# Oracle pins recorded before the oracle named its outliers through the
# runners' expansion. The points file holds 18 ids over 12 distinct points:
# ids 12-17 repeat points 9, 11, 4, 8, 11 and 7, so at t = 2 each objective
# cuts a demand of two ids part way and must exclude its higher id (14 of
# point 4, 17 of point 7). The nodes are the golden node input.
_ORACLE_GOLDEN = [
    # (input, objective, outliers, report sha256)
    ("points", "median", [10, 14],
     "786379a4efc5c7c4124b3ce01d6ae1ea14788cafa550cd94cdd7681554356314"),
    ("points", "means", [10, 17],
     "02f81942ee2a270df4755def90c5fe600549e9e904a3175ce501f5fc2314aca4"),
    ("points", "center", [10, 17],
     "41fd8ac608b4f37106b39d794baa6adfa20fc4abc1065f7c1abb3e10e1595e4a"),
    ("nodes", "median", [12, 13],
     "aba36a64908c8df8ea4f58e37dd18dc473b009cbc42e153cc1cfe68a888f035a"),
    ("nodes", "means", [12, 13],
     "4ce221fe87ad48d2f04d3a0353688d10376da3ab966b9c5fa6f0d2ae8aaa216e"),
    ("nodes", "center", [12, 13],
     "c52f685e369df595c95149f712cf66488e6b8d8d8022ef5ff5c9fdbc4d749b62"),
]


@pytest.mark.parametrize("data, objective, outliers, report_sha", _ORACLE_GOLDEN,
                         ids=[f"{g[0]} {g[1]}" for g in _ORACLE_GOLDEN])
def test_oracle_golden_reports(golden_inputs, tmp_path, data, objective,
                               outliers, report_sha, capsys):
    root, _ = golden_inputs
    if data == "points":
        base = gen_planted(12, 2, 2, seed=4)
        write_points_jsonl(tmp_path / "pts.jsonl",
                           np.vstack([base, base[[9, 11, 4, 8, 11, 7]]]))
        files = ["--input", str(tmp_path / "pts.jsonl")]
    else:
        files = ["--input", str(root / "upts.jsonl"),
                 "--nodes", str(root / "nodes.jsonl")]
    code, out, err = run(["oracle"] + files + ["--k", "2", "--t", "2",
                                               "--objective", objective], capsys)
    assert code == 0, err
    assert json.loads(out)["outliers"] == outliers
    assert hashlib.sha256(out.encode()).hexdigest() == report_sha


# Pins of reports with their "evals" block (the "evals_total" column of a
# CSV row) removed, so a change to how many distances a run evaluates may
# move the counts but no other byte of these reports. The "large" row runs
# on an input shaped like the median-large benchmark workload, the
# "bench-nodes" rows on one shaped like centerg-threads.
_BENCH_NODE_ARGS = ["--k", "3", "--t", "4", "--sites", "2", "--seed", "6"]
_GOLDEN_NO_EVALS = [
    # (input, alg and flags, sha256 of the report without its evals)
    ("points", ["--alg", "kt-center"],
     "7a96c3d01f5c4cbe09b4a400e7d7980672972f12f896f928106d5a0892cf4cba"),
    ("nodes", ["--alg", "uncertain-center-pp"],
     "3d199c7aab91277fe22f2288381db6e053d089d522a6ad560739bcb923c9bf7c"),
    ("points", ["--alg", "one-round", "--objective", "center"],
     "53831dd72e2ef1366f67b913453d813ffbbe31a5c30aef7a9152acc6f9dc8abe"),
    ("points", ["--alg", "one-round", "--objective", "center", "--jobs", "2"],
     "53831dd72e2ef1366f67b913453d813ffbbe31a5c30aef7a9152acc6f9dc8abe"),
    ("points", ["--alg", "kt-median"],
     "fef13a78927711aa567e984b7444668573577968ab08283ef32caa17d78e184b"),
    ("points", ["--alg", "kt-means"],
     "9bc6cf1d7b12ff67885c35f9023f8c89824443e1386b6ac23707643d871c36bb"),
    ("points", ["--alg", "kt-means", "--format", "csv"],
     "221afbc3ef347897a66a40b90eecd776bcaa64550cd09334e79b984338200483"),
    ("points", ["--alg", "kt-median-co"],
     "5d1c6da01f6677950e74bc66c3ea8ab0e0d8f51b7ad8b33f9f74e621f7186809"),
    ("points", ["--alg", "one-round"],
     "a4310695accedcff086c957a5f7e06f637bf79eac23977b2472bec042a5e06d0"),
    ("points", ["--alg", "one-round", "--objective", "means"],
     "690a2461333750ac8ee7237064d8a4b7633e8cb3c509aa5a5960608c6f307712"),
    ("large", ["--alg", "kt-median", "--k", "5", "--t", "10", "--sites", "4",
               "--seed", "2"],
     "e086d9be19f2825480c39c3b9fb7a6cb3b3ac206e46222c03307902c068a90cf"),
    ("nodes", ["--alg", "uncertain-median"],
     "cfb883dcbc1b511d12caef77e167b9a411c504297f773f613d352098488fe326"),
    ("nodes", ["--alg", "uncertain-means"],
     "1f04eca23eb665793c751f8b92656deceefb0e2b84bac59a7d407bc9a16b7bb3"),
    ("nodes", ["--alg", "center-g"],
     "f8778b5cd317ee3f236b30c71f45dd8e897352b0625b9a965a6149834024553e"),
    ("bench-nodes", ["--alg", "uncertain-center-pp"] + _BENCH_NODE_ARGS,
     "7e03dc0a5fef06a04de9f57ae27ee1288be2c15108f1b1093d4466e34012d8a5"),
    ("bench-nodes", ["--alg", "center-g"] + _BENCH_NODE_ARGS,
     "d8518f7bb46a6b86ba441ac461f68f2695e0fdb99e181341155631faef0abda0"),
]


def _without_evals(out):
    if not out.startswith("{"):
        head, row = (line.split(",") for line in out.splitlines())
        keep = [i for i, col in enumerate(head) if col != "evals_total"]
        return "\n".join(",".join(line[i] for i in keep) for line in (head, row))
    report = json.loads(out)
    del report["evals"]
    return json.dumps(report, sort_keys=True)


@pytest.mark.parametrize("data, flags, stripped_sha", _GOLDEN_NO_EVALS,
                         ids=[" ".join(g[1][1:]) for g in _GOLDEN_NO_EVALS])
def test_solve_golden_reports_without_evals(golden_inputs, data, flags,
                                            stripped_sha, capsys):
    _, inputs = golden_inputs
    code, out, err = run(["solve"] + flags + inputs[data], capsys)
    assert code == 0, err
    blob = _without_evals(out).encode()
    assert hashlib.sha256(blob).hexdigest() == stripped_sha


# Pins on inputs shaped like two benchmark workloads: centerg-threads
# inputs, whose sites reach the near-zero tau levels where one primal-dual
# run takes 30-50 steps, and a median-large input with its 375-point sites.
# At seeds 18-20 the top tau levels truncate most costs to 0, where the
# many-center certificate settles probes and runs open paid candidates
# several at a step; these pins were recorded before either existed.
_BENCH_GOLDEN = [
    # (input kind and flags, report sha256, transcript sha256); the input
    # seed is the solve's --seed
    ("uncertain", ["--alg", "center-g", "--k", "3", "--t", "4", "--sites", "2",
                   "--seed", "6"],
     "e84bf12fe2b713bec83f1e29a1b8f85525c6eb1417a696e59490143806d509f9",
     "56967322579e256aa4b08572d404eadb67cabd47d2bc7c4d68fda502189c88b5"),
    ("uncertain", ["--alg", "center-g", "--k", "3", "--t", "4", "--sites", "2",
                   "--seed", "18"],
     "209e9df4781d1917aa9dcd277fd1ddcc561f899f8ddcbba3233b6e46126e7468",
     "1c0ac84889cc080c096e775b42c827d7a38683b0efd33fb8386c1d6c6f36e8f1"),
    ("uncertain", ["--alg", "center-g", "--k", "3", "--t", "4", "--sites", "2",
                   "--seed", "19"],
     "6116f92a8634a9b9df3bc086a4b7f6ab075b80791d57a7ecf8ba62a40c070a21",
     "225448a8ead72ffcb4e27d685eb43d6528b975adf4627cab2c6c28a2cc67d95c"),
    ("uncertain", ["--alg", "center-g", "--k", "3", "--t", "4", "--sites", "2",
                   "--seed", "20"],
     "3495da74932f6ce37088cc1fcac1523c05adb7ad3e78152bf09f9c1e4611d16d",
     "6632633138256c51181e9db3d581a9e53ed5e04b9c8752366519472a69c2e43e"),
    ("planted", ["--alg", "kt-median", "--k", "5", "--t", "10", "--sites", "4",
                 "--seed", "2"],
     "568db50ac6c2c1d09dd0130fe2caacded42abe89cd96c6a9504124b8043b8420",
     "0d3876b35533e097f0c16a2b66f060e5786e03486dff5eadf25e4ae06c6d2c30"),
]


@pytest.mark.parametrize("kind, flags, report_sha, transcript_sha", _BENCH_GOLDEN,
                         ids=["center-g", "center-g-18", "center-g-19", "center-g-20",
                              "kt-median"])
def test_solve_bench_shaped_golden_reports(tmp_path, kind, flags, report_sha,
                                           transcript_sha, capsys):
    pts_f, tr = tmp_path / "pts.jsonl", tmp_path / "transcript.jsonl"
    if kind == "uncertain":
        universe, nodes = gen_uncertain_planted(120, 3, 4, seed=int(flags[-1]))
        write_points_jsonl(pts_f, universe)
        write_nodes_jsonl(tmp_path / "nodes.jsonl", nodes)
        flags = flags + ["--nodes", str(tmp_path / "nodes.jsonl")]
    else:
        write_points_jsonl(pts_f, gen_planted(1500, 5, 10, seed=2))
    code, out, err = run(["solve", "--input", str(pts_f), "--transcript", str(tr)]
                         + flags, capsys)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == report_sha
    assert hashlib.sha256(tr.read_bytes()).hexdigest() == transcript_sha


# Pins on a points file whose points coincide: 209 draws from a 120-point
# planted input, with its outliers repeated and (0.0, 7.0) written once as
# (-0.0, 7.0), so sites hold merged weights, multi-id tags and excluded
# copies that take a demand's highest ids. Recorded before the point path
# kept its demands as arrays.
_DUPLICATE_ARGS = ["--k", "3", "--t", "5", "--seed", "4"]
_DUPLICATE_GOLDEN = [
    # (alg and flags, report sha256)
    (["--alg", "one-round", "--objective", "center"],
     "24edb1477be5e46a0937315ad8c5780cadd2cf8ccd5f5b1d3e781415706b82f6"),
    (["--alg", "kt-median"],
     "5e5ff4d222e180dc38b07c16daf5768499336080f4d74cc22c9855c5149755aa"),
    (["--alg", "kt-median-co"],
     "9b525d23213d1438f6035f34b820c387b277a989309f69b5e298424284433f8d"),
    (["--alg", "subquadratic", "--alpha", "1"],
     "e6b9c0fbc10b9bddac7d09765bc973fba0cfdec5fecd23445f8bde76ac5e55f1"),
    (["--alg", "kt-center"],
     "5b2b632affc91c0ec85f12aedcdd8e7e8c1670e1859945c2fcadc14ba720128c"),
    (["--alg", "kt-means"],
     "f653ca04fa46fec74680babdfd0dd840a39065f2450bda71f1b8788c6e0ab3ad"),
    (["--alg", "one-round"],
     "1e2e2ded617dc3367da43388a8de3094e2d98779ffea04bf2472522f674c9d35"),
]


@pytest.fixture(scope="module")
def duplicate_points_file(tmp_path_factory):
    base = gen_planted(120, 3, 6, seed=11)
    rng = np.random.default_rng(3)
    pts = np.vstack([base[rng.integers(0, 120, size=200)], base[114:], base[117:]])
    pts[10] = [0.0, 7.0]
    pts[150] = [-0.0, 7.0]
    path = tmp_path_factory.mktemp("duplicates") / "pts.jsonl"
    write_points_jsonl(path, pts)
    return path


@pytest.mark.parametrize("flags, report_sha", _DUPLICATE_GOLDEN,
                         ids=[" ".join(g[0][1:]) for g in _DUPLICATE_GOLDEN])
def test_solve_duplicate_points_golden_reports(duplicate_points_file, flags,
                                               report_sha, capsys):
    sites = [] if flags[1] == "subquadratic" else ["--sites", "3"]
    code, out, err = run(["solve", "--input", str(duplicate_points_file)] + flags
                         + _DUPLICATE_ARGS + sites, capsys)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == report_sha


# Every --alg, one-round under each objective, on the golden inputs, the
# duplicate points and the centerg-threads-shaped nodes. The golden nodes
# also run over contiguous sites, which put nodes 12 and 13, of one
# support, on one site. On the seed 9 and 10 centerg-threads shapes the
# coordinator serves two nodes of one support at one center, and the
# matrix input reads its center costs as columns, not rows. subquadratic
# at depth 2 repeats blocks across levels, since nothing carries a block
# from one level to the next: on the duplicate points a virtual site of
# the second level holds the very demands of one of the first level's
# (one 9 x 9 block), and on 200 planted points with k 3 and t 2 every
# site of 6 = 2k demands forwards them all, so the second level repeats
# the first whole (34 blocks, 1,814 of 43,628 entries).
_POINT_FLAGS = [["--alg", alg] for alg in ("kt-median", "kt-means", "kt-center",
                                           "kt-median-co", "subquadratic")] + [
    ["--alg", "one-round", "--objective", obj] for obj in ("median", "means", "center")]
_NODE_ALGS = ("uncertain-median", "uncertain-means", "uncertain-center-pp", "center-g")
_ONCE_RUNS = (
    [(data, flags) for data in ("points", "duplicates") for flags in _POINT_FLAGS]
    + [(data, ["--alg", alg]) for data in ("nodes", "nodes-contiguous")
       for alg in _NODE_ALGS]
    + [("bench-nodes", ["--alg", alg] + _BENCH_NODE_ARGS)
       for alg in ("uncertain-center-pp", "center-g")]
    + [(f"bench-nodes-{seed}", ["--alg", alg]) for seed in (9, 10)
       for alg in ("uncertain-median", "uncertain-center-pp", "center-g")]
    + [("matrix", ["--alg", "kt-center"]),
       ("matrix", ["--alg", "one-round", "--objective", "center"]),
       ("matrix", ["--alg", "kt-median"]),
       ("planted", ["--alg", "subquadratic"])])


@pytest.fixture(scope="module")
def six_nodes(tmp_path_factory):
    root = tmp_path_factory.mktemp("six-nodes")
    universe, nodes = gen_uncertain_planted(6, 2, 1, seed=1)
    write_points_jsonl(root / "universe.jsonl", universe)
    write_nodes_jsonl(root / "nodes.jsonl", nodes)
    return ["--input", str(root / "universe.jsonl"), "--nodes", str(root / "nodes.jsonl")]


def _no_float_constant(name):
    raise AssertionError(f"report holds {name}")


@pytest.mark.parametrize("sites, k, t", [
    pytest.param(6, 2, 1, id="one-node sites"),
    pytest.param(2, 6, 1, id="k = nodes"),
    pytest.param(2, 8, 0, id="k > nodes"),
    pytest.param(2, 1, 5, id="t = n - 1"),
    pytest.param(6, 6, 5, id="all three")])
@pytest.mark.parametrize("alg", _NODE_ALGS)
def test_extreme_node_inputs_work_or_exit_3(six_nodes, alg, sites, k, t, capsys):
    """Six nodes at the extremes of sites, k and t give a finite report
    within the outlier budget: t nodes for uncertain-center-pp, the relaxed
    floor((1 + epsilon) t) = 2t for the others. The one refusal is
    center-g's, exit 3, where that relaxed budget reaches the node count."""
    code, out, err = run(["solve", "--alg", alg, "--k", str(k), "--t", str(t),
                          "--sites", str(sites)] + six_nodes, capsys)
    if alg == "center-g" and 2 * t >= 6:
        assert code == 3 and out == "" and "relaxed outlier budget" in err
        return
    assert code == 0, err
    report = json.loads(out, parse_constant=_no_float_constant)
    assert report["n_nodes"] == 6
    assert report["n_outliers"] <= (t if alg == "uncertain-center-pp" else 2 * t)
    assert 1 <= len(report["centers"]) <= k


_REPEATS_A_LEVEL = pytest.mark.xfail(
    strict=True, reason="subquadratic evaluates again, at a later level, "
                        "blocks an earlier level evaluated")


@pytest.mark.parametrize("data, flags", [
    pytest.param(d, f, id=f"{d} {' '.join(f[1:])}",
                 marks=[_REPEATS_A_LEVEL] if (d, f[1]) in (("duplicates", "subquadratic"),
                                                           ("planted", "subquadratic"))
                 else [])
    for d, f in _ONCE_RUNS])
def test_each_party_evaluates_a_distance_block_once(
        golden_inputs, duplicate_points_file, data, flags, monkeypatch, capsys):
    """No site and no coordinator evaluates one distance block twice in a
    run, and ``evals.total`` counts every block evaluated. center-g's tau
    grid reads the whole universe once, uncounted."""
    _, inputs = golden_inputs
    one_machine = cli._ALGS[flags[1]][0] == "instance"
    if data == "duplicates":
        argv = (["--input", str(duplicate_points_file)] + _DUPLICATE_ARGS
                + ([] if one_machine else ["--sites", "3"]))
    elif data == "nodes-contiguous":
        argv = inputs["nodes"] + ["--partition", "contiguous"]
    else:
        argv = inputs["instance" if one_machine and data == "points" else data]
    blocks = record_blocks(monkeypatch)
    code, out, err = run(["solve"] + flags + argv, capsys)
    assert code == 0, err
    counted = [(id(b.counter), b.rows, b.cols) for b in blocks if b.counter is not None]
    assert len(set(counted)) == len(counted)
    total = json.loads(out)["evals"]["total"]
    assert sum(b.entries for b in blocks if b.counter is not None) == total
    uncounted = [(b.rows, b.cols) for b in blocks if b.counter is None]
    if flags[1] == "center-g":
        ((rows, cols),) = uncounted
        assert rows == cols == tuple(range(len(rows)))
    else:
        assert uncounted == []


def test_solve_rejects_booleans_and_huge_numbers(tmp_path, capsys):
    """A boolean id or coordinate and a coordinate beyond the float range
    exit 2 with the file and line, not a traceback."""
    head = '{"id": 0, "coords": [1.0, 2.0]}\n'
    for row in ('{"id": true, "coords": [2.0, 3.0]}',
                '{"id": 1, "coords": [2.0, false]}',
                '{"id": 1, "coords": [2.0, 1' + "0" * 400 + ']}'):
        path = tmp_path / "bad.jsonl"
        path.write_text(head + row + "\n")
        code, out, err = run(["solve", "--input", str(path), "--alg", "kt-center",
                              "--k", "1", "--t", "0"], capsys)
        assert code == 2 and out == "" and f"{path}:2:" in err

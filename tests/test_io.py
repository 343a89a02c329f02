"""File formats: point lines, node lines, distance matrices."""

import numpy as np
import pytest

from partialclust import MetricSpace, UncertainNode
from partialclust.errors import ParseError
from partialclust.io import (
    read_matrix,
    read_nodes_files,
    read_points_files,
    read_points_jsonl,
    write_matrix,
    write_nodes_jsonl,
    write_points_jsonl,
)

from helpers import random_points


def test_points_roundtrip(tmp_path):
    pts = random_points(1, 12, dim=3)
    p = tmp_path / "pts.jsonl"
    write_points_jsonl(p, pts)
    space = read_points_jsonl(p)
    assert space.n == 12
    assert space.word_width == 3
    assert np.allclose(space.coords, pts)


def test_points_split_across_files(tmp_path):
    pts = random_points(2, 10)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_points_jsonl(a, pts[:6])
    # second file must carry the continuing ids
    with open(b, "w") as fh:
        for i in range(6, 10):
            fh.write('{"id": %d, "coords": [%r, %r]}\n'
                     % (i, float(pts[i, 0]), float(pts[i, 1])))
    space, groups = read_points_files([a, b])
    assert space.n == 10
    assert groups == [[0, 1, 2, 3, 4, 5], [6, 7, 8, 9]]


def test_points_errors_carry_location(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": 0, "coords": [1.0]}\nnot json\n')
    with pytest.raises(ParseError) as ei:
        read_points_jsonl(p)
    assert str(p) in str(ei.value)
    assert ":2:" in str(ei.value)


@pytest.mark.parametrize("line,fragment", [
    ('{"id": "x", "coords": [1.0]}', "bad id"),
    ('{"coords": [1.0]}', "expected"),
    ('{"id": 1, "coords": []}', "nonempty"),
    ('{"id": 1, "coords": [1.0, 2.0]}', "dimension"),
])
def test_points_field_validation(tmp_path, line, fragment):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": 0, "coords": [1.0]}\n' + line + "\n")
    with pytest.raises(ParseError, match=fragment):
        read_points_jsonl(p)


def test_points_ids_must_cover_range(tmp_path):
    p = tmp_path / "gap.jsonl"
    p.write_text('{"id": 0, "coords": [1.0]}\n{"id": 2, "coords": [2.0]}\n')
    with pytest.raises(ParseError, match="missing"):
        read_points_jsonl(p)


def test_points_duplicate_id(tmp_path):
    p = tmp_path / "dup.jsonl"
    p.write_text('{"id": 0, "coords": [1.0]}\n{"id": 0, "coords": [2.0]}\n')
    with pytest.raises(ParseError, match="duplicate"):
        read_points_jsonl(p)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        read_points_jsonl(tmp_path / "nope.jsonl")


def test_matrix_roundtrip(tmp_path):
    pts = random_points(3, 5)
    eu = MetricSpace.euclidean(pts)
    M = np.array([[eu.distance(i, j) for j in range(5)] for i in range(5)])
    p = tmp_path / "m.txt"
    write_matrix(p, M)
    sp = read_matrix(p)
    assert sp.n == 5
    assert sp.word_width == 1
    # repr round-trips floats exactly
    assert sp.distance(1, 3) == eu.distance(1, 3)


def test_matrix_validation(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2\n0.0 1.0\n")
    with pytest.raises(ParseError):
        read_matrix(p)
    p.write_text("2\n0.0 1.0\n2.0 0.0\n")
    with pytest.raises(ParseError):  # asymmetric
        read_matrix(p)
    p.write_text("x\n")
    with pytest.raises(ParseError):
        read_matrix(p)


def test_nodes_roundtrip(tmp_path):
    space = MetricSpace.euclidean(random_points(4, 8))
    nodes = [
        UncertainNode(0, (0, 3), (0.5, 0.5)),
        UncertainNode(1, (2,), (1.0,)),
    ]
    p = tmp_path / "nodes.jsonl"
    write_nodes_jsonl(p, nodes)
    got, groups = read_nodes_files([p], space)
    assert got == nodes
    assert groups == [[0, 1]]


def test_nodes_support_bounds(tmp_path):
    space = MetricSpace.euclidean(random_points(5, 4))
    p = tmp_path / "nodes.jsonl"
    p.write_text('{"id": 0, "support": [7], "probs": [1.0]}\n')
    with pytest.raises(ParseError):
        read_nodes_files([p], space)


def test_nodes_bad_probs(tmp_path):
    space = MetricSpace.euclidean(random_points(6, 4))
    p = tmp_path / "nodes.jsonl"
    p.write_text('{"id": 0, "support": [0, 1], "probs": [0.9, 0.9]}\n')
    with pytest.raises(ParseError):
        read_nodes_files([p], space)


@pytest.mark.parametrize("text,line,fragment", [
    # a value split over two lines does not parse as one
    pytest.param('{"id": 0, "coords": [1\n2]}\n', 1,
                 "bad JSON: Expecting ',' delimiter", id="split-value"),
    pytest.param('{"id": 0, "coords": [1.0]} {"id": 1, "coords": [2.0]}\n', 1,
                 "bad JSON: Extra data", id="extra-data"),
    # a form feed ends no line, so the bad line stays line 3
    pytest.param('{"id": 0, "coords": [1.0]}\x0c\n{"id": 1, "coords": [2.0]}\n'
                 'not json\n', 3, "bad JSON: Expecting value", id="form-feed"),
    pytest.param('{"id": 0, "coords": [1.0]}\r\n\r\n{"id": 1, "coords": [2.0]}\r\n{\r\n',
                 4, "bad JSON", id="crlf"),
    # JSON booleans are neither ids nor coordinates
    pytest.param('{"id": 0, "coords": [1.0]}\n{"id": true, "coords": [2.0]}\n', 2,
                 "bad id True", id="boolean-id"),
    pytest.param('{"id": 0, "coords": [1.0]}\n{"id": 1, "coords": [false]}\n', 2,
                 "coords must be a nonempty number list", id="boolean-coordinate"),
    pytest.param('{"id": 0, "coords": [1.0]}\n{"id": 1, "coords": [1' + "0" * 400
                 + ']}\n', 2, "coordinates must fit a float", id="huge-coordinate"),
    pytest.param('{"id": 0, "coords": [1' + "0" * 5000 + ']}\n', 1,
                 "bad JSON: Exceeds the limit", id="too-many-digits"),
    # the first bad line wins, whatever the checks on later lines
    pytest.param('{"id": 0, "coords": [1.0]}\n{"id": 0, "coords": [true]}\n'
                 '{"id": -1}\n', 2, "duplicate id 0", id="first-bad-line"),
])
def test_points_reader_names_the_first_bad_line(tmp_path, text, line, fragment):
    p = tmp_path / "bad.jsonl"
    p.write_bytes(text.encode())
    with pytest.raises(ParseError) as ei:
        read_points_jsonl(p)
    assert ei.value.line == line
    assert fragment in str(ei.value)


def test_points_reader_checks_across_files(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text('{"id": 1, "coords": [1.0, 2.0]}\n')
    b.write_text('{"id": 0, "coords": [3.0, -0.0]}\n{"id": 1, "coords": [0, 0]}\n')
    with pytest.raises(ParseError, match="duplicate id 1") as ei:
        read_points_files([a, b])
    assert ei.value.path == b and ei.value.line == 2
    b.write_text('{"id": 0, "coords": [3.0]}\n')
    with pytest.raises(ParseError, match="dimension 1 != 2"):
        read_points_files([a, b])
    b.write_text('\n  {"id": 0, "coords": [3, -0.0]}  \n')
    space, groups = read_points_files([a, b])
    assert groups == [[1], [0]]
    assert space.coords.tolist() == [[3.0, -0.0], [1.0, 2.0]]


@pytest.mark.parametrize("row", [
    '{"id": 0, "support": [true], "probs": [1.0]}',
    '{"id": 0, "support": [1], "probs": [true]}',
    '{"id": false, "support": [1], "probs": [1.0]}',
])
def test_nodes_reject_booleans(tmp_path, row):
    space = MetricSpace.euclidean(random_points(7, 4))
    p = tmp_path / "nodes.jsonl"
    p.write_text(row + "\n")
    with pytest.raises(ParseError) as ei:
        read_nodes_files([p], space)
    assert ei.value.line == 1


@pytest.mark.parametrize("first, read", [
    pytest.param(b'{"id": 0, "coords": [1.0]}\n',
                 lambda p: read_points_files([p]), id="points"),
    pytest.param(b"2\n", read_matrix, id="matrix"),
    pytest.param(b'{"id": 0, "support": [0], "probs": [1.0]}\n',
                 lambda p: read_nodes_files([p], MetricSpace.euclidean(random_points(8, 4))),
                 id="nodes"),
])
def test_non_utf8_file_is_parse_error(tmp_path, first, read):
    """A byte that is not UTF-8 (here on line 2) is unusable input naming
    the file, not a decode traceback."""
    p = tmp_path / "bad.txt"
    p.write_bytes(first + b'{"id": 1, \xff}\n')
    with pytest.raises(ParseError, match=r"not UTF-8 text \(invalid start byte\)") as ei:
        read(p)
    assert ei.value.path == p and str(p) in str(ei.value)

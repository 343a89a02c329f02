"""File formats: point lists, distance matrices, uncertain node lists.

Points travel as JSON lines ``{"id": int, "coords": [floats]}``; ids must be
exactly 0..n-1 over all files read together (several files concatenate, and
the by-file partition rule groups points by their source file). A distance
matrix is a text file whose first line is n, followed by n rows of n
numbers. Uncertain nodes are JSON lines ``{"id", "support", "probs"}`` whose
support entries index a companion point universe. Floats serialize via
``repr`` round-tripping, so write-then-read is lossless.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError
from .metric import MetricSpace
from .uncertain import UncertainNode


def _parse_jsonl(path):
    rows = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParseError(str(exc), path=path) from None
    with fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rows.append((ln, json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad JSON: {exc.msg}", path=path, line=ln) from None
    return rows


def read_points_files(paths):
    """Read one or more point files into a euclidean space.

    Returns (space, groups) where ``groups[i]`` lists the point ids that came
    from ``paths[i]``.
    """
    seen = {}
    groups = []
    dim = None
    for path in paths:
        group = []
        for ln, row in _parse_jsonl(path):
            if not isinstance(row, dict) or "id" not in row or "coords" not in row:
                raise ParseError("expected {\"id\", \"coords\"}", path=path, line=ln)
            pid = row["id"]
            if not isinstance(pid, int) or pid < 0:
                raise ParseError(f"bad id {pid!r}", path=path, line=ln)
            if pid in seen:
                raise ParseError(f"duplicate id {pid}", path=path, line=ln)
            coords = row["coords"]
            if (not isinstance(coords, list) or not coords
                    or not all(isinstance(x, (int, float)) for x in coords)):
                raise ParseError("coords must be a nonempty number list",
                                 path=path, line=ln)
            if dim is None:
                dim = len(coords)
            elif len(coords) != dim:
                raise ParseError(f"dimension {len(coords)} != {dim}",
                                 path=path, line=ln)
            seen[pid] = [float(x) for x in coords]
            group.append(pid)
        if not group:
            raise ParseError("file holds no points", path=path)
        groups.append(group)
    n = len(seen)
    missing = set(range(n)) - set(seen)
    if missing:
        raise ParseError(
            f"ids must cover 0..{n - 1}; missing {sorted(missing)[:5]}",
            path=paths[-1])
    coords = np.array([seen[i] for i in range(n)], dtype=float)
    return MetricSpace.euclidean(coords), groups


def read_points_jsonl(path):
    space, _ = read_points_files([path])
    return space


def write_points_jsonl(path, coords):
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(coords):
            fh.write(json.dumps({"id": i, "coords": [float(x) for x in row]}))
            fh.write("\n")


def read_matrix(path):
    """Distance-matrix file: first line n, then n rows of n numbers."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(str(exc), path=path) from None
    body = [(ln, l) for ln, l in enumerate(lines, start=1) if l.strip()]
    if not body:
        raise ParseError("empty matrix file", path=path)
    ln0, head = body[0]
    try:
        n = int(head.strip())
    except ValueError:
        raise ParseError(f"expected point count, got {head.strip()!r}",
                         path=path, line=ln0) from None
    if n < 1:
        raise ParseError("point count must be positive", path=path, line=ln0)
    if len(body) - 1 != n:
        raise ParseError(f"expected {n} matrix rows, found {len(body) - 1}",
                         path=path, line=ln0)
    rows = []
    for ln, line in body[1:]:
        parts = line.split()
        if len(parts) != n:
            raise ParseError(f"expected {n} entries, found {len(parts)}",
                             path=path, line=ln)
        try:
            rows.append([float(x) for x in parts])
        except ValueError:
            raise ParseError("matrix entries must be numbers", path=path,
                             line=ln) from None
    try:
        return MetricSpace.from_matrix(np.array(rows))
    except Exception as exc:
        raise ParseError(str(exc), path=path) from None


def write_matrix(path, matrix):
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.shape[0]}\n")
        for row in matrix:
            fh.write(" ".join(repr(float(x)) for x in row))
            fh.write("\n")


def read_nodes_files(paths, space):
    """Read one or more uncertain-node files against a point universe.

    Returns (nodes, groups); node ids must cover 0..m-1 across all files.
    """
    seen = {}
    groups = []
    for path in paths:
        group = []
        for ln, row in _parse_jsonl(path):
            if (not isinstance(row, dict) or "id" not in row
                    or "support" not in row or "probs" not in row):
                raise ParseError("expected {\"id\", \"support\", \"probs\"}",
                                 path=path, line=ln)
            nid = row["id"]
            if not isinstance(nid, int) or nid < 0:
                raise ParseError(f"bad id {nid!r}", path=path, line=ln)
            if nid in seen:
                raise ParseError(f"duplicate id {nid}", path=path, line=ln)
            support = row["support"]
            probs = row["probs"]
            if (not isinstance(support, list) or not isinstance(probs, list)
                    or not all(isinstance(p, int) for p in support)
                    or not all(isinstance(p, (int, float)) for p in probs)):
                raise ParseError("support must be int ids, probs numbers",
                                 path=path, line=ln)
            for p in support:
                if not 0 <= p < space.n:
                    raise ParseError(f"support point {p} outside universe",
                                     path=path, line=ln)
            try:
                node = UncertainNode(nid, tuple(support),
                                     tuple(float(p) for p in probs))
            except Exception as exc:
                raise ParseError(str(exc), path=path, line=ln) from None
            seen[nid] = node
            group.append(nid)
        if not group:
            raise ParseError("file holds no nodes", path=path)
        groups.append(group)
    m = len(seen)
    missing = set(range(m)) - set(seen)
    if missing:
        raise ParseError(
            f"node ids must cover 0..{m - 1}; missing {sorted(missing)[:5]}",
            path=paths[-1])
    nodes = [seen[i] for i in range(m)]
    return nodes, groups


def write_nodes_jsonl(path, nodes):
    with open(path, "w", encoding="utf-8") as fh:
        for nd in nodes:
            fh.write(json.dumps({
                "id": nd.node_id,
                "support": [int(p) for p in nd.support],
                "probs": [float(p) for p in nd.probs],
            }))
            fh.write("\n")

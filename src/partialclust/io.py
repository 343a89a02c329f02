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

import itertools
import json

import numpy as np

from .errors import ParseError
from .metric import MetricSpace
from .uncertain import UncertainNode


_decode = json.JSONDecoder().raw_decode
_NUMBER = {int, float}      # JSON booleans are neither


def _parse_jsonl(path):
    """[(line number, value)] for the nonblank lines of ``path``, numbered as
    file iteration numbers them. Each line must hold one JSON value whole."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    value, end = _decode(line)
                    if end != len(line):
                        raise ValueError("Extra data")
                except ValueError:
                    try:    # for json.loads's own message
                        value = json.loads(line)
                    except ValueError as exc:
                        raise ParseError(f"bad JSON: {getattr(exc, 'msg', exc)}",
                                         path=path, line=ln) from None
                rows.append((ln, value))
    except OSError as exc:
        raise ParseError(str(exc), path=path) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from None
    return rows


def _id_error(row, keys, seen):
    """The message of the first check a line fails among: an object with
    ``keys``, an integer id >= 0, an id not in ``seen``; else None."""
    if type(row) is not dict or not all(k in row for k in keys):
        return "expected {" + ", ".join(f'"{k}"' for k in keys) + "}"
    rid = row["id"]
    if type(rid) is not int or rid < 0:
        return f"bad id {rid!r}"
    return f"duplicate id {rid}" if rid in seen else None


def _point_row_error(row, seen, dim):
    """The message of the first check a point line fails, or None."""
    msg = _id_error(row, ("id", "coords"), seen)
    if msg is not None:
        return msg
    coords = row["coords"]
    if (type(coords) is not list or not coords
            or not set(map(type, coords)) <= _NUMBER):
        return "coords must be a nonempty number list"
    if dim is not None and len(coords) != dim:
        return f"dimension {len(coords)} != {dim}"
    try:
        [float(x) for x in coords]
    except OverflowError:
        return "coordinates must fit a float"
    return None


def _point_arrays(rows, seen, dim):
    """(ids, coords) of a file's rows if all pass :func:`_point_row_error`, else None."""
    try:
        ids = [v["id"] for _, v in rows]
        coords = [v["coords"] for _, v in rows]
    except (TypeError, KeyError):
        return None
    d = len(coords[0]) if dim is None and type(coords[0]) is list else dim
    if (set(map(type, ids)) != {int} or min(ids) < 0 or len(set(ids)) < len(ids)
            or not seen.isdisjoint(ids) or set(map(type, coords)) != {list}
            or set(map(len, coords)) != {d} or not d
            or not set(map(type, itertools.chain.from_iterable(coords))) <= _NUMBER):
        return None
    try:
        return ids, np.array(coords, dtype=float)
    except OverflowError:
        return None


def read_points_files(paths):
    """Read one or more point files into a euclidean space.

    Returns (space, groups) where ``groups[i]`` lists the point ids that came
    from ``paths[i]``.
    """
    seen, groups, blocks, dim = set(), [], [], None
    for path in paths:
        rows = _parse_jsonl(path)
        if not rows:
            raise ParseError("file holds no points", path=path)
        got = _point_arrays(rows, seen, dim)
        for ln, row in rows if got is None else ():     # name the first bad line
            msg = _point_row_error(row, seen, dim)
            if msg is not None:
                raise ParseError(msg, path=path, line=ln)
            seen.add(row["id"])
            dim = len(row["coords"])
        ids, coords = got
        seen.update(ids)
        dim = coords.shape[1]
        groups.append(ids)
        blocks.append(coords)
    _check_coverage(seen, paths, "")
    coords = np.empty((len(seen), dim or 0))
    if groups:
        coords[np.concatenate(groups)] = np.concatenate(blocks)
    return MetricSpace.euclidean(coords), groups


def _check_coverage(seen, paths, what):
    """Distinct ids >= 0 cover 0..n-1 exactly when the largest is n - 1."""
    n = len(seen)
    if seen and max(seen) != n - 1:
        missing = sorted(set(range(n)) - seen)
        raise ParseError(f"{what}ids must cover 0..{n - 1}; missing {missing[:5]}",
                         path=paths[-1])


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
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from None
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
    seen, groups = {}, []
    for path in paths:
        group = []
        for ln, row in _parse_jsonl(path):
            msg = _id_error(row, ("id", "support", "probs"), seen)
            if msg is not None:
                raise ParseError(msg, path=path, line=ln)
            nid, support, probs = row["id"], row["support"], row["probs"]
            if (type(support) is not list or type(probs) is not list
                    or not set(map(type, support)) <= {int}
                    or not set(map(type, probs)) <= _NUMBER):
                raise ParseError("support must be int ids, probs numbers",
                                 path=path, line=ln)
            outside = [p for p in support if not 0 <= p < space.n]
            if outside:
                raise ParseError(f"support point {outside[0]} outside universe",
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
    _check_coverage(seen.keys(), paths, "node ")
    return [seen[i] for i in range(len(seen))], groups


def write_nodes_jsonl(path, nodes):
    with open(path, "w", encoding="utf-8") as fh:
        for nd in nodes:
            fh.write(json.dumps({
                "id": nd.node_id,
                "support": [int(p) for p in nd.support],
                "probs": [float(p) for p in nd.probs],
            }))
            fh.write("\n")

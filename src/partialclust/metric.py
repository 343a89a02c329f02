"""Point universes, objectives, weighted demands, and solution evaluation.

A :class:`MetricSpace` is the ground set: points with a metric given either by
euclidean coordinates or by an explicit symmetric matrix. Algorithms never
touch coordinates directly; they work on an :class:`Instance`, which pairs a
list of weighted demands with the candidate center points and produces cost
matrices under a chosen objective (optionally truncated at a threshold tau).

A demand generalizes a point: it carries a finite support with probabilities
(a single point in the deterministic case), an additive offset ``collapse``
(the cost of collapsing an uncertain node onto its 1-median), and an integer
weight (multiplicity after duplicate merging or preclustering aggregation).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import (
    DegenerateInstanceError,
    InvalidParameterError,
    InvalidPointError,
)


class Objective(Enum):
    """Clustering objective: sum of distances, sum of squares, or maximum."""

    MEDIAN = "median"
    MEANS = "means"
    CENTER = "center"

    @property
    def power(self):
        return 2 if self is Objective.MEANS else 1

    @classmethod
    def from_string(cls, name):
        try:
            return cls(name)
        except ValueError:
            raise InvalidParameterError(f"unknown objective {name!r}") from None


class MetricSpace:
    """Immutable point universe with a distance oracle.

    Construct via :meth:`euclidean` or :meth:`from_matrix`. ``word_width`` is
    the number of communication words one point costs when transmitted: the
    dimension in euclidean mode, 1 in matrix mode (the matrix is assumed
    preloaded at every party, so a point is just its index). ``ids`` holds
    every point index in order, read-only.
    """

    __slots__ = ("mode", "coords", "matrix", "word_width", "n", "ids")

    def __init__(self, mode, coords, matrix, word_width, n):
        self.mode = mode
        self.coords = coords
        self.matrix = matrix
        self.word_width = word_width
        self.n = n
        self.ids = np.arange(n)
        self.ids.flags.writeable = False

    @classmethod
    def euclidean(cls, coords):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2 or coords.shape[0] == 0:
            raise InvalidParameterError("coords must be a nonempty n x d array")
        if not np.isfinite(coords).all():
            raise InvalidPointError("coordinates must be finite")
        # block() squares coordinate differences of up to 2 max|coord| per
        # axis and sums d of them; keep that sum below the float maximum.
        limit = math.sqrt(np.finfo(float).max) / (2.0 * math.sqrt(coords.shape[1]))
        if np.abs(coords).max() >= limit:
            raise InvalidPointError(
                f"coordinates must lie within +-{limit:.3g} so distances stay finite")
        return cls("euclidean", coords, None, coords.shape[1], coords.shape[0])

    @classmethod
    def from_matrix(cls, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] == 0:
            raise InvalidParameterError("matrix must be square and nonempty")
        if not np.isfinite(matrix).all():
            raise InvalidParameterError("matrix entries must be finite")
        if (matrix < 0).any():
            raise InvalidParameterError("matrix entries must be nonnegative")
        if not np.allclose(matrix, matrix.T, rtol=0, atol=1e-12):
            raise InvalidParameterError("matrix must be symmetric")
        if not np.allclose(np.diag(matrix), 0, rtol=0, atol=1e-12):
            raise InvalidParameterError("matrix diagonal must be zero")
        return cls("matrix", None, matrix, 1, matrix.shape[0])

    def _check(self, u):
        if not 0 <= u < self.n:
            raise InvalidPointError(f"point index {u} out of range [0, {self.n})")

    def distance(self, u, v):
        """Distance between two points by index."""
        self._check(u)
        self._check(v)
        if self.mode == "euclidean":
            return float(np.linalg.norm(self.coords[u] - self.coords[v]))
        return float(self.matrix[u, v])

    def block(self, rows, cols):
        """Distance submatrix for ``rows x cols`` (arrays of point indices)."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        if rows.size and (rows.min() < 0 or rows.max() >= self.n):
            raise InvalidPointError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= self.n):
            raise InvalidPointError("column index out of range")
        if self.mode == "matrix":
            return self.matrix[np.ix_(rows, cols)]
        X, Y = self.coords[rows], self.coords[cols]
        if self.word_width >= 8:
            diff = X[:, None, :] - Y[None, :, :]
            return np.sqrt((diff * diff).sum(axis=2))
        # Below 8 terms numpy's sum over the last axis adds the squares in
        # coordinate order, so building the block one coordinate at a time
        # gives the same bits without the rows x cols x d temporary. From 8
        # terms on, its pairwise sum orders the additions differently.
        sq = np.subtract.outer(X[:, 0], Y[:, 0])
        sq *= sq
        dc = np.empty_like(sq)
        for c in range(1, self.word_width):
            np.subtract.outer(X[:, c], Y[:, c], out=dc)
            dc *= dc
            sq += dc
        return np.sqrt(sq, out=sq)


def extremes(space):
    """(d_min, d_max, spread) over the distinct point pairs of the space.

    Raises if it holds fewer than two points or if two of them coincide;
    merge duplicates into weights first (see :meth:`Instance.from_points`).
    """
    if space.n < 2:
        raise DegenerateInstanceError("extremes need at least two points")
    vals = space.block(space.ids, space.ids)[np.triu_indices(space.n, k=1)]
    d_min = float(vals.min())
    d_max = float(vals.max())
    if d_min == 0.0:
        raise DegenerateInstanceError(
            "duplicate points present; merge them into weights before extremes"
        )
    return d_min, d_max, d_max / d_min


class EvalCounter:
    """One party's distance evaluations (a site's, the coordinator's or a
    single-machine solve's): their tally, and the blocks :meth:`block` kept
    so that the party evaluates each of them once."""

    __slots__ = ("count", "_blocks")

    def __init__(self):
        self.count = 0
        self._blocks = {}

    def add(self, n):
        self.count += int(n)

    def block(self, space, rows, cols):
        """``space.block(rows, cols)``, read-only: evaluated and counted the
        first time the party asks for it, kept and handed back after that.
        Keyed by hashes of the index arrays and checked against the arrays
        kept with it, the callers' own (an instance's anchors, ``space.ids``),
        not copies. A block whose key another holds is evaluated, not kept."""
        rows, cols = (np.asarray(a, dtype=np.int64) for a in (rows, cols))
        key = (space, hash(rows.tobytes()), hash(cols.tobytes()))
        kept = self._blocks.get(key)
        if kept is not None and all(map(np.array_equal, kept[:2], (rows, cols))):
            return kept[2]
        D = space.block(rows, cols)
        self.add(D.size)
        D.flags.writeable = False
        self._blocks.setdefault(key, (rows, cols, D))
        return D

    def forget(self):
        """Drop the kept blocks, once the party's later steps read none of
        them again; a block asked for after this is evaluated and counted
        again. The tally stays."""
        self._blocks.clear()


@dataclass(frozen=True)
class Demand:
    """One weighted demand: a distribution over support points plus an
    additive collapse offset (0 for plain points) and an integer weight."""

    support: tuple
    probs: tuple
    collapse: float = 0.0
    weight: int = 1
    tag: tuple = ()

    def __post_init__(self):
        if len(self.support) != len(self.probs) or not self.support:
            raise InvalidParameterError("support and probs must be nonempty and aligned")
        if self.weight < 1:
            raise InvalidParameterError("demand weight must be a positive integer")
        if self.collapse < 0:
            raise InvalidParameterError("collapse offset must be >= 0")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise InvalidParameterError("support probabilities must sum to 1")

    @property
    def anchor(self):
        """Representative point (the single support point when deterministic)."""
        return self.support[0]


def _positions(lens, idx):
    """Flat positions of the rows ``idx`` of a ragged array of row lengths ``lens``."""
    sel = lens[idx]
    return (np.arange(sel.sum())
            + np.repeat((np.cumsum(lens) - lens)[idx] - (np.cumsum(sel) - sel), sel))


@dataclass(frozen=True)
class DemandArrays:
    """Demands as arrays, the form an :class:`Instance` keeps them in.

    Supports and tags are ragged: demand j's support is the next ``slen[j]``
    entries of ``support`` (``probs`` aligned with it) and its tag the next
    ``tlen[j]`` entries of ``tags``. ``counts`` are the integer weights.
    """

    support: np.ndarray
    slen: np.ndarray
    probs: np.ndarray
    collapse: np.ndarray
    counts: np.ndarray
    tags: np.ndarray
    tlen: np.ndarray

    @classmethod
    def of(cls, demands):
        def flat(seqs, dtype=np.int64):
            return np.array(list(itertools.chain.from_iterable(seqs)), dtype=dtype)

        sup, tags = [d.support for d in demands], [d.tag for d in demands]
        return cls(flat(sup), flat([map(len, sup)]),
                   flat((d.probs for d in demands), float),
                   np.array([d.collapse for d in demands], dtype=float),
                   np.array([d.weight for d in demands], dtype=np.int64),
                   flat(tags), flat([map(len, tags)]))

    @classmethod
    def points(cls, anchors, counts, tags, tlen):
        """Single-point demands at ``anchors``."""
        ones = np.ones(len(anchors), dtype=np.int64)
        return cls(anchors, ones, ones.astype(float), np.zeros(len(anchors)),
                   counts, tags, tlen)

    @classmethod
    def stack(cls, parts):
        """The demands of ``parts`` one after another."""
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts])
                     for f in fields(cls)))

    def take(self, idx, counts=None):
        """Demands ``idx`` in that order, weighted ``counts`` if given."""
        sp, tp = _positions(self.slen, idx), _positions(self.tlen, idx)
        return DemandArrays(self.support[sp], self.slen[idx], self.probs[sp],
                            self.collapse[idx],
                            self.counts[idx] if counts is None else counts,
                            self.tags[tp], self.tlen[idx])

    @property
    def anchors(self):
        """Each demand's first support point."""
        return self.support[np.cumsum(self.slen) - self.slen]


class Instance:
    """Weighted demands plus candidate centers over a shared metric space.

    The demands live in ``arrays`` (given, or built from a :class:`Demand`
    list), with the data read on every probe and distance row derived once,
    read-only: ``counts`` (integer weights), ``weights`` (as floats),
    ``total_weight``, ``anchors``, the collapse offsets and whether every
    demand is one point. ``demands`` is built from the arrays on first use.
    Cost matrices are computed lazily and cached per (power, tau). They all
    come from one distance block, the distinct support points x candidates,
    evaluated and tallied in ``counter`` where it is evaluated. An instance
    keeps that block once it is asked for a truncated surface or for a second
    (power, tau), so no surface evaluates it again; one untruncated surface
    keeps nothing beyond its matrix. Pair rows and center columns come from
    :meth:`EvalCounter.block`, so the party evaluates each of them once.
    """

    def __init__(self, space, demands, candidates, counter=None):
        self._demands = None if isinstance(demands, DemandArrays) else tuple(demands)
        if self._demands is not None:
            demands = DemandArrays.of(self._demands)
        if not len(demands.counts):
            raise InvalidParameterError("instance needs at least one demand")
        self.space = space
        self.arrays = demands
        self.counts, self.anchors = demands.counts, demands.anchors
        self.weights, self._collapse = self.counts.astype(float), demands.collapse
        for a in (self.counts, self.anchors, self.weights, self._collapse):
            a.flags.writeable = False
        self.total_weight = int(self.counts.sum())
        self._single_support = len(demands.support) == len(demands.counts)
        # sort and drop repeats; np.unique would import numpy.ma here
        cand = np.sort(np.asarray(candidates, dtype=np.int64))
        cand = cand[np.diff(cand, prepend=cand[:1] - 1) != 0]
        if not cand.size:
            raise InvalidParameterError("instance needs at least one candidate center")
        bad = cand[(cand < 0) | (cand >= space.n)]
        if bad.size:
            space._check(int(bad[0]))
        self.candidates = cand
        self.counter = counter if counter is not None else EvalCounter()
        self._cost_cache = {}
        self._support_block = None
        self._pair_cache = None
        self._cand_pos = {c: j for j, c in enumerate(cand.tolist())}

    @classmethod
    def from_points(cls, space, indices=None, counter=None, merge_duplicates=True):
        """The points ``indices`` (all by default) as demands, every anchor a
        candidate. Coinciding points merge into one demand weighted by their
        number and tagged with their ids in ascending order; demands are in
        order of their least id, which anchors them. Without
        ``merge_duplicates`` each point is its own demand."""
        idx = (np.arange(space.n) if indices is None
               else np.sort(np.asarray(indices, dtype=np.int64)))
        anchors, counts, tags = idx, np.ones(len(idx), dtype=np.int64), idx
        if merge_duplicates and len(idx):
            # + 0.0 turns -0.0 into 0.0, so rows group as equal floats do; the
            # stable sort behind return_index makes ``first`` a group's least
            rows = (space.coords if space.mode == "euclidean" else space.matrix)[idx] + 0.0
            _, first, inverse, counts = np.unique(
                rows, axis=0, return_index=True, return_inverse=True,
                return_counts=True)
            by_id = np.argsort(first)
            anchors, counts = idx[first[by_id]], counts[by_id]
            rank = np.argsort(by_id)[inverse.reshape(-1)]
            tags = idx[np.argsort(rank, kind="stable")]
        return cls(space, DemandArrays.points(anchors, counts, tags, counts),
                   anchors, counter=counter)

    @property
    def n(self):
        return len(self.counts)

    @property
    def demands(self):
        if self._demands is None:
            a = self.arrays

            def rows(flat, lens):
                it = iter(flat.tolist())
                return [tuple(itertools.islice(it, k)) for k in lens.tolist()]

            self._demands = tuple(map(
                Demand, rows(a.support, a.slen), rows(a.probs, a.slen),
                a.collapse.tolist(), a.counts.tolist(), rows(a.tags, a.tlen)))
        return self._demands

    def candidate_column(self, point):
        try:
            return self._cand_pos[int(point)]
        except KeyError:
            raise InvalidPointError(f"point {point} is not a candidate center") from None

    def cost_matrix(self, objective, tau=0.0):
        """n_demands x n_candidates assignment costs under the objective.

        Entry (j, u) = collapse_j + E_{a ~ D_j} [ max(d(a, u) - tau, 0) ^ p ]
        with p = 2 for means and 1 otherwise. Cached per (power, tau); every
        surface is built from the one distance block of the distinct support
        points, which is kept for the next surface when this one is truncated
        or not the first (see the class docstring).
        """
        if tau < 0:
            raise InvalidParameterError("tau must be >= 0")
        key = (objective.power, float(tau))
        cached = self._cost_cache.get(key)
        if cached is not None:
            return cached
        base, mix = self._support_block or self._evaluate_support_block()
        if tau > 0 or self._cost_cache:
            self._support_block = (base, mix)
        if tau > 0:
            base = np.maximum(base - tau, 0.0)
        if objective.power == 2:
            with np.errstate(over="ignore"):
                base = base * base
            if not np.isfinite(base).all():
                raise InvalidPointError(
                    "squared distances overflow the float range; scale the "
                    "input down")
        rows = base[mix] if self._single_support else mix @ base
        M = rows + self._collapse[:, None]
        self._cost_cache[key] = M
        return M

    def _evaluate_support_block(self):
        """The distinct support points x candidates distance block, counted,
        and how demand rows mix its rows: each demand's row index ``pos``
        when every demand is one point, else the support-weight matrix."""
        a = self.arrays
        pts, pos = np.unique(a.support, return_inverse=True)
        base = self.space.block(pts, self.candidates)
        self.counter.add(base.size)
        if self._single_support:
            return base, pos
        W = np.zeros((self.n, len(pts)))
        # unbuffered, in support order: the sums a loop over demands makes
        np.add.at(W, (np.repeat(np.arange(self.n), a.slen), pos), a.probs)
        return base, W

    def cost_columns(self, objective, points, tau=0.0):
        """Columns of ``cost_matrix(objective, tau)`` for the candidate
        ``points``, in the order given.

        Sliced from the cached matrix when there is one. The untruncated
        center surface over single-support demands is otherwise built a
        column at a time from ``counter.block``, each once: a caller that
        reads L centers pays n * L, not n * m. In euclidean mode a column is
        read as its center's row, the same bits, so it is :meth:`pair_row`'s
        block. Other surfaces build the whole matrix, which their solvers
        read anyway. Every column is bit for bit the matching matrix column.
        """
        cols = [self.candidate_column(p) for p in points]
        M = self._cost_cache.get((objective.power, float(tau)))
        if M is None and not (objective is Objective.CENTER and tau == 0
                              and self._single_support):
            M = self.cost_matrix(objective, tau)
        if M is not None:
            return M[:, cols]
        space, anchors = self.space, self.anchors
        if space.mode == "euclidean":
            D = [self.counter.block(space, self.candidates[u:u + 1], anchors)[0]
                 for u in cols]
        else:
            D = [self.counter.block(space, anchors, self.candidates[u:u + 1])[:, 0]
                 for u in cols]
        return np.stack(D, axis=1) + self._collapse[:, None]

    def pair_row(self, j):
        """Row ``j`` of :meth:`pair_matrix`, bit for bit, computed alone:
        n evaluations, once per anchor (demands on one anchor, tentacles
        collapsed onto one point, share its block). Returns a new array.
        """
        if not self._single_support:
            raise InvalidParameterError("pair rows need single-support demands")
        anchors, ell = self.anchors, self._collapse
        raw = self.counter.block(self.space, anchors[j:j + 1], anchors)[0]
        row = raw + (ell[j] + ell)
        row[j] = 0.0
        return row

    def pair_matrix(self):
        """Demand-to-demand distances (single-support demands only).

        d(i, j) = collapse_i + d(anchor_i, anchor_j) + collapse_j, 0 on the
        diagonal: the compressed-graph distance between two collapsed nodes,
        plain metric distance for ordinary points. The program no longer
        reads it: the farthest-first traversal computes only the rows it
        needs (:meth:`pair_row`). It stays as the full-matrix reference of
        the tests, and goes once the benchmark tracer stops targeting it by
        name.
        """
        if self._pair_cache is not None:
            return self._pair_cache
        if not self._single_support:
            raise InvalidParameterError("pair_matrix needs single-support demands")
        anchors = self.anchors
        D = self.space.block(anchors, anchors).copy()
        self.counter.add(D.size)
        ell = self._collapse
        D += ell[:, None] + ell[None, :]
        np.fill_diagonal(D, 0.0)
        self._pair_cache = D
        return D

    def subset(self, demand_indices):
        """New instance over a subset of demands, with their anchors as the
        candidates, sharing space and counter."""
        idx = np.asarray(demand_indices, dtype=np.int64)
        return Instance(self.space, self.arrays.take(idx), self.anchors[idx],
                        counter=self.counter)


@dataclass
class ClusteringSolution:
    """Centers plus an exact account of who is served and who is ignored.

    ``outliers`` maps demand index -> excluded copies (weights may split).
    ``assignment`` maps demand index -> center point for demands with at
    least one surviving copy; all of them go to that one center.
    """

    centers: tuple
    outliers: dict
    assignment: dict
    cost: float
    note: str | None = None

    @property
    def total_excluded(self):
        return sum(self.outliers.values())

    def excluded_copies(self, j):
        return self.outliers.get(j, 0)

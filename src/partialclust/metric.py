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

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateInstanceError,
    InconsistentSolutionError,
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

    @property
    def is_sum(self):
        return self is not Objective.CENTER

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
    preloaded at every party, so a point is just its index).
    """

    __slots__ = ("mode", "coords", "matrix", "word_width", "n")

    def __init__(self, mode, coords, matrix, word_width, n):
        self.mode = mode
        self.coords = coords
        self.matrix = matrix
        self.word_width = word_width
        self.n = n

    @classmethod
    def euclidean(cls, coords, word_width=None):
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
        B = int(word_width) if word_width is not None else coords.shape[1]
        if B < 1:
            raise InvalidParameterError("word_width must be >= 1")
        return cls("euclidean", coords, None, B, coords.shape[0])

    @classmethod
    def from_matrix(cls, matrix, word_width=1):
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
        n = matrix.shape[0]
        return cls("matrix", None, matrix, int(word_width), n)

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
        if self.mode == "euclidean":
            diff = self.coords[rows][:, None, :] - self.coords[cols][None, :, :]
            return np.sqrt((diff * diff).sum(axis=2))
        return self.matrix[np.ix_(rows, cols)]


def extremes(space, indices=None):
    """(d_min, d_max, spread) over distinct point pairs.

    Raises if fewer than two points are given or if two of them coincide;
    merge duplicates into weights first (see :func:`dedupe_demands`).
    """
    idx = np.arange(space.n) if indices is None else np.asarray(sorted(indices), dtype=int)
    if idx.size < 2:
        raise DegenerateInstanceError("extremes need at least two points")
    D = space.block(idx, idx)
    iu = np.triu_indices(idx.size, k=1)
    vals = D[iu]
    d_min = float(vals.min())
    d_max = float(vals.max())
    if d_min == 0.0:
        raise DegenerateInstanceError(
            "duplicate points present; merge them into weights before extremes"
        )
    return d_min, d_max, d_max / d_min


class EvalCounter:
    """Mutable tally of point-pair distance evaluations."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n):
        self.count += int(n)


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

    @property
    def is_point(self):
        return len(self.support) == 1 and self.collapse == 0.0


def point_demand(p, weight=1, tag=None):
    return Demand((int(p),), (1.0,), 0.0, int(weight), (int(p),) if tag is None else tag)


def dedupe_demands(space, indices, tags=None):
    """Merge exactly coinciding points into weighted demands.

    Returns demands sorted by representative point index; each demand's tag
    tuple lists the merged original labels (the point indices by default).
    """
    indices = [int(i) for i in indices]
    tags = list(tags) if tags is not None else indices
    groups = {}
    for i, lab in zip(indices, tags):
        if space.mode == "euclidean":
            key = tuple(space.coords[i])
        else:
            key = tuple(space.matrix[i])
        groups.setdefault(key, []).append((i, lab))
    demands = []
    for members in groups.values():
        members.sort()
        rep = members[0][0]
        demands.append(
            Demand((rep,), (1.0,), 0.0, len(members), tuple(lab for _, lab in members))
        )
    demands.sort(key=lambda d: d.anchor)
    return demands


class Instance:
    """Weighted demands plus candidate centers over a shared metric space.

    Cost matrices are computed lazily and cached per (power, tau); all
    distance evaluations feeding a matrix are tallied once in ``counter``.
    ``payload_kind`` tells the protocol ledger how many words one forwarded
    demand costs: ``"point"`` (B), ``"tentacle"`` (B + 1: anchor point plus
    collapse scalar), or ``"node"`` (2 * support size: the full distribution).
    """

    def __init__(self, space, demands, candidates, counter=None, payload_kind="point"):
        if not demands:
            raise InvalidParameterError("instance needs at least one demand")
        self.space = space
        self.demands = list(demands)
        cand = sorted({int(c) for c in candidates})
        if not cand:
            raise InvalidParameterError("instance needs at least one candidate center")
        for c in cand:
            space._check(c)
        self.candidates = np.asarray(cand, dtype=int)
        self.counter = counter if counter is not None else EvalCounter()
        self.payload_kind = payload_kind
        self._cost_cache = {}
        self._center_columns = {}
        self._pair_cache = None
        self._cand_pos = {int(c): j for j, c in enumerate(self.candidates)}

    @classmethod
    def from_points(cls, space, indices=None, counter=None, merge_duplicates=True):
        idx = list(range(space.n)) if indices is None else sorted(int(i) for i in indices)
        if merge_duplicates:
            demands = dedupe_demands(space, idx)
        else:
            demands = [point_demand(i) for i in idx]
        cands = [d.anchor for d in demands]
        return cls(space, demands, cands, counter=counter)

    @property
    def n(self):
        return len(self.demands)

    @property
    def total_weight(self):
        return sum(d.weight for d in self.demands)

    @property
    def weights(self):
        return np.array([d.weight for d in self.demands], dtype=float)

    def candidate_column(self, point):
        try:
            return self._cand_pos[int(point)]
        except KeyError:
            raise InvalidPointError(f"point {point} is not a candidate center") from None

    def cost_matrix(self, objective, tau=0.0):
        """n_demands x n_candidates assignment costs under the objective.

        Entry (j, u) = collapse_j + E_{a ~ D_j} [ max(d(a, u) - tau, 0) ^ p ]
        with p = 2 for means and 1 otherwise. Cached; the distance block is
        evaluated (and counted) once per (power, tau).
        """
        if tau < 0:
            raise InvalidParameterError("tau must be >= 0")
        key = (objective.power, float(tau))
        cached = self._cost_cache.get(key)
        if cached is not None:
            return cached
        pts = sorted({p for d in self.demands for p in d.support})
        pos = {p: i for i, p in enumerate(pts)}
        base = self.space.block(pts, self.candidates)
        self.counter.add(base.size)
        if tau > 0:
            base = np.maximum(base - tau, 0.0)
        if objective.power == 2:
            with np.errstate(over="ignore"):
                base = base * base
            if not np.isfinite(base).all():
                raise InvalidPointError(
                    "squared distances overflow the float range; scale the "
                    "input down")
        if self._single_support():
            rows = base[[pos[d.support[0]] for d in self.demands]]
        else:
            W = np.zeros((self.n, len(pts)))
            for j, d in enumerate(self.demands):
                for p, pr in zip(d.support, d.probs):
                    W[j, pos[p]] += pr
            rows = W @ base
        M = rows + self._collapse()[:, None]
        self._cost_cache[key] = M
        return M

    def cost_columns(self, objective, points, tau=0.0):
        """Columns of ``cost_matrix(objective, tau)`` for the candidate
        ``points``, in the order given.

        Sliced from the cached matrix when there is one. The untruncated
        center surface over single-support demands is otherwise built a
        column at a time: each new column costs one evaluation per demand
        and is kept, so a caller that reads L centers pays n * L, not n * m.
        Other surfaces build the whole matrix, which their solvers read
        anyway. Every column is bit for bit the matching matrix column.
        """
        cols = [self.candidate_column(p) for p in points]
        M = self._cost_cache.get((objective.power, float(tau)))
        if M is None and not (objective is Objective.CENTER and tau == 0
                              and self._single_support()):
            M = self.cost_matrix(objective, tau)
        if M is not None:
            return M[:, cols]
        missing = [u for u in cols if u not in self._center_columns]
        if missing:
            D = self.space.block(self._anchors(), self.candidates[missing])
            self.counter.add(D.size)
            D += self._collapse()[:, None]
            self._center_columns.update(zip(missing, D.T))
        return np.stack([self._center_columns[u] for u in cols], axis=1)

    def pair_row(self, j):
        """Row ``j`` of :meth:`pair_matrix`, bit for bit, computed alone:
        n evaluations.

        In euclidean mode its distances are also bit for bit the cost column
        of ``j``'s anchor, so when that anchor is a candidate they are kept
        as its center cost column (see :meth:`cost_columns`) and no distance
        is evaluated twice. Returns a new array.
        """
        if not self._single_support():
            raise InvalidParameterError("pair rows need single-support demands")
        anchors = self._anchors()
        row = self.space.block([anchors[j]], anchors)[0]
        self.counter.add(row.size)
        ell = self._collapse()
        u = self._cand_pos.get(anchors[j])
        if self.space.mode == "euclidean" and u is not None:
            self._center_columns.setdefault(u, row + ell)
        row += ell[j] + ell
        row[j] = 0.0
        return row

    def _single_support(self):
        return all(len(d.support) == 1 for d in self.demands)

    def _anchors(self):
        return [d.anchor for d in self.demands]

    def _collapse(self):
        return np.array([d.collapse for d in self.demands])

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
        if not self._single_support():
            raise InvalidParameterError("pair_matrix needs single-support demands")
        anchors = self._anchors()
        D = self.space.block(anchors, anchors).copy()
        self.counter.add(D.size)
        ell = self._collapse()
        D += ell[:, None] + ell[None, :]
        np.fill_diagonal(D, 0.0)
        self._pair_cache = D
        return D

    def subset(self, demand_indices, candidates=None, payload_kind=None):
        """New instance over a subset of demands, sharing space and counter."""
        dem = [self.demands[j] for j in demand_indices]
        if candidates is None:
            candidates = [d.anchor for d in dem]
        return Instance(
            self.space, dem, candidates, counter=self.counter,
            payload_kind=self.payload_kind if payload_kind is None else payload_kind,
        )


@dataclass
class ClusteringSolution:
    """Centers plus an exact account of who is served and who is ignored.

    ``outliers`` maps demand index -> excluded copies (weights may split).
    ``assignment`` maps demand index -> center point for demands with at
    least one surviving copy. ``copy_assignment``, when present, overrides
    ``assignment`` for demands whose copies are split across centers
    (produced only by the two-solution merge); it maps demand index ->
    tuple of (center point, copies).
    """

    centers: tuple
    outliers: dict
    assignment: dict
    cost: float
    copy_assignment: dict | None = None
    note: str | None = None

    @property
    def total_excluded(self):
        return sum(self.outliers.values())

    def excluded_copies(self, j):
        return self.outliers.get(j, 0)


def instance_cost(instance, solution, objective, tau=0.0):
    """Re-evaluate a solution's cost on its instance.

    Accumulates in ascending demand order so repeated evaluation is
    bit-for-bit reproducible. Raises if a surviving demand is unassigned,
    an assignment target is not a center, or copy counts are inconsistent.
    """
    M = instance.cost_matrix(objective, tau)
    centers = set(solution.centers)
    total = 0.0
    worst = 0.0
    for j, d in enumerate(instance.demands):
        excl = solution.excluded_copies(j)
        if excl < 0 or excl > d.weight:
            raise InconsistentSolutionError(f"demand {j}: bad excluded copies {excl}")
        live = d.weight - excl
        if live == 0:
            continue
        if solution.copy_assignment and j in solution.copy_assignment:
            parts = solution.copy_assignment[j]
            if sum(c for _, c in parts) != live:
                raise InconsistentSolutionError(f"demand {j}: split copies do not cover")
            for ctr, copies in parts:
                if ctr not in centers:
                    raise InconsistentSolutionError(f"demand {j}: {ctr} is not a center")
                c = M[j, instance.candidate_column(ctr)]
                total += copies * c
                worst = max(worst, c)
            continue
        ctr = solution.assignment.get(j)
        if ctr is None:
            raise InconsistentSolutionError(f"demand {j} is neither assigned nor excluded")
        if ctr not in centers:
            raise InconsistentSolutionError(f"demand {j}: {ctr} is not a center")
        c = M[j, instance.candidate_column(ctr)]
        total += live * c
        worst = max(worst, c)
    return worst if objective is Objective.CENTER else total


def solution_cost(space, solution, objective, weights=None):
    """Evaluate a point-level solution directly on a metric space.

    ``assignment`` maps point index -> center point index; ``weights`` is an
    optional per-point multiplicity map/array (default all 1). Outlier copies
    contribute nothing. Accumulation runs in ascending point order.
    """
    centers = set(solution.centers)
    for c in centers:
        space._check(c)
    points = sorted(set(solution.assignment) | set(solution.outliers))
    total = 0.0
    worst = 0.0
    for p in points:
        w = 1 if weights is None else int(weights[p])
        excl = solution.excluded_copies(p)
        if excl < 0 or excl > w:
            raise InconsistentSolutionError(f"point {p}: bad excluded copies {excl}")
        live = w - excl
        if live == 0:
            continue
        ctr = solution.assignment.get(p)
        if ctr is None:
            raise InconsistentSolutionError(f"point {p} is neither assigned nor excluded")
        if ctr not in centers:
            raise InconsistentSolutionError(f"point {p}: {ctr} is not a center")
        c = space.distance(p, ctr) ** objective.power
        total += live * c
        worst = max(worst, c)
    return worst if objective is Objective.CENTER else total

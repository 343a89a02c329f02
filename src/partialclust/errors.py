"""Exception types shared across the package."""


class ClusteringError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPointError(ClusteringError, IndexError):
    """A point reference is out of range or malformed."""


class InvalidParameterError(ClusteringError, ValueError):
    """A parameter violates its documented range (k, t, rho, epsilon, ...)."""


class DegenerateInstanceError(ClusteringError, ValueError):
    """The instance cannot support the requested operation (e.g. < 2 distinct
    points when distance extremes are needed)."""


class InfeasibleError(ClusteringError):
    """The budget makes the problem vacuous or unsolvable (e.g. t >= total
    weight)."""


class OracleSizeLimitError(ClusteringError, ValueError):
    """The exhaustive oracle was asked to enumerate beyond its guard rails."""


class PreconditionError(ClusteringError, ValueError):
    """An algorithm-specific precondition fails (e.g. t > sqrt(n) for the
    subquadratic solver)."""


class InternalInvariantError(ClusteringError, RuntimeError):
    """An invariant the implementation promises to maintain was violated;
    always a bug or a broken assumption worth surfacing loudly."""


class ParseError(ClusteringError, ValueError):
    """A dataset file failed to parse. Carries 1-based line number."""

    def __init__(self, message, path=None, line=None):
        loc = "" if path is None else f"{path}:{line if line is not None else '?'}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line

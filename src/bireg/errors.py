"""Exception types shared across the package, and the type check of JSON input."""

from numbers import Integral


class BiregError(Exception):
    """Base class for all package-specific errors."""


class BalanceViolation(BiregError):
    """n*d1 != m*d2, so no biregular graph with these parameters exists."""


class DegreeMismatch(BiregError):
    """A row or column of the biadjacency matrix has the wrong sum."""


class MalformedEdgeList(BiregError):
    """An edge list is not an (E, 2) array of integer (i, j) pairs."""


class DuplicateEdge(BiregError):
    """The same (i, j) pair appears more than once."""


class DegenerateScaling(BiregError):
    """d1 = 1 or d2 = 1, so the spectral scale (d1-1)(d2-1) vanishes."""


class RejectionBudgetExceeded(BiregError):
    """Rejection sampling failed to produce an admissible object in budget."""


class SeedConstructionFailed(BiregError):
    """No deterministic seed graph exists for the requested parameters."""


class TooLarge(BiregError):
    """Exhaustive enumeration would exceed the configured budget."""


class HorizonTooLarge(TooLarge):
    """Cycle enumeration up to the requested horizon exceeds the budget."""


class PreconditionViolated(BiregError):
    """A switching specification violates one of its adjacency constraints."""


class EdgeMissing(BiregError):
    """A switching specification references an edge absent from the graph."""


class NonDecayingCoefficients(BiregError):
    """A Chebyshev fit did not reach coefficient decay within max_k terms."""


class SolverFailure(BiregError):
    """The symmetric eigenvalue solver did not converge."""


class DuplicateHyperedge(BiregError):
    """Two hyperedges contain exactly the same vertex set."""


class UnknownConfigKey(BiregError):
    """A config names a parameter that its target does not accept."""


class MissingConfigKey(BiregError):
    """A config lacks a key that its target requires."""


class MalformedInput(BiregError):
    """A config or data file holds a value of the wrong type or range."""


def check_int(where: str, key: str, value, allow_none: bool = False) -> None:
    """Raise MalformedInput naming key unless value is an integer that is not
    a bool, or None where allow_none."""
    if value is None and allow_none:
        return
    if isinstance(value, bool) or not isinstance(value, Integral):
        kind = "an integer or null" if allow_none else "an integer"
        raise MalformedInput(f"{where} key {key!r} must be {kind}, got {value!r}")

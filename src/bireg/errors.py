"""Exception types shared across the package, and the checks of JSON config input."""

from numbers import Integral, Real


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


class TooLarge(BiregError):
    """Exhaustive enumeration would exceed the configured budget."""


class HorizonTooLarge(TooLarge):
    """Cycle enumeration up to the requested horizon exceeds the budget."""


class PreconditionViolated(BiregError):
    """A switching breaks the rewiring rule: its deleted edges repeat, or its
    created edges repeat or are already in the graph."""


class EdgeMissing(BiregError):
    """A switching would delete an edge that the graph does not have."""


class NonDecayingCoefficients(BiregError):
    """A Chebyshev fit did not reach coefficient decay within max_k terms."""


class SolverFailure(BiregError):
    """The symmetric eigenvalue solver did not converge."""


class DuplicateHyperedge(BiregError):
    """Two hyperedges contain exactly the same vertex set."""


class WorkerDied(BiregError):
    """A trial worker process exited without sending back its rows."""


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


def check_number(where: str, key: str, value, minimum=None) -> None:
    """Raise MalformedInput naming key unless value is a real number that is
    not a bool, and at least minimum where one is given."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise MalformedInput(f"{where} key {key!r} must be a number, got {value!r}")
    if minimum is not None and value < minimum:
        raise MalformedInput(f"{where} key {key!r} must be >= {minimum}, got {value!r}")


def check_config_keys(where: str, data: dict, allowed: set) -> None:
    """Raise UnknownConfigKey naming every key of data outside allowed."""
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise UnknownConfigKey(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {where}; "
            f"allowed: {', '.join(sorted(allowed)) or 'none'}"
        )

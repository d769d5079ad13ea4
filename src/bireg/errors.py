"""Exception types shared across the package."""


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


class Overflow(BiregError):
    """Fixed-width integer arithmetic would overflow."""


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

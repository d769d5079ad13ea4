"""Biregular bipartite graphs and their matrix views.

A (n, m, d1, d2)-biregular bipartite graph has vertex classes V1 = [n] and
V2 = [m]; every V1 vertex has degree d1 and every V2 vertex degree d2, which
forces n*d1 = m*d2.  Graphs are immutable value objects stored as one sorted
array of edge keys; the derived views (edge tuple, edge set, adjacency
arrays) are built from it on first use and cached.

This module alone decides what a valid graph is: ``check_sizes`` refuses a
shape no simple graph has, ``v2_size`` gives m = n*d1/d2 or refuses it, and
one validator checks the edge keys i*m + j.  The constructor turns (i, j)
pairs, read from files or built by hand, into keys; the samplers and the
other builders inside the package hand theirs to ``BiregularGraph.from_keys``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import (
    BalanceViolation,
    DegenerateScaling,
    DegreeMismatch,
    DuplicateEdge,
    MalformedEdgeList,
    MalformedInput,
    check_int,
    check_int_lists,
    check_required_keys,
)


@dataclass(frozen=True, init=False, eq=False)
class BiregularGraph:
    """Simple bipartite graph with constant degrees on both sides.

    Parameters
    ----------
    n, m : int
        Sizes of V1 and V2.
    d1, d2 : int
        Degrees of V1 and V2 vertices.
    edges : (E, 2) array-like of int
        The (i, j) pairs, i in [n], j in [m], in any order.

    The only stored form is ``keys``: the sorted int64 array of i*m + j, one
    per edge.  Sorting by key sorts by (i, j), so row i of the graph is the
    slice keys[i*d1 : (i+1)*d1].  The constructor refuses a pair whose key
    would be another pair's, and checks the rest on the keys, as ``from_keys`` does.
    """

    n: int
    m: int
    d1: int
    d2: int
    keys: np.ndarray

    def __init__(self, n, m, d1, d2, edges):
        check_sizes(n, m, d1, d2)
        try:
            pairs = np.asarray(edges)
        except ValueError as exc:
            raise MalformedEdgeList(f"edges are not integer pairs: {exc}") from exc
        if pairs.size == 0:  # np.asarray([]) is float64
            pairs = np.empty((0, 2), dtype=np.int64)
        # a cast to int64 would truncate floats and parse strings; bools are not ids
        if not np.issubdtype(pairs.dtype, np.integer):
            raise MalformedEdgeList(f"edges are not integer pairs: their ids have dtype {pairs.dtype}")
        pairs = pairs.astype(np.int64, copy=False)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise MalformedEdgeList(f"edges must have shape (E, 2), got {pairs.shape}")
        i, j = pairs.T
        # a column outside [0, m), or a row for which i*m overflows, aliases another key
        limit = np.iinfo(np.int64).max // m - 1
        outside = (j < 0) | (j >= m) | (i < -limit) | (i > limit)
        if outside.any():
            e = int(np.argmax(outside))
            raise ValueError(f"edge ({i[e]}, {j[e]}) out of range")
        self._set_keys(n, m, d1, d2, i * m + j)

    @classmethod
    def from_keys(cls, n, m, d1, d2, keys) -> "BiregularGraph":
        """The graph whose edges have the keys i*m + j, given in any order.

        Equal to the graph of the pairs ``np.divmod(keys, m)`` and raising
        what the constructor raises for them, but with no pairs to read.
        """
        check_sizes(n, m, d1, d2)
        g = cls.__new__(cls)
        g._set_keys(n, m, d1, d2, keys)
        return g

    def _set_keys(self, n, m, d1, d2, keys):
        """Check the keys in O(E) vector operations and store them.  Strictly
        increasing keys, as stub matching gives them, are not sorted again."""
        keys = np.array(keys, dtype=np.int64)  # a private copy, made read-only below
        if keys.ndim != 1:
            raise MalformedEdgeList(f"keys must have shape (E,), got {keys.shape}")
        if (keys[1:] <= keys[:-1]).any():
            keys.sort()
            if (keys[1:] == keys[:-1]).any():
                raise DuplicateEdge("repeated (i, j) pair")
        if len(keys) != n * d1:
            raise DegreeMismatch(f"expected {n * d1} edges, got {len(keys)}")
        # the keys are sorted now, so only the ends can be out of range
        if keys[0] < 0 or keys[-1] >= n * m:
            bad = keys[0] if keys[0] < 0 else keys[np.searchsorted(keys, n * m)]
            i, j = divmod(int(bad), m)
            raise ValueError(f"edge ({i}, {j}) out of range")
        i, j = np.divmod(keys, m)
        _check_degrees(i, j, n, m, d1, d2)
        keys.flags.writeable = False
        for name, value in (("n", n), ("m", m), ("d1", d1), ("d2", d2), ("keys", keys)):
            object.__setattr__(self, name, value)

    # ---- derived views (cached, read-only) -------------------------------

    @property
    def q(self) -> int:
        return (self.d1 - 1) * (self.d2 - 1)

    @cached_property
    def edges(self) -> tuple:
        """Sorted tuple of (i, j) pairs of Python ints."""
        i, j = np.divmod(self.keys, self.m)
        return tuple(zip(i.tolist(), j.tolist()))

    @cached_property
    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    @cached_property
    def adjacency_left(self) -> np.ndarray:
        """(n, d1) array; row i holds the V2 neighbours of i, ascending."""
        left = (self.keys % self.m).reshape(self.n, self.d1)
        left.flags.writeable = False
        return left

    @cached_property
    def adjacency_right(self) -> np.ndarray:
        """(m, d2) array; row j holds the V1 neighbours of j, ascending."""
        # a stable sort by j keeps each column's V1 vertices in key order;
        # on int16 ids numpy's stable sort is a radix sort
        cols = self.keys % self.m
        order = np.argsort(cols.astype(np.int16) if self.m <= 1 << 15 else cols, kind="stable")
        right = (self.keys // self.m)[order].reshape(self.m, self.d2)
        right.flags.writeable = False
        return right

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edge_set

    def __eq__(self, other):
        if not isinstance(other, BiregularGraph):
            return NotImplemented
        same_shape = (self.n, self.m, self.d1, self.d2) == (other.n, other.m, other.d1, other.d2)
        return same_shape and np.array_equal(self.keys, other.keys)

    def __hash__(self):
        return hash((self.n, self.m, self.d1, self.d2, self.keys.tobytes()))

    # ---- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "d1": self.d1,
            "d2": self.d2,
            "edges": np.column_stack(np.divmod(self.keys, self.m)).tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BiregularGraph":
        if not isinstance(data, dict):
            raise MalformedInput(f"a graph file must hold a JSON object, got {type(data).__name__}")
        check_required_keys("graph file", data, ("n", "m", "d1", "d2", "edges"))
        for key in ("n", "m", "d1", "d2"):
            check_int("graph file", key, data[key])
        check_int_lists("graph file", "edges", data["edges"], "[i, j] pairs")
        return cls(n=data["n"], m=data["m"], d1=data["d1"], d2=data["d2"], edges=data["edges"])


def check_sizes(n, m, d1, d2):
    """Raise ValueError, or BalanceViolation, unless a simple (n, m, d1, d2)-biregular graph exists."""
    if min(n, m, d1, d2) < 1:
        raise ValueError("n, m, d1, d2 must all be >= 1")
    if n * d1 != m * d2:
        raise BalanceViolation(f"n*d1 = {n * d1} != m*d2 = {m * d2}")
    if d1 > m or d2 > n:
        raise ValueError("no simple graph exists: need d1 <= m and d2 <= n")


def v2_size(n, d1, d2) -> int:
    """m = n*d1/d2, the size of V2; BalanceViolation unless d2 divides n*d1."""
    if n * d1 % d2:
        raise BalanceViolation(f"n*d1 = {n * d1} is not divisible by d2 = {d2}")
    return n * d1 // d2


def _check_degrees(i, j, n, m, d1, d2):
    """Raise DegreeMismatch naming the first vertex, V1 before V2, whose
    degree among the edge ends (i, j), all in range, is wrong."""
    for ends, size, side, name, want in ((i, n, "V1", "d1", d1), (j, m, "V2", "d2", d2)):
        degrees = np.bincount(ends, minlength=size)
        bad = np.flatnonzero(degrees != want)
        if bad.size:
            v = bad[0]
            raise DegreeMismatch(f"{side} vertex {v} has degree {degrees[v]} != {name}={want}")


def complete_bipartite(n: int, m: int) -> BiregularGraph:
    """K_{n,m}: all n*m edges present, so d1 = m and d2 = n."""
    return BiregularGraph.from_keys(n, m, m, n, np.arange(n * m))


def codegree_rows(g: BiregularGraph) -> np.ndarray:
    """The one build of X X^T: an (n, d1*d2) int32 array whose row p lists,
    ascending, the V1 neighbours l of each V2 neighbour of p, p itself d1
    times.  Each l appears once per V2 vertex it shares with p, so the runs
    of row p are the nonzero entries (X X^T)[p, l], the diagonal run d1 long."""
    # vertex ids fit in int32 for any graph whose key array fits in memory
    rows = np.take(g.adjacency_right.astype(np.int32), g.adjacency_left, axis=0).reshape(g.n, g.d1 * g.d2)
    rows.sort(axis=1)
    return rows


def run_lengths(rows: np.ndarray) -> tuple:
    """(starts, lengths) of the runs of equal values in each row of a
    row-sorted 2-D array, with starts indexing rows.ravel()."""
    first = np.ones(rows.shape, dtype=bool)
    np.not_equal(rows[:, 1:], rows[:, :-1], out=first[:, 1:])
    starts = np.flatnonzero(first)
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1:] = rows.size - starts[-1:]
    return starts, lengths


def gram_shifted_sparse(g: BiregularGraph, shift: int | None = None) -> sparse.csr_array:
    """X X^T - shift*I as a canonical sparse int64 matrix, shift = d1 unless
    given, with zero entries dropped (at shift = d1 the whole diagonal).

    No product is formed: row p has one entry per run of codegree_rows(g)[p],
    the run's value as column and its length as value, so the build sorts n
    rows of d1*d2 ids whatever the shape of X.
    """
    rows = codegree_rows(g)
    n, width = rows.shape
    starts, counts = run_lengths(rows)
    cols = rows.ravel()[starts].astype(np.int64)
    counts[cols == starts // width] -= g.d1 if shift is None else shift
    keep = counts != 0
    # row p's runs start at or after p*width
    indptr = np.searchsorted(starts[keep], np.arange(n + 1) * width)
    return sparse.csr_array((counts[keep], cols[keep], indptr), shape=(n, n))


def gram_shifted(g: BiregularGraph) -> np.ndarray:
    """Integer matrix X X^T - d1 I (exactly symmetric, zero diagonal)."""
    return gram_shifted_sparse(g).toarray()


def scaled_gram(g: BiregularGraph) -> np.ndarray:
    """The scaled Gram matrix M = (X X^T - d1 I)/sqrt(q), q = (d1-1)(d2-1).

    Symmetric with identically zero diagonal; the largest eigenvalue is the
    deterministic value d1*(d2-1)/sqrt(q).
    """
    if g.d1 == 1 or g.d2 == 1:
        raise DegenerateScaling(f"(d1-1)(d2-1) = 0 for d1={g.d1}, d2={g.d2}")
    # one dense copy; a sparse matrix's "/" multiplies by the reciprocal, so divide its data
    p = gram_shifted_sparse(g).astype(np.float64)
    p.data /= np.sqrt(g.q)
    return p.toarray()


def save_graph(g: BiregularGraph, path) -> None:
    Path(path).write_text(json.dumps(g.to_dict()) + "\n")


def load_graph(path) -> BiregularGraph:
    return BiregularGraph.from_dict(json.loads(Path(path).read_text()))

"""Biregular bipartite graphs and their matrix views.

A (n, m, d1, d2)-biregular bipartite graph has vertex classes V1 = [n] and
V2 = [m]; every V1 vertex has degree d1 and every V2 vertex degree d2, which
forces n*d1 = m*d2.  Graphs are immutable value objects stored as one sorted
array of edge keys; the derived views (edge tuple, adjacency arrays, sparse
biadjacency) are built from it on first use and cached.
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
    slice keys[i*d1 : (i+1)*d1].
    """

    n: int
    m: int
    d1: int
    d2: int
    keys: np.ndarray

    def __init__(self, n, m, d1, d2, edges):
        if min(n, m, d1, d2) < 1:
            raise ValueError("n, m, d1, d2 must all be >= 1")
        if n * d1 != m * d2:
            raise BalanceViolation(f"n*d1 = {n * d1} != m*d2 = {m * d2}")
        try:
            pairs = np.asarray(edges, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedEdgeList(f"edges are not integer pairs: {exc}") from exc
        if pairs.size == 0:
            pairs = np.empty((0, 2), dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise MalformedEdgeList(f"edges must have shape (E, 2), got {pairs.shape}")
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        i, j = pairs[order, 0], pairs[order, 1]
        if np.any((i[1:] == i[:-1]) & (j[1:] == j[:-1])):
            raise DuplicateEdge("repeated (i, j) pair")
        if len(i) != n * d1:
            raise DegreeMismatch(f"expected {n * d1} edges, got {len(i)}")
        outside = (i < 0) | (i >= n) | (j < 0) | (j >= m)
        if outside.any():
            e = int(np.argmax(outside))
            raise ValueError(f"edge ({i[e]}, {j[e]}) out of range")
        for ends, size, side, name, want in ((i, n, "V1", "d1", d1), (j, m, "V2", "d2", d2)):
            degrees = np.bincount(ends, minlength=size)
            bad = np.flatnonzero(degrees != want)
            if bad.size:
                v = bad[0]
                raise DegreeMismatch(f"{side} vertex {v} has degree {degrees[v]} != {name}={want}")
        keys = i * m + j
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
        # a stable sort by j keeps each column's V1 vertices in key order
        order = np.argsort(self.keys % self.m, kind="stable")
        right = (self.keys // self.m)[order].reshape(self.m, self.d2)
        right.flags.writeable = False
        return right

    @cached_property
    def biadjacency(self) -> sparse.csr_array:
        """Sparse 0/1 matrix X of shape (n, m); X[i, j] = 1 iff (i, j) is an edge."""
        e = len(self.keys)
        return sparse.csr_array(
            (np.ones(e, dtype=np.int64), self.keys % self.m, np.arange(0, e + 1, self.d1)),
            shape=(self.n, self.m),
        )

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
        for key in ("n", "m", "d1", "d2"):
            check_int("graph file", key, data[key])
        return cls(n=data["n"], m=data["m"], d1=data["d1"], d2=data["d2"], edges=data["edges"])


def complete_bipartite(n: int, m: int) -> BiregularGraph:
    """K_{n,m}: all n*m edges present, so d1 = m and d2 = n."""
    edges = np.column_stack(np.divmod(np.arange(n * m), m))
    return BiregularGraph(n=n, m=m, d1=m, d2=n, edges=edges)


def full_adjacency(g: BiregularGraph) -> np.ndarray:
    """Block matrix [[0, X], [X^T, 0]] of shape (n+m, n+m).

    Its spectrum is {+/- sigma_i(X)} plus |n - m| zeros; the extreme
    eigenvalues are +/- sqrt(d1*d2).
    """
    i, j = np.divmod(g.keys, g.m)
    a = np.zeros((g.n + g.m, g.n + g.m), dtype=np.int64)
    a[i, g.n + j] = 1
    a[g.n + j, i] = 1
    return a


def gram_shifted_sparse(g: BiregularGraph) -> sparse.csr_array:
    """X X^T - d1 I as a sparse int64 matrix, with its zero diagonal dropped.

    Row i has at most 1 + d1*(d2-1) stored entries, so the product costs
    O(n d1 d2) whatever the shape of X.
    """
    x = g.biadjacency
    p = x @ x.T
    p.setdiag(p.diagonal() - g.d1)
    p.eliminate_zeros()
    return p


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
    return gram_shifted(g).astype(np.float64) / np.sqrt(g.q)


def save_graph(g: BiregularGraph, path) -> None:
    Path(path).write_text(json.dumps(g.to_dict()) + "\n")


def load_graph(path) -> BiregularGraph:
    return BiregularGraph.from_dict(json.loads(Path(path).read_text()))

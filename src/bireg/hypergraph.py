"""Regular hypergraphs and their bipartite incidence representation.

A (d1, d2)-regular hypergraph has every vertex in exactly d1 hyperedges and
every hyperedge of size exactly d2.  Mapping vertices to V1 and hyperedges
to V2 of the incidence bipartite graph is a bijection onto the biregular
bipartite graphs whose V2 vertices have pairwise distinct neighbourhoods;
the hypergraph adjacency matrix (shared-hyperedge counts, zero diagonal)
equals XX^T - d1*I of the image.  Spectral and cycle machinery therefore
delegates to the bipartite modules, and a uniform simple hypergraph is an
incidence graph drawn by the sampler's auto method until its image is simple.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import comb
from pathlib import Path

import numpy as np

from . import walks
from .errors import DegreeMismatch, DuplicateHyperedge, MalformedInput, RejectionBudgetExceeded, check_int
from .errors import check_int_lists, check_required_keys
from .graph import BiregularGraph, _check_degrees, gram_shifted, v2_size
from .sampler import SamplerConfig, sample_graph


@dataclass(frozen=True)
class RegularHypergraph:
    """d2-uniform hypergraph on [n] with every vertex in exactly d1 hyperedges."""

    n: int
    d1: int
    d2: int
    hyperedges: tuple

    def __post_init__(self):
        hes = tuple(tuple(sorted(int(v) for v in e)) for e in self.hyperedges)
        object.__setattr__(self, "hyperedges", hes)
        if self.d2 < 2:
            raise ValueError("hyperedges must have size d2 >= 2")
        for e in hes:
            if len(e) != self.d2 or len(set(e)) != self.d2:
                raise DegreeMismatch(f"hyperedge {e} is not a {self.d2}-set")
            if e[0] < 0 or e[-1] >= self.n:
                raise ValueError(f"hyperedge {e} out of range")
        if len(set(hes)) != len(hes):
            raise DuplicateHyperedge("two hyperedges share the same vertex set")
        # every hyperedge has d2 vertices, so only a V1 degree can be wrong
        ends = np.array(hes, dtype=np.int64).reshape(-1)
        _check_degrees(ends, np.repeat(np.arange(len(hes)), self.d2), self.n, len(hes), self.d1, self.d2)

    @property
    def m(self) -> int:
        return len(self.hyperedges)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """A[i, j] = number of shared hyperedges for i != j; zero diagonal."""
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for e in self.hyperedges:
            for i in e:
                for j in e:
                    if i != j:
                        a[i, j] += 1
        return a

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "d1": self.d1,
            "d2": self.d2,
            "hyperedges": [list(e) for e in self.hyperedges],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RegularHypergraph":
        if not isinstance(data, dict):
            raise MalformedInput(f"a hypergraph file must hold a JSON object, got {type(data).__name__}")
        check_required_keys("hypergraph file", data, ("n", "d1", "d2", "hyperedges"))
        for key in ("n", "d1", "d2"):
            check_int("hypergraph file", key, data[key])
        check_int_lists("hypergraph file", "hyperedges", data["hyperedges"], "vertex lists")
        return cls(n=data["n"], d1=data["d1"], d2=data["d2"], hyperedges=tuple(map(tuple, data["hyperedges"])))


def to_bipartite(h: RegularHypergraph) -> BiregularGraph:
    """Incidence bipartite graph: V1 = vertices, V2 = hyperedges."""
    keys = [v * h.m + idx for idx, e in enumerate(h.hyperedges) for v in e]
    return BiregularGraph.from_keys(h.n, h.m, h.d1, h.d2, keys)


def from_bipartite(g: BiregularGraph) -> RegularHypergraph:
    """Inverse map; fails when two V2 vertices share their full neighbourhood."""
    if not has_simple_image(g):
        raise DuplicateHyperedge("two V2 vertices have identical neighbourhoods")
    return RegularHypergraph(n=g.n, d1=g.d1, d2=g.d2, hyperedges=g.adjacency_right.tolist())


def has_simple_image(g: BiregularGraph) -> bool:
    """Whether g corresponds to a simple hypergraph (distinct V2 neighbourhoods)."""
    return len(np.unique(g.adjacency_right, axis=0)) == g.m


def adjacency_identity_gap(h: RegularHypergraph) -> int:
    """max |A_H - (XX^T - d1 I)| entrywise; zero by construction."""
    return int(np.abs(h.adjacency - gram_shifted(to_bipartite(h))).max())


def sample_regular_hypergraph(n: int, d1: int, d2: int, rng) -> RegularHypergraph:
    """Uniform simple (d1, d2)-regular hypergraph via bipartite rejection.

    Samples the incidence bipartite graph by the auto method and rejects
    images with repeated hyperedges, up to 1000 draws; the acceptance
    fraction approaches 1 like 1 - O(d1^2/(n d2^2)).
    """
    if d2 < 2:
        raise ValueError("hyperedges must have size d2 >= 2")
    m = v2_size(n, d1, d2)
    if m > comb(n, d2):
        raise ValueError(f"no simple hypergraph exists: m = {m} hyperedges, but [{n}] has {comb(n, d2)} {d2}-subsets")
    for _ in range(1000):
        g = sample_graph(n, m, d1, d2, SamplerConfig(), rng)
        if has_simple_image(g):
            return from_bipartite(g)
    raise RejectionBudgetExceeded("no simple hypergraph in 1000 draws")


def hypergraph_cycle_count(h: RegularHypergraph, k: int) -> int:
    """Cycles of length k in the hypergraph = 2k-cycles of the incidence graph,
    from walks.cycle_count_vector."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return walks.cycle_count_vector(to_bipartite(h), k)[-1]


def save_hypergraph(h: RegularHypergraph, path) -> None:
    Path(path).write_text(json.dumps(h.to_dict()) + "\n")


def load_hypergraph(path) -> RegularHypergraph:
    return RegularHypergraph.from_dict(json.loads(Path(path).read_text()))

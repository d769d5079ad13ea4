"""Regular hypergraphs and their bipartite incidence representation.

A (d1, d2)-regular hypergraph has every vertex in exactly d1 hyperedges and
every hyperedge of size exactly d2.  Mapping vertices to V1 and hyperedges
to V2 of the incidence bipartite graph is a bijection onto the biregular
bipartite graphs whose V2 vertices have pairwise distinct neighbourhoods;
the hypergraph adjacency matrix (shared-hyperedge counts, zero diagonal)
equals XX^T - d1*I of the image.  Spectral and cycle machinery therefore
delegates to the bipartite modules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import walks
from .errors import DegreeMismatch, DuplicateHyperedge, MalformedInput, RejectionBudgetExceeded, check_int
from .graph import BiregularGraph, gram_shifted
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
        deg = [0] * self.n
        for e in hes:
            for v in e:
                deg[v] += 1
        bad = next((v for v in range(self.n) if deg[v] != self.d1), None)
        if bad is not None:
            raise DegreeMismatch(f"vertex {bad} has degree {deg[bad]} != d1={self.d1}")

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
        for key in ("n", "d1", "d2"):
            check_int("hypergraph file", key, data[key])
        hes = data["hyperedges"]
        if not isinstance(hes, list) or not all(isinstance(e, list) for e in hes):
            raise MalformedInput("hypergraph file key 'hyperedges' must be a list of vertex lists")
        for idx, e in enumerate(hes):
            for v in e:
                check_int("hypergraph file", f"hyperedges[{idx}]", v)
        return cls(n=data["n"], d1=data["d1"], d2=data["d2"], hyperedges=tuple(tuple(e) for e in hes))


def to_bipartite(h: RegularHypergraph) -> BiregularGraph:
    """Incidence bipartite graph: V1 = vertices, V2 = hyperedges."""
    edges = tuple((v, idx) for idx, e in enumerate(h.hyperedges) for v in e)
    return BiregularGraph(n=h.n, m=h.m, d1=h.d1, d2=h.d2, edges=edges)


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


def sample_regular_hypergraph(
    n: int,
    d1: int,
    d2: int,
    rng,
    config: SamplerConfig | None = None,
    max_rejections: int = 1000,
) -> RegularHypergraph:
    """Uniform simple (d1, d2)-regular hypergraph via bipartite rejection.

    Samples the incidence bipartite graph uniformly and rejects images with
    repeated hyperedges; the acceptance fraction approaches 1 like
    1 - O(d1^2/(n d2^2)).
    """
    if n * d1 % d2:
        raise DegreeMismatch(f"n*d1 = {n * d1} is not divisible by d2 = {d2}")
    m = n * d1 // d2
    config = config or SamplerConfig()
    for _ in range(max_rejections):
        g = sample_graph(n, m, d1, d2, config, rng)
        if has_simple_image(g):
            return from_bipartite(g)
    raise RejectionBudgetExceeded(f"no simple hypergraph in {max_rejections} draws")


def hypergraph_cycle_count(h: RegularHypergraph, k: int) -> int:
    """Cycles of length k in the hypergraph = 2k-cycles of the incidence graph."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return walks.count_cycles(to_bipartite(h), k)


def save_hypergraph(h: RegularHypergraph, path) -> None:
    Path(path).write_text(json.dumps(h.to_dict()) + "\n")


def load_hypergraph(path) -> RegularHypergraph:
    return RegularHypergraph.from_dict(json.loads(Path(path).read_text()))

import numpy as np
import pytest

from bireg.errors import DegreeMismatch, DuplicateHyperedge, MalformedInput
from bireg.graph import BiregularGraph
from bireg.hypergraph import (
    RegularHypergraph,
    adjacency_identity_gap,
    from_bipartite,
    has_simple_image,
    hypergraph_cycle_count,
    load_hypergraph,
    sample_regular_hypergraph,
    save_hypergraph,
    to_bipartite,
)
from bireg.sampler import trial_rng
from bireg.walks import count_cycles

# the (2, 3)-regular hypergraph on 6 vertices with 4 hyperedges of size 3:
# every vertex in exactly 2 hyperedges, all hyperedges distinct
FIG_HYPEREDGES = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))


def fig_hypergraph():
    return RegularHypergraph(n=6, d1=2, d2=3, hyperedges=FIG_HYPEREDGES)


def test_validation():
    h = fig_hypergraph()
    assert h.m == 4
    with pytest.raises(DegreeMismatch):
        RegularHypergraph(n=6, d1=2, d2=3, hyperedges=FIG_HYPEREDGES[:3])
    with pytest.raises(DuplicateHyperedge):
        RegularHypergraph(n=3, d1=2, d2=3, hyperedges=((0, 1, 2), (2, 1, 0)))


def test_roundtrip_through_bipartite():
    h = fig_hypergraph()
    g = to_bipartite(h)
    assert (g.n, g.m, g.d1, g.d2) == (6, 4, 2, 3)
    assert from_bipartite(g).hyperedges == h.hyperedges


def test_two_uniform_case_is_a_graph():
    # a 2-regular 2-uniform hypergraph = a cycle graph; adjacency matches
    h = RegularHypergraph(n=4, d1=2, d2=2, hyperedges=((0, 1), (1, 2), (2, 3), (0, 3)))
    a = h.adjacency
    expected = np.zeros((4, 4), dtype=np.int64)
    for i, j in h.hyperedges:
        expected[i, j] = expected[j, i] = 1
    assert np.array_equal(a, expected)


def test_from_bipartite_duplicate_neighbourhood():
    # two V2 vertices with identical neighbourhoods (a 4-cycle in K_{2,2})
    g = BiregularGraph(n=2, m=2, d1=2, d2=2, edges=[(0, 0), (0, 1), (1, 0), (1, 1)])
    assert not has_simple_image(g)
    with pytest.raises(DuplicateHyperedge):
        from_bipartite(g)


def test_adjacency_identity():
    h = fig_hypergraph()
    assert adjacency_identity_gap(h) == 0
    assert np.all(np.diag(h.adjacency) == 0)


def test_adjacency_identity_sampled():
    rng = trial_rng(41)
    for _ in range(10):
        h = sample_regular_hypergraph(30, 3, 3, rng)
        assert adjacency_identity_gap(h) == 0


def test_cycle_counts_delegate():
    h = fig_hypergraph()
    g = to_bipartite(h)
    for k in (2, 3):
        assert hypergraph_cycle_count(h, k) == count_cycles(g, k)


def test_spectrum_matches_bipartite_gram():
    h = fig_hypergraph()
    g = to_bipartite(h)
    from bireg.graph import gram_shifted

    lam_h = np.sort(np.linalg.eigvalsh(h.adjacency.astype(float)))
    lam_g = np.sort(np.linalg.eigvalsh(gram_shifted(g).astype(float)))
    assert np.allclose(lam_h, lam_g, atol=1e-10)


def test_sampler_validates_and_accepts():
    rng = trial_rng(42)
    accepted = 0
    for _ in range(200):
        g_ok = has_simple_image(
            to_bipartite(sample_regular_hypergraph(60, 3, 3, rng))
        )
        accepted += g_ok
    assert accepted == 200  # outputs are always simple by construction


def test_file_roundtrip(tmp_path):
    h = fig_hypergraph()
    path = tmp_path / "h.json"
    save_hypergraph(h, path)
    assert load_hypergraph(path).hyperedges == h.hyperedges


@pytest.mark.parametrize(
    "data",
    [
        [1, 2, 3],
        {"n": 6, "d1": 2, "d2": 3, "hyperedges": 5},
        {"n": 6, "d1": 2, "d2": 3, "hyperedges": [5]},
        {"n": 6, "d1": 2, "d2": 3, "hyperedges": [[0, 1, 2.5]]},
        {"n": 6.0, "d1": 2, "d2": 3, "hyperedges": []},
    ],
)
def test_from_dict_rejects_badly_typed_input(data):
    with pytest.raises(MalformedInput):
        RegularHypergraph.from_dict(data)

import json

import numpy as np
import pytest

from bireg.errors import (
    BalanceViolation,
    DegenerateScaling,
    DegreeMismatch,
    DuplicateEdge,
    MalformedEdgeList,
    MalformedInput,
)
from bireg.graph import (
    BiregularGraph,
    complete_bipartite,
    gram_shifted,
    load_graph,
    save_graph,
    scaled_gram,
)
from bireg.sampler import seed_graph
from conftest import HEX_EDGES, random_corpus


def test_k22_construction():
    g = BiregularGraph(n=2, m=2, d1=2, d2=2, edges=[(0, 0), (0, 1), (1, 0), (1, 1)])
    assert g == complete_bipartite(2, 2)
    assert g.q == 1


def test_hexagon_is_valid():
    g = BiregularGraph(n=3, m=3, d1=2, d2=2, edges=HEX_EDGES)
    assert sorted(g.edges) == sorted(HEX_EDGES)


def test_balance_violation():
    with pytest.raises(BalanceViolation):
        BiregularGraph(n=3, m=2, d1=2, d2=2, edges=[(0, 0)])


def test_degree_mismatch():
    # right number of edges but a lopsided row
    edges = [(0, 0), (0, 1), (0, 2), (1, 0), (2, 1), (2, 2)]
    with pytest.raises(DegreeMismatch):
        BiregularGraph(n=3, m=3, d1=2, d2=2, edges=edges)


def test_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        BiregularGraph(n=2, m=2, d1=2, d2=2, edges=[(0, 0), (0, 0), (1, 0), (1, 1)])


def test_edge_array_of_wrong_shape_is_rejected():
    rows_of_three = np.array([(0, 0, 1), (1, 0, 1)])
    with pytest.raises(MalformedEdgeList):
        BiregularGraph(n=2, m=3, d1=3, d2=2, edges=rows_of_three)
    # a flat array is not re-paired into edges
    with pytest.raises(MalformedEdgeList):
        BiregularGraph(n=2, m=2, d1=2, d2=2, edges=np.array([0, 0, 0, 1, 1, 0, 1, 1]))


def test_array_and_shuffled_tuples_build_the_same_graph():
    g = random_corpus(1, 9, 12, 4, 3, seed=5)[0]
    shuffled = list(g.edges)
    np.random.default_rng(0).shuffle(shuffled)
    from_tuples = BiregularGraph(n=9, m=12, d1=4, d2=3, edges=tuple(shuffled))
    from_array = BiregularGraph(n=9, m=12, d1=4, d2=3, edges=np.array(g.edges))
    assert from_array == from_tuples == g
    assert hash(from_array) == hash(from_tuples) == hash(g)
    assert from_tuples.edges == tuple(sorted(shuffled))
    assert all(type(v) is int for e in from_array.edges for v in e)


def test_views_agree_with_the_edge_list():
    for g in random_corpus(3, 9, 12, 4, 3, seed=6):
        left = [[] for _ in range(g.n)]
        right = [[] for _ in range(g.m)]
        for i, j in g.edges:
            left[i].append(j)
            right[j].append(i)
        assert g.adjacency_left.tolist() == [sorted(a) for a in left]
        assert g.adjacency_right.tolist() == [sorted(a) for a in right]
        assert g.edge_set == frozenset(g.edges)
        assert set(zip(*g.biadjacency.nonzero())) == g.edge_set


def _gram_from_edges(g):
    x = np.zeros((g.n, g.m))
    for i, j in g.edges:
        x[i, j] = 1.0
    # float64 BLAS is exact here: co-degrees are small integers
    return np.rint(x @ x.T).astype(np.int64) - g.d1 * np.eye(g.n, dtype=np.int64)


def test_gram_shifted_matches_codegree_reference():
    lopsided = seed_graph(400, 12000, 60, 2)
    assert lopsided.n * lopsided.m > 4_000_000
    for g in random_corpus(4, 9, 12, 4, 3, seed=7) + [lopsided]:
        gram = gram_shifted(g)
        assert gram.dtype == np.int64
        assert np.array_equal(gram, _gram_from_edges(g))


def test_row_and_column_sums_on_random_graphs():
    for g in random_corpus(5, 9, 12, 4, 3, seed=1):
        x = g.biadjacency
        assert (x.sum(axis=1) == g.d1).all()
        assert (x.sum(axis=0) == g.d2).all()


def test_scaled_gram_k22():
    g = complete_bipartite(2, 2)
    assert g.q == 1
    assert np.allclose(scaled_gram(g), [[0, 2], [2, 0]])


def test_scaled_gram_hexagon():
    g = BiregularGraph(n=3, m=3, d1=2, d2=2, edges=HEX_EDGES)
    expected = np.ones((3, 3)) - np.eye(3)
    assert np.allclose(scaled_gram(g), expected)


def test_scaled_gram_complete_bipartite_eigenvalues():
    # K_{d2, d1} with n = d2, m = d1: XX^T = m J
    for n, m in [(3, 6), (2, 4), (4, 4)]:
        g = complete_bipartite(n, m)
        d1, d2 = m, n
        q = (d1 - 1) * (d2 - 1)
        eig = np.sort(np.linalg.eigvalsh(scaled_gram(g)))
        assert abs(eig[-1] - d1 * (d2 - 1) / np.sqrt(q)) < 1e-10
        assert np.allclose(eig[:-1], -d1 / np.sqrt(q), atol=1e-10)


def test_scaled_gram_is_the_exact_quotient():
    # the entries of K_{6,6} and K_{4,6} are 6, with q = 25 and 15: times a
    # rounded 1/sqrt(q) they would miss 6/sqrt(q) in the last bit
    for g in [complete_bipartite(6, 6), complete_bipartite(4, 6), *random_corpus(3, 60, 60, 3, 3, seed=5)]:
        want = gram_shifted(g).astype(np.float64) / np.sqrt(g.q)
        assert np.array_equal(scaled_gram(g).view(np.int64), want.view(np.int64))


def test_scaled_gram_zero_diagonal():
    for g in random_corpus(3, 8, 8, 3, 3, seed=3):
        assert np.all(np.diag(gram_shifted(g)) == 0)


def test_degenerate_scaling():
    g = BiregularGraph(n=2, m=2, d1=1, d2=1, edges=[(0, 0), (1, 1)])
    with pytest.raises(DegenerateScaling):
        scaled_gram(g)


def test_graph_file_roundtrip(tmp_path):
    g = random_corpus(1, 9, 12, 4, 3, seed=4)[0]
    path = tmp_path / "g.json"
    save_graph(g, path)
    assert load_graph(path) == g
    data = json.loads(path.read_text())
    assert set(data) == {"n", "m", "d1", "d2", "edges"}


@pytest.mark.parametrize(
    "data",
    [
        [1, 2, 3],
        {"n": [3], "m": 3, "d1": 2, "d2": 2, "edges": []},
        {"n": 2, "m": 2, "d1": True, "d2": 2, "edges": [[0, 0], [1, 1]]},
        {"n": 2, "m": "2", "d1": 1, "d2": 1, "edges": [[0, 0], [1, 1]]},
    ],
)
def test_from_dict_rejects_badly_typed_input(data):
    with pytest.raises(MalformedInput):
        BiregularGraph.from_dict(data)

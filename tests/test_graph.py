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
from bireg.sampler import sample_configuration, seed_graph, trial_rng
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


def _outcome(build):
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


# keys on the hexagon's shape (3, 3, 2, 2), each breaking one constructor
# invariant; their edge set is np.divmod(keys, 3)
BROKEN_KEYS = {
    "unsorted-repeat": [4, 0, 2, 5, 0, 8],
    "repeat": [0, 0, 4, 5, 6, 8],
    "count": [0, 2, 4, 5, 6],
    "negative": [-1, 0, 4, 5, 6, 8],
    "beyond-n-m": [0, 2, 4, 5, 6, 10],
    "row-degree": [0, 1, 2, 3, 7, 8],
    "column-degree": [0, 1, 3, 4, 6, 8],
}


@pytest.mark.parametrize("case", BROKEN_KEYS)
def test_from_keys_raises_what_the_constructor_raises(case):
    keys = BROKEN_KEYS[case]
    pairs = np.column_stack(np.divmod(np.array(keys), 3))
    expected = _outcome(lambda: BiregularGraph(n=3, m=3, d1=2, d2=2, edges=pairs))
    assert isinstance(expected, tuple), "the constructor accepted a broken edge set"
    assert _outcome(lambda: BiregularGraph.from_keys(3, 3, 2, 2, keys)) == expected


@pytest.mark.parametrize(
    "n, m, d1, d2", [(30, 30, 3, 3), (60, 40, 2, 3), (40, 60, 3, 2), (5, 5, 1, 1), (6, 8, 4, 3), (2, 2, 2, 2)]
)
def test_from_keys_builds_the_constructor_graph(n, m, d1, d2):
    shuffle = np.random.default_rng(n * m).permutation
    for g in random_corpus(4, n, m, d1, d2, seed=8):
        ref = BiregularGraph(n=n, m=m, d1=d1, d2=d2, edges=np.column_stack(np.divmod(g.keys, m)))
        for keys in (g.keys, shuffle(g.keys), g.keys.tolist()):
            h = BiregularGraph.from_keys(n, m, d1, d2, keys)
            assert h == ref and h.keys.dtype == np.int64
            assert h.edges == ref.edges


def test_from_keys_stores_a_read_only_copy():
    keys = np.array([0, 2, 4, 5, 6, 7])
    g = BiregularGraph.from_keys(3, 3, 2, 2, keys)
    assert not g.keys.flags.writeable
    with pytest.raises(ValueError):
        g.keys[0] = 1
    keys[0] = 1
    assert g.keys[0] == 0 and keys.flags.writeable


@pytest.mark.parametrize("n, m, d1", [(2, 1 << 15, 1 << 14), (1, (1 << 15) + 1, (1 << 15) + 1),
                                      (3, (1 << 15) + 1, 10923)])
def test_adjacency_right_on_both_sides_of_the_int16_cut(n, m, d1):
    # d2 = 1: each column has one V1 neighbour, so a column id that wrapped
    # in an int16 cast would move its row to the wrong place
    g = sample_configuration(n, m, d1, 1, trial_rng(3))
    right = [[] for _ in range(m)]
    for i, j in g.edges:
        right[j].append(i)
    assert g.adjacency_right.tolist() == right


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

import json

import numpy as np
import pytest

from bireg.chebyshev import cnbw_constant
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
    gram_shifted_sparse,
    load_graph,
    save_graph,
    scaled_gram,
)
from bireg.experiments import run_experiment
from bireg.hypergraph import sample_regular_hypergraph
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
    # ids that a cast to int64 would truncate or parse into K_{2,2}
    for edges in ([(0, 0), (0, 1.9), (1, 0), (1, 1)], [(0, 0), (0, "1"), (1, 0), (1, 1)],
                  np.array([(0, 0), (0, 1), (1, 0), (1, 1)], dtype=bool), [(0, 0), (0, 1), (1, 0), (1, 2**64)]):
        with pytest.raises(MalformedEdgeList, match="edges are not integer pairs"):
            BiregularGraph(n=2, m=2, d1=2, d2=2, edges=edges)
    # numpy reads an empty list as float64: it is still the empty edge list
    with pytest.raises(DegreeMismatch, match="expected 4 edges, got 0"):
        BiregularGraph(n=2, m=2, d1=2, d2=2, edges=[])
    narrow_ids = np.array([(0, 0), (0, 1), (1, 0), (1, 1)], dtype=np.uint8)
    assert BiregularGraph(n=2, m=2, d1=2, d2=2, edges=narrow_ids) == complete_bipartite(2, 2)


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


def _outcome(build):
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


def _pairs(keys):
    return np.column_stack(np.divmod(np.array(keys), 3)).tolist()


# edge sets on the hexagon's shape (3, 3, 2, 2), each breaking one constructor
# invariant, with the error they raise; most are given by their keys i*3 + j
OUT_OF_INT64_ROW = (2**64 + 2) // 3  # times 3 it wraps to 2 in int64
BROKEN_KEYS = {
    "unsorted-repeat": (_pairs([4, 0, 2, 5, 0, 8]), (DuplicateEdge, "repeated (i, j) pair")),
    "repeat": (_pairs([0, 0, 4, 5, 6, 8]), (DuplicateEdge, "repeated (i, j) pair")),
    "count": (_pairs([0, 2, 4, 5, 6]), (DegreeMismatch, "expected 6 edges, got 5")),
    "negative": (_pairs([-1, 0, 4, 5, 6, 8]), (ValueError, "edge (-1, 2) out of range")),
    "beyond-n-m": (_pairs([0, 2, 4, 5, 6, 10]), (ValueError, "edge (3, 1) out of range")),
    "row-degree": (_pairs([0, 1, 2, 3, 7, 8]), (DegreeMismatch, "V1 vertex 0 has degree 3 != d1=2")),
    "column-degree": (_pairs([0, 1, 3, 4, 6, 8]), (DegreeMismatch, "V2 vertex 0 has degree 3 != d2=2")),
    # the hexagon with one pair swapped for one outside the shape that has the
    # same int64 key i*3 + j, so only the constructor sees the fault
    "column-m": ([(0, 0), (0, 3), (1, 1), (2, 1), (2, 2), (0, 2)], (ValueError, "edge (0, 3) out of range")),
    "column-negative": ([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (1, -1)], (ValueError, "edge (1, -1) out of range")),
    "row-overflow": ([(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (OUT_OF_INT64_ROW, 0)],
                     (ValueError, f"edge ({OUT_OF_INT64_ROW}, 0) out of range")),
}


@pytest.mark.parametrize("case", BROKEN_KEYS)
def test_from_keys_raises_what_the_constructor_raises(case):
    pairs, expected = BROKEN_KEYS[case]
    assert _outcome(lambda: BiregularGraph(n=3, m=3, d1=2, d2=2, edges=pairs)) == expected
    i, j = np.array(pairs).T
    keys = i * 3 + j
    if np.array_equal(np.column_stack(np.divmod(keys, 3)), pairs):
        assert _outcome(lambda: BiregularGraph.from_keys(3, 3, 2, 2, keys)) == expected
    else:  # the keys are the hexagon's
        assert BiregularGraph.from_keys(3, 3, 2, 2, keys).edge_set == frozenset(HEX_EDGES)


@pytest.mark.parametrize("n, m, d1, d2", [(2, 1, 2, 4), (1, 2, 4, 2)])
def test_both_constructors_refuse_an_impossible_shape_before_the_edges(n, m, d1, d2):
    expected = (ValueError, "no simple graph exists: need d1 <= m and d2 <= n")
    assert _outcome(lambda: BiregularGraph(n=n, m=m, d1=d1, d2=d2, edges="not pairs")) == expected
    assert _outcome(lambda: BiregularGraph.from_keys(n, m, d1, d2, "not keys")) == expected


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


def _gram_from_edges(g, shift=None):
    """X X^T - shift*I, shift = d1 unless given, with X built from the edge tuples."""
    x = np.zeros((g.n, g.m))
    for i, j in g.edges:
        x[i, j] = 1.0
    # float64 BLAS is exact here: co-degrees are small integers
    shift = g.d1 if shift is None else shift
    return np.rint(x @ x.T).astype(np.int64) - shift * np.eye(g.n, dtype=np.int64)


def test_gram_shifted_matches_codegree_reference():
    lopsided = seed_graph(400, 12000, 60, 2)
    assert lopsided.n * lopsided.m > 4_000_000
    for g in random_corpus(4, 9, 12, 4, 3, seed=7) + [lopsided]:
        gram = gram_shifted(g)
        assert gram.dtype == np.int64
        assert np.array_equal(gram, _gram_from_edges(g))


# the stub-matching oracle's six shapes, then d1 = 1 and d2 = 1 alone
GRAM_SHAPES = [(30, 30, 3, 3), (60, 40, 2, 3), (40, 60, 3, 2), (5, 5, 1, 1), (6, 8, 4, 3), (2, 2, 2, 2),
               (12, 4, 1, 3), (4, 12, 3, 1)]


def _gram_graphs():
    graphs = [sample_configuration(*shape, trial_rng(seed)) for shape in GRAM_SHAPES for seed in (0, 1)]
    return graphs + [complete_bipartite(3, 5), complete_bipartite(4, 4), complete_bipartite(1, 3)]


def test_gram_shifted_sparse_matches_a_dense_reference():
    for g in _gram_graphs():
        for shift in (None, 0, g.d1 + g.d2 - 2):
            p = gram_shifted_sparse(g, shift)
            assert np.array_equal(p.toarray(), _gram_from_edges(g, shift))
            # canonical: each row's columns strictly increase, no stored zero
            assert p.shape == (g.n, g.n) and p.data.dtype == np.int64
            assert all((np.diff(p.indices[a:b]) > 0).all() for a, b in zip(p.indptr, p.indptr[1:]))
            assert (p.data != 0).all()


def test_scaled_gram_is_the_dense_reference_over_sqrt_q():
    for g in _gram_graphs():
        if g.q == 0:
            continue
        want = _gram_from_edges(g).astype(np.float64) / np.sqrt(g.q)
        assert np.array_equal(scaled_gram(g).view(np.int64), want.view(np.int64))


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


# (n, d1, d2) = (7, 3, 2): d2 does not divide n*d1, so V2 has no integer size
V2_SIZE_SITES = {
    "experiment": lambda: run_experiment(
        {"experiment": "globallaw", "params": {"n": 7, "d1": 3, "d2": 2, "model": "semicircle", "samples": 1}}
    ),
    "hypergraph": lambda: sample_regular_hypergraph(7, 3, 2, trial_rng(0)),
    "cnbw-constant": lambda: cnbw_constant(1, 7, 3, 2),
}


@pytest.mark.parametrize("site", V2_SIZE_SITES)
def test_an_indivisible_v2_size_is_one_balance_violation(site):
    assert _outcome(V2_SIZE_SITES[site]) == (BalanceViolation, "n*d1 = 21 is not divisible by d2 = 2")
    assert issubclass(BalanceViolation, ValueError)


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

"""Cycle counting, the walk-count recurrence, and the independent oracle.

The semantic DFS below enumerates closed two-step walks on the graph (steps
go V1 -> V2 -> V1 with the next V1 vertex always new, consecutive steps never
reversing the same (V2, pair) move, and for the cyclic variant no reversal
across the wrap either).  Those counts coincide with the recurrence objects
for k <= 3 (and for every k when d2 = 2); beyond that the recurrence counts
carry extra degree-correction terms, which is why the library oracle works
through plain walks and explicit polynomial coefficients instead.
"""

import numpy as np
import pytest

from bireg.errors import TooLarge
from bireg.graph import complete_bipartite
from bireg.sampler import SamplerConfig, sample_graph, trial_rng
from bireg.walks import (
    _recurrence_matrices,
    brute_force_walks,
    closed_walk_counts,
    cnbw_counts_up_to,
    count_cycles,
    enumerate_cycles,
    nbw_counts_up_to,
    walk_table,
)
from conftest import random_corpus


def reference_recurrence(g, kmax):
    """A(1)..A(kmax) as nested lists of Python ints, built row by row from
    the edge list: A(1) = XX^T - d1 I, A(2) = A(1)^2 - d1(d2-1) I,
    A(k+1) = A(1) A(k) - q A(k-1).  Test-only; shares no code with walks.py.
    """
    n = g.n
    sharers = {}
    for i, j in g.edges:
        sharers.setdefault(j, []).append(i)
    codeg = [{} for _ in range(n)]
    for us in sharers.values():
        for a in us:
            for b in us:
                if a != b:
                    codeg[a][b] = codeg[a].get(b, 0) + 1

    def times_a1(rows):
        out = []
        for i in range(n):
            acc = [0] * n
            for l, w in codeg[i].items():
                acc = [x + w * y for x, y in zip(acc, rows[l])]
            out.append(acc)
        return out

    a1 = [[codeg[i].get(l, 0) for l in range(n)] for i in range(n)]
    mats = [None, a1]
    if kmax >= 2:
        a2 = times_a1(a1)
        for i in range(n):
            a2[i][i] -= g.d1 * (g.d2 - 1)
        mats.append(a2)
    for k in range(2, kmax):
        nxt = times_a1(mats[k])
        mats.append([[x - g.q * y for x, y in zip(r, p)] for r, p in zip(nxt, mats[k - 1])])
    return mats


def assert_matches_reference(g, kmax):
    mats = _recurrence_matrices(g, kmax)
    ref = reference_recurrence(g, kmax)
    for k in range(1, kmax + 1):
        assert mats[k].tolist() == ref[k], f"A({k}) differs"
    return mats


def junction_rule_walks(g, k, cyclic):
    """Semantic two-step-walk DFS (test-only; agrees with counts for k <= 3)."""
    adj1, adj2 = g.adjacency_left, g.adjacency_right
    count = 0

    def rec(us, vs):
        nonlocal count
        t = len(vs)
        if t == k:
            if us[-1] != us[0]:
                return
            if cyclic and k >= 2 and vs[0] == vs[-1] and us[1] == us[-2]:
                return
            count += 1
            return
        u = us[-1]
        for v in adj1[u]:
            for u2 in adj2[v]:
                if u2 == u:
                    continue
                if t >= 1 and v == vs[-1] and u2 == us[-2]:
                    continue
                rec(us + [u2], vs + [v])

    for u0 in range(g.n):
        rec([u0], [])
    return count


# ---- cycles ---------------------------------------------------------------


def test_cycle_counts_fixtures(k22, k33, hexagon):
    assert count_cycles(k22, 2) == 1
    assert count_cycles(hexagon, 2) == 0
    assert count_cycles(hexagon, 3) == 1
    assert count_cycles(k33, 2) == 9
    assert count_cycles(k33, 3) == 6


def test_cycles_enumerated_once_and_canonical(k33):
    cycles = list(enumerate_cycles(k33, 2))
    assert len(cycles) == len(set(cycles)) == 9
    for c in cycles:
        xs, ys = c[0::2], c[1::2]
        assert xs[0] == min(xs)
        assert ys[0] < ys[-1]


def test_cycle_budget():
    with pytest.raises(TooLarge):
        count_cycles(complete_bipartite(6, 6), 4, budget=10)


# ---- recurrence matrices ---------------------------------------------------


def test_nbw_matrices_k22(k22):
    mats = _recurrence_matrices(k22, 3)
    assert np.array_equal(mats[1], [[0, 2], [2, 0]])
    assert np.array_equal(mats[2], 2 * np.eye(2))
    assert np.array_equal(mats[3], mats[1])


def test_nbw_matrices_hexagon(hexagon):
    j = np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)
    mats = _recurrence_matrices(hexagon, 3)
    assert np.array_equal(mats[1], j)
    assert np.array_equal(mats[2], j)
    assert np.array_equal(mats[3], 2 * np.eye(3))


def test_nbw_counts_fixtures(k22, hexagon):
    assert nbw_counts_up_to(k22, 3) == [0, 4, 0]
    assert nbw_counts_up_to(hexagon, 3)[2] == 6


def test_cnbw_fixtures(k22, hexagon):
    cnbw = cnbw_counts_up_to(k22, 3)
    assert cnbw[1] == 4 == 4 * count_cycles(k22, 2)
    assert cnbw[2] == 0
    assert cnbw_counts_up_to(hexagon, 3)[2] == 6 == 6 * count_cycles(hexagon, 3)


def test_nbw_matrix_entries_nonnegative():
    for g in random_corpus(5, 10, 10, 3, 3, seed=11):
        mats = _recurrence_matrices(g, 6)
        for k in range(1, 7):
            assert np.all(mats[k] >= 0)


def test_bigint_escalation_matches_small_k(k33):
    # A(40) of K_{3,3} passes 2^62, so the run ends in Python ints
    mats = assert_matches_reference(k33, 40)
    assert mats[40].dtype == object


def test_recurrence_matches_reference_on_sampled_graph():
    g = sample_graph(300, 300, 3, 3, SamplerConfig(seed=7), trial_rng(7, 0))
    mats = assert_matches_reference(g, 14)
    assert mats[14].dtype == np.int64


def test_recurrence_switches_tiers_mid_run():
    g = complete_bipartite(8, 8)
    assert _recurrence_matrices(g, 6)[6].dtype == np.int64
    assert assert_matches_reference(g, 12)[12].dtype == object


def test_nbw_count_trace_does_not_wrap():
    # A(1) = 8J - 8I has spectrum {56, -8 (x7)}, so NBW_11 = a_11(56) + 7 a_11(-8)
    # with a_1(x) = x, a_2(x) = x^2 - 56, a_{k+1}(x) = x a_k(x) - 49 a_{k-1}(x);
    # each diagonal entry of A(11) fits in int64, their sum does not
    assert nbw_counts_up_to(complete_bipartite(8, 8), 11)[10] == 14443508936700813312


# ---- independent oracle -----------------------------------------------------


def test_plain_walk_counts_match_traces(k33, hexagon):
    from bireg.graph import gram_shifted

    for g in (k33, hexagon):
        w = closed_walk_counts(g, 5)
        a1 = gram_shifted(g).astype(np.int64)
        acc = np.eye(g.n, dtype=np.int64)
        for t in range(1, 6):
            acc = acc @ a1
            assert w[t] == np.trace(acc)


def test_brute_force_matches_recurrence_fixtures(k22, k33, hexagon):
    for g in (k22, k33, hexagon):
        assert brute_force_walks(g, 4) == (nbw_counts_up_to(g, 4), cnbw_counts_up_to(g, 4))


def test_brute_force_matches_recurrence_random():
    for g in random_corpus(8, 12, 12, 3, 3, seed=12):
        assert brute_force_walks(g, 4) == (nbw_counts_up_to(g, 4), cnbw_counts_up_to(g, 4))


def test_brute_force_budget():
    with pytest.raises(TooLarge):
        brute_force_walks(complete_bipartite(8, 8), 8, budget=100)


# ---- semantic walk rules ----------------------------------------------------


def test_junction_rule_matches_counts_up_to_k3():
    corpus = [complete_bipartite(3, 3)] + random_corpus(4, 10, 10, 3, 3, seed=13)
    for g in corpus:
        nbw, cnbw = nbw_counts_up_to(g, 3), cnbw_counts_up_to(g, 3)
        for k in (1, 2, 3):
            assert junction_rule_walks(g, k, cyclic=False) == nbw[k - 1]
            assert junction_rule_walks(g, k, cyclic=True) == cnbw[k - 1]


def test_junction_rule_matches_all_k_when_d2_is_2(hexagon):
    corpus = [hexagon] + random_corpus(3, 4, 8, 4, 2, seed=14)
    for g in corpus:
        nbw, cnbw = nbw_counts_up_to(g, 5), cnbw_counts_up_to(g, 5)
        for k in range(1, 6):
            assert junction_rule_walks(g, k, cyclic=False) == nbw[k - 1]
            assert junction_rule_walks(g, k, cyclic=True) == cnbw[k - 1]


# ---- the table ---------------------------------------------------------------


def test_walk_table_hexagon(hexagon):
    t = walk_table(hexagon, 3)
    assert t.cycles == (0, 0, 1)
    assert t.cnbw == (0, 0, 6)
    assert t.bad == (0, 0, 0)


def test_walk_table_k33(k33):
    t = walk_table(k33, 2)
    assert t.cnbw[1] == 4 * t.cycles[1] == 36
    assert t.bad[1] == 0


def test_bad_walks_b2_always_zero():
    for g in random_corpus(6, 12, 12, 3, 3, seed=15):
        t = walk_table(g, 4)
        assert t.cycles[0] == 0 and t.cnbw[0] == 0  # k = 1
        assert t.bad[1] == 0  # k = 2
        assert all(b >= 0 for b in t.bad)


def test_bad_walks_b3_structure():
    # the k = 3 leftover decomposes exactly into the degree-forced star walks
    # plus the cycle-with-pendant walks: B_3 = m d2(d2-1)(d2-2) + 12(d2-2) C_2
    corpus = random_corpus(4, 12, 12, 3, 3, seed=16) + random_corpus(3, 9, 12, 4, 3, seed=16)
    for g in corpus:
        t = walk_table(g, 3)
        expected = g.m * g.d2 * (g.d2 - 1) * (g.d2 - 2) + 12 * (g.d2 - 2) * t.cycles[1]
        assert t.bad[2] == expected

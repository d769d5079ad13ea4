"""Cycle counting, the walk-count recurrence, and the independent oracle.

The semantic DFS below enumerates the bipartite non-backtracking closed
walks u1 v1 u2 v2 ... uk vk u1 (consecutive V1 vertices differ and so do
consecutive V2 vertices; for the cyclic variant also vk != v1, across the
wrap).  Its counts are NBW_k and CNBW_k for every k and every (d1, d2); the
DFS is exponential in k, which is why the library oracle works through plain
walks and explicit polynomial coefficients instead.
"""

import tracemalloc

import numpy as np
import pytest

from bireg import walks
from bireg.errors import TooLarge
from bireg.graph import complete_bipartite
from bireg.sampler import SamplerConfig, sample_graph, trial_rng
from bireg.walks import (
    _tier,
    _u_matrices,
    brute_force_walks,
    closed_walk_counts,
    cnbw_counts_up_to,
    count_cycles,
    enumerate_cycles,
    walk_counts,
    walk_table,
)
from conftest import random_corpus


def reference_recurrence(g, kmax):
    """A(1)..A(kmax) as nested lists of Python ints, built row by row from
    the edge list: A(1) = XX^T - d1 I, A(2) = A(1)^2 - (d2-2) A(1) - d1(d2-1) I,
    A(k+1) = A(1) A(k) - (d2-2) A(k) - q A(k-1).  This is the V1 block of the
    non-backtracking recurrence A^(t+1) = A A^(t) - (D-I) A^(t-1) of the whole
    graph, taken two steps at a time.  Test-only; shares no code with walks.py.
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
    c = g.d2 - 2
    mats = [None, a1]
    if kmax >= 2:
        a2 = [[x - c * y for x, y in zip(r, p)] for r, p in zip(times_a1(a1), a1)]
        for i in range(n):
            a2[i][i] -= g.d1 * (g.d2 - 1)
        mats.append(a2)
    for k in range(2, kmax):
        nxt = times_a1(mats[k])
        mats.append([
            [x - c * y - g.q * z for x, y, z in zip(r, p, pp)]
            for r, p, pp in zip(nxt, mats[k], mats[k - 1])
        ])
    return mats


def a_matrices(g, us):
    """[None, A(1), ..., A(kmax)] formed from the library's U family
    us = [U_1, ..., U_kmax] as A(k) = U_k + (d2-2) U_{k-1} - (d2-1) U_{k-2},
    with U_0 = I and U_{-1} = 0, in Python ints whatever the dtype of each U_k."""
    us = [0, np.eye(g.n, dtype=object)] + [u.astype(object) for u in us]  # us[k+1] = U_k
    return [None] + [us[k + 1] + (g.d2 - 2) * us[k] - (g.d2 - 1) * us[k - 1] for k in range(1, len(us) - 1)]


def tail_recursion_cnbw(g, nbw):
    """CNBW from an NBW list by
    CNBW_k = NBW_k - q NBW_{k-2} - (d2-2) CNBW_{k-1} + (d2-1) CNBW_{k-2},
    seeded with CNBW = NBW at k = 1, 2.  With E the index shift,
    NBW = (1 + (d2-1)E)(1 - E) t and CNBW = (1 - qE^2) t + constant, and
    (1 + (d2-1)E)(1 - E) annihilates the Ihara-Bass constant
    a + b(1-d2)^k.  Test-only reference."""
    out = list(nbw[:2])
    for k in range(3, len(nbw) + 1):
        out.append(nbw[k - 1] - g.q * nbw[k - 3] - (g.d2 - 2) * out[k - 2] + (g.d2 - 1) * out[k - 3])
    return out


def u_list(g, kmax):
    """[U_1, ..., U_kmax] from _u_matrices, each copied when yielded, since
    the step that makes U_{j+2} scales U_j in place; checks each yielded
    max|U_j|."""
    us = []
    for u, top in _u_matrices(g, kmax):
        assert top == max(abs(v) for v in u.ravel().tolist()), f"max|U_{len(us) + 1}|"
        us.append(u.copy())
    return us


def assert_matches_reference(g, kmax):
    """Check every A(k) made from _u_matrices(g, kmax) against the reference;
    return the library's [U_1, ..., U_kmax]."""
    us = u_list(g, kmax)
    mats = a_matrices(g, us)
    ref = reference_recurrence(g, kmax)
    for k in range(1, kmax + 1):
        assert mats[k].tolist() == ref[k], f"A({k}) differs"
    return us


def narrowest_tier(bound):
    """The dtype an exact integer computation needs when its partial sums
    stay below bound: int16 below 2^15, int32 below 2^31, int64 below 2^62,
    Python ints above."""
    for dtype, limit in ((np.int16, 2**15), (np.int32, 2**31), (np.int64, 2**62)):
        if bound < limit:
            return np.dtype(dtype)
    return np.dtype(object)


def nonbacktracking_walks(g, k, cyclic):
    """Semantic DFS of the bipartite non-backtracking closed walks of k
    two-step moves; cyclic adds the condition across the wrap.  Test-only."""
    adj1, adj2 = g.adjacency_left, g.adjacency_right
    count = 0

    def rec(us, vs):
        nonlocal count
        t = len(vs)
        if t == k:
            if us[-1] != us[0]:
                return
            if cyclic and vs[0] == vs[-1]:
                return
            count += 1
            return
        u = us[-1]
        for v in adj1[u]:
            if t >= 1 and v == vs[-1]:
                continue
            for u2 in adj2[v]:
                if u2 == u:
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
    mats = a_matrices(k22, u_list(k22, 3))
    assert np.array_equal(mats[1], [[0, 2], [2, 0]])
    assert np.array_equal(mats[2], 2 * np.eye(2))
    assert np.array_equal(mats[3], mats[1])


def test_nbw_matrices_hexagon(hexagon):
    j = np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)
    mats = a_matrices(hexagon, u_list(hexagon, 3))
    assert np.array_equal(mats[1], j)
    assert np.array_equal(mats[2], j)
    assert np.array_equal(mats[3], 2 * np.eye(3))


def test_nbw_counts_fixtures(k22, hexagon):
    assert walk_counts(k22, 3)[0] == [0, 4, 0]
    assert walk_counts(hexagon, 3)[0][2] == 6
    assert walk_counts(k22, 0) == ([], [])
    with pytest.raises(ValueError, match="kmax must be >= 0"):
        walk_counts(k22, -1)


def test_cnbw_fixtures(k22, hexagon):
    cnbw = cnbw_counts_up_to(k22, 3)
    assert cnbw[1] == 4 == 4 * count_cycles(k22, 2)
    assert cnbw[2] == 0
    assert cnbw_counts_up_to(hexagon, 3)[2] == 6 == 6 * count_cycles(hexagon, 3)


def test_nbw_matrix_entries_nonnegative():
    for g in random_corpus(5, 10, 10, 3, 3, seed=11):
        mats = a_matrices(g, u_list(g, 6))
        for k in range(1, 7):
            assert np.all(mats[k] >= 0)


def test_bigint_escalation_matches_small_k(k33):
    # U_40 of K_{3,3} passes 2^62, so the run ends in Python ints
    us = assert_matches_reference(k33, 40)
    assert us[39].dtype == object


def test_recurrence_matches_reference_on_sampled_graph():
    # at (3,3,300) every step bound up to U_14 stays below 2^31, and up to
    # U_10 below 2^15: 7*max|U_9| + 4*max|U_8| = 7*1734 + 4*635 = 14678
    g = sample_graph(300, 300, 3, 3, SamplerConfig(seed=7), trial_rng(7, 0))
    us = assert_matches_reference(g, 14)
    assert [u.dtype for u in us] == [np.dtype(np.int16)] * 10 + [np.dtype(np.int32)] * 4


def test_recurrence_switches_tiers_mid_run():
    # K_{8,8}: the step bound of U_4 is 62*max|U_3| + 49*max|U_2| > 2^15,
    # that of U_6 passes 2^31 and that of U_12 2^62
    g = complete_bipartite(8, 8)
    us = assert_matches_reference(g, 12)
    tiers = [np.int16] * 3 + [np.int32] * 2 + [np.int64] * 6 + [object]
    assert [u.dtype for u in us] == [np.dtype(t) for t in tiers]


@pytest.mark.parametrize("d,kmax", [(3, 40), (8, 12)], ids=["K33", "K88"])
def test_each_recurrence_step_runs_in_its_narrowest_tier(d, kmax):
    # step bound of U_k: row*max|U_{k-1}| + q*max|U_{k-2}|, with U_0 = I,
    # U_{-1} = 0 and row = d1(d2-1) + |d2-2| the absolute row sum of B
    g = complete_bipartite(d, d)
    us = assert_matches_reference(g, kmax)
    row = g.d1 * (g.d2 - 1) + abs(g.d2 - 2)
    maxes = [0, 1] + [max(abs(v) for v in u.ravel().tolist()) for u in us]  # maxes[k+1] = max|U_k|
    for k in range(1, kmax + 1):
        assert us[k - 1].dtype == narrowest_tier(row * maxes[k] + g.q * maxes[k - 1]), f"U_{k}"
    assert {u.dtype for u in us} == {np.dtype(t) for t in (np.int16, np.int32, np.int64, object)}


def test_walk_counts_peak_does_not_grow_with_the_horizon():
    # the recurrence holds two matrices whatever kmax is, so going from
    # U_5 to U_10 adds no memory
    g = sample_graph(300, 300, 3, 3, SamplerConfig(seed=7), trial_rng(7, 0))
    peaks = []
    for kmax in (10, 20):
        tracemalloc.start()
        try:
            walk_counts(g, kmax)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0], peaks


def test_tier_limits():
    assert _tier(0) is np.int16
    assert _tier(2**15 - 1) is np.int16
    assert _tier(2**15) is np.int32
    assert _tier(2**31 - 1) is np.int32
    assert _tier(2**31) is np.int64
    assert _tier(2**62 - 1) is np.int64
    assert _tier(2**62) is object
    for bound in (0, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**62 - 1, 2**62, 2**80):
        assert np.dtype(_tier(bound)) == narrowest_tier(bound)


def test_nbw_count_trace_does_not_wrap():
    # B = 8J - 14I has spectrum {50, -14 (x7)}, so t_k = u_k(50) + 7 u_k(-14)
    # with u_0 = 1, u_1(x) = x, u_{k+1}(x) = x u_k(x) - 49 u_{k-1}(x), and
    # NBW_k = t_k + 6 t_{k-1} - 7 t_{k-2}; NBW_11 fits in int64, NBW_12 is
    # above 2^63, so it is exact only if no trace or sum wraps
    nbw = walk_counts(complete_bipartite(8, 8), 12)[0]
    assert nbw[10] == 4468366896847658112
    assert nbw[11] == 218949978831377628352 > 2**63


TRACE_GRAPHS = {
    "3-3-n300": (lambda: sample_graph(300, 300, 3, 3, SamplerConfig(), trial_rng(0, 0)), 16),
    "3-4-n120": (lambda: sample_graph(120, 90, 3, 4, SamplerConfig(), trial_rng(3, 0)), 16),
    "K33": (lambda: complete_bipartite(3, 3), 40),
    # the traces pass 2^63 by k = 14 while A(7) stays int64, so only the
    # Frobenius-product guard keeps the high counts exact
    "8-8-n100": (lambda: sample_graph(100, 100, 8, 8, SamplerConfig(), trial_rng(2, 0)), 14),
    # d1 < d2: m < n, so the Ihara-Bass constant's (m-n)(1-d2)^k term is negative
    "2-3-n60": (lambda: sample_graph(60, 40, 2, 3, SamplerConfig(), trial_rng(5, 0)), 14),
}


@pytest.mark.parametrize("name", sorted(TRACE_GRAPHS))
def test_nbw_counts_are_reference_traces_at_every_horizon(name):
    # NBW against the traces of the reference A(k); CNBW against the tail
    # recursion over those traces
    build, top = TRACE_GRAPHS[name]
    g = build()
    ref = reference_recurrence(g, top)
    traces = [sum(ref[k][i][i] for i in range(g.n)) for k in range(1, top + 1)]
    cnbw = tail_recursion_cnbw(g, traces)
    for kmax in range(top + 1):
        assert walk_counts(g, kmax) == (traces[:kmax], cnbw[:kmax]), f"kmax={kmax}"


def test_late_traces_in_python_ints_are_reference_traces(monkeypatch):
    # on K_{3,3}, n*max|U_h| passes 2^62 once h >= 31, so these horizons read
    # their last traces in the object tier, which no TRACE_GRAPHS horizon reaches
    g, top = complete_bipartite(3, 3), 64
    ref = reference_recurrence(g, top)
    traces = [sum(ref[k][i][i] for i in range(g.n)) for k in range(1, top + 1)]
    cnbw = tail_recursion_cnbw(g, traces)
    tiers = []
    trace = np.trace

    def counted(u, dtype):
        tiers.append(dtype)
        return trace(u, dtype=dtype)

    monkeypatch.setattr(np, "trace", counted)
    for kmax in range(61, top + 1):
        assert walk_counts(g, kmax) == (traces[:kmax], cnbw[:kmax]), f"kmax={kmax}"
    assert object in tiers


def test_walk_counts_forms_floor_half_kmax_frobenius_products(monkeypatch):
    # the recurrence builds U_1..U_h, h = ceil(kmax/2), and t_k for k <= h is
    # the trace of U_k; only each t_k with h < k <= kmax takes a product
    g = sample_graph(60, 60, 3, 3, SamplerConfig(), trial_rng(0, 0))
    products = []
    frobenius = walks._frobenius

    def counted(a, b, dtype):
        products.append(dtype)
        return frobenius(a, b, dtype)

    monkeypatch.setattr(walks, "_frobenius", counted)
    for kmax in range(17):
        products.clear()
        walk_counts(g, kmax)
        assert len(products) == kmax // 2, f"kmax={kmax}"


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
        assert brute_force_walks(g, 4) == walk_counts(g, 4)


def test_brute_force_matches_recurrence_random():
    for g in random_corpus(8, 12, 12, 3, 3, seed=12):
        assert brute_force_walks(g, 4) == walk_counts(g, 4)


def test_brute_force_budget():
    with pytest.raises(TooLarge):
        brute_force_walks(complete_bipartite(8, 8), 8, budget=100)


# ---- semantic walk rules ----------------------------------------------------


def test_junction_rule_matches_counts_up_to_k3():
    corpus = [complete_bipartite(3, 3)] + random_corpus(4, 10, 10, 3, 3, seed=13)
    for g in corpus:
        nbw, cnbw = walk_counts(g, 3)
        for k in (1, 2, 3):
            assert nonbacktracking_walks(g, k, cyclic=False) == nbw[k - 1]
            assert nonbacktracking_walks(g, k, cyclic=True) == cnbw[k - 1]


def test_junction_rule_matches_all_k_when_d2_is_2(hexagon):
    corpus = [hexagon] + random_corpus(3, 4, 8, 4, 2, seed=14)
    for g in corpus:
        nbw, cnbw = walk_counts(g, 5)
        for k in range(1, 6):
            assert nonbacktracking_walks(g, k, cyclic=False) == nbw[k - 1]
            assert nonbacktracking_walks(g, k, cyclic=True) == cnbw[k - 1]


@pytest.mark.parametrize("d1,d2,n,m,kmax", [
    (3, 3, 8, 8, 5), (4, 3, 6, 8, 5), (3, 4, 8, 6, 5), (3, 2, 6, 9, 5), (2, 3, 9, 6, 5),
    (4, 4, 8, 8, 4), (5, 5, 10, 10, 4),
])
def test_nonbacktracking_dfs_matches_counts_and_oracle(d1, d2, n, m, kmax):
    # the paper's walk class against both library paths, d2 >= 3 included
    for g in random_corpus(2, n, m, d1, d2, seed=30):
        counts = walk_counts(g, kmax)
        assert brute_force_walks(g, kmax, budget=10**8) == counts
        for k in range(1, kmax + 1):
            assert nonbacktracking_walks(g, k, cyclic=False) == counts[0][k - 1]
            assert nonbacktracking_walks(g, k, cyclic=True) == counts[1][k - 1]


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
    # a cyclically non-backtracking closed walk of length 6 in a simple
    # bipartite graph has no leaf and no room for two cycles, so it traverses
    # a 6-cycle: CNBW_3 = 6 C_3 and the k = 3 leftover vanishes
    corpus = random_corpus(4, 12, 12, 3, 3, seed=16) + random_corpus(3, 9, 12, 4, 3, seed=16)
    for g in corpus:
        t = walk_table(g, 3)
        assert t.bad[2] == 0

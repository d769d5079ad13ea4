"""Exact cycle and walk-count invariants of a biregular bipartite graph.

The walks are the bipartite non-backtracking ones: a closed walk
u1 v1 u2 v2 ... uk vk u1 alternates V1 and V2 vertices and never returns
along the edge it just used, so consecutive V1 vertices differ and so do
consecutive V2 vertices.  A cyclically non-backtracking walk satisfies the
same rule across the wrap as well (vk != v1).

Three layers, kept deliberately independent of each other so they can serve
as mutual oracles:

* ``count_cycles`` -- DFS enumeration of simple 2k-cycles with canonical-start
  pruning (each cycle found exactly once).
* ``walk_counts`` -- the lists NBW_1..NBW_kmax and CNBW_1..CNBW_kmax from the
  traces t_k = tr U_k of the Chebyshev family U_0 = I, U_1 = B,
  U_{j+1} = B*U_j - q*U_{j-1}, where B = XX^T - d1*I - (d2-2)*I has the
  eigenvalues sqrt(q)*(lambda - (d2-2)/sqrt(q)) (Ihara-Bass form):
  NBW_k = t_k + (d2-2)t_{k-1} - (d2-1)t_{k-2} and
  CNBW_k = t_k - q*t_{k-2} + cnbw_constant(k), the Ihara-Bass constant
  (|E| - n - m) + (m - n)(1 - d2)^k.  The recurrence runs to
  h = ceil(kmax/2) and holds two matrices at a time; t_k for k <= h is the
  trace of U_k, and each later t_k a Frobenius product of the two newest,
  floor(kmax/2) products in all.  ``cnbw_counts_up_to`` returns the CNBW
  list alone.
* ``brute_force_walks`` -- evaluates the same two lists from scratch:
  exhaustive DFS over *plain* closed walks (the only constraint being that
  consecutive V1 vertices differ), a binomial shift of their counts to
  tr B^t, and the explicit coefficient expansions of the Chebyshev-type
  polynomials.  It shares no code or recurrence with the matrix path.

Beside the oracles, ``cycle_count_vector`` is the one production count of
C_2..C_r: closed-form traces of the co-degree rows of ``graph`` and of
sorted path rows for k <= 3, and ``count_cycles`` beyond.  ``walk_table``,
the experiments and the hypergraph layer all take C_k from it, and
``cycle_traversals`` gives the cycle part sum_{j | k} 2j*C_j of CNBW_k.
The closed forms share no code with the oracles, which check them.

All counts are exact.  Each recurrence step, each Frobenius product and
each trace run in the narrowest of four tiers that a bound on their partial
sums allows: int16 below 2^15, int32 below 2^31, int64 below 2^62, and
Python-int (object) arrays above.  The step bound is
(d1(d2-1) + |d2-2|)*max|U_j| + q*max|U_{j-1}|, the bound of <U_a, U_b>_F is
n^2*max|U_a|*max|U_b|, and that of tr U_k is n*max|U_k|.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .chebyshev import cnbw_constant
from .errors import HorizonTooLarge, TooLarge
from .graph import BiregularGraph, codegree_rows, gram_shifted_sparse, run_lengths

CYCLE_BUDGET = 10**7
WALK_BUDGET = 10**7


# ---------------------------------------------------------------------------
# simple-cycle enumeration
# ---------------------------------------------------------------------------


def enumerate_cycles(g: BiregularGraph, k: int, budget: int = CYCLE_BUDGET):
    """Yield each simple 2k-cycle once, as (x1, y1, ..., xk, yk) vertex tuples.

    Canonical form: x1 is the smallest V1 vertex on the cycle and the first
    V2 vertex is smaller than the closing one (fixes rotation and direction).
    """
    if k < 2:
        return
    adj1 = g.adjacency_left.tolist()
    adj2 = g.adjacency_right.tolist()
    steps = 0

    def extend(x1, xs, ys):
        nonlocal steps
        depth = len(ys)
        x = xs[-1]
        for y in adj1[x]:
            if y in ys:
                continue
            steps += 1
            if steps > budget:
                raise HorizonTooLarge(f"cycle enumeration exceeded budget {budget}")
            if depth == k - 1:
                if x1 in adj2[y] and ys[0] < y:
                    yield tuple(v for pair in zip(xs, ys + [y]) for v in pair)
                continue
            for x2 in adj2[y]:
                if x2 <= x1 or x2 in xs:
                    continue
                yield from extend(x1, xs + [x2], ys + [y])

    for x1 in range(g.n):
        yield from extend(x1, [x1], [])


def count_cycles(g: BiregularGraph, k: int, budget: int = CYCLE_BUDGET) -> int:
    """Number of simple cycles of length 2k."""
    return sum(1 for _ in enumerate_cycles(g, k, budget))


# ---------------------------------------------------------------------------
# closed-form cycle counts
# ---------------------------------------------------------------------------


# elements of the row-sorted path array handled at once
_PATH_BLOCK = 1 << 18


def cycle_count_vector(g: BiregularGraph, r: int) -> list:
    """[C_2, ..., C_r]; closed-form trace counts for k <= 3, DFS beyond.

    With P = XX^T and A1 = P - d1 I, both counts come from two integer
    arrays with one sorted row per V1 vertex p, read by ``run_lengths``; no
    sparse matrix is formed.

    * Co-degree pairs: ``codegree_rows`` less p's own d1 entries, which
      keeps each row sorted.  The run lengths c are the nonzero entries of
      A1: C_2 = sum_{i<l} C(c, 2) = sum c(c-1)/4 and tr(A1^2) = sum c^2.
    * Length-3 paths: row p lists the V2 neighbours j of every entry l of
      the row above.  The run lengths are the entries of A1 X, so
      tr(A1^3) = ||A1 X||_F^2 - d1 tr(A1^2).  The rows are built in blocks of
      at most _PATH_BLOCK elements, since they hold |E| d1 (d2-1) in all.

    Then 6*C_3 = tr(A1^3) - 3(d2-2)(tr(P^2) - m d1 d2) + 2 m d2(d2-1)(d2-2)
    (mediator-coincidence inclusion-exclusion; cross-validated against the
    DFS enumerator).  Every sum is an exact integer.
    """
    out = []
    n, m, d1, d2 = g.n, g.m, g.d1, g.d2
    width = d1 * (d2 - 1)  # partners per V1 vertex, with multiplicity
    if r >= 2:
        rows = codegree_rows(g)
        partners = rows[rows != np.arange(n, dtype=np.int32)[:, None]].reshape(n, width)
        c = run_lengths(partners)[1]
        tr_a1_sq = int(c @ c)
        out.append((tr_a1_sq - partners.size) // 4)
    if r >= 3:
        left = g.adjacency_left.astype(np.int32)
        rows_per_block = max(1, _PATH_BLOCK // max(1, width * d1))
        a1x_sq = 0
        for p0 in range(0, n, rows_per_block):
            block = partners[p0 : p0 + rows_per_block]
            paths = np.take(left, block, axis=0).reshape(len(block), -1)
            paths.sort(axis=1)
            c = run_lengths(paths)[1]
            a1x_sq += int(c @ c)
        tr_a1_cubed = a1x_sq - d1 * tr_a1_sq
        # tr(P^2) = tr(A1^2) + n d1^2
        s_sum = tr_a1_sq + n * d1 * d1 - m * d1 * d2
        out.append((tr_a1_cubed - 3 * (d2 - 2) * s_sum + 2 * m * d2 * (d2 - 1) * (d2 - 2)) // 6)
    for k in range(4, r + 1):
        out.append(count_cycles(g, k))
    return out


def cycle_traversals(cycles) -> list:
    """[sum_{j | k} 2j*C_j for k = 1..len(cycles)] from cycles = [C_1, C_2, ...]:
    the cyclically non-backtracking closed walks of length 2k that go round
    one j-cycle k/j times, from each of its j V1 starts in 2 directions."""
    return [sum(2 * j * cycles[j - 1] for j in range(1, k + 1) if k % j == 0) for k in range(1, len(cycles) + 1)]


# ---------------------------------------------------------------------------
# matrix recurrence
# ---------------------------------------------------------------------------


def _absmax(x) -> int:
    return max(int(x.max()), -int(x.min()))


# (dtype, limit): an integer computation whose partial sums all stay below
# limit in absolute value is exact in dtype; object arrays hold Python ints
_TIERS = ((np.int16, 2**15), (np.int32, 2**31), (np.int64, 2**62), (object, None))


def _tier(bound: int):
    """The narrowest dtype of _TIERS that holds every partial sum up to bound."""
    for dtype, limit in _TIERS:
        if limit is None or bound < limit:
            return dtype


def _u_matrices(g: BiregularGraph, kmax: int):
    """Yield (U_j, max|U_j|) for j = 1..kmax, with U_j an exact integer
    matrix: U_1 = B = XX^T - d1*I - (d2-2)*I and U_{j+1} = B*U_j - q*U_{j-1},
    with U_0 = I entering U_2 as a diagonal -q.

    Only U_{j-1} and U_j are held.  A yielded U_j stays valid until U_{j+2}
    is requested: that step scales U_j by q in place, so a caller that keeps
    the matrices must copy them.

    Each step multiplies the sparse B into the dense U_j.  A row of B has
    absolute sum d1(d2-1) + |d2-2| (co-degrees adding up to d1(d2-1) off the
    diagonal, 2-d2 on it), so every partial sum of a step is at most
    (d1(d2-1) + |d2-2|)*max|U_j| + q*max|U_{j-1}|.  Each step runs in the
    narrowest tier of _TIERS that this bound allows, and U_{j+1} keeps that
    dtype.  B is cast once per change of tier, and each max|U_j| is
    measured once, when U_j is made.
    """
    b = gram_shifted_sparse(g, g.d1 + g.d2 - 2)
    row, q = g.d1 * (g.d2 - 1) + abs(g.d2 - 2), g.q
    prev, prev_max = None, 0  # U_{j-1}, or U_0 = I while j = 1
    cur, cur_max = None, 1  # U_j
    dtype = None
    for j in range(kmax):  # U_{j+1} from U_j and U_{j-1}
        step = _tier(row * cur_max + q * prev_max)
        if step is not dtype:
            dtype = step
            b_tier = b.toarray().astype(object) if dtype is object else b.astype(dtype)
        if j == 0:
            nxt = b_tier.toarray()  # this step's bound, d1(d2-1) + |d2-2|, is below 2^62
        else:
            nxt = b_tier @ cur.astype(dtype, copy=False)
            if j == 1:
                nxt[np.diag_indices(g.n)] -= q
            else:
                # q*max|U_{j-1}| is within the step bound, so this is exact
                prev = prev.astype(dtype, copy=False)
                prev *= q
                nxt -= prev
        prev, prev_max, cur, cur_max = cur, cur_max, nxt, _absmax(nxt)
        yield cur, cur_max


def _frobenius(a, b, dtype) -> int:
    """<a, b>_F summed in dtype; exact when dtype holds every partial sum."""
    return int(np.einsum("ij,ij->", a, b, dtype=dtype, casting="unsafe"))


def walk_counts(g: BiregularGraph, kmax: int) -> tuple:
    """([NBW_1..NBW_kmax], [CNBW_1..CNBW_kmax]) as exact ints, from the traces
    t_k = tr U_k (t_0 = n, t_{-1} = 0):

    NBW_k = t_k + (d2-2)*t_{k-1} - (d2-1)*t_{k-2},
    CNBW_k = t_k - q*t_{k-2} + cnbw_constant(k).

    The recurrence runs to h = ceil(kmax/2) only, holding two matrices at a
    time.  Each t_k with k <= h is read off U_k as it arrives.  Each t_k with
    h < k <= kmax comes from one Frobenius product of the two newest
    matrices, by the product identity U_aU_b = sum_{i<=min(a,b)} q^i U_{a+b-2i}:

    t_{2j-1} = <U_j, U_{j-1}>_F - sum_{i=1..j-1} q^i t_{2j-1-2i},
    t_{2j}   = <U_j, U_j>_F     - sum_{i=1..j}   q^i t_{2j-2i},

    with the corrections applied after the recurrence, in increasing k.  That
    is floor(kmax/2) products.  Each trace tr U_k runs in the tier of
    n*max|U_k|, and each product <U_a, U_b> in that of n^2*max|U_a|*max|U_b|.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    n, q, h = g.n, g.q, (kmax + 1) // 2
    t = [n]
    products = {}  # k = a + b: <U_a, U_b>_F, for h < k <= kmax
    prev = prev_max = None
    for j, (u, top) in enumerate(_u_matrices(g, h), start=1):
        t.append(int(np.trace(u, dtype=_tier(n * top))))
        # no U_j is 0 (its eigenvalue at B's top eigenvalue q + 1 is positive),
        # so each bound below covers every entry and the cast into its tier is exact
        if 2 * j - 1 > h:
            products[2 * j - 1] = _frobenius(u, prev, _tier(n * n * top * prev_max))
        if h < 2 * j <= kmax:
            products[2 * j] = _frobenius(u, u, _tier(n * n * top * top))
        prev, prev_max = u, top
    for k in range(h + 1, kmax + 1):
        t.append(products[k] - sum(q**i * t[k - 2 * i] for i in range(1, k // 2 + 1)))
    rows = list(zip(range(1, kmax + 1), t[1:], t, [0] + t[:-2]))  # (k, t_k, t_{k-1}, t_{k-2})
    nbw = [tk + (g.d2 - 2) * tk1 - (g.d2 - 1) * tk2 for _, tk, tk1, tk2 in rows]
    cnbw = [tk - q * tk2 + cnbw_constant(k, g.n, g.d1, g.d2) for k, tk, _, tk2 in rows]
    return nbw, cnbw


def cnbw_counts_up_to(g: BiregularGraph, kmax: int) -> list:
    """[CNBW_1, ..., CNBW_kmax] as exact ints (see walk_counts)."""
    return walk_counts(g, kmax)[1]


# ---------------------------------------------------------------------------
# independent oracle
# ---------------------------------------------------------------------------


def closed_walk_counts(g: BiregularGraph, kmax: int, budget: int = WALK_BUDGET) -> list:
    """w[t] for t = 0..kmax by exhaustive DFS, where w[t] is the number of
    closed sequences (u1, v1, ..., ut, vt, u1) whose only constraint is that
    consecutive V1 vertices differ.  Equals tr (XX^T - d1 I)^t.
    """
    adj1 = g.adjacency_left.tolist()
    adj2 = g.adjacency_right.tolist()
    est = g.n * (g.d1 * (g.d2 - 1)) ** max(kmax, 1)
    if est > budget:
        raise TooLarge(f"walk space ~{est} exceeds budget {budget}")
    counts = [g.n] + [0] * kmax

    def rec(u0, u, t):
        if t > 0:
            counts[t] += 1 if u == u0 else 0
        if t == kmax:
            return
        for v in adj1[u]:
            for u2 in adj2[v]:
                if u2 != u:
                    rec(u0, u2, t + 1)

    for u0 in range(g.n):
        rec(u0, u0, 0)
    return counts


def _u_halfarg_coeffs(k: int) -> dict:
    """U_k(x/2) = sum_j (-1)^j C(k-j, j) x^(k-2j); {} for k < 0."""
    if k < 0:
        return {}
    return {k - 2 * j: (-1) ** j * comb(k - j, j) for j in range(k // 2 + 1)}


def _two_t_halfarg_coeffs(k: int) -> dict:
    """2*T_k(x/2) = sum_j (-1)^j (k/(k-j)) C(k-j, j) x^(k-2j), k >= 1."""
    return {k - 2 * j: (-1) ** j * k * comb(k - j, j) // (k - j) for j in range(k // 2 + 1)}


def brute_force_walks(g: BiregularGraph, kmax: int, budget: int = WALK_BUDGET) -> tuple:
    """Independent evaluation of ([NBW_1..NBW_kmax], [CNBW_1..CNBW_kmax]).

    Uses only plain closed-walk counts (one exhaustive DFS), the binomial
    shift tr B^t = sum_j C(t, j) (2-d2)^(t-j) w[j] from XX^T - d1*I to B, and
    the closed-form coefficients of the half-argument Chebyshev polynomials;
    no matrix products and no three-term recurrence.  The Ihara-Bass
    constant is written out from the graph's own edge and vertex counts
    (|E| = n*d1).
    """
    q = g.q
    w = closed_walk_counts(g, kmax, budget)
    tr_b = [sum(comb(t, j) * (2 - g.d2) ** (t - j) * w[j] for j in range(t + 1)) for t in range(kmax + 1)]

    def halfarg_sum(coeffs, k):
        """sum_p c_p q^((k-p)/2) tr B^p: the trace of q^(k/2) P(B/sqrt(q))."""
        return sum(c * q ** ((k - p) // 2) * tr_b[p] for p, c in coeffs.items())

    t = {k: halfarg_sum(_u_halfarg_coeffs(k), k) for k in range(-1, kmax + 1)}
    nbw = [t[k] + (g.d2 - 2) * t[k - 1] - (g.d2 - 1) * t[k - 2] for k in range(1, kmax + 1)]
    cnbw = [
        halfarg_sum(_two_t_halfarg_coeffs(k), k) + g.n * g.d1 - g.n - g.m + (g.m - g.n) * (1 - g.d2) ** k
        for k in range(1, kmax + 1)
    ]
    return nbw, cnbw


# ---------------------------------------------------------------------------
# the combined table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WalkCountTable:
    """C_k, NBW_k, CNBW_k and the leftover B_k for k = 1..r.

    B_k = CNBW_k - sum_{j | k} 2j*C_j counts the cyclically non-backtracking
    closed walks that are not repeated traversals of a single short cycle;
    it is nonnegative, and B_1 = B_2 = B_3 = 0 on every simple graph: a
    cyclically non-backtracking closed walk of length at most 6 has no leaf
    and no room for two cycles, so it goes round one cycle.
    """

    cycles: tuple
    nbw: tuple
    cnbw: tuple
    bad: tuple

    def row(self, k: int) -> tuple:
        return (k, self.cycles[k - 1], self.nbw[k - 1], self.cnbw[k - 1], self.bad[k - 1])


def walk_table(g: BiregularGraph, r: int) -> WalkCountTable:
    if r < 1:
        raise ValueError("r must be >= 1")
    cycles = [0] + cycle_count_vector(g, r)
    nbw, cnbw = walk_counts(g, r)
    bad = [c - repeats for c, repeats in zip(cnbw, cycle_traversals(cycles))]
    for k, b in enumerate(bad, start=1):
        if b < 0:
            raise AssertionError(f"negative bad-walk count at k={k}: {b}")
    return WalkCountTable(cycles=tuple(cycles), nbw=tuple(nbw), cnbw=tuple(cnbw), bad=tuple(bad))

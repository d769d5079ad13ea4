"""Exact cycle and walk-count invariants of a biregular bipartite graph.

Three layers, kept deliberately independent of each other so they can serve
as mutual oracles:

* ``count_cycles`` -- DFS enumeration of simple 2k-cycles with canonical-start
  pruning (each cycle found exactly once).
* ``nbw_counts_up_to`` / ``cnbw_counts_up_to`` -- the lists NBW_1..NBW_kmax
  and CNBW_1..CNBW_kmax from one pass of the three-term matrix recurrence
  A(1) = XX^T - d1*I, A(2) = A(1)^2 - d1(d2-1)*I,
  A(k+1) = A(1)A(k) - (d1-1)(d2-1)A(k-1), with NBW_k = tr A(k) and the
  tail recursion CNBW_k = NBW_k - q*NBW_{k-2} + (d2-1)*CNBW_{k-2}
  (``cnbw_from_nbw``, for callers that already hold the NBW list).  It runs
  to ceil(kmax/2) only: the higher traces come from Frobenius products.
* ``brute_force_walks`` -- evaluates the same two lists from scratch:
  exhaustive DFS over *plain* closed walks (the only constraint being that
  consecutive V1 vertices differ) combined with the explicit coefficient
  expansions of the Chebyshev-type polynomials.  It shares no code or
  recurrence with the matrix path.

All counts are exact: a recurrence step (step guard) and a Frobenius product
(Frobenius guard) each leave int64 for Python ints when its bound trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .errors import HorizonTooLarge, TooLarge
from .graph import BiregularGraph, gram_shifted_sparse

CYCLE_BUDGET = 10**7
WALK_BUDGET = 10**7
_INT64_SAFE = 2**62


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
    if k < 2:
        return 0
    return sum(1 for _ in enumerate_cycles(g, k, budget))


# ---------------------------------------------------------------------------
# matrix recurrence
# ---------------------------------------------------------------------------


def _absmax(x) -> int:
    return int(max(x.max(), -x.min()))


def _recurrence_matrices(g: BiregularGraph, kmax: int):
    """A(1)..A(kmax) as exact integer matrices.

    Each step multiplies the sparse A(1) into the dense A(k).  A row of A(1)
    has absolute sum d1(d2-1) (zero diagonal, co-degrees adding up to
    d1(d2-1)), so every partial sum of a step is at most
    d1(d2-1)*max|A(k)| + c*max|A(k-1)|.  While that measured bound stays
    below 2^62 the step runs in int64; once it does not, the matrices become
    Python-int arrays.  A(0) = I with c = d1(d2-1) gives the A(2) step.
    """
    a1 = gram_shifted_sparse(g)
    dq = g.d1 * (g.d2 - 1)
    mats = [np.eye(g.n, dtype=np.int64), a1.toarray()]
    for k in range(1, kmax):
        c = dq if k == 1 else g.q
        if mats[k].dtype != object and dq * _absmax(mats[k]) + c * _absmax(mats[k - 1]) >= _INT64_SAFE:
            mats = [np.array(m.tolist(), dtype=object) for m in mats]
            a1 = mats[1]
        mats.append(a1 @ mats[k])
        mats[-1] -= c * mats[k - 1]
    mats[0] = None
    return mats


def nbw_counts_up_to(g: BiregularGraph, kmax: int) -> list:
    """[NBW_1, ..., NBW_kmax] as exact ints, the traces of A(1)..A(kmax).

    The recurrence runs to h = ceil(kmax/2) only.  With U_0 = I, U_1 = A(1),
    U_{j+1} = A(1)U_j - q*U_{j-1}: A(k) = U_k - (d2-1)U_{k-2} (U_{-1} = 0) and
    tr U_aU_b = sum_{i<=min(a,b)} q^i tr U_{a+b-2i}, so <A(h), A(b)>_F gives
    tr U_{h+b} for b <= h, in int64 only while n^2*max|A(h)|*max|A(b)| < 2^62.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    h = (kmax + 1) // 2
    mats = _recurrence_matrices(g, h)
    c, q = g.d2 - 1, g.q
    t = {-1: 0, 0: g.n}  # t[k] = tr U_k; diagonals summed as Python ints can pass 2^63
    for k in range(1, h + 1):
        t[k] = sum(map(int, mats[k].diagonal())) + c * t[k - 2]

    def tr_uu(a, b):  # tr U_a U_b with tr U_{a+b} read as 0 until it is known
        return sum(q**i * t.get(a + b - 2 * i, 0) for i in range(min(a, b) + 1))

    for b in range(1, kmax - h + 1):
        x, y = mats[h], mats[b]
        if x.dtype != object and x.size * _absmax(x) * _absmax(y) >= _INT64_SAFE:
            x, y = x.astype(object), y.astype(object)
        rest = tr_uu(h, b) - c * (tr_uu(h, b - 2) + tr_uu(h - 2, b)) + c * c * tr_uu(h - 2, b - 2)
        t[h + b] = int(np.vdot(x, y)) - rest
    return [t[k] - c * t[k - 2] for k in range(1, kmax + 1)]


def cnbw_counts_up_to(g: BiregularGraph, kmax: int) -> list:
    """[CNBW_1, ..., CNBW_kmax] via the tail recursion seeded at k = 1, 2."""
    return cnbw_from_nbw(g, nbw_counts_up_to(g, kmax))


def cnbw_from_nbw(g: BiregularGraph, nbw: list) -> list:
    """CNBW_k = NBW_k - q*NBW_{k-2} + (d2-1)*CNBW_{k-2}, with CNBW = NBW at k = 1, 2."""
    out = list(nbw[:2])
    for k in range(3, len(nbw) + 1):
        out.append(nbw[k - 1] - g.q * nbw[k - 3] + (g.d2 - 1) * out[k - 3])
    return out


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

    Uses only plain closed-walk counts (one exhaustive DFS) and the
    closed-form coefficients of the half-argument Chebyshev polynomials; no
    matrix products and no three-term recurrence.
    """
    q = g.q
    w = closed_walk_counts(g, kmax, budget)

    def halfarg_sum(coeffs, k, div=1):
        return sum((Fraction(c, div) * q ** ((k - p) // 2) * w[p] for p, c in coeffs.items()), Fraction(0))

    nbw, cnbw = [], []
    for k in range(1, kmax + 1):
        total_nbw = halfarg_sum(_u_halfarg_coeffs(k), k) - halfarg_sum(_u_halfarg_coeffs(k - 2), k, g.d1 - 1)
        total_cnbw = halfarg_sum(_two_t_halfarg_coeffs(k), k)
        if k % 2 == 0:
            total_cnbw += g.n * (g.d1 - 2) * (g.d2 - 1) ** (k // 2)
        for total, out in ((total_nbw, nbw), (total_cnbw, cnbw)):
            if total.denominator != 1:
                raise AssertionError("walk-count combination is not an integer")
            out.append(int(total))
    return nbw, cnbw


# ---------------------------------------------------------------------------
# the combined table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WalkCountTable:
    """C_k, NBW_k, CNBW_k and the leftover B_k for k = 1..r.

    B_k = CNBW_k - sum_{j | k} 2j*C_j counts the cyclically non-backtracking
    contributions that are not repeated traversals of a single short cycle;
    it is nonnegative and B_1 = B_2 = 0 on every simple graph.
    """

    r: int
    q: int
    cycles: tuple
    nbw: tuple
    cnbw: tuple
    bad: tuple

    def row(self, k: int) -> tuple:
        return (k, self.cycles[k - 1], self.nbw[k - 1], self.cnbw[k - 1], self.bad[k - 1])


def walk_table(g: BiregularGraph, r: int, budget: int = CYCLE_BUDGET) -> WalkCountTable:
    if r < 1:
        raise ValueError("r must be >= 1")
    cycles = [0] + [count_cycles(g, k, budget) for k in range(2, r + 1)]
    nbw = nbw_counts_up_to(g, r)
    cnbw = cnbw_from_nbw(g, nbw)
    bad = []
    for k in range(1, r + 1):
        repeats = sum(2 * j * cycles[j - 1] for j in range(1, k + 1) if k % j == 0)
        b = cnbw[k - 1] - repeats
        if b < 0:
            raise AssertionError(f"negative bad-walk count at k={k}: {b}")
        bad.append(b)
    return WalkCountTable(r=r, q=g.q, cycles=tuple(cycles), nbw=tuple(nbw), cnbw=tuple(cnbw), bad=tuple(bad))

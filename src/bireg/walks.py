"""Exact cycle and walk-count invariants of a biregular bipartite graph.

Three layers, kept deliberately independent of each other so they can serve
as mutual oracles:

* ``count_cycles`` -- DFS enumeration of simple 2k-cycles with canonical-start
  pruning (each cycle found exactly once).
* ``walk_counts`` -- the lists NBW_1..NBW_kmax and CNBW_1..CNBW_kmax from the
  traces t_k = tr U_k of the Chebyshev family U_0 = I, U_1 = A1 = XX^T - d1*I,
  U_{j+1} = A1*U_j - q*U_{j-1} (Ihara-Bass form): NBW_k = t_k - (d2-1)t_{k-2}
  and CNBW_k = t_k - q*t_{k-2} + n(d1-2)(d2-1)^{k/2} (the last term for even
  k only).  The recurrence runs to ceil(kmax/2); the higher traces come from
  Frobenius products.  ``cnbw_counts_up_to`` returns the CNBW list alone.
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

from .chebyshev import cnbw_constant
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
    return sum(1 for _ in enumerate_cycles(g, k, budget))


# ---------------------------------------------------------------------------
# matrix recurrence
# ---------------------------------------------------------------------------


def _absmax(x) -> int:
    return int(max(x.max(), -x.min()))


def _u_matrices(g: BiregularGraph, kmax: int) -> list:
    """[U_1, ..., U_kmax] as exact integer matrices: U_1 = A1 = XX^T - d1*I and
    U_{j+1} = A1*U_j - q*U_{j-1}, with U_0 = I entering U_2 as a diagonal -q.

    Each step multiplies the sparse A1 into the dense U_j.  A row of A1 has
    absolute sum d1(d2-1) (zero diagonal, co-degrees adding up to d1(d2-1)),
    so every partial sum of a step is at most d1(d2-1)*max|U_j| +
    q*max|U_{j-1}|.  While that measured bound stays below 2^62 the step runs
    in int64; once it does not, the matrices become Python-int arrays.
    """
    a1 = gram_shifted_sparse(g)
    row, q = g.d1 * (g.d2 - 1), g.q
    mats = [a1.toarray()][:kmax]
    for j in range(1, kmax):
        prev_max = _absmax(mats[j - 2]) if j > 1 else 1  # U_0 = I
        if mats[j - 1].dtype != object and row * _absmax(mats[j - 1]) + q * prev_max >= _INT64_SAFE:
            mats = [m.astype(object) for m in mats]
            a1 = mats[0]
        nxt = a1 @ mats[j - 1]
        if j == 1:
            nxt[np.diag_indices(g.n)] -= q
        else:
            nxt -= q * mats[j - 2]
        mats.append(nxt)
    return mats


def walk_counts(g: BiregularGraph, kmax: int) -> tuple:
    """([NBW_1..NBW_kmax], [CNBW_1..CNBW_kmax]) as exact ints, from the traces
    t_k = tr U_k (t_0 = n, t_{-1} = 0):

    NBW_k = t_k - (d2-1)*t_{k-2},  CNBW_k = t_k - q*t_{k-2} + cnbw_constant(k).

    The recurrence runs to h = ceil(kmax/2) only.  Above h, the product
    identity U_aU_b = sum_{i<=min(a,b)} q^i U_{a+b-2i} gives
    t_{h+b} = <U_h, U_b>_F - sum_{i=1..b} q^i t_{h+b-2i} for b <= h, in int64
    only while n^2*max|U_h|*max|U_b| < 2^62.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    h = (kmax + 1) // 2
    mats = _u_matrices(g, h)
    q = g.q
    # diagonals summed as Python ints: a trace can pass 2^63
    t = [g.n] + [sum(map(int, u.diagonal())) for u in mats]
    for b in range(1, kmax - h + 1):
        x, y = mats[h - 1], mats[b - 1]
        if x.dtype != object and x.size * _absmax(x) * _absmax(y) >= _INT64_SAFE:
            x, y = x.astype(object), y.astype(object)
        t.append(int(np.vdot(x, y)) - sum(q**i * t[h + b - 2 * i] for i in range(1, b + 1)))
    rows = list(zip(range(1, kmax + 1), t[1:], [0] + t[:-2]))  # (k, t_k, t_{k-2})
    nbw = [tk - (g.d2 - 1) * tk2 for _, tk, tk2 in rows]
    cnbw = [tk - q * tk2 + cnbw_constant(k, g.n, g.d1, g.d2) for k, tk, tk2 in rows]
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
    nbw, cnbw = walk_counts(g, r)
    bad = []
    for k in range(1, r + 1):
        repeats = sum(2 * j * cycles[j - 1] for j in range(1, k + 1) if k % j == 0)
        b = cnbw[k - 1] - repeats
        if b < 0:
            raise AssertionError(f"negative bad-walk count at k={k}: {b}")
        bad.append(b)
    return WalkCountTable(r=r, q=g.q, cycles=tuple(cycles), nbw=tuple(nbw), cnbw=tuple(cnbw), bad=tuple(bad))

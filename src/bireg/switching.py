"""Forward and backward cycle switchings.

A switching is one rewiring of the graph: delete distinct edges of g and
create distinct edges that g does not have.  Its data are a 2k-cycle
alpha = (x1, y1, ..., xk, yk) and auxiliary edges e_i = (u_i, v_i),
e'_i = (u'_i, v'_i), and it pairs two edge lists: the cycle edges with all
e_i, e'_i, and the path edges (x_i, v_i), (x_i, v'_i), (u_i, y_i), (u'_i, y_i).
The forward switching deletes the first list and creates the second; the
backward switching reads the same pair the other way, consuming the paths
v_i x_i v'_i and u_i y_i u'_i and creating alpha.  Both directions obey the
one rewiring rule of ``_rewired`` and preserve all vertex degrees.

A switching is *valid* for horizon r when alpha is the only cycle of length
<= 2r created or destroyed.  Validity is checked operationally: the short
cycles destroyed are read off a precomputed edge-to-cycle index, and the
cycles created are enumerated through the added edges in the rewired graph.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import EdgeMissing, PreconditionViolated, TooLarge
from .graph import BiregularGraph
from .walks import enumerate_cycles

SWITCH_BUDGET = 10**7


@dataclass(frozen=True)
class Cycle:
    """A simple 2k-cycle as an alternating (x1, y1, ..., xk, yk) sequence.

    Stored in canonical form: x1 is the smallest V1 vertex on the cycle and
    the traversal direction makes the second vertex minimal.
    """

    vertices: tuple

    def __post_init__(self):
        v = tuple(int(a) for a in self.vertices)
        if len(v) < 4 or len(v) % 2:
            raise ValueError("cycle needs an even vertex count >= 4")
        xs, ys = v[0::2], v[1::2]
        if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
            raise ValueError("cycle vertices must be distinct")
        object.__setattr__(self, "vertices", _canonical(v))

    @property
    def k(self) -> int:
        return len(self.vertices) // 2

    @property
    def xs(self) -> tuple:
        return self.vertices[0::2]

    @property
    def ys(self) -> tuple:
        return self.vertices[1::2]

    def edge_list(self) -> list:
        """The 2k edges as (V1, V2) pairs: (x_i, y_i) and (x_{i+1}, y_i)."""
        xs, ys, k = self.xs, self.ys, self.k
        return [e for i in range(k) for e in ((xs[i], ys[i]), (xs[(i + 1) % k], ys[i]))]

    def contained_in(self, g: BiregularGraph) -> bool:
        return all(g.has_edge(*e) for e in self.edge_list())


def _canonical(v: tuple) -> tuple:
    xs, ys = list(v[0::2]), list(v[1::2])
    k = len(xs)
    s = xs.index(min(xs))
    forward = []
    backward = []
    for t in range(k):
        forward += [xs[(s + t) % k], ys[(s + t) % k]]
        backward += [xs[(s - t) % k], ys[(s - t - 1) % k]]
    return tuple(forward) if forward[1] <= backward[1] else tuple(backward)


@dataclass(frozen=True)
class SwitchingSpec:
    """Cycle plus auxiliary edge choices, shared by both directions.

    In the forward direction ``e`` and ``e_prime`` are existing edges to be
    deleted; in the backward direction they are the edges to be created.
    """

    alpha: Cycle
    e: tuple
    e_prime: tuple

    def __post_init__(self):
        k = self.alpha.k
        e = tuple((int(u), int(v)) for u, v in self.e)
        ep = tuple((int(u), int(v)) for u, v in self.e_prime)
        if len(e) != k or len(ep) != k:
            raise ValueError(f"need exactly k={k} edges in e and e_prime")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "e_prime", ep)

    def removed_forward(self) -> list:
        return self.alpha.edge_list() + list(self.e) + list(self.e_prime)

    def added_forward(self) -> list:
        return _added_forward(self.alpha.xs, self.alpha.ys, self.e, self.e_prime)


def _added_forward(xs, ys, e, ep) -> list:
    """The edges (x_i, v_i), (x_i, v'_i), (u_i, y_i), (u'_i, y_i) for i < k."""
    return [
        edge
        for i in range(len(xs))
        for edge in ((xs[i], e[i][1]), (xs[i], ep[i][1]), (e[i][0], ys[i]), (ep[i][0], ys[i]))
    ]


def short_cycles(g: BiregularGraph, r: int, budget: int = SWITCH_BUDGET) -> list:
    """All simple cycles of length 2k for 2 <= k <= r, canonical, each once."""
    if r < 2:
        raise ValueError("r must be >= 2")
    out = []
    for k in range(2, r + 1):
        out.extend(Cycle(v) for v in enumerate_cycles(g, k, budget))
    return out


def _breach(g: BiregularGraph, deleted: list, created: list):
    """Why (deleted, created) breaks the rewiring rule -- deleted edges
    distinct, created edges distinct and not in g -- or None."""
    if len(set(deleted)) != len(deleted):
        return "the deleted edges are not distinct"
    if len(set(created)) != len(created):
        return "the created edges collide"
    clash = next((e for e in created if e in g.edge_set), None)
    if clash is not None:
        return f"created edge {clash} already present"
    return None


def _rewired(g: BiregularGraph, deleted: list, created: list) -> BiregularGraph:
    """g with `deleted` removed and `created` added: EdgeMissing if a deleted
    edge is not in g, PreconditionViolated if the rule is broken (a created
    edge of g is refused even when also deleted)."""
    missing = next((e for e in deleted if e not in g.edge_set), None)
    if missing is not None:
        raise EdgeMissing(f"deleted edge {missing} not in graph")
    reason = _breach(g, deleted, created)
    if reason is not None:
        raise PreconditionViolated(reason)
    edges = (g.edge_set - set(deleted)) | set(created)
    return BiregularGraph(n=g.n, m=g.m, d1=g.d1, d2=g.d2, edges=tuple(edges))


def apply_forward(g: BiregularGraph, spec: SwitchingSpec) -> BiregularGraph:
    """Delete alpha and the auxiliary edges, creating the paths."""
    return _rewired(g, spec.removed_forward(), spec.added_forward())


def apply_backward(g: BiregularGraph, spec: SwitchingSpec) -> BiregularGraph:
    """Consume the paths v_i x_i v'_i and u_i y_i u'_i, creating alpha."""
    return _rewired(g, spec.added_forward(), spec.removed_forward())


# ---------------------------------------------------------------------------
# exhaustive counting of valid switchings
# ---------------------------------------------------------------------------


def _spend(budget_state, units):
    """Charge units of work to budget_state = [spent, budget]."""
    budget_state[0] += units
    if budget_state[0] > budget_state[1]:
        raise TooLarge(f"switching enumeration exceeded budget {budget_state[1]}")


def _cycles_through_edge(adj1, adj2, a, b, rmax, budget_state):
    """Canonical vertex tuples of simple cycles of length <= 2*rmax through
    edge (a, b), a in V1, b in V2, in the graph given by adjacency sets,
    yielded as the DFS finds them."""

    def walk(path_x, path_y, at_v1):
        # path alternates b -> x -> y -> ... ; closes when reaching `a`
        _spend(budget_state, 1)
        if at_v1:
            y = path_y[-1]
            for x in adj2[y]:
                if x == a and len(path_y) >= 2:
                    xs = [a] + path_x
                    yield _canonical(tuple(v for p in zip(xs, path_y) for v in p))
                    continue
                if x == a or x in path_x:
                    continue
                if len(path_y) < rmax:
                    yield from walk(path_x + [x], path_y, False)
        else:
            x = path_x[-1]
            for y in adj1[x]:
                if y in path_y:
                    continue
                yield from walk(path_x, path_y + [y], True)

    # first V1 step away from the edge (a, b)
    for x in adj2[b]:
        if x != a:
            yield from walk([x], [b], False)


def _adjacency_sets(g):
    """The two adjacency-set lists of g, which _creations_ok rewires in place."""
    return [set(a) for a in g.adjacency_left.tolist()], [set(a) for a in g.adjacency_right.tolist()]


def _rewire(adj, removed, added):
    adj1, adj2 = adj
    for i, j in removed:
        adj1[i].discard(j)
        adj2[j].discard(i)
    for i, j in added:
        adj1[i].add(j)
        adj2[j].add(i)


def _creations_ok(adj, removed, added, r, expect, budget_state):
    """True iff the short cycles through added edges in the rewired graph
    are exactly `expect` (a set of canonical vertex tuples): empty forward,
    and {alpha} backward, where alpha is always found as all its edges are
    added, so no cycle outside `expect` is enough.

    adj holds the adjacency sets of g; removed are distinct edges of g and
    added distinct non-edges, so rewiring adj in place and back restores it.
    """
    _spend(budget_state, len(removed) + len(added))
    _rewire(adj, removed, added)
    try:
        return all(
            cyc in expect for a, b in added for cyc in _cycles_through_edge(*adj, a, b, r, budget_state)
        )
    finally:
        _rewire(adj, added, removed)


def valid_switchings(
    g: BiregularGraph, alpha: Cycle, r: int, direction: str, budget: int = SWITCH_BUDGET
) -> list:
    """One SwitchingSpec per valid rewiring, by exhaustive enumeration.

    direction="forward" requires alpha to be a cycle of g and enumerates
    switchings deleting it; direction="backward" takes any cycle of the
    complete bipartite host and enumerates switchings creating it.  Each
    rewiring (deleted and created edge sets) comes once, as its first label
    choice in ``itertools.product`` order; the forward list is sorted by (e, e').

    Forward, a candidate is a pair {e_i, e'_i} per level i, as swapping e_i
    and e'_i changes neither set.  Suppose pair choices P != Q that the
    rewiring rule admits perform one rewiring.  They delete the same free
    edges A, on no cycle of length <= 2k: no chord of alpha, and for k = 2
    off alpha.  c = (u, v) at level j creates (x_j, v) and (u, y_j), so the
    levels of A's edges at a vertex off alpha are distinct and set by the
    rewiring.  Let a in A have level l in P, l' != l in Q.  If a = (x_p, w),
    some b != a at w has P-level l', so another Q-level, and is off alpha,
    else a, b and an arc of alpha close a cycle; so (likewise for
    a = (w, y_q)) let a = (u, v) be off alpha.  Then b = (u_b, v) and
    b' = (u, v') of P-level l' are P's level-l' pair; let {a, d} be Q's.  If
    b, b' are off alpha, P's created (x_l', v') and (u_b, y_l') are Q's, so
    d = (u_b, v') closes the 4-cycle a b d b'.  If only b' = (u, y_q) meets
    alpha, u(d) = u_b likewise, Q's (x_l', v(d)) is P's only if v(d) = y_s,
    and y_q u v u_b y_s closes with an arc (symmetrically if only b does);
    if both do, x_p v u y_q does.  Arcs within a side have at most
    2 floor(k/2) edges and across at most k, so each cycle runs through a
    with length <= 2k.

    The budget counts units of work, and TooLarge is raised once more than
    `budget` are spent: forward, C(|options_i|, 2) per level before its
    pairs are built; one per label choice examined, admissible or not; and
    per rewiring the rule admits, its edited edges and cycle-search steps.
    Listing the short cycles of g has its own budget of the same size.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    if alpha.k > r:
        raise ValueError("alpha is longer than the short-cycle horizon")
    shorts = short_cycles(g, r, budget)
    cycle_edges = {}  # edge -> set of canonical cycles through it
    for c in shorts:
        for e in c.edge_list():
            cycle_edges.setdefault(e, set()).add(c.vertices)
    adj, budget_state = _adjacency_sets(g), [0, budget]
    forward = direction == "forward"
    candidates = _forward_candidates if forward else _backward_candidates
    expect = set() if forward else {alpha.vertices}
    specs = [
        SwitchingSpec(alpha=alpha, e=e, e_prime=ep)
        for e, ep, deleted, created in candidates(g, alpha, cycle_edges, adj, budget_state)
        if _breach(g, deleted, created) is None and _creations_ok(adj, deleted, created, r, expect, budget_state)
    ]
    return sorted(specs, key=lambda s: (s.e, s.e_prime)) if forward else specs


def _forward_candidates(g, alpha, cycle_edges, adj, budget_state):
    """(e, e', deleted, created) for each pair choice's first labelling with
    distinct V1 ends in e and V2 ends in e'.  Free auxiliary edges missing
    the cycle vertex they join create no edge of g; the rewiring rule still
    refuses edges chosen twice, and colliding created edges."""
    if not alpha.contained_in(g):
        raise EdgeMissing("alpha is not a cycle of the graph")
    alpha_key = alpha.vertices
    # every cycle sharing an edge with alpha would also be destroyed
    for e in alpha.edge_list():
        if cycle_edges.get(e, set()) - {alpha_key}:
            return
    xs, ys, k = alpha.xs, alpha.ys, alpha.k
    free_edges = [e for e in g.edges if e not in cycle_edges]
    adj1, adj2 = adj
    options = [
        [(u, v) for u, v in free_edges if u not in adj2[y] and v not in adj1[x]] for x, y in zip(xs, ys)
    ]
    _spend(budget_state, sum(math.comb(len(o), 2) for o in options))
    flips = list(itertools.product((0, 1), repeat=k))
    alpha_deleted = alpha.edge_list()
    for pairs in itertools.product(*(itertools.combinations(o, 2) for o in options)):
        _spend(budget_state, 1)
        for flip in flips:
            e, ep = zip(*((p[f], p[1 - f]) for p, f in zip(pairs, flip)))
            if len({u for u, _ in e}) == k and len({v for _, v in ep}) == k:
                yield e, ep, alpha_deleted + list(e) + list(ep), _added_forward(xs, ys, e, ep)
                break


def _backward_candidates(g, alpha, cycle_edges, adj, budget_state):
    """(e, e', deleted, created) for the paths that could create alpha.

    Level i picks the paths v_i x_i v'_i and u_i y_i u'_i from edges on no
    short cycle (they get deleted).  Swapping v_i with v'_i and u_i with u'_i
    together gives the same rewiring, and that labelling comes later in
    product order, so {v_i, v'_i} is taken as a combination."""
    xs, ys = alpha.xs, alpha.ys
    levels = []
    for x, y in zip(xs, ys):
        vs = [v for v in g.adjacency_left[x].tolist() if (x, v) not in cycle_edges]
        us = [u for u in g.adjacency_right[y].tolist() if (u, y) not in cycle_edges]
        levels.append(itertools.product(itertools.combinations(vs, 2), itertools.permutations(us, 2)))
    alpha_created = alpha.edge_list()
    for choice in itertools.product(*levels):
        _spend(budget_state, 1)
        e = tuple((u, v) for (v, _), (u, _) in choice)
        ep = tuple((up, vp) for (_, vp), (_, up) in choice)
        created = alpha_created + [edge for pair in zip(e, ep) for edge in pair]
        yield e, ep, _added_forward(xs, ys, e, ep), created


def forward_bound(n, m, d1, d2, k) -> int:
    """[n]_k [m]_k d1^k d2^k."""
    out = 1
    for t in range(k):
        out *= (n - t) * (m - t)
    return out * (d1 * d2) ** k


def backward_bound(d1, d2, k) -> int:
    """(d1 (d1-1) d2 (d2-1))^k."""
    return (d1 * (d1 - 1) * d2 * (d2 - 1)) ** k

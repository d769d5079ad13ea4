import itertools
import random

import pytest

from bireg import switching
from bireg.errors import BiregError, EdgeMissing, PreconditionViolated, TooLarge
from bireg.graph import BiregularGraph
from bireg.sampler import SamplerConfig, sample_configuration, sample_graph, trial_rng
from bireg.switching import (
    Cycle,
    SwitchingSpec,
    apply_backward,
    apply_forward,
    backward_bound,
    forward_bound,
    short_cycles,
    valid_switchings,
)
from conftest import HEX_EDGES, random_corpus


# ---- Cycle canonicalization --------------------------------------------------


def test_cycle_canonical_form_unique():
    base = (2, 5, 0, 1, 4, 3)  # x = (2, 0, 4), y = (5, 1, 3)
    xs, ys = list(base[0::2]), list(base[1::2])
    reprs = set()
    for s in range(3):
        fwd = tuple(v for i in range(3) for v in (xs[(s + i) % 3], ys[(s + i) % 3]))
        bwd = tuple(v for i in range(3) for v in (xs[(s - i) % 3], ys[(s - i - 1) % 3]))
        reprs.add(Cycle(fwd).vertices)
        reprs.add(Cycle(bwd).vertices)
    assert len(reprs) == 1
    canon = reprs.pop()
    assert canon[0] == 0  # smallest V1 vertex first


def test_cycle_rejects_repeats():
    with pytest.raises(ValueError):
        Cycle((0, 0, 0, 1))
    with pytest.raises(ValueError):
        Cycle((0, 1, 2))


# ---- short cycles --------------------------------------------------------------


def test_short_cycles_fixtures(k22, k33, hexagon):
    assert len(short_cycles(k22, 3)) == 1
    hex_cycles = short_cycles(hexagon, 3)
    assert [c.k for c in hex_cycles] == [3]
    counts = {k: sum(1 for c in short_cycles(k33, 3) if c.k == k) for k in (2, 3)}
    assert counts == {2: 9, 3: 6}


# ---- apply forward/backward -----------------------------------------------------


def _hexagon_and_matching():
    # hexagon on (0..2) x (0..2) plus a disjoint 4-cycle on (3, 4) x (3, 4)
    edges = list(HEX_EDGES) + [(3, 3), (3, 4), (4, 3), (4, 4)]
    return BiregularGraph(n=5, m=5, d1=2, d2=2, edges=edges)


def test_apply_forward_deletes_cycle():
    g = _hexagon_and_matching()
    alpha = Cycle((3, 3, 4, 4))
    # e_i from the hexagon, non-adjacent to the cycle by disjointness
    spec = SwitchingSpec(alpha=alpha, e=((0, 0), (1, 1)), e_prime=((2, 2), (0, 2)))
    g2 = apply_forward(g, spec)
    assert not alpha.contained_in(g2)
    assert g2.n == g.n
    # degrees preserved is implied by successful construction
    g3 = apply_backward(g2, spec)
    assert g3 == g


def test_apply_forward_missing_edge():
    g = _hexagon_and_matching()
    alpha = Cycle((3, 3, 4, 4))
    spec = SwitchingSpec(alpha=alpha, e=((0, 1), (1, 1)), e_prime=((1, 0), (2, 2)))
    with pytest.raises(EdgeMissing):
        apply_forward(g, spec)


def test_apply_forward_adjacency_precondition():
    g = _hexagon_and_matching()
    alpha = Cycle((3, 3, 4, 4))
    # u_0 = 3 is adjacent to y_0 = 3 (it is on the cycle)
    spec = SwitchingSpec(alpha=alpha, e=((3, 4), (1, 1)), e_prime=((1, 0), (2, 2)))
    with pytest.raises(PreconditionViolated):
        apply_forward(g, spec)


def test_apply_backward_existing_edge_rejected():
    # K_{4,4} minus the identity matching; the target cycle (0,0,1,1) shares
    # edge (1, 0) with the graph, and no path edge removes it
    edges = [(i, j) for i in range(4) for j in range(4) if i != j]
    g = BiregularGraph(n=4, m=4, d1=3, d2=3, edges=edges)
    alpha = Cycle((0, 0, 1, 1))
    spec = SwitchingSpec(alpha=alpha, e=((2, 2), (3, 2)), e_prime=((3, 3), (2, 3)))
    with pytest.raises(PreconditionViolated, match="already present"):
        apply_backward(g, spec)


# a (3,3)-biregular graph on 8 + 8 vertices; row i lists the V2 neighbours of i,
# and (0, 0, 6, 7) is one of its 4-cycles
_NEIGHBOURS = ((0, 5, 7), (5, 6, 7), (1, 3, 5), (1, 2, 4), (2, 3, 6), (1, 2, 4), (0, 4, 7), (0, 3, 6))


@pytest.mark.parametrize(
    "direction, alpha, e, e_prime, error",
    [
        pytest.param("forward", (0, 0, 4, 3), ((3, 1), (0, 7)), ((5, 2), (6, 4)), EdgeMissing,
                     id="forward-alpha-not-in-g"),
        pytest.param("forward", (0, 0, 6, 7), ((1, 2), (2, 1)), ((3, 4), (4, 2)), EdgeMissing,
                     id="forward-e0-not-in-g"),
        pytest.param("forward", (0, 0, 6, 7), ((3, 4), (0, 5)), ((1, 6), (5, 1)), PreconditionViolated,
                     id="forward-u1-adjacent-to-y1"),
        pytest.param("forward", (0, 0, 6, 7), ((2, 3), (4, 6)), ((6, 4), (5, 2)), PreconditionViolated,
                     id="forward-u'0-adjacent-to-y0"),
        pytest.param("forward", (0, 0, 6, 7), ((1, 5), (7, 3)), ((5, 1), (2, 5)), PreconditionViolated,
                     id="forward-v0-adjacent-to-x0"),
        pytest.param("forward", (0, 0, 6, 7), ((4, 3), (7, 6)), ((3, 2), (3, 4)), PreconditionViolated,
                     id="forward-v'1-adjacent-to-x1"),
        pytest.param("forward", (0, 0, 6, 7), ((3, 1), (3, 1)), ((4, 3), (5, 2)), PreconditionViolated,
                     id="forward-e0-deleted-twice"),
        pytest.param("forward", (0, 0, 6, 7), ((4, 2), (7, 6)), ((4, 6), (5, 2)), PreconditionViolated,
                     id="forward-u0y0-created-twice"),
        pytest.param("backward", (4, 1, 7, 7), ((3, 3), (6, 3)), ((2, 6), (0, 3)), PreconditionViolated,
                     id="backward-v1-equals-v'1"),
        pytest.param("backward", (2, 2, 7, 7), ((5, 5), (6, 3)), ((4, 1), (6, 6)), PreconditionViolated,
                     id="backward-u1-equals-u'1"),
        pytest.param("backward", (0, 3, 5, 6), ((7, 7), (1, 4)), ((4, 0), (2, 2)), EdgeMissing,
                     id="backward-u'1y1-not-in-g"),
        pytest.param("backward", (1, 3, 5, 5, 7, 4), ((7, 7), (1, 2), (3, 6)), ((2, 6), (2, 4), (5, 0)),
                     PreconditionViolated, id="backward-x1v'1-is-u'2y2"),
        pytest.param("backward", (0, 2, 2, 4), ((3, 5), (3, 5)), ((4, 0), (6, 3)), PreconditionViolated,
                     id="backward-e0-created-twice"),
        pytest.param("backward", (0, 0, 1, 1), ((7, 5), (5, 7)), ((6, 7), (2, 5)), PreconditionViolated,
                     id="backward-x0y0-in-g"),
        pytest.param("backward", (3, 4, 4, 7), ((3, 2), (0, 6)), ((6, 1), (1, 3)), PreconditionViolated,
                     id="backward-e0-is-x0v0"),
    ],
)
def test_each_broken_precondition_is_refused(direction, alpha, e, e_prime, error):
    # one broken precondition per case: an edge to delete that g lacks raises
    # EdgeMissing, any other breach of the rewiring rule PreconditionViolated
    g = BiregularGraph(n=8, m=8, d1=3, d2=3, edges=[(i, j) for i, row in enumerate(_NEIGHBOURS) for j in row])
    apply = apply_forward if direction == "forward" else apply_backward
    with pytest.raises(error):
        apply(g, SwitchingSpec(alpha=Cycle(alpha), e=e, e_prime=e_prime))


def test_roundtrip_forward_then_backward_random():
    rng = trial_rng(55)
    done = 0
    for t in range(40):
        g = sample_configuration(12, 12, 3, 3, rng)
        for alpha in short_cycles(g, 2):
            for spec in valid_switchings(g, alpha, 2, "forward")[:3]:
                g2 = apply_forward(g, spec)
                assert not alpha.contained_in(g2)
                assert apply_backward(g2, spec) == g
                done += 1
        if done >= 10:
            break
    assert done >= 10


def test_roundtrip_backward_then_forward_random():
    rng = trial_rng(56)
    pyr = random.Random(3)
    done = 0
    for t in range(60):
        g = sample_configuration(10, 10, 2, 2, rng)
        xs = pyr.sample(range(10), 2)
        ys = pyr.sample(range(10), 2)
        alpha = Cycle((xs[0], ys[0], xs[1], ys[1]))
        for spec in valid_switchings(g, alpha, 2, "backward")[:3]:
            g2 = apply_backward(g, spec)
            assert alpha.contained_in(g2)
            assert apply_forward(g2, spec) == g
            done += 1
        if done >= 10:
            break
    assert done >= 10


# ---- exhaustive counting vs a definitional oracle -------------------------------


def _tuples_with_distinct(edges, k, keyfun):
    def rec(i, acc, used):
        if i == k:
            yield tuple(acc)
            return
        for e in edges:
            kk = keyfun(e)
            if kk in used:
                continue
            yield from rec(i + 1, acc + [e], used | {kk})

    yield from rec(0, [], frozenset())


def _forward_oracle(g, alpha, r):
    """(e, e_prime) of the first labelling of each valid rewiring, in order."""
    shorts_g = {c.vertices for c in short_cycles(g, r)}
    ops = {}
    for et in _tuples_with_distinct(list(g.edges), alpha.k, lambda e: e[0]):
        for ept in _tuples_with_distinct(list(g.edges), alpha.k, lambda e: e[1]):
            spec = SwitchingSpec(alpha, et, ept)
            try:
                g2 = apply_forward(g, spec)
            except BiregError:
                continue
            shorts2 = {c.vertices for c in short_cycles(g2, r)}
            if shorts_g - shorts2 == {alpha.vertices} and not (shorts2 - shorts_g):
                ops.setdefault((frozenset(spec.removed_forward()), frozenset(spec.added_forward())), spec)
    return [(spec.e, spec.e_prime) for spec in ops.values()]


def _backward_oracle(g, alpha, r):
    """(e, e_prime) of the first labelling of each valid rewiring, as a set:
    all v choices are looped over before any u choice."""
    shorts_g = {c.vertices for c in short_cycles(g, r)}
    ops = {}
    k = alpha.k
    xs, ys = alpha.xs, alpha.ys
    vopts = [list(itertools.permutations(g.adjacency_left[xs[i]], 2)) for i in range(k)]
    uopts = [list(itertools.permutations(g.adjacency_right[ys[i]], 2)) for i in range(k)]
    for vsel in itertools.product(*vopts):
        for usel in itertools.product(*uopts):
            e = tuple((usel[i][0], vsel[i][0]) for i in range(k))
            ep = tuple((usel[i][1], vsel[i][1]) for i in range(k))
            spec = SwitchingSpec(alpha, e, ep)
            try:
                g2 = apply_backward(g, spec)
            except BiregError:
                continue
            shorts2 = {c.vertices for c in short_cycles(g2, r)}
            if shorts2 - shorts_g == {alpha.vertices} and not (shorts_g - shorts2):
                ops.setdefault((frozenset(spec.added_forward()), frozenset(spec.removed_forward())), spec)
    return {(spec.e, spec.e_prime) for spec in ops.values()}


def test_forward_count_matches_definitional_oracle():
    rng = trial_rng(1234)
    compared = 0
    tried = 0
    while compared < 2 and tried < 100:
        tried += 1
        g = sample_configuration(10, 10, 2, 2, rng)
        cycles = short_cycles(g, 2)
        if not cycles:
            continue
        alpha = cycles[0]
        specs = valid_switchings(g, alpha, 2, "forward")
        assert [(s.e, s.e_prime) for s in specs] == _forward_oracle(g, alpha, 2)
        compared += 1
    assert compared == 2


def test_backward_count_matches_definitional_oracle():
    # 4-cycles at r = 2 on (10,10,2,2) graphs, and 6-cycles at r = 3 on
    # (20,20,2,2) graphs, where backward 6-cycle switchings are less rare
    rng = trial_rng(99)
    pyr = random.Random(7)
    for n, k in ((10, 2), (20, 3)):
        nonzero = 0
        for trial in range(10):
            g = sample_configuration(n, n, 2, 2, rng)
            xs = pyr.sample(range(n), k)
            ys = pyr.sample(range(n), k)
            alpha = Cycle(tuple(v for p in zip(xs, ys) for v in p))
            specs = valid_switchings(g, alpha, k, "backward")
            oracle = _backward_oracle(g, alpha, k)
            assert len(specs) == len(oracle)
            assert {(s.e, s.e_prime) for s in specs} == oracle
            nonzero += len(specs) > 0
        assert nonzero >= 1


def test_forward_rewirings_are_distinct():
    # one spec per pair choice {e_i, e'_i}: on these d >= 3 shapes free edges
    # end on alpha's vertices, and no two specs perform the same rewiring
    graphs = [(sample_configuration(12, 12, 3, 3, trial_rng(3000, t), 10**5), 2) for t in range(3)]
    graphs.append((sample_configuration(12, 8, 2, 3, trial_rng(3100, 0), 10**6), 3))
    total = 0
    for g, r in graphs:
        for alpha in short_cycles(g, r):
            specs = valid_switchings(g, alpha, r, "forward")
            rewirings = {(frozenset(s.removed_forward()), frozenset(s.added_forward())) for s in specs}
            assert len(rewirings) == len(specs)
            total += len(specs)
    assert total > 0


def test_validity_changes_only_alpha():
    rng = trial_rng(77)
    checked = 0
    for t in range(30):
        g = sample_configuration(12, 12, 3, 3, rng)
        for alpha in short_cycles(g, 2):
            for spec in valid_switchings(g, alpha, 2, "forward")[:2]:
                g2 = apply_forward(g, spec)
                before = {c.vertices for c in short_cycles(g, 2)}
                after = {c.vertices for c in short_cycles(g2, 2)}
                assert before - after == {alpha.vertices}
                assert not (after - before)
                checked += 1
        if checked >= 6:
            return
    assert checked >= 1


def test_counts_respect_upper_bounds():
    for g in random_corpus(5, 12, 12, 3, 3, seed=91):
        for alpha in short_cycles(g, 3):
            f = len(valid_switchings(g, alpha, 3, "forward"))
            assert f <= forward_bound(g.n, g.m, g.d1, g.d2, alpha.k)
            b = len(valid_switchings(g, alpha, 3, "backward"))
            assert b <= backward_bound(g.d1, g.d2, alpha.k)


def test_forward_requires_alpha_in_graph(hexagon):
    alpha = Cycle((0, 0, 1, 1))  # not a cycle of the hexagon
    with pytest.raises(EdgeMissing):
        valid_switchings(hexagon, alpha, 2, "forward")


def _first_graph_with_a_4_cycle():
    rng = trial_rng(1234)
    while True:
        g = sample_configuration(10, 10, 2, 2, rng)
        cycles = short_cycles(g, 2)
        if cycles:
            return g, cycles[0]


def test_enumeration_budget():
    g, alpha = _first_graph_with_a_4_cycle()
    with pytest.raises(TooLarge):
        valid_switchings(g, alpha, 2, "forward", budget=20)


def test_budget_is_the_units_charged(monkeypatch):
    # a budget of exactly the units a complete enumeration charges suffices,
    # and one unit less does not
    g, alpha = _first_graph_with_a_4_cycle()
    charged = []
    spend = switching._spend

    def counted(budget_state, units):
        charged.append(units)
        spend(budget_state, units)

    with monkeypatch.context() as patch:
        patch.setattr(switching, "_spend", counted)
        specs = valid_switchings(g, alpha, 2, "forward")
    units = sum(charged)
    assert specs and units > len(specs)
    assert valid_switchings(g, alpha, 2, "forward", budget=units) == specs
    with pytest.raises(TooLarge):
        valid_switchings(g, alpha, 2, "forward", budget=units - 1)


def test_budget_counts_the_cycle_searches(monkeypatch):
    # the graph of `bireg sample --n 60 --m 40 --d1 4 --d2 6 --seed 0`; the
    # forward count of this 4-cycle needs far more work than the budget, and
    # each distinct rewiring that the rewiring rule admits runs up to 4k cycle
    # searches
    g = sample_graph(60, 40, 4, 6, SamplerConfig(seed=0), trial_rng(0))
    alpha = Cycle((2, 16, 57, 18))
    budget = 10**5
    calls = []
    search = switching._cycles_through_edge

    def counted(*args):
        calls.append(args)
        assert len(calls) <= budget, "cycle searches ran past the budget"
        return search(*args)

    monkeypatch.setattr(switching, "_cycles_through_edge", counted)
    with pytest.raises(TooLarge):
        valid_switchings(g, alpha, 2, "forward", budget=budget)
    assert 0 < len(calls) <= budget

import pytest

from bireg import walks
from bireg.graph import BiregularGraph, complete_bipartite
from bireg.sampler import sample_configuration, trial_rng

HEX_EDGES = ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2))


@pytest.fixture
def k22():
    return complete_bipartite(2, 2)


@pytest.fixture
def k33():
    return complete_bipartite(3, 3)


@pytest.fixture
def hexagon():
    return BiregularGraph(n=3, m=3, d1=2, d2=2, edges=HEX_EDGES)


def random_corpus(count, n, m, d1, d2, seed=0):
    """Deterministic list of uniform (d1, d2)-biregular graphs."""
    return [
        sample_configuration(n, m, d1, d2, trial_rng(seed, t), max_rejections=100000)
        for t in range(count)
    ]


@pytest.fixture
def recurrence_calls(monkeypatch):
    """The kmax of every walk-recurrence run made during the test."""
    calls = []
    recurrence = walks._u_matrices

    def counted(g, kmax):
        calls.append(kmax)
        return recurrence(g, kmax)

    monkeypatch.setattr(walks, "_u_matrices", counted)
    return calls

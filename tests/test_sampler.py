import numpy as np
import pytest
from scipy import stats

from bireg.errors import BalanceViolation, RejectionBudgetExceeded, TooLarge
from bireg.graph import complete_bipartite
from bireg.sampler import (
    MAX_REJECTIONS,
    SamplerConfig,
    enumerate_all,
    sample_configuration,
    sample_graph,
    sample_switch_chain,
    seed_graph,
    trial_rng,
)


def test_enumerate_3322_has_six_graphs():
    graphs = enumerate_all(3, 3, 2, 2)
    assert len(graphs) == 6
    assert len(set(graphs)) == 6


def test_enumerate_small_cases():
    assert len(enumerate_all(2, 2, 2, 2)) == 1
    assert len(enumerate_all(2, 2, 1, 1)) == 2


def test_enumerate_too_large():
    with pytest.raises(TooLarge):
        enumerate_all(6, 6, 3, 3)


def test_configuration_sampler_validates():
    rng = trial_rng(0)
    for _ in range(20):
        g = sample_configuration(6, 8, 4, 3, rng)
        assert g.n == 6 and g.m == 8


def test_configuration_sampler_rejects_bad_params():
    with pytest.raises(BalanceViolation):
        sample_configuration(3, 2, 2, 2, trial_rng(0))
    with pytest.raises(ValueError):
        sample_configuration(2, 1, 2, 4, trial_rng(0))  # d1 > m
    with pytest.raises(ValueError):
        sample_configuration(1, 2, 4, 2, trial_rng(0))  # d2 > n


def _reference_matching(n, m, d1, d2, rng, max_rejections):
    """Sorted edge keys of a configuration-model graph, or None when no
    attempt is simple: fresh stub arrays on every attempt, and a multi-edge
    found as a repeated key by np.unique."""
    for _ in range(max_rejections):
        rows = np.repeat(np.arange(n, dtype=np.int64), d1)
        cols = rng.permutation(np.repeat(np.arange(m, dtype=np.int64), d2))
        keys = rows * m + cols
        if np.unique(keys).size == keys.size:
            return np.sort(keys)
    return None


@pytest.mark.parametrize(
    "n, m, d1, d2", [(30, 30, 3, 3), (60, 40, 2, 3), (40, 60, 3, 2), (5, 5, 1, 1), (6, 8, 4, 3), (2, 2, 2, 2)]
)
def test_stub_matching_matches_unique_key_oracle(n, m, d1, d2):
    # same graph and same stream position: the sampler draws what the
    # reference draws, attempt for attempt
    for seed in range(10):
        rng, ref_rng = trial_rng(seed), trial_rng(seed)
        g = sample_configuration(n, m, d1, d2, rng)
        assert np.array_equal(g.keys, _reference_matching(n, m, d1, d2, ref_rng, MAX_REJECTIONS))
        assert rng.integers(2**62) == ref_rng.integers(2**62)


def test_stub_matching_budget_counts_attempts():
    # at (3,3,30) the first pairing of seed 0 has a multi-edge, that of seed 7 none
    assert _reference_matching(30, 30, 3, 3, trial_rng(0), 1) is None
    with pytest.raises(RejectionBudgetExceeded):
        sample_configuration(30, 30, 3, 3, trial_rng(0), max_rejections=1)
    g = sample_configuration(30, 30, 3, 3, trial_rng(7), max_rejections=1)
    assert np.array_equal(g.keys, _reference_matching(30, 30, 3, 3, trial_rng(7), 1))


def test_unique_graph_space_always_returns_it():
    for t in range(5):
        assert sample_configuration(2, 2, 2, 2, trial_rng(0, t)) == complete_bipartite(2, 2)


def test_bit_reproducibility():
    g1 = sample_configuration(12, 12, 3, 3, trial_rng(7, 3))
    g2 = sample_configuration(12, 12, 3, 3, trial_rng(7, 3))
    assert g1 == g2
    c = SamplerConfig(method="switch-chain", mcmc_steps=500, seed=7)
    h1 = sample_switch_chain(12, 12, 3, 3, c, trial_rng(7, 4))
    h2 = sample_switch_chain(12, 12, 3, 3, c, trial_rng(7, 4))
    assert h1 == h2


def test_independent_streams_differ():
    g1 = sample_configuration(12, 12, 3, 3, trial_rng(7, 0))
    g2 = sample_configuration(12, 12, 3, 3, trial_rng(7, 1))
    assert g1 != g2


def test_seed_graph_circulant():
    g = seed_graph(9, 12, 4, 3)
    assert g.d1 == 4 and g.d2 == 3


def test_switch_chain_on_frozen_space_returns_seed():
    # K_{2,2} is the unique (2,2,2,2) graph: every proposal is rejected
    c = SamplerConfig(method="switch-chain", mcmc_steps=200, seed=0)
    g = sample_switch_chain(2, 2, 2, 2, c, trial_rng(0))
    assert g == complete_bipartite(2, 2)


def _reference_chain(n, m, d1, d2, rng, steps):
    """Sorted edge keys of a double-edge-swap chain on numpy endpoint arrays
    and a dense n x m occupancy table, started from the edges
    (i, (i*d1 + t) mod m) in (i, j) order; each block draws all its a
    proposals, then all its b proposals."""
    rows = np.repeat(np.arange(n), d1)
    u, v = np.divmod(np.sort(rows * m + (rows * d1 + np.tile(np.arange(d1), n)) % m), m)
    present = np.zeros((n, m), dtype=bool)
    present[u, v] = True
    ne = n * d1

    def block(count):
        a_all = rng.integers(0, ne, size=count)
        b_all = rng.integers(0, ne, size=count)
        accepted = 0
        for a, b in zip(a_all, b_all):
            if a == b or u[a] == u[b] or v[a] == v[b]:
                continue
            if present[u[a], v[b]] or present[u[b], v[a]]:
                continue
            present[u[a], v[a]] = present[u[b], v[b]] = False
            present[u[a], v[b]] = present[u[b], v[a]] = True
            v[a], v[b] = v[b], v[a]
            accepted += 1
        return accepted

    target, cap = 20 * ne, 40 * 20 * ne + 1000
    accepted = proposals = 0
    while accepted < target and proposals < cap:
        count = min(1 << 14, cap - proposals)
        accepted += block(count)
        proposals += count
    for start in range(0, steps, 1 << 14):
        block(min(1 << 14, steps - start))
    return np.sort(u * m + v)


@pytest.mark.parametrize(
    "n, m, d1, d2, steps",
    [
        (2, 2, 2, 2, 200),  # K_{2,2}: every proposal fails, burn-in stops at the cap
        (3, 3, 2, 2, 10000),
        (5, 5, 1, 1, 100),
        (60, 40, 4, 6, 2000),
        (30, 90, 6, 2, 2000),
        (100, 100, 8, 8, 2000),  # burn-in spans two proposal blocks
        (12, 12, 3, 3, 1),
    ],
)
def test_switch_chain_matches_dense_table_oracle(n, m, d1, d2, steps):
    config = SamplerConfig(method="switch-chain", mcmc_steps=steps)
    for seed in range(3):
        rng, ref_rng = trial_rng(seed), trial_rng(seed)
        g = sample_switch_chain(n, m, d1, d2, config, rng)
        assert np.array_equal(g.keys, _reference_chain(n, m, d1, d2, ref_rng, steps))
        assert rng.integers(2**62) == ref_rng.integers(2**62)


def test_switch_chain_states_stay_biregular():
    c = SamplerConfig(method="switch-chain", mcmc_steps=100, seed=0)
    for t in range(10):
        g = sample_switch_chain(8, 8, 3, 3, c, trial_rng(1, t))
        assert g.n == 8  # construction re-validates degrees


@pytest.mark.parametrize("method", ["exact-rejection", "switch-chain"])
def test_uniformity_chi_square(method):
    graphs = {g.edges: i for i, g in enumerate(enumerate_all(3, 3, 2, 2))}
    counts = np.zeros(len(graphs))
    cfg = SamplerConfig(method=method, mcmc_steps=2000, seed=0)
    draws = 1500
    for t in range(draws):
        g = sample_graph(3, 3, 2, 2, cfg, trial_rng(31, t))
        counts[graphs[g.edges]] += 1
    expected = draws / len(graphs)
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < stats.chi2.ppf(0.99, len(graphs) - 1)


def test_auto_method_picks_chain_for_dense_degrees():
    cfg = SamplerConfig(method="auto")
    assert cfg.resolve_method(1000, 1000, 8, 8) == "switch-chain"
    assert cfg.resolve_method(300, 300, 3, 3) == "exact-rejection"
    assert cfg.resolve_method(20, 20, 8, 8) == "switch-chain"

"""Samplers for uniform random biregular bipartite graphs.

Two methods are provided:

* ``exact-rejection`` -- the configuration model: a uniform perfect matching
  of the n*d1 left stubs to the m*d2 right stubs, rejected until simple.
  Conditioned on acceptance this is exactly uniform, but the acceptance
  probability decays like exp(-(d1-1)(d2-1)/2), so it stalls for dense
  degree pairs.  Each attempt works on the sorted edge keys i*m + j alone,
  and the accepted keys go to the graph's one validator, ``from_keys``.
* ``switch-chain`` -- a double-edge-swap Markov chain started from a
  deterministic circulant seed graph.  Degree-exact at every step and
  approximately uniform after burn-in (a heuristic with no mixing
  guarantee; validated empirically against exhaustive enumeration at tiny
  sizes).

RNG contract: all sampling takes a ``numpy.random.Generator``.  Parallel
trials derive independent streams via ``trial_rng(seed, trial_index)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import MalformedInput, RejectionBudgetExceeded, TooLarge
from .graph import BiregularGraph, check_sizes

ENUMERATION_LIMIT = 25  # max n*m for enumerate_all
PROPOSAL_BLOCK = 1 << 14
MAX_REJECTIONS = 10000  # stub-matching attempts per graph
BURNIN_FACTOR = 20  # switch-chain burn-in target: BURNIN_FACTOR * |E| accepted swaps
DENSE_THRESHOLD = 0.25  # auto picks the switch chain when d1*d2 > DENSE_THRESHOLD * n
METHODS = ("auto", "exact-rejection", "switch-chain")


def trial_rng(seed: int, trial_index: int = 0) -> np.random.Generator:
    """Independent, reproducible stream for (seed, trial_index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(trial_index)])))


@dataclass
class SamplerConfig:
    """Sampling method and the switch chain's post-burn-in steps.

    method: "auto" picks exact-rejection in the sparse regime and the switch
    chain when rejection is hopeless (d1*d2 > DENSE_THRESHOLD * n, or
    configuration-model acceptance estimate exp(-q/2) below 1/MAX_REJECTIONS).
    Nothing reads seed: the stream is the rng that each sampler is given.
    """

    method: str = "auto"
    mcmc_steps: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise MalformedInput(f"sampler key 'method' must be one of {', '.join(METHODS)}, got {self.method!r}")
        if self.mcmc_steps < 1:
            raise ValueError("mcmc_steps must be >= 1")

    def resolve_method(self, n: int, m: int, d1: int, d2: int) -> str:
        if self.method != "auto":
            return self.method
        q = (d1 - 1) * (d2 - 1)
        if d1 * d2 > DENSE_THRESHOLD * n:
            return "switch-chain"
        # expected rejection count ~ exp(q/2); stay within budget
        if q / 2.0 > np.log(MAX_REJECTIONS):
            return "switch-chain"
        return "exact-rejection"


def sample_configuration(n, m, d1, d2, rng, max_rejections=MAX_REJECTIONS) -> BiregularGraph:
    """Exactly uniform sample by stub matching with rejection of multi-edges.

    Stub slot s of a permutation of the V2 stubs belongs to V1 vertex s // d1,
    so adding s // d1 * m to each slot gives the attempt's edge keys.  Row i's
    keys lie in [i*m, (i+1)*m), so one sort of the keys sorts every row, a
    multi-edge is two equal adjacent keys, and a simple pairing is already
    in the order the graph stores."""
    check_sizes(n, m, d1, d2)
    offsets = np.repeat(np.arange(0, n * m, m, dtype=np.int64), d1)
    stubs = np.repeat(np.arange(m, dtype=np.int64), d2)
    for _ in range(max_rejections):
        keys = rng.permutation(stubs)
        keys += offsets
        keys.sort()
        if not (keys[1:] == keys[:-1]).any():
            return BiregularGraph.from_keys(n, m, d1, d2, keys)
    raise RejectionBudgetExceeded(
        f"no simple matching in {max_rejections} attempts "
        f"(acceptance ~ exp(-{(d1 - 1) * (d2 - 1) / 2:.1f}))"
    )


def seed_graph(n, m, d1, d2) -> BiregularGraph:
    """Deterministic circulant placement: edges (i, (i*d1 + t) mod m)."""
    check_sizes(n, m, d1, d2)
    i, t = np.divmod(np.arange(n * d1), d1)
    return BiregularGraph.from_keys(n, m, d1, d2, i * m + (i * d1 + t) % m)


def sample_switch_chain(n, m, d1, d2, config: SamplerConfig, rng) -> BiregularGraph:
    """Approximately uniform sample from a fresh double-edge-swap chain.

    The state is the list of edge keys i*m + j, one slot per edge, and the set
    of the same keys: O(|E|) memory.  A proposal picks two slots (a, b) and
    swaps their V2 ends, i.e. shifts each key by the difference of the two
    rows; it is rejected when either new key is already an edge, which also
    covers a == b, equal rows and equal columns.  Burn-in runs to
    BURNIN_FACTOR * |E| accepted swaps, with a proposal cap so that frozen
    spaces (e.g. K_{2,2}) terminate; config.mcmc_steps proposals follow.
    """
    seed_keys = seed_graph(n, m, d1, d2).keys
    keys = seed_keys.tolist()
    rows = (seed_keys - seed_keys % m).tolist()  # i*m of each slot, fixed
    present = set(keys)
    add, remove = present.add, present.remove
    ne = len(keys)

    def run_block(count):
        accepted = 0
        prop_a = rng.integers(0, ne, size=count).tolist()
        prop_b = rng.integers(0, ne, size=count).tolist()
        for a, b in zip(prop_a, prop_b):
            ka, kb = keys[a], keys[b]
            shift = rows[a] - rows[b]
            new_a, new_b = kb + shift, ka - shift
            if new_a in present or new_b in present:
                continue
            remove(ka)
            remove(kb)
            add(new_a)
            add(new_b)
            keys[a], keys[b] = new_a, new_b
            accepted += 1
        return accepted

    burnin_target = BURNIN_FACTOR * ne
    accepted = 0
    proposals = 0
    cap = 40 * burnin_target + 1000
    while accepted < burnin_target and proposals < cap:
        block = min(PROPOSAL_BLOCK, cap - proposals)
        accepted += run_block(block)
        proposals += block

    done = 0
    while done < config.mcmc_steps:
        block = min(PROPOSAL_BLOCK, config.mcmc_steps - done)
        run_block(block)
        done += block
    return BiregularGraph.from_keys(n, m, d1, d2, keys)


def sample_graph(n, m, d1, d2, config: SamplerConfig, rng) -> BiregularGraph:
    """Dispatch on the configured (or auto-resolved) method."""
    method = config.resolve_method(n, m, d1, d2)
    if method == "exact-rejection":
        return sample_configuration(n, m, d1, d2, rng)
    return sample_switch_chain(n, m, d1, d2, config, rng)


def enumerate_all(n, m, d1, d2) -> list:
    """All simple (d1, d2)-biregular graphs on [n] x [m], each exactly once.

    Brute force over 0/1 matrices with the given margins; guarded by
    n*m <= ENUMERATION_LIMIT.
    """
    check_sizes(n, m, d1, d2)
    if n * m > ENUMERATION_LIMIT:
        raise TooLarge(f"n*m = {n * m} > {ENUMERATION_LIMIT}")
    rows = list(itertools.combinations(range(m), d1))
    out = []
    capacity = [d2] * m

    def place(i, acc):
        if i == n:
            out.append(BiregularGraph.from_keys(n, m, d1, d2, acc))
            return
        remaining = n - i
        for row in rows:
            if any(capacity[j] == 0 for j in row):
                continue
            for j in row:
                capacity[j] -= 1
            # prune: every column must still be fillable by the remaining rows
            if all(c <= remaining - 1 for c in capacity):
                place(i + 1, acc + [i * m + j for j in row])
            for j in row:
                capacity[j] += 1

    place(0, [])
    return out

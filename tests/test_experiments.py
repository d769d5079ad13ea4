import json
import math
import multiprocessing
import weakref
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from bireg import experiments
from bireg.chebyshev import basis_element, fit_expansion
from bireg.experiments import (
    cycle_count_vector,
    fluctuation_experiment_fixed,
    fluctuation_experiment_growing,
    globallaw_experiment,
    poisson_cycle_mean,
    poisson_experiment,
    run_experiment,
    sample_limit_Yf,
    tv_empirical_poisson,
    tv_empirical_product_poisson,
    tv_two_samples,
)
from bireg.sampler import SamplerConfig, trial_rng
from bireg.walks import count_cycles
from conftest import random_corpus


def test_tv_poisson_exact_small_case():
    # empirical: half mass at 0, half at 1 vs Poisson(0) = point mass at 0
    assert tv_empirical_poisson([0, 1], 1e-12) == pytest.approx(0.5, abs=1e-6)
    draws = stats.poisson.rvs(4.0, size=4000, random_state=1)
    assert tv_empirical_poisson(draws, 4.0) < 0.05


def test_tv_joint_dominates_marginals():
    rng = trial_rng(9)
    rows = np.column_stack(
        [rng.poisson(4.0, size=500), rng.poisson(10.0, size=500)]
    )
    joint, cells, bias = tv_empirical_product_poisson(rows, [4.0, 10.0])
    tv2 = tv_empirical_poisson(rows[:, 0], 4.0)
    tv3 = tv_empirical_poisson(rows[:, 1], 10.0)
    assert joint >= max(tv2, tv3) - 1e-12
    assert 0 <= joint <= 1
    assert cells > 0 and bias > 0


@pytest.mark.parametrize("r,d1,d2", [(2, 3, 3), (3, 3, 3), (4, 3, 4), (3, 2, 5)])
def test_tv_joint_matches_the_scalar_pmf_reference(r, d1, d2):
    mus = [poisson_cycle_mean(k, d1, d2) for k in range(2, r + 1)]
    for seed in range(5):
        rows = np.column_stack([trial_rng(seed, k).poisson(mu, size=300) for k, mu in enumerate(mus)])
        counts = Counter(tuple(int(x) for x in t) for t in rows)
        tv = mass = 0.0
        for key, c in counts.items():
            p = math.prod(stats.poisson.pmf(key[i], mus[i]) for i in range(len(mus)))
            tv += abs(c / len(rows) - p)
            mass += p
        assert tv_empirical_product_poisson(rows, mus)[0] == float(0.5 * (tv + 1.0 - mass))


def test_tv_two_samples_identical_is_zero():
    xs = np.arange(10)
    assert tv_two_samples(xs, xs) == 0.0
    assert tv_two_samples([0, 0, 1], [1, 1, 0]) == pytest.approx(1 / 3, abs=1e-12)


def test_cycle_count_vector_matches_dfs():
    # d2 = 2 makes the (d2-2) terms of the C_3 formula vanish
    corpus = random_corpus(6, 12, 16, 4, 3, seed=51) + random_corpus(6, 12, 18, 3, 2, seed=52)
    for g in corpus:
        assert cycle_count_vector(g, 4) == [count_cycles(g, k) for k in (2, 3, 4)]


def test_poisson_cycle_mean():
    assert poisson_cycle_mean(2, 3, 3) == pytest.approx(4.0)
    assert poisson_cycle_mean(3, 3, 3) == pytest.approx(64 / 6)


def test_poisson_experiment_report():
    rep = poisson_experiment(60, 60, 3, 3, r=3, samples=200, seed=3)
    assert rep.name == "poisson"
    assert set(rep.statistics) == {"C2", "C3"}
    assert 0 <= rep.distances["tv_C2"] <= 1
    assert rep.distances["tv_joint"] >= max(rep.distances["tv_C2"], rep.distances["tv_C3"]) - 1e-12
    # reproducibility
    rep2 = poisson_experiment(60, 60, 3, 3, r=3, samples=200, seed=3)
    assert rep.to_dict() == rep2.to_dict()
    rep3 = poisson_experiment(60, 60, 3, 3, r=3, samples=200, seed=4)
    assert rep3.to_dict() != rep.to_dict()


def test_poisson_mean_within_four_stderr_in_sparse_regime():
    # sqrt(r) q^{3r/2} / (n d1) = sqrt(2)/200 << 0.1 here, so the empirical
    # mean of C_2 must sit within 4 standard errors of mu_2
    rep = poisson_experiment(100, 100, 2, 2, r=2, samples=3000, seed=17)
    c2 = rep.statistics["C2"]
    assert abs(c2["mean"] - c2["target_mean"]) <= 4 * c2["stderr"]


def test_sample_limit_yf_gamma2_is_poisson():
    rng = trial_rng(1)
    draws = [sample_limit_Yf(basis_element("gamma", 2, 3), 3, 3, 4, rng) for _ in range(3000)]
    assert np.mean(draws) == pytest.approx(4.0, abs=0.15)
    assert tv_empirical_poisson(draws, 4.0) < 0.05


def test_sample_limit_yf_zero_expansion():
    rng = trial_rng(2)
    zero = basis_element("gamma", 2, 3)
    zero = zero.__class__(basis="gamma", coeffs=[0.0, 0.0, 0.0], d1=3)
    assert sample_limit_Yf(zero, 3, 3, 4, rng) == 0.0


def test_sample_limit_yf_analytic_mean_gamma3():
    rng = trial_rng(3)
    q = 4
    draws = [sample_limit_Yf(basis_element("gamma", 3, 3), 3, 3, 6, rng) for _ in range(4000)]
    # mean = mu_3^cnbw / q^{3/2} = q^3 / q^{3/2} = 8
    assert np.mean(draws) == pytest.approx(8.0, rel=0.05)


def test_fluctuation_fixed_rejects_degenerate_degrees():
    with pytest.raises(ValueError):
        fluctuation_experiment_fixed(20, 2, 2, basis_element("gamma", 2, 2), samples=5, seed=1)


def test_fluctuation_fixed_zero_expansion_is_identically_zero():
    from bireg.chebyshev import ChebExpansion

    zero = ChebExpansion(basis="gamma", coeffs=[0.0], d1=3)
    rep = fluctuation_experiment_fixed(12, 3, 3, zero, samples=8, seed=2)
    assert np.all(rep.samples["Y"] == 0.0)
    assert np.all(rep.samples["Y_limit"] == 0.0)


def test_fluctuation_fixed_identity_vs_eigen_paths():
    exp = basis_element("gamma", 2, 3)
    a = fluctuation_experiment_fixed(30, 3, 3, exp, samples=25, seed=6, use_eigenvalues=False)
    b = fluctuation_experiment_fixed(30, 3, 3, exp, samples=25, seed=6, use_eigenvalues=True)
    assert np.allclose(a.samples["Y"], b.samples["Y"], atol=1e-8)


def test_fluctuation_fixed_mean_near_limit():
    exp = basis_element("gamma", 2, 3)
    rep = fluctuation_experiment_fixed(120, 3, 3, exp, samples=400, seed=7)
    target = rep.statistics["Y_limit"]["analytic_mean"]
    se = 3 * (rep.statistics["Y"]["variance"] / 400) ** 0.5
    assert abs(rep.statistics["Y"]["mean"] - target) < se + 0.5


@pytest.mark.parametrize("n,d1,d2,seed", [(300, 3, 3, 11), (150, 4, 3, 12)])
def test_fluctuation_fixed_gamma3_mean_near_limit(n, d1, d2, seed):
    # an odd-degree statistic is centred only in the recentred variable
    # lambda - (d2-2)/sqrt(q) and with the paper's non-backtracking class
    exp = basis_element("gamma", 3, d1, d2)
    rep = fluctuation_experiment_fixed(n, d1, d2, exp, samples=200, seed=seed)
    y = rep.statistics["Y"]
    assert abs(y["mean"] - rep.statistics["Y_limit"]["analytic_mean"]) <= 4 * y["stderr"]


def test_fluctuation_fixed_paths_agree_when_d1_differs_from_d2():
    exp = fit_expansion(np.exp, basis="phi", d1=4, d2=3, k1=3.0)
    a = fluctuation_experiment_fixed(30, 4, 3, exp, samples=6, seed=6, use_eigenvalues=False)
    b = fluctuation_experiment_fixed(30, 4, 3, exp, samples=6, seed=6, use_eigenvalues=True)
    assert np.allclose(a.samples["Y"], b.samples["Y"], rtol=1e-10, atol=1e-10)
    assert a.params["expansion"]["d2"] == 3


def test_fluctuation_growing_report_fields():
    rep = fluctuation_experiment_growing(
        80, 4, 4, [basis_element("phi", 2)], samples=30, seed=8
    )
    assert "Y0" in rep.statistics
    assert rep.statistics["Y0"]["target_variance"] == pytest.approx(4.0)
    assert rep.notes


def test_globallaw_report(tmp_path):
    rep = globallaw_experiment(120, 6, 3, samples=3, model="semicircle", seed=9)
    assert 0 <= rep.distances["ks_mean"] <= 1
    path = tmp_path / "rep.json"
    rep.save(path)
    data = json.loads(path.read_text())
    assert data["name"] == "globallaw"
    assert data["seed"] == 9


def test_run_experiment_config_roundtrip():
    config = {
        "experiment": "poisson",
        "seed": 12,
        "params": {"n": 40, "m": 40, "d1": 2, "d2": 2, "r": 2, "samples": 50},
    }
    rep = run_experiment(config)
    assert rep.seed == 12
    config2 = {
        "experiment": "fluctuation-fixed",
        "seed": 1,
        "params": {"n": 30, "d1": 3, "d2": 3, "expansion": "gamma_2", "samples": 10},
    }
    rep2 = run_experiment(config2)
    assert rep2.name == "fluctuation-fixed"


@pytest.mark.parametrize(
    "run",
    [
        lambda: poisson_experiment(30, 30, 3, 3, 3, 3, seed=1),
        lambda: fluctuation_experiment_fixed(30, 3, 3, basis_element("gamma", 3, 3), 3, seed=1),
        lambda: fluctuation_experiment_growing(30, 3, 3, [basis_element("phi", 2)], 3, seed=1),
        lambda: globallaw_experiment(30, 3, 3, 3, "semicircle", seed=1),
    ],
    ids=["poisson", "fluctuation-fixed", "fluctuation-growing", "globallaw"],
)
def test_each_trial_graph_is_dropped_before_the_next_is_sampled(monkeypatch, run):
    # a graph that outlives its trial pins heap under the next trial's dense
    # Gram build; globallaw at n = 2000 peaked 30 MiB higher that way.  One
    # worker runs in process the same chunk function that forked workers run,
    # and only there can the patched sampler below see the trials.
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 1)
    refs, alive = [], []
    sample_graph = experiments.sample_graph

    def sample(*args):
        alive.append(sum(ref() is not None for ref in refs))
        g = sample_graph(*args)
        refs.append(weakref.ref(g))
        return g

    monkeypatch.setattr(experiments, "sample_graph", sample)
    run()
    assert alive == [0, 0, 0]


WORKER_CONFIGS = {
    "poisson": {"experiment": "poisson", "seed": 3,
                "params": {"n": 60, "m": 60, "d1": 3, "d2": 3, "r": 4, "samples": 7, "keep_samples": True}},
    "fixed-walks": {"experiment": "fluctuation-fixed", "seed": 4,
                    "params": {"n": 60, "d1": 3, "d2": 4, "expansion": "exp", "samples": 5}},
    "fixed-eigen-chain": {"experiment": "fluctuation-fixed", "seed": 5,
                          "params": {"n": 40, "d1": 4, "d2": 4, "expansion": "gamma_3", "samples": 5,
                                     "use_eigenvalues": True}},
    "growing-chain": {"experiment": "fluctuation-growing", "seed": 6,
                      "params": {"n": 64, "d1": 8, "d2": 8, "expansions": ["phi_2", "phi_3"], "samples": 5}},
    "globallaw-chain": {"experiment": "globallaw", "seed": 7,
                        "params": {"n": 60, "d1": 6, "d2": 6, "model": "fixed-degree", "samples": 4}},
    "globallaw-stub": {"experiment": "globallaw", "seed": 8,
                       "params": {"n": 90, "d1": 3, "d2": 3, "model": "semicircle", "samples": 3}},
}


@pytest.mark.parametrize("name", WORKER_CONFIGS)
def test_reports_are_byte_identical_for_any_worker_count(tmp_path, monkeypatch, name):
    reports = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(experiments, "_cpu_count", lambda: workers)
        path = tmp_path / f"{workers}.json"
        run_experiment(WORKER_CONFIGS[name]).save(path)
        reports.append(path.read_bytes())
        assert multiprocessing.active_children() == []
    assert reports[1] == reports[0] and reports[2] == reports[0]


@pytest.mark.parametrize("name", WORKER_CONFIGS)
def test_workers_sample_and_only_this_process_eigensolves(monkeypatch, name):
    # LAPACK's eigenvalues depend on its thread count, so no worker may
    # eigensolve, and a stub-matched eigensolve trial runs in process
    config = WORKER_CONFIGS[name]
    p = config["params"]
    method = SamplerConfig().resolve_method(p["n"], p.get("m", p["n"] * p["d1"] // p["d2"]), p["d1"], p["d2"])
    assert (method == "switch-chain") == name.endswith("chain")
    eigen = config["experiment"] in ("fluctuation-growing", "globallaw") or p.get("use_eigenvalues", False)
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
    sampled, solved = [], []
    sample_graph, eigenvalues = experiments.sample_graph, experiments.spectra.eigenvalues
    monkeypatch.setattr(experiments, "sample_graph", lambda *a: sampled.append(1) or sample_graph(*a))
    monkeypatch.setattr(experiments.spectra, "eigenvalues", lambda g: solved.append(1) or eigenvalues(g))
    run_experiment(config)
    assert len(sampled) == (p["samples"] if eigen and method != "switch-chain" else 0)
    assert len(solved) == (p["samples"] if eigen else 0)

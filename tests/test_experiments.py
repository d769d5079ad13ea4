import itertools
import json
import logging
import math
import multiprocessing
import os
import subprocess
import sys
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
from scipy import special, stats

from bireg import experiments, walks
from bireg.chebyshev import basis_element, fit_expansion
from bireg.errors import MalformedInput
from bireg.experiments import (
    cycle_count_vector,
    fluctuation_experiment_fixed,
    fluctuation_experiment_growing,
    globallaw_experiment,
    poisson_cycle_mean,
    poisson_experiment,
    poisson_pmf,
    poisson_ppf,
    run_experiment,
    sample_limit_Yf,
    tv_empirical_poisson,
    tv_empirical_product_poisson,
    tv_two_samples,
)
from bireg.graph import complete_bipartite
from bireg.sampler import SamplerConfig, sample_graph, trial_rng
from bireg.walks import count_cycles, walk_counts
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


# the means of criteria 5 and 6, (3,3) at k = 2 and 3, and the joint TV's r = 4
CRITERION_MEANS = [poisson_cycle_mean(k, 3, 3) for k in (2, 3, 4)]


def test_poisson_pmf_matches_scipy_stats():
    ks = np.arange(200)
    for mu in CRITERION_MEANS + [1e-12, 0.5, 37.25]:
        np.testing.assert_array_max_ulp(poisson_pmf(ks, mu), stats.poisson.pmf(ks, mu), maxulp=1)
    # the joint TV's form: one row per count vector, one column per mean
    grid = trial_rng(21).integers(0, 30, size=(500, len(CRITERION_MEANS)))
    np.testing.assert_array_max_ulp(poisson_pmf(grid, CRITERION_MEANS),
                                    stats.poisson.pmf(grid, CRITERION_MEANS), maxulp=1)
    assert poisson_pmf(ks, 0.0).tolist() == [1.0] + [0.0] * 199 == stats.poisson.pmf(ks, 0.0).tolist()


@pytest.mark.parametrize("r", [1, 2, 3, 4, 6, 10])
def test_poisson_ppf_matches_scipy_stats(r):
    q = 1 - 0.001 / r
    for mu in CRITERION_MEANS + [poisson_cycle_mean(k, 4, 3) for k in (2, 3, 4)] + [1e-12, 0.5, 120.0]:
        assert poisson_ppf(q, mu) == stats.poisson.ppf(q, mu), mu


def test_ndtr_matches_scipy_stats_normal_cdf():
    # fluctuation-growing's KS distance takes the normal CDF from special.ndtr
    x = np.concatenate([trial_rng(22).normal(0, 3, size=10000), [-np.inf, -40.0, 0.0, 40.0, np.inf]])
    assert special.ndtr(x).tolist() == stats.norm.cdf(x).tolist()
    assert special.ndtr(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]


def test_no_experiment_imports_scipy_stats():
    # scipy.stats would double the start-up time and memory of every process;
    # the Poisson pmf and quantile and the normal CDF come from scipy.special
    configs = [WORKER_CONFIGS["poisson"], WORKER_CONFIGS["fixed-walks"], WORKER_CONFIGS["globallaw-stub"],
               {"experiment": "fluctuation-growing", "seed": 9,
                "params": {"n": 60, "d1": 3, "d2": 3, "expansions": ["phi_2"], "samples": 3}}]
    script = (
        "import json, sys\n"
        "from bireg.experiments import run_experiment\n"
        f"reports = [run_experiment(c) for c in json.loads({json.dumps(configs)!r})]\n"
        "assert 'ks_gaussian_Y0' in reports[3].distances\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_tv_two_samples_identical_is_zero():
    xs = np.arange(10)
    assert tv_two_samples(xs, xs) == 0.0
    assert tv_two_samples([0, 0, 1], [1, 1, 0]) == pytest.approx(1 / 3, abs=1e-12)


def test_cycle_count_vector_matches_dfs():
    # d2 = 2 makes the (d2-2) terms of the C_3 formula vanish; (2, 4) and
    # (4, 2) have n != m both ways; d2 = 1 leaves no co-degree pairs at all;
    # d1 = 1 makes p's own co-degree run 1 long and no co-degree exceed 1;
    # K_{3,4} has co-degree 4 and every A1 X entry above 1
    corpus = (
        random_corpus(6, 12, 16, 4, 3, seed=51)
        + random_corpus(6, 12, 18, 3, 2, seed=52)
        + random_corpus(6, 16, 8, 2, 4, seed=53)
        + random_corpus(6, 8, 16, 4, 2, seed=54)
        + random_corpus(2, 6, 12, 2, 1, seed=55)
        + random_corpus(2, 12, 4, 1, 3, seed=58)
        + [complete_bipartite(3, 4), complete_bipartite(4, 3)]
    )
    for g in corpus:
        dfs = [count_cycles(g, k) for k in (2, 3, 4)]
        assert cycle_count_vector(g, 4) == dfs
        assert cycle_count_vector(g, 3) == dfs[:2]
        assert cycle_count_vector(g, 2) == dfs[:1]
    # K_{3,4}: C(3,2) C(4,2) 4-cycles, and the 4 copies of K_{3,3} hold 6 six-cycles each
    assert cycle_count_vector(complete_bipartite(3, 4), 3) == [18, 24]


def test_cycle_count_vector_is_the_same_in_any_block_size(monkeypatch):
    corpus = random_corpus(4, 40, 30, 3, 4, seed=56) + [complete_bipartite(5, 6)]
    whole = [cycle_count_vector(g, 3) for g in corpus]
    for block in (1, 7, 100):
        monkeypatch.setattr(walks, "_PATH_BLOCK", block)
        assert [cycle_count_vector(g, 3) for g in corpus] == whole


def test_cycle_count_vector_matches_the_walk_counts_at_production_size():
    # on a simple graph each cyclically non-backtracking closed walk with 2
    # or 3 V1 steps traces a 4- or 6-cycle (B_2 = B_3 = 0), and each such
    # cycle is traced from its k V1 starts in 2 directions: CNBW_k = 2k C_k.
    # DFS cannot afford these sizes
    stub = [sample_graph(300, 300, 3, 3, SamplerConfig(), trial_rng(57, t)) for t in range(20)]
    chain_config = SamplerConfig(method="switch-chain")
    chain = [sample_graph(200, 200, 8, 8, chain_config, trial_rng(58, t)) for t in range(5)]
    for g in stub + chain:
        _, cnbw = walk_counts(g, 3)
        assert cnbw[1] % 4 == 0 and cnbw[2] % 6 == 0
        assert cycle_count_vector(g, 3) == [cnbw[1] // 4, cnbw[2] // 6]


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


def test_negative_seed_is_refused_before_the_first_trial(monkeypatch):
    # with two workers the first trial_rng call would run in a forked child
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
    monkeypatch.setattr(experiments, "trial_rng", lambda *args: pytest.fail("drew a trial stream"))
    config = {"experiment": "poisson", "seed": -1,
              "params": {"n": 40, "m": 40, "d1": 2, "d2": 2, "r": 2, "samples": 4}}
    with pytest.raises(MalformedInput, match=r"^config key 'seed' must be >= 0, got -1$"):
        run_experiment(config)


# each experiment's smallest valid run, as a config, and the calls that run it directly
GATE_CONFIGS = {
    "poisson": {"n": 30, "m": 30, "d1": 3, "d2": 3, "r": 2, "samples": 4},
    "fluctuation-fixed": {"n": 30, "d1": 3, "d2": 3, "expansion": "gamma_3", "samples": 4},
    "fluctuation-growing": {"n": 30, "d1": 3, "d2": 3, "expansions": ["phi_2"], "samples": 4},
    "globallaw": {"n": 30, "d1": 3, "d2": 3, "model": "semicircle", "samples": 4},
}
GATE_DIRECT = {
    "poisson": lambda p, seed: poisson_experiment(seed=seed, **p),
    "fluctuation-fixed": lambda p, seed: fluctuation_experiment_fixed(
        seed=seed, **dict(p, expansion=basis_element("gamma", 3, p["d1"]))),
    "fluctuation-growing": lambda p, seed: fluctuation_experiment_growing(
        seed=seed, **dict(p, expansions=[basis_element("phi", 2)])),
    "globallaw": lambda p, seed: globallaw_experiment(seed=seed, **p),
}
# (params changed, seed, error type, message); d1 = d2 = 40 at n = 30 makes m = 30 < d1
GATE_INPUTS = {
    "samples-zero": ({"samples": 0}, 1, MalformedInput, "params key 'samples' must be >= 1, got 0"),
    "seed-negative": ({}, -1, MalformedInput, "config key 'seed' must be >= 0, got -1"),
    "method-unknown": ({"method": "bogus"}, 1, MalformedInput, "sampler key 'method'"),
    "d1-above-m": ({"d1": 40, "d2": 40}, 1, ValueError, "no simple graph exists"),
}


@pytest.mark.parametrize("via", ["config", "call"])
@pytest.mark.parametrize("inputs", GATE_INPUTS)
@pytest.mark.parametrize("name", GATE_CONFIGS)
def test_a_bad_run_is_refused_before_any_worker_forks(monkeypatch, name, inputs, via):
    # with two workers a refusal made inside the forked workers would still
    # raise, so the trial runner and the sampler must not run at all
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
    monkeypatch.setattr(experiments, "_run_trials", lambda *args: pytest.fail("ran trials"))
    monkeypatch.setattr(experiments, "sample_graph", lambda *args: pytest.fail("sampled a graph"))
    change, seed, error, message = GATE_INPUTS[inputs]
    params = dict(GATE_CONFIGS[name], **change)
    with pytest.raises(error, match=message):
        if via == "config":
            run_experiment({"experiment": name, "seed": seed, "params": params})
        else:
            GATE_DIRECT[name](params, seed)


DROP_RUNS = {
    "poisson": lambda: poisson_experiment(30, 30, 3, 3, 3, 3, seed=1),
    "fluctuation-fixed": lambda: fluctuation_experiment_fixed(30, 3, 3, basis_element("gamma", 3, 3), 3, seed=1),
    "fluctuation-growing": lambda: fluctuation_experiment_growing(30, 3, 3, [basis_element("phi", 2)], 3, seed=1),
    "globallaw": lambda: globallaw_experiment(30, 3, 3, 3, "semicircle", seed=1),
    "globallaw-chain": lambda: globallaw_experiment(30, 3, 3, 3, "semicircle", seed=1, method="switch-chain"),
}


@pytest.mark.parametrize(
    "run, workers",
    [pytest.param(run, workers, id=name + ("" if workers == 1 else "-2-workers"))
     for workers in (1, 2) for name, run in DROP_RUNS.items()],
)
def test_each_trial_graph_is_dropped_before_the_next_is_sampled(monkeypatch, run, workers):
    # a graph that outlives its trial pins heap under the next trial's dense
    # Gram build; globallaw at n = 2000 peaked 30 MiB higher that way.  A
    # clock that stands still keeps the trials in process with either worker
    # count, through the same chunk function that forked workers run, and
    # only there can the patched sampler below see the trials.
    monkeypatch.setattr(experiments, "_cpu_count", lambda: workers)
    monkeypatch.setattr(experiments, "perf_counter", lambda: 0.0)
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


def _reports(tmp_path, monkeypatch, config, workers_list):
    """The report bytes of config run with each worker count in turn."""
    reports = []
    for workers in workers_list:
        monkeypatch.setattr(experiments, "_cpu_count", lambda: workers)
        path = tmp_path / f"{workers}.json"
        run_experiment(config).save(path)
        reports.append(path.read_bytes())
        assert multiprocessing.active_children() == []
    return reports


@pytest.mark.usefixtures("always_fork")
@pytest.mark.parametrize("name", WORKER_CONFIGS)
def test_reports_are_byte_identical_for_any_worker_count(tmp_path, monkeypatch, name):
    reports = _reports(tmp_path, monkeypatch, WORKER_CONFIGS[name], (1, 2, 3))
    assert reports[1] == reports[0] and reports[2] == reports[0]


@pytest.mark.usefixtures("always_fork")
@pytest.mark.parametrize("name", WORKER_CONFIGS)
def test_workers_sample_and_only_this_process_eigensolves(monkeypatch, name):
    # LAPACK's eigenvalues depend on its thread count, so no worker may
    # eigensolve.  The trials fork, so this process samples chunk 0, the
    # first samples // 2 of them, and the child samples the rest
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
    assert len(sampled) == p["samples"] // 2
    assert len(solved) == (p["samples"] if eigen else 0)


def _fail_at(trial):
    """A poisson row function that raises on the graph of one trial index."""
    graphs = [sample_graph(30, 30, 3, 3, SamplerConfig(), trial_rng(1, t)) for t in range(4)]

    def row(g, r):
        if g == graphs[trial]:
            raise MalformedInput(f"bad graph at trial {trial}")
        return cycle_count_vector(g, r)

    return row


@pytest.mark.usefixtures("always_fork")
@pytest.mark.parametrize("trial", [0, 3], ids=["in-this-process", "in-the-child"])
def test_a_trial_exception_is_raised_as_with_one_worker(monkeypatch, trial):
    # two workers: trials 0-1 run in this process, 2-3 in one forked child.
    # An exception in either chunk reaches the caller with the type and
    # message it has with one worker, and no child outlives the call
    outcomes = []
    for workers in (1, 2):
        monkeypatch.setattr(experiments, "_cpu_count", lambda: workers)
        monkeypatch.setattr(experiments, "cycle_count_vector", _fail_at(trial))
        with pytest.raises(MalformedInput) as info:
            poisson_experiment(30, 30, 3, 3, 3, 4, seed=1)
        outcomes.append((type(info.value), str(info.value)))
        assert multiprocessing.active_children() == []
    assert outcomes[1] == outcomes[0] == (MalformedInput, f"bad graph at trial {trial}")


def _fork_context_process(monkeypatch, started):
    """Record in started each child the trial runner starts, or fail the test
    at the first one if started is None."""
    ctx = multiprocessing.get_context("fork")
    process = ctx.Process

    def start(*args, **kwargs):
        if started is None:
            pytest.fail("forked a child")
        started.append(1)
        return process(*args, **kwargs)

    monkeypatch.setattr(ctx, "Process", start)


@pytest.mark.parametrize("name", WORKER_CONFIGS)
def test_a_fast_trial_0_forks_nothing(tmp_path, monkeypatch, name):
    # a clock that stands still times trial 0 at 0 s, so no chunk's work
    # reaches the fork cost and two workers run every trial in process
    monkeypatch.setattr(experiments, "perf_counter", lambda: 0.0)
    one = _reports(tmp_path, monkeypatch, WORKER_CONFIGS[name], [1])
    _fork_context_process(monkeypatch, None)
    assert _reports(tmp_path, monkeypatch, WORKER_CONFIGS[name], [2]) == one


def test_a_fast_chunk_runs_in_process_at_the_default_cost(monkeypatch):
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
    _fork_context_process(monkeypatch, None)
    assert list(experiments._run_trials(lambda trials: map(abs, trials), 50)) == list(range(50))


@pytest.mark.parametrize("name", ["poisson", "fixed-walks", "growing-chain"])
def test_a_slow_trial_0_forks_and_the_rows_are_unchanged(tmp_path, monkeypatch, name):
    # a clock that moves 1 s a reading times trial 0 at 1 s, above the cost
    one = _reports(tmp_path, monkeypatch, WORKER_CONFIGS[name], [1])
    clock = itertools.count()
    monkeypatch.setattr(experiments, "perf_counter", lambda: float(next(clock)))
    started = []
    _fork_context_process(monkeypatch, started)
    assert _reports(tmp_path, monkeypatch, WORKER_CONFIGS[name], [2, 3]) == one * 2
    assert started == [1] * 3


@pytest.mark.usefixtures("always_fork")
def test_an_exception_in_trial_0_is_raised_before_any_child_forks(monkeypatch):
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
    monkeypatch.setattr(experiments, "cycle_count_vector", _fail_at(0))
    _fork_context_process(monkeypatch, None)
    with pytest.raises(MalformedInput, match="^bad graph at trial 0$"):
        poisson_experiment(30, 30, 3, 3, 3, 4, seed=1)


def test_the_runner_logs_its_decision_at_debug(monkeypatch, caplog):
    # samples 5 on two workers: chunks [0, 2) and [2, 5); trial 0 takes 4 ms
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
    clock = itertools.count(0.0, 0.004)
    monkeypatch.setattr(experiments, "perf_counter", lambda: next(clock))
    with caplog.at_level(logging.DEBUG, logger="bireg.experiments"):
        assert list(experiments._run_trials(lambda trials: map(abs, trials), 5)) == list(range(5))
    cost = experiments.FORK_COST_S * 1e3
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [(
        logging.DEBUG,
        f"trial 0 took 4.00 ms, so a later chunk's work is about 12.00 ms; fork cost {cost:.2f} ms: 1 process(es)",
    )]


def test_the_runner_writes_nothing_unless_logging_is_configured():
    script = (
        "from bireg import experiments\n"
        "experiments._cpu_count = lambda: 2\n"
        "assert list(experiments._run_trials(lambda trials: map(abs, trials), 5)) == [0, 1, 2, 3, 4]\n"
    )
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_one_sample_statistics_are_nan_without_a_warning():
    # ddof=1 statistics of one sample are nan in every experiment, and none
    # of them may warn on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        growing = fluctuation_experiment_growing(
            30, 3, 3, [basis_element("phi", 2), basis_element("phi", 3)], samples=1, seed=1)
        poisson_experiment(30, 30, 3, 3, 3, 1, seed=1)
        fluctuation_experiment_fixed(30, 3, 3, basis_element("gamma", 3, 3), 1, seed=1)
    spreads = (("Y0", "variance"), ("Y0", "stderr"), ("Y1", "variance"), ("Y1", "stderr"), ("cov_Y0_Y1", "empirical"))
    assert all(math.isnan(growing.statistics[key][field]) for key, field in spreads)

"""Monte-Carlo experiments on the limit laws, with quantitative reports.

Every experiment is deterministic given (parameters, seed): its graphs come
from one stream, ``_trial_graphs``, where trial t samples on
``trial_rng(seed, t)``, and one runner, ``_run_trials``, runs them in this
process or, where trial 0 shows that the work pays for a fork, splits them
between this process and forked workers and joins their rows in trial order,
so a report is the same for any worker count.  Walk-based statistics pair
coefficients with walk counts through ``chebyshev.walk_sum`` and spectral
ones go through ``spectra.linear_statistic``.  Each experiment checks its own
parameters and ``_trial_rows`` those of every run, before any graph is sampled
or worker forks.  Reports carry the seed, the full parameter set, summary
statistics, and the distance diagnostics.
"""

from __future__ import annotations

import inspect
import json
import logging
import math
import multiprocessing
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from itertools import chain
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy import special

from . import chebyshev, spectra, walks
from .chebyshev import ChebExpansion
from .errors import (
    MalformedInput,
    MissingConfigKey,
    WorkerDied,
    check_config_keys,
    check_int,
    check_number,
    check_required_keys,
)
from .graph import check_sizes, v2_size
from .sampler import SamplerConfig, sample_graph, trial_rng
from .walks import cycle_count_vector

log = logging.getLogger(__name__)


def poisson_cycle_mean(k: int, d1: int, d2: int) -> float:
    """mu_k = (d1-1)^k (d2-1)^k / (2k), the limiting mean of C_k."""
    return ((d1 - 1) * (d2 - 1)) ** k / (2 * k)


# the largest mean numpy's Generator.poisson accepts ("lam value too large")
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


def moments(values) -> tuple:
    """(mean, variance, stderr) of values by Welford's streaming update; the
    variance and stderr are nan for fewer than two values."""
    count, mean, m2 = 0, 0.0, 0.0
    for x in values:
        x = float(x)
        count += 1
        delta = x - mean
        mean += delta / count
        m2 += delta * (x - mean)
    if count < 2:
        return mean, float("nan"), float("nan")
    variance = m2 / (count - 1)
    return mean, variance, math.sqrt(variance / count)


# ---------------------------------------------------------------------------
# the Poisson law, by the scipy.special formulas that scipy.stats evaluates
# ---------------------------------------------------------------------------
#
# Importing scipy.stats would double the start-up time and memory of every
# process; the normal CDF is likewise taken from scipy.special.ndtr.


def poisson_pmf(k, mu):
    """Poisson(mu) pmf at integers k >= 0, broadcast over k and mu (mu >= 0)."""
    return np.exp(special.xlogy(k, mu) - special.gammaln(np.add(k, 1)) - mu)


def poisson_ppf(q: float, mu: float) -> int:
    """The least integer v with P(Poisson(mu) <= v) >= q, for 0 < q < 1."""
    v = math.ceil(special.pdtrik(q, mu))
    v1 = max(v - 1, 0)
    return v1 if special.pdtr(v1, mu) >= q else v


# ---------------------------------------------------------------------------
# total-variation estimators (exact w.r.t. the empirical measure)
# ---------------------------------------------------------------------------


def tv_empirical_poisson(values, mu: float) -> float:
    """TV between the empirical law of integer values and Poisson(mu)."""
    vals, counts = np.unique(np.asarray(values, dtype=np.int64), return_counts=True)
    emp = counts / counts.sum()
    pmf = poisson_pmf(vals, mu)
    return float(0.5 * (np.abs(emp - pmf).sum() + 1.0 - pmf.sum()))


def tv_empirical_product_poisson(tuples, mus) -> tuple:
    """TV between the empirical law of count vectors and independent Poissons.

    Returns (tv, lattice_cells, bias_estimate): lattice_cells is the size of
    the product lattice holding >= 99.9% of the product-Poisson mass and
    sqrt(cells/samples) estimates the positive bias of the plug-in TV.
    """
    mus = list(mus)
    counts = Counter(tuple(int(x) for x in t) for t in tuples)
    n = sum(counts.values())
    # one pmf call over every (key, coordinate); the sums below keep the key order
    pmf = poisson_pmf(np.array(list(counts), dtype=np.int64).reshape(len(counts), len(mus)), mus)
    tv = 0.0
    mass = 0.0
    for c, row in zip(counts.values(), pmf.tolist()):
        p = math.prod(row)
        tv += abs(c / n - p)
        mass += p
    tv = 0.5 * (tv + 1.0 - mass)
    per_coord = 0.001 / max(len(mus), 1)
    cells = 1
    for mu in mus:
        cells *= poisson_ppf(1 - per_coord, mu) + 1
    return float(tv), cells, math.sqrt(cells / n)


def tv_two_samples(x, y) -> float:
    """TV between the empirical laws of two samples on a shared discretization.

    Integer-valued data uses integer cells; otherwise a common uniform grid
    with a Freedman-Diaconis-style width.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    both = np.concatenate([x, y])
    if np.allclose(both, np.round(both), atol=1e-9):
        xi, yi = np.round(x).astype(np.int64), np.round(y).astype(np.int64)
    else:
        iqr = np.subtract(*np.percentile(both, [75, 25])) or both.std() or 1.0
        width = 2 * iqr / len(both) ** (1 / 3)
        xi = np.floor(x / width).astype(np.int64)
        yi = np.floor(y / width).astype(np.int64)
    vals = np.union1d(xi, yi)
    px = np.searchsorted(vals, xi)
    py = np.searchsorted(vals, yi)
    hx = np.bincount(px, minlength=len(vals)) / len(xi)
    hy = np.bincount(py, minlength=len(vals)) / len(yi)
    return float(0.5 * np.abs(hx - hy).sum())


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    name: str
    params: dict
    seed: int
    statistics: dict = field(default_factory=dict)
    distances: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        def clean(obj):
            if isinstance(obj, dict):
                return {str(k): clean(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [clean(v) for v in obj]
            if isinstance(obj, np.ndarray):
                return [clean(v) for v in obj.tolist()]
            if isinstance(obj, (np.integer,)):
                return int(obj)
            if isinstance(obj, (np.floating,)):
                return float(obj)
            return obj

        return clean(asdict(self))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def _trial_graphs(n, m, d1, d2, config, seed, trials):
    """The experiments' graphs: trial t samples on trial_rng(seed, t).

    Consume it with map, which drops each graph before the next is sampled.
    A graph that a comprehension variable keeps alive meanwhile pins heap
    under the next dense Gram build: 30 MiB more peak RSS for globallaw at
    n = 2000.
    """
    for t in trials:
        yield sample_graph(n, m, d1, d2, config, trial_rng(seed, t))


def _cpu_count() -> int:
    """The CPUs this process may run on; the trial runner splits the trials
    into min(_cpu_count(), samples) chunks, one per process it may use."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# the least estimated work, in seconds, for which a chunk gets its own forked
# child; see _run_trials
FORK_COST_S = 0.020


def _run_chunk(chunk, trials, conn) -> None:
    """A worker's whole life: run one chunk, send back its rows or its exception."""
    try:
        result = list(chunk(trials)), None
    except Exception as exc:
        result = None, exc
    conn.send(result)
    conn.close()


def _run_trials(chunk, samples):
    """The rows of chunk(range(samples)), in trial order.

    chunk(trials) returns an iterable of one row per trial index.  The trials
    are split into min(_cpu_count(), samples) contiguous chunks; since trial
    t samples on trial_rng(seed, t), the joined rows do not depend on where
    each trial runs.  This process first runs trial 0 and times it.  A later
    chunk's estimated work is that time times its trial count, and the later
    chunks, which differ in length by at most one trial, are forked only if
    the shortest one's work reaches FORK_COST_S.

    A fork costs more than its 3-4 ms start-up: copy-on-write splits the
    shared heap, so both processes take hundreds of page faults a trial, and
    on a 2-vCPU host those serialize.  There, calling this function directly
    with one worker against two (the smaller of two medians of 21 alternated
    calls), (3,3,300) walk trials took 16.7/16.8 ms at 8 trials, 25.6/20.7 ms
    at 12 and 41.4/27.8 ms at 24, and (3,3,300) poisson trials 13.7/13.5 ms
    at 30, 18.8/18.1 ms at 50 and 30.4/21.6 ms at 80.  So a child pays once
    its share passes about 10-15 ms.  FORK_COST_S sits above that, since one
    trial's time is a noisy estimate, and about halfway on a log scale
    between the child's share of a fixed-walks and of a poisson-counts
    benchmark call (about 7.5 and 55 ms).

    Without forks the rows are trial 0's chained with chunk(range(1,
    samples)), which stays lazy, so a caller that maps over them still drops
    each trial's graph before the next is sampled.  With forks this process
    runs the rest of chunk 0, and each later chunk runs in a forked child,
    which sends back its rows (or its exception) through a one-way pipe and
    exits; chunk may be a closure, since nothing of it is pickled.  An
    exception in trial 0 is raised before any child is forked, and one in
    the rest of chunk 0 stops the children and is raised as it is.
    Otherwise every child is joined before the first exception, in trial
    order, is re-raised; a child that exits without sending counts as
    WorkerDied.
    """
    workers = min(_cpu_count(), samples)
    bounds = [samples * w // workers for w in range(workers + 1)]
    start = perf_counter()
    first = list(chunk(range(1)))
    trial_s = perf_counter() - start
    work_s = trial_s * min((hi - lo for lo, hi in zip(bounds[1:], bounds[2:])), default=0)
    forked = workers > 1 and work_s >= FORK_COST_S
    log.debug(
        "trial 0 took %.2f ms, so a later chunk's work is about %.2f ms; fork cost %.2f ms: %d process(es)",
        trial_s * 1e3, work_s * 1e3, FORK_COST_S * 1e3, workers if forked else 1,
    )
    if not forked:
        # iter(first): chain keeps its arguments, and an exhausted list
        # iterator lets go of trial 0's row
        return chain(iter(first), chunk(range(1, samples)))
    # "fork", named because Python 3.14 defaults to "forkserver": a spawned
    # worker would import numpy and scipy again on every call
    ctx = multiprocessing.get_context("fork")
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()  # a child flushes its copy of the buffers on exit
    children = []
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_run_chunk, args=(chunk, range(lo, hi), send))
            children.append((child, recv))
            child.start()
            send.close()
        results = [(first + list(chunk(range(1, bounds[1]))), None)]
        for child, recv in children:
            try:
                results.append(recv.recv())
            except EOFError:
                child.join()
                msg = f"a trial worker exited with code {child.exitcode} before sending its rows"
                results.append((None, WorkerDied(msg)))
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            recv.close()
            child.join()
    for _, exc in results:
        if exc is not None:
            raise exc
    return [row for rows, _ in results for row in rows]


def _trial_rows(name, row, n, m, d1, d2, method, seed, samples, eigensolve=False):
    """[row(g) for the graph g of each trial], in trial order.

    The one gate of a run, which experiment name passes after its own
    checks: a shape with no simple graph, a sample count below 1, a negative
    seed and an unknown method are refused before any graph is sampled or
    worker forks.

    The trials go to _run_trials, which forks workers only where its timing
    of trial 0 says they pay.  Workers run whole trials unless row
    eigensolves.  LAPACK then runs only in this process: OpenBLAS
    eigenvalues depend on its thread count, and eigensolves in two processes
    oversubscribe the cores (the n = 2000 solve went from 0.5 s to 7.3 s).
    So workers only sample, and trial 0 times the sampling alone: the ~1 ms
    stub matching stays in this process, and the switch chain forks.
    """
    check_sizes(n, m, d1, d2)
    for where, key, value, low in ((f"{name} params", "samples", samples, 1), ("config", "seed", seed, 0)):
        check_int(where, key, value)
        check_number(where, key, value, minimum=low)
    config = SamplerConfig(method=method)
    graphs = partial(_trial_graphs, n, m, d1, d2, config, seed)
    if not eigensolve:
        return list(_run_trials(lambda trials: map(row, graphs(trials)), samples))
    return list(map(row, _run_trials(graphs, samples)))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def poisson_experiment(
    n: int,
    m: int,
    d1: int,
    d2: int,
    r: int,
    samples: int,
    seed: int,
    method: str = "auto",
    keep_samples: bool = False,
) -> ExperimentReport:
    """Sample graphs and compare (C_2..C_r) with independent Poissons."""
    if r < 2:
        raise ValueError("r must be >= 2")
    if (d1 - 1) * (d2 - 1) == 0:
        raise MalformedInput(f"(d1, d2) = ({d1}, {d2}) has q = 0, so every Poisson mean mu_k is 0")
    counts = partial(cycle_count_vector, r=r)
    rows = np.array(_trial_rows("poisson", counts, n, m, d1, d2, method, seed, samples), dtype=np.int64)
    mus = [poisson_cycle_mean(k, d1, d2) for k in range(2, r + 1)]
    statistics = {}
    distances = {}
    for idx, k in enumerate(range(2, r + 1)):
        col = rows[:, idx]
        mean, variance, stderr = moments(col)
        statistics[f"C{k}"] = {
            "mean": mean,
            "variance": variance,
            "stderr": stderr,
            "target_mean": mus[idx],
            "dispersion": variance / mus[idx],
        }
        distances[f"tv_C{k}"] = tv_empirical_poisson(col, mus[idx])
    joint_tv, cells, bias = tv_empirical_product_poisson(rows, mus)
    distances["tv_joint"] = joint_tv
    distances["tv_joint_lattice_cells"] = cells
    distances["tv_joint_bias_estimate"] = bias
    report = ExperimentReport(
        name="poisson",
        params={"n": n, "m": m, "d1": d1, "d2": d2, "r": r, "samples": samples, "method": method},
        seed=seed,
        statistics=statistics,
        distances=distances,
    )
    if keep_samples:
        report.samples["cycle_counts"] = rows
    return report


def sample_limit_Yf(expansion: ChebExpansion, d1: int, d2: int, k_max: int, rng) -> float:
    """One draw of the limiting fixed-degree fluctuation.

    Draws independent Poisson cycle counts C_j for j = 2..k_max and assembles
    sum_k a_k q^{-k/2} sum_{j | k, j >= 2} 2j C_j with Gamma-basis a_k.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    exp = expansion.to_gamma(d1, d2)
    cycles = [0] + [rng.poisson(poisson_cycle_mean(j, d1, d2)) for j in range(2, k_max + 1)]
    cnbw = walks.cycle_traversals(cycles)
    return float(chebyshev.walk_sum(exp.coeffs, cnbw, (d1 - 1) * (d2 - 1)))


def fluctuation_experiment_fixed(
    n: int,
    d1: int,
    d2: int,
    expansion: ChebExpansion,
    samples: int,
    seed: int,
    method: str = "auto",
    use_eigenvalues: bool = False,
) -> ExperimentReport:
    """Empirical law of the centered statistic vs the Poisson-built limit law.

    The statistic defaults to the exact walk-count identity (a polynomial
    expansion makes sum f(lambda_i) a rational combination of CNBW counts);
    use_eigenvalues=True computes it from the spectrum instead.  The limit
    draws stop at C_k_max, k_max = max(degree, 2), as walk_sum reads no more.
    """
    if (d1, d2) == (2, 2):
        raise ValueError("(d1, d2) = (2, 2) has no nondegenerate fixed-degree limit")
    m = v2_size(n, d1, d2)
    exp = expansion.to_gamma(d1, d2)
    deg = exp.degree  # a constant-only expansion yields Y identically 0
    k_max = max(deg, 2)
    for j in range(2, k_max + 1):
        mu = poisson_cycle_mean(j, d1, d2)
        if mu > POISSON_LAM_MAX:
            raise MalformedInput(
                f"k_max={k_max} is too large for (d1, d2) = ({d1}, {d2}): the limit draw "
                f"needs Poisson(mu_{j}) with mu_{j} = {mu:.4g}, above numpy's limit {POISSON_LAM_MAX:.4g}"
            )
    q = (d1 - 1) * (d2 - 1)

    def statistic(g):
        if use_eigenvalues:
            return spectra.fluctuation_fixed(spectra.eigenvalues(g), exp)
        return chebyshev.walk_sum(exp.coeffs, walks.cnbw_counts_up_to(g, deg), q)

    ys = _trial_rows("fluctuation-fixed", statistic, n, m, d1, d2, method, seed, samples, eigensolve=use_eigenvalues)
    ys = np.array(ys, dtype=float)
    limit_rng_base = samples  # separate stream indices for the limit draws
    limit = np.array(
        [sample_limit_Yf(exp, d1, d2, k_max, trial_rng(seed, limit_rng_base + t)) for t in range(samples)],
        dtype=float,
    )
    mus = [chebyshev.mu_cnbw(k, d1, d2) for k in range(1, deg + 1)]
    mean_limit = chebyshev.walk_sum(exp.coeffs, mus, q)
    mean, variance, stderr = moments(ys)
    limit_mean, limit_variance, _ = moments(limit)
    return ExperimentReport(
        name="fluctuation-fixed",
        params={
            "n": n, "m": m, "d1": d1, "d2": d2, "samples": samples,
            "expansion": exp.to_dict(), "k_max": k_max, "method": method,
            "use_eigenvalues": use_eigenvalues,
        },
        seed=seed,
        statistics={
            "Y": {"mean": mean, "variance": variance, "stderr": stderr},
            "Y_limit": {"mean": limit_mean, "variance": limit_variance, "analytic_mean": mean_limit},
        },
        distances={"tv_vs_limit": tv_two_samples(ys, limit)},
        samples={"Y": ys, "Y_limit": limit},
    )


def fluctuation_experiment_growing(
    n: int,
    d1: int,
    d2: int,
    expansions: list,
    samples: int,
    seed: int,
    r_n: int | None = None,
    method: str = "auto",
) -> ExperimentReport:
    """Gaussian check for growing degrees: means, variances, covariances, KS.
    The report keeps the samples."""
    m = v2_size(n, d1, d2)
    if r_n is not None and r_n < 0:
        raise MalformedInput(f"fluctuation-growing params key 'r_n' must be >= 0, got {r_n}")
    exps = [e.to_phi() for e in expansions]

    def statistics_of(g):
        sample = spectra.eigenvalues(g)
        return [spectra.fluctuation_growing(sample, e, r_n) for e in exps]

    ys = _trial_rows("fluctuation-growing", statistics_of, n, m, d1, d2, method, seed, samples, eigensolve=True)
    ys = np.array(ys, dtype=float)
    statistics = {}
    distances = {}
    # one sample has no ddof=1 spread: nan, as from moments(), and no numpy warning
    for i, e in enumerate(exps):
        target = chebyshev.sigma_f(e)
        col = ys[:, i]
        statistics[f"Y{i}"] = {
            "mean": float(col.mean()),
            "variance": float(col.var(ddof=1)) if samples > 1 else math.nan,
            "target_variance": target,
            "stderr": float(col.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.nan,
        }
        if target > 0:
            distances[f"ks_gaussian_Y{i}"] = spectra.ks_statistic(
                col, lambda x, s=math.sqrt(target): special.ndtr(np.asarray(x) / s)
            )
    for i in range(len(exps)):
        for j in range(i + 1, len(exps)):
            emp = float(np.cov(ys[:, i], ys[:, j], ddof=1)[0, 1]) if samples > 1 else math.nan
            statistics[f"cov_Y{i}_Y{j}"] = {
                "empirical": emp,
                "target": chebyshev.cov_fg(exps[i], exps[j]),
            }
    ratio = d1 / d2
    note = (
        f"d1/d2 = {ratio:g}, d2 = {d2}: the Gaussian limit requires the ratio "
        "or d2 to stay bounded along the sequence"
    )
    return ExperimentReport(
        name="fluctuation-growing",
        params={
            "n": n, "m": m, "d1": d1, "d2": d2, "samples": samples,
            "expansions": [e.to_dict() for e in exps], "r_n": r_n, "method": method,
        },
        seed=seed,
        statistics=statistics,
        distances=distances,
        samples={"Y": ys},
        notes=[note],
    )


def globallaw_experiment(
    n: int,
    d1: int,
    d2: int,
    samples: int,
    model: str,
    seed: int,
    params: dict | None = None,
    method: str = "auto",
) -> ExperimentReport:
    """Bulk Kolmogorov-Smirnov distance to a reference density, per sample."""
    m = v2_size(n, d1, d2)
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise MalformedInput(f"globallaw params key 'params' must be a JSON object, got {params!r}")
    if model == "fixed-degree" and not params:
        params = {"d1": d1, "d2": d2}
    spectra.check_law(model, params, "globallaw")

    def row(g):
        sample = spectra.eigenvalues(g)
        return (
            spectra.esd_distance(sample, model, params),
            spectra.spectral_edge_deviation(sample),
            abs(sample.eigenvalues[0] - sample.top_exact),
        )

    rows = _trial_rows("globallaw", row, n, m, d1, d2, method, seed, samples, eigensolve=True)
    ks = np.array([r[0] for r in rows])
    edge = np.array([r[1] for r in rows])
    top = np.array([r[2] for r in rows])
    return ExperimentReport(
        name="globallaw",
        params={
            "n": n, "m": m, "d1": d1, "d2": d2, "samples": samples,
            "model": model, "model_params": params, "method": method,
        },
        seed=seed,
        statistics={
            "ks": {"mean": float(ks.mean()), "max": float(ks.max())},
            "edge_deviation": {"mean": float(edge.mean()), "max": float(edge.max())},
            "top_eigenvalue_error": {"max": float(top.max())},
        },
        distances={"ks_mean": float(ks.mean()), "ks_max": float(ks.max())},
    )


# ---------------------------------------------------------------------------
# config-file entry point
# ---------------------------------------------------------------------------


EXPERIMENTS = {
    "poisson": poisson_experiment,
    "fluctuation-fixed": fluctuation_experiment_fixed,
    "fluctuation-growing": fluctuation_experiment_growing,
    "globallaw": globallaw_experiment,
}


def run_experiment(config: dict) -> ExperimentReport:
    """Dispatch a config dict: {"experiment": name, "seed": s, "params": {...}},
    with an optional "output" path that the command line writes the report to."""
    if not isinstance(config, dict) or "experiment" not in config:
        raise MissingConfigKey(f"config has no 'experiment' key; experiments: {', '.join(EXPERIMENTS)}")
    check_config_keys("config", config, {"experiment", "seed", "params", "output"})
    if "output" in config and not isinstance(config["output"], str):
        raise MalformedInput(f"config key 'output' must be a file path string, got {config['output']!r}")
    name = config["experiment"]
    seed = config.get("seed", 0)
    check_int("config", "seed", seed)
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise MalformedInput(f"config key 'params' must be a JSON object, got {params!r}")
    params = dict(params)
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    fn = EXPERIMENTS[name]
    # the seed is a top-level config key, not a parameter
    signature = inspect.signature(fn).parameters
    check_config_keys(f"{name} params", params, set(signature) - {"seed"})
    required = [key for key, p in signature.items() if p.default is p.empty and key != "seed"]
    check_required_keys(f"{name} params", params, required)
    for key, value in params.items():
        # annotations are strings under `from __future__ import annotations`
        if signature[key].annotation in ("int", "int | None"):
            check_int(f"{name} params", key, value, allow_none=signature[key].annotation != "int")
        if signature[key].annotation == "bool" and not isinstance(value, bool):
            raise MalformedInput(f"{name} params key {key!r} must be true or false, got {value!r}")
    if name == "fluctuation-fixed":
        params["expansion"] = _expansion_from_config(name, "expansion", params["expansion"], params["d1"], params["d2"])
    if name == "fluctuation-growing":
        specs = params["expansions"]
        if not isinstance(specs, list) or not specs:
            raise MalformedInput(f"{name} params key 'expansions' must be a non-empty list, got {specs!r}")
        params["expansions"] = [
            _expansion_from_config(name, "expansions", e, params["d1"], params["d2"]) for e in specs
        ]
    return fn(seed=seed, **params)


def _expansion_from_config(name, key, spec, d1, d2):
    """The expansion a config gives as a ChebExpansion.to_dict object or as a
    builtin function name (see chebyshev.builtin_function)."""
    if isinstance(spec, dict):
        return ChebExpansion.from_dict(spec)
    if not isinstance(spec, str):
        raise MalformedInput(f"{name} params key {key!r} must be a function name or an object, got {spec!r}")
    try:
        f = chebyshev.builtin_function(spec, d1, d2)
    except ValueError as exc:
        raise MalformedInput(f"{name} params key {key!r} = {spec!r}: {exc}") from exc
    if isinstance(f, ChebExpansion):
        return f
    return _fitted_builtin(spec, d1, d2)


@lru_cache(maxsize=64)
def _fitted_builtin(spec: str, d1: int, d2: int) -> ChebExpansion:
    """The builtin function spec fitted in the Phi basis, once per (spec, d1, d2)
    in a process while it stays among the 64 latest; ChebExpansion is frozen,
    so the runs can share it.  The bound keeps a process that runs many
    distinct "poly:..." specs from holding every fit."""
    return chebyshev.fit_expansion(chebyshev.builtin_function(spec, d1, d2), basis="phi", d1=d1, d2=d2)

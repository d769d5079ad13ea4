"""Monte-Carlo experiments on the limit laws, with quantitative reports.

Every experiment is deterministic given (parameters, seed): its graphs come
from one stream, ``_trial_graphs``, where trial t samples on
``trial_rng(seed, t)``, and trials run in order.  Walk-based statistics pair
coefficients with walk counts through ``chebyshev.walk_sum`` and spectral
ones go through ``spectra.linear_statistic``.  Parameters are checked before
the first graph is sampled.  Reports carry the seed, the full parameter set,
summary statistics, and the distance diagnostics.
"""

from __future__ import annotations

import inspect
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
from scipy import stats

from . import chebyshev, spectra, walks
from .chebyshev import ChebExpansion
from .errors import MalformedInput, MissingConfigKey, check_config_keys, check_int, check_number
from .graph import BiregularGraph, gram_shifted_sparse
from .sampler import SamplerConfig, sample_graph, trial_rng


def poisson_cycle_mean(k: int, d1: int, d2: int) -> float:
    """mu_k = (d1-1)^k (d2-1)^k / (2k), the limiting mean of C_k."""
    return ((d1 - 1) * (d2 - 1)) ** k / (2 * k)


# the largest mean numpy's Generator.poisson accepts ("lam value too large")
POISSON_LAM_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


# ---------------------------------------------------------------------------
# streaming moments
# ---------------------------------------------------------------------------


@dataclass
class Moments:
    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    @classmethod
    def of(cls, values) -> "Moments":
        mom = cls()
        for x in values:
            mom.add(float(x))
        return mom

    @property
    def variance(self) -> float:
        return self.m2 / (self.count - 1) if self.count > 1 else float("nan")

    @property
    def stderr(self) -> float:
        return math.sqrt(self.variance / self.count) if self.count > 1 else float("nan")


# ---------------------------------------------------------------------------
# total-variation estimators (exact w.r.t. the empirical measure)
# ---------------------------------------------------------------------------


def tv_empirical_poisson(values, mu: float) -> float:
    """TV between the empirical law of integer values and Poisson(mu)."""
    vals, counts = np.unique(np.asarray(values, dtype=np.int64), return_counts=True)
    emp = counts / counts.sum()
    pmf = stats.poisson.pmf(vals, mu)
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
    tv = 0.0
    mass = 0.0
    for key, c in counts.items():
        p = math.prod(stats.poisson.pmf(key[i], mus[i]) for i in range(len(mus)))
        tv += abs(c / n - p)
        mass += p
    tv = 0.5 * (tv + 1.0 - mass)
    per_coord = 0.001 / max(len(mus), 1)
    cells = 1
    for mu in mus:
        cells *= int(stats.poisson.ppf(1 - per_coord, mu)) + 1
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
# fast cycle counting for sampled graphs
# ---------------------------------------------------------------------------


def cycle_count_vector(g: BiregularGraph, r: int) -> list:
    """[C_2, ..., C_r]; closed-form trace counts for k <= 3, DFS beyond.

    C_2 = sum_{i<l} C(codeg, 2); 6*C_3 = tr(A1^3) - 3(d2-2)(tr(P^2) - m d1 d2)
    + 2 m d2(d2-1)(d2-2) with P = XX^T, A1 = P - d1 I (mediator-coincidence
    inclusion-exclusion; cross-validated against the DFS enumerator).  Both
    come from the sparse A1 in exact integer arithmetic.
    """
    out = []
    if r >= 2:
        # int64 sums are exact: at most n*d1*d2 co-degrees, each at most d1
        a1 = gram_shifted_sparse(g)
        codeg = a1.data
        out.append(int((codeg * (codeg - 1)).sum()) // 4)
    if r >= 3:
        n, m, d1, d2 = g.n, g.m, g.d1, g.d2
        tr_a1_cubed = int((a1 @ a1).multiply(a1).sum())
        # tr(P^2) = tr(A1^2) + n d1^2, and tr(A1^2) = sum of squared entries
        tr_p2 = int((codeg * codeg).sum()) + n * d1 * d1
        s_sum = tr_p2 - m * d1 * d2
        out.append((tr_a1_cubed - 3 * (d2 - 2) * s_sum + 2 * m * d2 * (d2 - 1) * (d2 - 2)) // 6)
    for k in range(4, r + 1):
        out.append(walks.count_cycles(g, k))
    return out


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


def _infer_m(n, d1, d2):
    if (n * d1) % d2:
        raise ValueError(f"n*d1 = {n * d1} not divisible by d2 = {d2}")
    return n * d1 // d2


def _trial_graphs(n, m, d1, d2, method, seed, samples):
    """The experiments' graphs: trial t samples on trial_rng(seed, t).

    Consume it with map, which drops each graph before the next is sampled.
    A graph that a comprehension variable keeps alive meanwhile pins heap
    under the next dense Gram build: 30 MiB more peak RSS for globallaw at
    n = 2000.
    """
    config = SamplerConfig(method=method, seed=seed)
    for t in range(samples):
        yield sample_graph(n, m, d1, d2, config, trial_rng(seed, t))


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
    graphs = _trial_graphs(n, m, d1, d2, method, seed, samples)
    rows = np.array(list(map(partial(cycle_count_vector, r=r), graphs)), dtype=np.int64)
    mus = [poisson_cycle_mean(k, d1, d2) for k in range(2, r + 1)]
    statistics = {}
    distances = {}
    for idx, k in enumerate(range(2, r + 1)):
        col = rows[:, idx]
        mom = Moments.of(col)
        statistics[f"C{k}"] = {
            "mean": mom.mean,
            "variance": mom.variance,
            "stderr": mom.stderr,
            "target_mean": mus[idx],
            "dispersion": mom.variance / mus[idx],
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
    cs = {j: rng.poisson(poisson_cycle_mean(j, d1, d2)) for j in range(2, k_max + 1)}
    cnbw = [sum(2 * j * cs[j] for j in range(2, k + 1) if k % j == 0) for k in range(1, k_max + 1)]
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
    k_max: int | None = None,
    keep_samples: bool = True,
) -> ExperimentReport:
    """Empirical law of the centered statistic vs the Poisson-built limit law.

    The statistic defaults to the exact walk-count identity (a polynomial
    expansion makes sum f(lambda_i) a rational combination of CNBW counts);
    use_eigenvalues=True computes it from the spectrum instead.
    """
    if (d1, d2) == (2, 2):
        raise ValueError("(d1, d2) = (2, 2) has no nondegenerate fixed-degree limit")
    m = _infer_m(n, d1, d2)
    exp = expansion.to_gamma(d1, d2)
    deg = exp.degree  # a constant-only expansion yields Y identically 0
    if k_max is None:
        k_max = max(deg, 2)
    if k_max < 2:
        raise MalformedInput(f"fluctuation-fixed params key 'k_max' must be >= 2, got {k_max}")
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

    graphs = _trial_graphs(n, m, d1, d2, method, seed, samples)
    ys = np.array(list(map(statistic, graphs)), dtype=float)
    limit_rng_base = samples  # separate stream indices for the limit draws
    limit = np.array(
        [sample_limit_Yf(exp, d1, d2, k_max, trial_rng(seed, limit_rng_base + t)) for t in range(samples)],
        dtype=float,
    )
    mus = [chebyshev.mu_cnbw(k, d1, d2) for k in range(1, deg + 1)]
    mean_limit = chebyshev.walk_sum(exp.coeffs, mus, q)
    mom, lm = Moments.of(ys), Moments.of(limit)
    report = ExperimentReport(
        name="fluctuation-fixed",
        params={
            "n": n, "m": m, "d1": d1, "d2": d2, "samples": samples,
            "expansion": exp.to_dict(), "k_max": k_max, "method": method,
            "use_eigenvalues": use_eigenvalues,
        },
        seed=seed,
        statistics={
            "Y": {"mean": mom.mean, "variance": mom.variance, "stderr": mom.stderr},
            "Y_limit": {"mean": lm.mean, "variance": lm.variance, "analytic_mean": mean_limit},
        },
        distances={"tv_vs_limit": tv_two_samples(ys, limit)},
    )
    if keep_samples:
        report.samples["Y"] = ys
        report.samples["Y_limit"] = limit
    return report


def fluctuation_experiment_growing(
    n: int,
    d1: int,
    d2: int,
    expansions: list,
    samples: int,
    seed: int,
    r_n: int | None = None,
    method: str = "auto",
    keep_samples: bool = True,
) -> ExperimentReport:
    """Gaussian check for growing degrees: means, variances, covariances, KS."""
    m = _infer_m(n, d1, d2)
    if r_n is not None and r_n < 0:
        raise MalformedInput(f"fluctuation-growing params key 'r_n' must be >= 0, got {r_n}")
    exps = [e.to_phi() for e in expansions]

    def statistics_of(g):
        sample = spectra.eigenvalues(g)
        return [spectra.fluctuation_growing(sample, e, r_n) for e in exps]

    graphs = _trial_graphs(n, m, d1, d2, method, seed, samples)
    ys = np.array(list(map(statistics_of, graphs)), dtype=float)
    statistics = {}
    distances = {}
    for i, e in enumerate(exps):
        target = chebyshev.sigma_f(e)
        col = ys[:, i]
        statistics[f"Y{i}"] = {
            "mean": float(col.mean()),
            "variance": float(col.var(ddof=1)),
            "target_variance": target,
            "stderr": float(col.std(ddof=1) / math.sqrt(samples)),
        }
        if target > 0:
            distances[f"ks_gaussian_Y{i}"] = spectra.ks_statistic(
                col, lambda x, s=math.sqrt(target): stats.norm.cdf(np.asarray(x) / s)
            )
    for i in range(len(exps)):
        for j in range(i + 1, len(exps)):
            emp = float(np.cov(ys[:, i], ys[:, j], ddof=1)[0, 1])
            statistics[f"cov_Y{i}_Y{j}"] = {
                "empirical": emp,
                "target": chebyshev.cov_fg(exps[i], exps[j]),
            }
    ratio = d1 / d2
    note = (
        f"d1/d2 = {ratio:g}, d2 = {d2}: the Gaussian limit requires the ratio "
        "or d2 to stay bounded along the sequence"
    )
    report = ExperimentReport(
        name="fluctuation-growing",
        params={
            "n": n, "m": m, "d1": d1, "d2": d2, "samples": samples,
            "expansions": [e.to_dict() for e in exps], "r_n": r_n, "method": method,
        },
        seed=seed,
        statistics=statistics,
        distances=distances,
        notes=[note],
    )
    if keep_samples:
        report.samples["Y"] = ys
    return report


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
    m = _infer_m(n, d1, d2)
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise MalformedInput(f"globallaw params key 'params' must be a JSON object, got {params!r}")
    if model == "fixed-degree" and not params:
        params = {"d1": d1, "d2": d2}
    if model not in spectra.MODEL_PARAMS:
        raise MalformedInput(
            f"globallaw params key 'model' must be one of {', '.join(spectra.MODEL_PARAMS)}, got {model!r}"
        )
    check_config_keys(f"globallaw {model} params", params, set(spectra.MODEL_PARAMS[model]))
    missing = [key for key in spectra.MODEL_PARAMS[model] if key not in params]
    if missing:
        raise MalformedInput(
            f"globallaw params key 'params' lacks {', '.join(map(repr, missing))}, "
            f"which the {model} model needs"
        )
    for key, value in params.items():
        # shifted-mp needs alpha >= 1, and fixed-degree integer degrees with q = (d1-1)(d2-1) >= 1
        if model == "fixed-degree":
            check_int(f"globallaw {model} params", key, value)
        check_number(f"globallaw {model} params", key, value, minimum=1 if key == "alpha" else 2)

    def row(g):
        sample = spectra.eigenvalues(g)
        return (
            spectra.esd_distance(sample, model, params),
            spectra.spectral_edge_deviation(sample),
            abs(sample.eigenvalues[0] - sample.top_exact),
        )

    rows = list(map(row, _trial_graphs(n, m, d1, d2, method, seed, samples)))
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
    """Dispatch a config dict: {"experiment": name, "seed": s, "params": {...}}."""
    if not isinstance(config, dict) or "experiment" not in config:
        raise MissingConfigKey(f"config has no 'experiment' key; experiments: {', '.join(EXPERIMENTS)}")
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
    missing = [
        key for key, p in signature.items()
        if p.default is p.empty and key != "seed" and key not in params
    ]
    if missing:
        raise MissingConfigKey(f"missing key(s) {', '.join(map(repr, missing))} in {name} params")
    for key, value in params.items():
        # annotations are strings under `from __future__ import annotations`
        if signature[key].annotation in ("int", "int | None"):
            check_int(f"{name} params", key, value, allow_none=signature[key].annotation != "int")
        if signature[key].annotation == "bool" and not isinstance(value, bool):
            raise MalformedInput(f"{name} params key {key!r} must be true or false, got {value!r}")
    if params["samples"] < 1:
        raise MalformedInput(f"{name} params key 'samples' must be >= 1, got {params['samples']}")
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
    return chebyshev.fit_expansion(f, basis="phi", d1=d1, d2=d2)

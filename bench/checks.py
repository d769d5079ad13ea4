"""Correctness checks on `bireg experiment` reports.

Every check compares a report with a computation made apart from the code
path that produced it, or with a property the method must have; none
compares with stored output.  Graphs of checked trials are regenerated the
way the experiments draw them: `trial_rng(seed, t)` + `sample_graph`.

Each check returns a list of failure messages; an empty list means the
report passed.
"""

from __future__ import annotations

import math

import numpy as np

from bireg import spectra, walks
from bireg.chebyshev import ChebExpansion
from bireg.sampler import SamplerConfig, sample_graph, trial_rng

Y_RTOL = 1e-9  # trace identity, relative to max(1, |Y|)
PHI2_RTOL = 1e-10  # Phi_2 differences, relative to the Frobenius terms
MEAN_Z = 5.0  # means within this many standard errors
TOP_ERROR_MAX = 1e-9
KS_MEAN_MAX = 0.05
EDGE_DEVIATION_MAX = 2.1


def checked_trials(samples: int) -> list:
    """The trials whose graphs are regenerated: the first and the last."""
    return sorted({0, samples - 1})


def regenerate(config: dict, t: int):
    """The graph of trial t of the run that `config` describes."""
    p = config["params"]
    n, d1, d2 = p["n"], p["d1"], p["d2"]
    m = p.get("m", n * d1 // d2)
    sampler = SamplerConfig(method=p.get("method", "auto"), seed=config["seed"])
    return sample_graph(n, m, d1, d2, sampler, trial_rng(config["seed"], t))


def _shape_failures(g, p) -> list:
    """Simplicity and biregularity by the benchmark's own count."""
    edges = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
    n, d1, d2 = p["n"], p["d1"], p["d2"]
    m = p.get("m", n * d1 // d2)
    out = []
    if len({(int(i), int(j)) for i, j in edges}) != len(edges):
        out.append("sampled graph has a repeated edge")
    if edges.size and (edges[:, 0].min() < 0 or edges[:, 0].max() >= n
                       or edges[:, 1].min() < 0 or edges[:, 1].max() >= m):
        out.append("sampled graph has an edge out of range")
        return out
    if np.any(np.bincount(edges[:, 0], minlength=n) != d1):
        out.append(f"a V1 degree differs from d1={d1}")
    if np.any(np.bincount(edges[:, 1], minlength=m) != d2):
        out.append(f"a V2 degree differs from d2={d2}")
    return out


def _codegrees(g) -> np.ndarray:
    """Off-diagonal co-degree matrix of V1, built from the edge list."""
    x = np.zeros((g.n, g.m))
    edges = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
    x[edges[:, 0], edges[:, 1]] = 1.0
    c = x @ x.T  # exact: entries are small integers
    np.fill_diagonal(c, 0.0)
    return c


def _header_failures(config: dict, report: dict, name: str) -> list:
    out = []
    if report.get("name") != name:
        out.append(f"report name {report.get('name')!r} != {name!r}")
    if report.get("seed") != config["seed"]:
        out.append(f"report seed {report.get('seed')} != config seed {config['seed']}")
    if report.get("params", {}).get("samples") != config["params"]["samples"]:
        out.append("report sample count differs from the config")
    return out


def check_poisson(config: dict, report: dict) -> list:
    """Cycle counts of checked trials, and means against q^k / (2k)."""
    out = _header_failures(config, report, "poisson")
    p = config["params"]
    rows = np.asarray(report["samples"]["cycle_counts"], dtype=np.int64)
    if rows.shape != (p["samples"], p["r"] - 1):
        return out + [f"cycle_counts has shape {rows.shape}"]
    for t in checked_trials(p["samples"]):
        g = regenerate(config, t)
        out += [f"trial {t}: {msg}" for msg in _shape_failures(g, p)]
        c = _codegrees(g)
        c2 = int(round((c * (c - 1)).sum() / 4))
        c3 = walks.count_cycles(g, 3)  # DFS oracle, apart from cycle_count_vector
        if (c2, c3) != (int(rows[t, 0]), int(rows[t, 1])):
            out.append(f"trial {t}: (C2, C3) = {(c2, c3)}, report has {tuple(rows[t, :2])}")
    q = (p["d1"] - 1) * (p["d2"] - 1)
    for idx, k in enumerate(range(2, p["r"] + 1)):
        col = rows[:, idx].astype(float)
        stat = report["statistics"][f"C{k}"]
        if not math.isclose(stat["mean"], col.mean(), rel_tol=1e-12, abs_tol=1e-12):
            out.append(f"C{k} mean {stat['mean']} is not the mean of the samples {col.mean()}")
        se = col.std(ddof=1) / math.sqrt(len(col))
        target = q**k / (2 * k)
        if not abs(col.mean() - target) <= MEAN_Z * se:
            out.append(f"C{k} mean {col.mean():.4f} is not within {MEAN_Z} SE ({se:.4f}) of {target}")
    return out


def _limit_variance(f: ChebExpansion, d1: int, d2: int, k_max: int) -> float:
    """Variance of the fixed-degree limit sum_k a_k q^{-k/2} sum_{j | k, j >= 2} 2j C_j,
    with independent C_j ~ Poisson(q^j / (2j)) and Gamma-basis a_k."""
    g = f.to_gamma(d1)
    q = (d1 - 1) * (d2 - 1)
    top = min(g.degree, k_max)
    var = 0.0
    for j in range(2, top + 1):
        w = 2 * j * sum(g.coefficient(k) / q ** (k / 2) for k in range(j, top + 1, j))
        var += w * w * q**j / (2 * j)
    return var


def check_fluctuation_fixed(config: dict, report: dict) -> list:
    """Trace identity on checked trials; the limit draws against the analytic mean."""
    out = _header_failures(config, report, "fluctuation-fixed")
    p = config["params"]
    ys = np.asarray(report["samples"]["Y"], dtype=float)
    limit = np.asarray(report["samples"]["Y_limit"], dtype=float)
    if ys.shape != (p["samples"],) or limit.shape != (p["samples"],):
        return out + [f"Y / Y_limit have shapes {ys.shape} / {limit.shape}"]
    f = ChebExpansion.from_dict(report["params"]["expansion"])
    for t in checked_trials(p["samples"]):
        g = regenerate(config, t)
        out += [f"trial {t}: {msg}" for msg in _shape_failures(g, p)]
        y_eig = spectra.fluctuation_fixed(spectra.eigenvalues(g), f)
        if not abs(ys[t] - y_eig) <= Y_RTOL * max(1.0, abs(y_eig)):
            out.append(f"trial {t}: Y = {ys[t]!r} but the eigenvalue sum gives {y_eig!r}")
    analytic = report["statistics"]["Y_limit"]["analytic_mean"]
    # the known variance, not the sample one: with 8 draws a t-statistic
    # passes 5 now and then by chance
    se = math.sqrt(_limit_variance(f, p["d1"], p["d2"], report["params"]["k_max"]) / len(limit))
    if not abs(limit.mean() - analytic) <= MEAN_Z * se:
        out.append(f"Y_limit mean {limit.mean():.4f} is not within {MEAN_Z} SE ({se:.4f}) of {analytic}")
    return out


def check_fluctuation_growing(config: dict, report: dict) -> list:
    """Differences of the Phi_2 statistic against ||XX^T - d1 I||_F^2 / q.

    Sum Phi_2(x_i) = sum x_i^2 - 2n, and sum x_i^2 equals ||XX^T - d1 I||_F^2 / q
    for the raw eigenvalues and, since the Gram diagonal is zero, up to a
    constant for the recentred ones too; the centring is the same constant
    in every trial, so differences between trials cancel it.
    """
    out = _header_failures(config, report, "fluctuation-growing")
    p = config["params"]
    ys = np.asarray(report["samples"]["Y"], dtype=float)
    if ys.shape != (p["samples"], len(p["expansions"])):
        return out + [f"Y has shape {ys.shape}"]
    if p["expansions"][0] != "phi_2":
        return out + ["the first expansion must be phi_2"]
    q = (p["d1"] - 1) * (p["d2"] - 1)
    frob = {}
    for t in checked_trials(p["samples"]):
        g = regenerate(config, t)
        out += [f"trial {t}: {msg}" for msg in _shape_failures(g, p)]
        c = _codegrees(g)
        frob[t] = float((c * c).sum()) / q
    first, *rest = sorted(frob)
    for t in rest:
        expected = frob[t] - frob[first]
        got = ys[t, 0] - ys[first, 0]
        if not abs(got - expected) <= PHI2_RTOL * (frob[t] + frob[first]):
            out.append(f"trials {first},{t}: Y0 difference {got!r} != {expected!r}")
    for i in range(ys.shape[1]):
        stat = report["statistics"][f"Y{i}"]
        if not math.isclose(stat["mean"], ys[:, i].mean(), rel_tol=1e-9, abs_tol=1e-9):
            out.append(f"Y{i} mean {stat['mean']} is not the mean of the samples")
    return out


def check_globallaw(config: dict, report: dict) -> list:
    """Exact top eigenvalue, bulk KS distance and spectral edge."""
    out = _header_failures(config, report, "globallaw")
    s = report["statistics"]
    top = s["top_eigenvalue_error"]["max"]
    if not top <= TOP_ERROR_MAX:
        out.append(f"top eigenvalue error {top} > {TOP_ERROR_MAX}")
    ks = report["distances"]["ks_mean"]
    if not ks <= KS_MEAN_MAX:
        out.append(f"ks_mean {ks} > {KS_MEAN_MAX}")
    edge = s["edge_deviation"]["max"]
    if not edge <= EDGE_DEVIATION_MAX:
        out.append(f"edge deviation {edge} > {EDGE_DEVIATION_MAX}")
    return out


CHECKS = {
    "poisson": check_poisson,
    "fluctuation-fixed": check_fluctuation_fixed,
    "fluctuation-growing": check_fluctuation_growing,
    "globallaw": check_globallaw,
}


def check_report(config: dict, report: dict) -> list:
    return CHECKS[config["experiment"]](config, report)

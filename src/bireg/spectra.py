"""Eigenvalues of the scaled Gram matrix, linear statistics, reference laws.

Reference bulk densities (all supported on [-2, 2] in their natural
variable):

* ``semicircle`` -- sqrt(4 - x^2) / (2 pi), the law of the scaled Gram bulk
  when d1 -> infinity with d1/d2 -> infinity.
* ``fixed-degree`` -- the fixed-(d1, d2) bulk law for the recentered variable
  lambda - (d2-2)/sqrt(q).
* ``shifted-mp`` -- the one-parameter family with ratio parameter alpha >= 1
  (a recentered and rescaled Marchenko-Pastur law; alpha -> infinity
  recovers the semicircle), same recentered variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import chebyshev, walks
from .errors import SolverFailure
from .graph import BiregularGraph, scaled_gram

_CDF_GRID = 1 << 13


@dataclass(frozen=True)
class SpectrumSample:
    """Descending eigenvalues of the scaled Gram matrix plus provenance."""

    eigenvalues: np.ndarray
    n: int
    m: int
    d1: int
    d2: int
    q: int

    @property
    def top_exact(self) -> float:
        return self.d1 * (self.d2 - 1) / math.sqrt(self.q)

    @property
    def bulk(self) -> np.ndarray:
        """Eigenvalues with the deterministic top one removed."""
        return self.eigenvalues[1:]

    @property
    def shift(self) -> float:
        """The finite-degree bulk centre (d2-2)/sqrt(q)."""
        return (self.d2 - 2) / math.sqrt(self.q)


def eigenvalues(g: BiregularGraph) -> SpectrumSample:
    """Full symmetric eigendecomposition of the scaled Gram matrix."""
    try:
        lam = np.linalg.eigvalsh(scaled_gram(g))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise SolverFailure(str(exc)) from exc
    lam = np.sort(lam)[::-1]
    return SpectrumSample(eigenvalues=lam, n=g.n, m=g.m, d1=g.d1, d2=g.d2, q=g.q)


def linear_statistic(sample: SpectrumSample, f) -> float:
    """sum_i f(lambda_i) for a callable or a ChebExpansion."""
    return float(np.sum(np.asarray(f(sample.eigenvalues), dtype=float)))


def fluctuation_fixed(sample: SpectrumSample, expansion: chebyshev.ChebExpansion) -> float:
    """Centered statistic sum f(lambda_i) - n a_0 (Gamma-basis coefficients)."""
    exp = expansion.to_gamma(sample.d1)
    return linear_statistic(sample, exp) - sample.n * exp.coeffs[0]


def fluctuation_growing(
    sample: SpectrumSample, expansion: chebyshev.ChebExpansion, r_n: int | None = None
) -> float:
    """Centered statistic sum f(lambda_i) - m_f^(n) (Phi-basis coefficients).

    The cutoff r_n defaults to max(default_r_n, expansion degree) so that the
    centering covers every coefficient the expansion actually carries.
    """
    exp = expansion.to_phi()
    if r_n is None:
        r_n = max(chebyshev.default_r_n(sample.n, sample.d1, sample.d2), exp.degree)
    center = chebyshev.m_f_n(exp, sample.n, sample.d1, sample.d2, r_n)
    return linear_statistic(sample, exp) - center


def identity_residuals(g: BiregularGraph, kmax: int, sample: SpectrumSample | None = None) -> list:
    """[(gamma_residual, nbw_residual)] for k = 1..kmax, the cross-stack check.

    gamma_residual = |sum Gamma_k(lambda_i) - q^{-k/2} CNBW_k| and
    nbw_residual = |sum p_k(lambda_i) - q^{-k/2} NBW_k|, from one pass of the
    walk recurrence.
    """
    if sample is None:
        sample = eigenvalues(g)
    nbw = walks.nbw_counts_up_to(g, kmax)
    cnbw = walks.cnbw_from_nbw(g, nbw)
    out = []
    for k in range(1, kmax + 1):
        scale = g.q ** (k / 2)
        gamma_lhs = float(np.sum(chebyshev.gamma_poly(k, g.d1, sample.eigenvalues)))
        nbw_lhs = float(np.sum(chebyshev.p_poly(k, g.d1, sample.eigenvalues)))
        out.append((abs(gamma_lhs - cnbw[k - 1] / scale), abs(nbw_lhs - nbw[k - 1] / scale)))
    return out


# ---------------------------------------------------------------------------
# reference laws
# ---------------------------------------------------------------------------


def _density_on_support(model: str, params: dict, x: np.ndarray) -> np.ndarray:
    sc = np.sqrt(np.maximum(1.0 - x * x / 4.0, 0.0)) / np.pi
    if model == "semicircle":
        return sc
    if model == "fixed-degree":
        d1, d2 = int(params["d1"]), int(params["d2"])
        q = (d1 - 1) * (d2 - 1)
        if q < 1:
            raise ValueError("fixed-degree law needs q >= 1")
        sq = math.sqrt(q)
        num = 1 + (d2 - 1) / q
        den = (1 + 1 / q - x / sq) * (1 + (d2 - 1) ** 2 / q + (d2 - 1) * x / sq)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(den > 0, num / den * sc, np.inf)
        return out
    if model == "shifted-mp":
        alpha = float(params["alpha"])
        if alpha < 1:
            raise ValueError("shifted-mp law needs alpha >= 1")
        den = 1 + alpha + math.sqrt(alpha) * x
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(den > 0, alpha / den * sc, np.inf)
        return out
    raise ValueError(f"unknown model {model!r}")


def reference_density(model: str, params: dict, x) -> np.ndarray:
    """Density of the reference law at x (0 outside [-2, 2])."""
    x = np.asarray(x, dtype=float)
    inside = (x >= -2.0) & (x <= 2.0)
    out = np.zeros_like(x)
    if np.any(inside):
        out[inside] = _density_on_support(model, params, x[inside])
    return out


def _cdf_key(model: str, params: dict):
    return (model, tuple(sorted(params.items())))


@lru_cache(maxsize=32)
def _cdf_table(key):
    model, items = key
    params = dict(items)
    # substitute x = -2 cos t; integrand is smooth in t even where the
    # density has inverse-sqrt edge singularities
    t = np.linspace(0.0, np.pi, _CDF_GRID + 1)
    x = -2.0 * np.cos(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = _density_on_support(model, params, x) * 2.0 * np.sin(t)
    vals[~np.isfinite(vals)] = 0.0
    cdf = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) * 0.5 * np.diff(t))])
    cdf /= cdf[-1]
    return x, cdf


def reference_cdf(model: str, params: dict):
    """Vectorized CDF of the reference law (numeric except the semicircle)."""
    if model == "semicircle":

        def cdf(x):
            x = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
            return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi

        return cdf
    xs, table = _cdf_table(_cdf_key(model, params))

    def cdf(x):
        return np.interp(np.asarray(x, dtype=float), xs, table, left=0.0, right=1.0)

    return cdf


def ks_statistic(values: np.ndarray, cdf) -> float:
    """sup-distance between the empirical CDF of values and the model CDF."""
    v = np.sort(np.asarray(values, dtype=float))
    n = len(v)
    if n == 0:
        raise ValueError("empty sample")
    f = cdf(v)
    upper = np.max(np.abs(f - np.arange(1, n + 1) / n))
    lower = np.max(np.abs(f - np.arange(0, n) / n))
    return float(max(upper, lower))


def esd_distance(
    sample: SpectrumSample,
    model: str,
    params: dict | None = None,
    exclude_top: bool = True,
) -> float:
    """Kolmogorov-Smirnov distance between the (bulk) ESD and a reference law.

    For the fixed-degree and shifted-mp laws the comparison variable is
    lambda - (d2-2)/sqrt(q), matching the laws' definition.  For the
    semicircle the raw eigenvalues are used.
    """
    params = params or {}
    vals = sample.bulk if exclude_top else sample.eigenvalues
    if model in ("fixed-degree", "shifted-mp"):
        vals = vals - sample.shift
    return ks_statistic(vals, reference_cdf(model, params))


def spectral_edge_deviation(sample: SpectrumSample) -> float:
    """max over non-top eigenvalues of |lambda_i - (d2-2)/sqrt(q)|."""
    return float(np.max(np.abs(sample.bulk - sample.shift)))


def spectral_edge_check(sample: SpectrumSample, slack: float) -> bool:
    """Whether all non-top eigenvalues lie within 2 + slack of the bulk centre."""
    return spectral_edge_deviation(sample) <= 2.0 + slack

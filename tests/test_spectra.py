import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from bireg.chebyshev import basis_element, gamma_poly
from bireg.errors import BiregError
from bireg.graph import complete_bipartite, scaled_gram
from bireg.spectra import (
    eigenvalues,
    esd_distance,
    fluctuation_fixed,
    fluctuation_growing,
    identity_residuals,
    ks_statistic,
    linear_statistic,
    reference_cdf,
    reference_density,
    spectral_edge_deviation,
)
from bireg.walks import count_cycles, walk_counts
from conftest import random_corpus


def test_eigenvalues_k22(k22):
    s = eigenvalues(k22)
    assert np.allclose(s.eigenvalues, [2, -2], atol=1e-12)
    assert s.eigenvalues[0] == pytest.approx(s.top_exact, abs=1e-12)


def test_eigenvalues_hexagon(hexagon):
    s = eigenvalues(hexagon)
    assert np.allclose(s.eigenvalues, [2, -1, -1], atol=1e-10)


def test_eigenvalues_k36():
    g = complete_bipartite(3, 6)  # d1 = 6, d2 = 3, q = 10
    s = eigenvalues(g)
    assert s.eigenvalues[0] == pytest.approx(6 * 2 / math.sqrt(10), abs=1e-10)


def test_eigenvalues_are_numpys_descending():
    for g in random_corpus(3, 40, 30, 3, 4, seed=23):
        lam = eigenvalues(g).eigenvalues
        assert np.all(np.diff(lam) <= 0)
        assert np.allclose(lam, np.sort(np.linalg.eigvalsh(scaled_gram(g)))[::-1], rtol=0, atol=1e-12)


def test_trace_is_zero():
    for g in random_corpus(4, 20, 20, 3, 3, seed=21):
        s = eigenvalues(g)
        assert abs(s.eigenvalues.sum()) <= g.n * 1e-10


def test_top_eigenvalue_deterministic():
    for g in random_corpus(4, 30, 40, 4, 3, seed=22):
        s = eigenvalues(g)
        assert abs(s.eigenvalues[0] - s.top_exact) <= 1e-9


def test_gamma_identity_fixtures(k22, hexagon):
    assert identity_residuals(k22, 2)[1][0] <= 1e-10
    assert identity_residuals(hexagon, 3)[2][0] <= 1e-10


def test_gamma_identity_random_corpus():
    for g in random_corpus(3, 60, 60, 3, 3, seed=23):
        s = eigenvalues(g)
        residuals = identity_residuals(g, 6, s)
        for k in range(2, 7):
            rhs = abs(linear_statistic(s, lambda x, k=k: gamma_poly(k, g.d1, x)))
            assert residuals[k - 1][0] <= 1e-8 * max(1.0, rhs)


def test_nbw_identity_random_corpus():
    for g in random_corpus(3, 24, 24, 3, 3, seed=24):
        s = eigenvalues(g)
        residuals = identity_residuals(g, 8, s)
        nbw = walk_counts(g, 8)[0]
        for k in range(1, 9):
            rhs = nbw[k - 1] / g.q ** (k / 2)
            assert residuals[k - 1][1] <= 1e-8 * max(1.0, rhs)


def test_identity_residuals_run_the_recurrence_once(recurrence_calls):
    g = random_corpus(1, 300, 300, 3, 3, seed=0)[0]
    residuals = identity_residuals(g, 14)
    assert recurrence_calls == [7]
    assert len(residuals) == 14
    assert max(max(pair) for pair in residuals) <= 1e-6
    assert identity_residuals(g, 0) == []


def test_linear_statistic_gamma2_counts_cycles():
    # d1 = d2 = 3: sum Gamma_2(lambda) = CNBW_2 / q = C_2
    for g in random_corpus(3, 30, 30, 3, 3, seed=25):
        s = eigenvalues(g)
        val = linear_statistic(s, basis_element("gamma", 2, 3))
        assert val == pytest.approx(count_cycles(g, 2), abs=1e-8)


def test_hexagon_gamma3_statistic(hexagon):
    s = eigenvalues(hexagon)
    val = linear_statistic(s, basis_element("gamma", 3, 2))
    assert val == pytest.approx(6.0, abs=1e-10)


def test_fluctuation_centering_chain():
    # f = Phi_2, n = 10, d = 3: Y = C_2 - 4 after the m_f centering
    g = random_corpus(1, 10, 10, 3, 3, seed=26)[0]
    s = eigenvalues(g)
    y = fluctuation_growing(s, basis_element("phi", 2), r_n=2)
    assert y == pytest.approx(count_cycles(g, 2) - 4, abs=1e-8)


def test_fluctuation_fixed_equals_gamma_statistic():
    g = random_corpus(1, 12, 12, 3, 3, seed=27)[0]
    s = eigenvalues(g)
    y = fluctuation_fixed(s, basis_element("gamma", 2, 3))
    assert y == pytest.approx(count_cycles(g, 2), abs=1e-8)


# ---- reference laws ------------------------------------------------------------


def test_semicircle_density_values():
    assert reference_density("semicircle", {}, 0.0) == pytest.approx(1 / math.pi)
    assert reference_density("semicircle", {}, 2.5) == 0.0
    assert reference_density("semicircle", {}, np.array([-3.0, 3.0])).tolist() == [0.0, 0.0]


def test_densities_normalize():
    for model, params in [
        ("semicircle", {}),
        ("fixed-degree", {"d1": 3, "d2": 3}),
        ("fixed-degree", {"d1": 6, "d2": 3}),
        ("shifted-mp", {"alpha": 1.0}),
        ("shifted-mp", {"alpha": 10.0}),
    ]:
        total = quad(
            lambda t: float(reference_density(model, params, -2 * math.cos(t))) * 2 * math.sin(t),
            0,
            math.pi,
            limit=200,
        )[0]
        assert total == pytest.approx(1.0, abs=1e-6)


def test_shifted_mp_approaches_semicircle():
    xs = np.linspace(-1.9, 1.9, 41)
    big = reference_density("shifted-mp", {"alpha": 1e8}, xs)
    sc = reference_density("semicircle", {}, xs)
    assert np.max(np.abs(big - sc)) < 1e-3


def test_semicircle_moments_are_catalan():
    for k, catalan in [(1, 1), (2, 2), (3, 5)]:
        val = quad(
            lambda t: (-2 * math.cos(t)) ** (2 * k)
            * float(reference_density("semicircle", {}, -2 * math.cos(t)))
            * 2
            * math.sin(t),
            0,
            math.pi,
        )[0]
        assert val == pytest.approx(catalan, abs=1e-8)


def test_reference_cdf_monotone_and_normalized():
    for model, params in [("fixed-degree", {"d1": 3, "d2": 3}), ("shifted-mp", {"alpha": 2.0})]:
        cdf = reference_cdf(model, params)
        xs = np.linspace(-2.2, 2.2, 101)
        vals = cdf(xs)
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert np.all(np.diff(vals) >= -1e-12)


def test_ks_from_quantiles_is_small():
    cdf = reference_cdf("semicircle", {})
    n = 500
    # quantile construction: KS == 1/(2n)
    probs = (np.arange(n) + 0.5) / n
    grid = np.linspace(-2, 2, 20001)
    samples = np.interp(probs, cdf(grid), grid)
    assert ks_statistic(samples, cdf) == pytest.approx(1 / (2 * n), abs=2e-3)


def test_esd_two_atom_complete_bipartite():
    # K_{d2, d1}: bulk is the single atom -d1/sqrt(q)
    g = complete_bipartite(4, 8)
    s = eigenvalues(g)
    assert np.allclose(s.bulk, -8 / math.sqrt(7 * 3), atol=1e-10)


def test_spectral_edge_hexagon(hexagon):
    s = eigenvalues(hexagon)
    assert spectral_edge_deviation(s) == pytest.approx(1.0, abs=1e-10)
    assert spectral_edge_deviation(s) <= 2 + 0.0


def test_spectral_edge_random():
    passed = 0
    for g in random_corpus(20, 120, 120, 3, 3, seed=28):
        passed += spectral_edge_deviation(eigenvalues(g)) <= 2 + 0.3
    assert passed >= 18


def test_esd_distance_and_recentering_toggle():
    g = random_corpus(1, 300, 300, 3, 3, seed=29)[0]
    s = eigenvalues(g)
    d = esd_distance(s, "fixed-degree", {"d1": 3, "d2": 3})
    assert 0 <= d <= 0.2  # the finite-degree bulk law fits well already at n=300


@pytest.mark.parametrize("model, params, message", [
    ("semicirc", {}, "reference law params key 'model' must be one of semicircle, fixed-degree, shifted-mp"),
    ("semicircle", {"alpha": 2.0}, "unknown key(s) 'alpha' in reference law semicircle params"),
    ("fixed-degree", {"d1": 3}, "reference law params key 'params' lacks 'd2'"),
    ("fixed-degree", {"d1": 3.0, "d2": 3}, "key 'd1' must be an integer"),
    ("fixed-degree", {"d1": 1, "d2": 3}, "key 'd1' must be >= 2, got 1"),
    ("shifted-mp", {"alpha": 0.5}, "key 'alpha' must be >= 1, got 0.5"),
    ("shifted-mp", {"alpha": math.nan}, "key 'alpha' must be a finite number, got nan"),
    ("shifted-mp", {"alpha": math.inf}, "key 'alpha' must be a finite number, got inf"),
])
def test_a_bad_reference_law_is_refused_by_density_and_cdf(model, params, message):
    with pytest.raises(BiregError, match=re.escape(message)):
        reference_density(model, params, 0.0)
    with pytest.raises(BiregError, match=re.escape(message)):
        reference_cdf(model, params)

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import iv

from bireg.chebyshev import (
    ChebExpansion,
    basis_element,
    builtin_function,
    cheb_eval,
    cnbw_constant,
    cov_fg,
    default_r_n,
    fit_expansion,
    gamma_constant,
    gamma_poly,
    m_f_n,
    mu_cnbw,
    p_poly,
    phi_poly,
    sigma_f,
    walk_sum,
)
from bireg.errors import MalformedInput, NonDecayingCoefficients


def test_chebyshev_closed_forms():
    assert cheb_eval("T", 2, 0.5) == pytest.approx(-0.5, abs=1e-12)
    assert cheb_eval("U", 2, 1.0) == pytest.approx(3.0, abs=1e-12)
    xs = np.linspace(-1, 1, 11)
    assert np.allclose(cheb_eval("T", 2, xs), 2 * xs**2 - 1, atol=1e-12)
    assert np.allclose(cheb_eval("T", 3, xs), 4 * xs**3 - 3 * xs, atol=1e-12)
    assert np.allclose(cheb_eval("U", 3, xs), 8 * xs**3 - 4 * xs, atol=1e-12)


def test_t_boundary_identity():
    for k in range(51):
        assert cheb_eval("T", k, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_p_poly_values():
    # d1 = d2 = 3: s = 1/sqrt(4) = 1/2
    xs = np.linspace(-2.5, 2.5, 21)
    assert np.allclose(p_poly(1, 3, xs), xs + 0.5, atol=1e-12)
    # U_2(1) + s U_1(1) - U_0(1)/2 = 3 + 1 - 1/2
    assert p_poly(2, 3, 2.0) == pytest.approx(3.5, abs=1e-12)
    # recurrence p_{k+1} = x p_k - p_{k-1}
    for k in range(2, 21):
        lhs = p_poly(k + 1, 3, xs)
        rhs = xs * p_poly(k, 3, xs) - p_poly(k - 1, 3, xs)
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_gamma_poly_values():
    # d1 = d2 = 3: c_k = 2^-k
    assert gamma_poly(0, 3, 0.7) == 1.0
    xs = np.linspace(-2, 2, 9)
    assert np.allclose(gamma_poly(1, 3, xs), xs + 0.5, atol=1e-12)
    assert gamma_poly(2, 3, 2.0) == pytest.approx(2.25, abs=1e-12)
    assert np.allclose(gamma_poly(2, 3, xs), xs**2 - 1.75, atol=1e-12)
    assert np.allclose(gamma_poly(3, 3, xs), xs**3 - 3 * xs + 0.125, atol=1e-12)
    assert gamma_poly(3, 3, 2.0) == pytest.approx(2.125, abs=1e-12)


def test_phi_poly_values():
    xs = np.linspace(-2, 2, 9)
    assert np.allclose(phi_poly(1, xs), xs, atol=1e-12)
    assert np.allclose(phi_poly(2, xs), xs**2 - 2, atol=1e-12)
    assert phi_poly(2, 2.0) == pytest.approx(2.0, abs=1e-12)


def test_gamma_minus_phi_is_constant():
    # d1 = d2 = d: c_k = (d-2)/(d-1)^k for every k >= 1
    xs = np.linspace(-3, 3, 7)
    for d in (3, 4, 6):
        for k in range(1, 7):
            diff = gamma_poly(k, d, xs, d2=d) - phi_poly(k, xs)
            assert np.allclose(diff, (d - 2) / (d - 1) ** k, atol=1e-12)


# ---- fitting -----------------------------------------------------------------


def test_fit_recovers_basis_element():
    exp = fit_expansion(basis_element("phi", 2), basis="phi", max_k=12)
    assert np.allclose(exp.coeffs, [0, 0, 1], atol=1e-10)


def test_fit_gamma_conversion():
    # Phi_2 = Gamma_2 - c_2, c_2 = 1/4 at d1 = d2 = 3
    exp = fit_expansion(basis_element("phi", 2), basis="gamma", d1=3, max_k=12)
    assert np.allclose(exp.coeffs, [-0.25, 0, 1], atol=1e-10)


def test_fit_polynomial_exact():
    f = builtin_function("poly:1,0,2,0.5")  # 1 + 2x^2 + 0.5x^3
    exp = fit_expansion(f, basis="phi", max_k=16)
    assert exp.degree == 3
    xs = np.linspace(-2, 2, 33)
    assert np.allclose(exp.evaluate(xs), f(xs), atol=1e-10)


def test_fit_exp_matches_bessel_coefficients():
    # direct quadrature oracle: a_k = (1/pi) int_0^pi exp(2 cos t) cos(kt) dt = I_k(2)
    exp = fit_expansion(np.exp, basis="phi", k1=3.0, max_k=40)
    for k in range(12):
        oracle = quad(lambda t, k=k: math.exp(2 * math.cos(t)) * math.cos(k * t), 0, math.pi)[0] / math.pi
        assert exp.coeffs[k] == pytest.approx(oracle, abs=1e-10)
        assert exp.coeffs[k] == pytest.approx(float(iv(k, 2.0)), abs=1e-10)
    assert exp.decay_rate > 2  # geometric decay


def test_fit_reconstruction_within_tail_bound():
    exp = fit_expansion(np.exp, basis="phi", k1=3.0, max_k=40)
    xs = np.linspace(-3, 3, 201)
    resid = np.max(np.abs(exp.evaluate(xs) - np.exp(xs)))
    assert resid <= exp.tail_bound()


def test_gamma_and_phi_expansions_agree_pointwise():
    exp = fit_expansion(np.exp, basis="phi", d1=4, k1=3.0, max_k=40)
    gam = exp.to_gamma(4)
    xs = np.linspace(-3, 3, 101)
    assert np.allclose(exp.evaluate(xs), gam.evaluate(xs), atol=1e-10)
    assert np.allclose(gam.to_phi().coeffs, exp.coeffs, atol=1e-12)


def test_non_decaying_coefficients_raise():
    with pytest.raises(NonDecayingCoefficients):
        fit_expansion(np.abs, basis="phi", max_k=48, tol=1e-12)


def test_expansion_serialization_roundtrip():
    exp = fit_expansion(np.exp, basis="gamma", d1=3, max_k=24)
    again = ChebExpansion.from_dict(exp.to_dict())
    assert again == exp


def test_gamma_expansion_carries_d2():
    # the Gamma basis depends on d2; given d1 alone it is the regular d2 = d1
    assert basis_element("gamma", 2, 3).d2 == 3
    gam = fit_expansion(np.exp, basis="gamma", d1=4, d2=3, k1=3.0, max_k=40)
    assert gam.to_dict()["d2"] == 3
    assert ChebExpansion.from_dict(gam.to_dict()) == gam
    assert gam.to_phi().to_gamma(4) == gam  # d2 kept from the expansion
    assert gam.coeffs[0] != gam.to_gamma(4, 4).coeffs[0]
    xs = np.linspace(-3, 3, 61)
    assert np.allclose(gam.evaluate(xs), gam.to_phi().evaluate(xs), atol=1e-10)


# ---- CLT quantities -------------------------------------------------------------


def test_sigma_f_values():
    assert sigma_f(basis_element("phi", 2)) == pytest.approx(4.0)
    assert sigma_f(ChebExpansion(basis="phi", coeffs=[0, 0, 1, 1])) == pytest.approx(10.0)
    assert cov_fg(basis_element("phi", 2), basis_element("phi", 3)) == 0.0


def test_mu_cnbw_values():
    assert mu_cnbw(2, 3, 3) == 16
    assert mu_cnbw(4, 3, 3) == 272
    assert mu_cnbw(3, 2, 2) == 1
    assert mu_cnbw(1, 5, 4) == 0


def test_m_f_n_example():
    # (mu_2 - cnbw_constant(2))/q with |E| - n - m = 30 - 20 and m = n
    assert m_f_n(basis_element("phi", 2), 10, 3, 3, 2) == pytest.approx((16 - 10) / 4)


def test_walk_sum_start_and_truncation():
    # start + sum_k a_k x_{k-1} / q^{k/2}; a_0 is never read
    assert walk_sum([7.0, 2.0, 0.0, 4.0], [3, 1, 8], 2, start=5) == 5 + 6 / 2**0.5 + 32 / 2**1.5
    # stops where the shorter sequence stops
    assert walk_sum([7.0, 2.0, 1.0, 4.0], [3], 4) == 2.0 * 3 / 2.0
    assert walk_sum([7.0, 2.0], [3, 5, 9], 4) == 2.0 * 3 / 2.0
    assert walk_sum([7.0], [3, 5], 4, start=1.5) == 1.5
    assert walk_sum([7.0, 2.0], [], 4) == 0


def test_gamma_constant_is_the_scaled_cnbw_constant():
    # Gamma_k - Phi_k is the Ihara-Bass constant of CNBW_k over n q^{k/2},
    # for every k >= 1; the constant needs m = n d1/d2, so d2 | n d1
    for d1 in range(2, 10):
        for d2 in range(2, 10):
            q = (d1 - 1) * (d2 - 1)
            for n in (d2, 3 * d2, 60, 7):
                if (n * d1) % d2:
                    with pytest.raises(ValueError):
                        cnbw_constant(1, n, d1, d2)
                    continue
                for k in range(1, 25):
                    c = cnbw_constant(k, n, d1, d2)
                    assert gamma_constant(k, d1, d2) == pytest.approx(c / (n * q ** (k / 2)), rel=1e-12)


def test_default_r_n_and_interval():
    assert default_r_n(300, 3, 3) == int(0.4 * math.log(300) / math.log(4))


def test_builtin_functions():
    assert isinstance(builtin_function("phi_2"), ChebExpansion)
    assert isinstance(builtin_function("gamma_3", 3), ChebExpansion)
    assert builtin_function("exp") is np.exp
    with pytest.raises(ValueError):
        builtin_function("nope")


def test_an_exact_expansion_reads_back_through_json():
    # to_dict writes decay_rate = Infinity for an exact expansion
    exp = basis_element("gamma", 3, 3)
    text = json.dumps(exp.to_dict())
    assert '"decay_rate": Infinity' in text
    assert ChebExpansion.from_dict(json.loads(text)) == exp


@pytest.mark.parametrize("key, value", [("coeffs", [1.0, math.nan]), ("coeffs", [math.inf]), ("k1", math.inf),
                                        ("decay_rate", math.nan), ("decay_rate", -math.inf),
                                        ("coeff_bound", math.inf)])
def test_a_non_finite_expansion_value_is_refused(key, value):
    data = dict(basis_element("phi", 2).to_dict(), **{key: value})
    with pytest.raises(MalformedInput, match=f"^expansion key '{key}' must be a finite number"):
        ChebExpansion.from_dict(data)


@pytest.mark.parametrize("key, value", [("k1", -3.0), ("k1", -1), ("coeff_bound", -1.0), ("coeff_bound", -1e-300)])
def test_a_negative_half_width_or_envelope_is_refused(key, value):
    data = dict(basis_element("phi", 2).to_dict(), **{key: value})
    with pytest.raises(MalformedInput, match=f"^expansion key '{key}' must be >= 0, got {value!r}$"):
        ChebExpansion.from_dict(data)


@pytest.mark.parametrize("key", ["k1", "coeff_bound"])
def test_a_zero_half_width_or_envelope_is_accepted(key):
    data = dict(basis_element("phi", 2).to_dict(), **{key: 0.0})
    assert getattr(ChebExpansion.from_dict(data), key) == 0.0

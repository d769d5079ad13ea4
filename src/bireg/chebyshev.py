"""Half-argument Chebyshev machinery for linear spectral statistics.

Statistics live in the recentred variable y = lambda - s, where lambda runs
over the eigenvalues of the scaled Gram matrix (XX^T - d1 I)/sqrt(q) and
s = (d2-2)/sqrt(q) (``spectral_shift``): sqrt(q)*y are the eigenvalues of
B = XX^T - d1 I - (d2-2) I, the generator of the walk recurrence.  The
working bases on [-2, 2], in y, are

    Phi_0 = 1,  Phi_k(y) = 2 T_k(y/2),
    Gamma_0 = 1,  Gamma_k(y) = Phi_k(y) + c_k  (k >= 1),
    p_k(y) = U_k(y/2) + s U_{k-1}(y/2) - U_{k-2}(y/2)/(d1-1),

where T_k, U_k are the classical Chebyshev polynomials and
c_k = [(d1-d2)(1-d2)^k + d1 d2 - d1 - d2] / (d2 q^{k/2}) is the Ihara-Bass
constant (``gamma_constant``); for d1 = d2 = d it is (d-2)/(d-1)^k.  Sums of
Gamma_k and p_k over the recentred spectrum equal q^{-k/2} times the
cyclically non-backtracking and non-backtracking walk counts.  Wherever d2
is not given it defaults to d1, the regular case.

Expansions f = sum a_k basis_k are fitted by Chebyshev-Gauss quadrature of
f(2 cos t); the coefficients are basis coefficients on [-2, 2] regardless of
the validity interval half-width K1, which is used for the reconstruction
check (and must contain the recentred spectrum when the expansion is applied
to eigenvalues).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    MalformedInput,
    NonDecayingCoefficients,
    check_config_keys,
    check_int,
    check_number,
    check_required_keys,
)
from .graph import v2_size

DEFAULT_TOL = 1e-12
MAX_QUAD_NODES = 1 << 17


def cheb_eval(kind: str, k: int, x):
    """T_k(x) or U_k(x) by the stable three-term recurrence."""
    if kind not in ("T", "U"):
        raise ValueError("kind must be 'T' or 'U'")
    if k < 0:
        raise ValueError("k must be >= 0")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev
    cur = x if kind == "T" else 2 * x
    for _ in range(k - 1):
        prev, cur = cur, 2 * x * cur - prev
    return cur


def spectral_shift(d1: int, d2: int) -> float:
    """s = (d2-2)/sqrt(q), the centre of the finite-degree bulk: the
    statistics' variable is lambda - s."""
    return (d2 - 2) / math.sqrt((d1 - 1) * (d2 - 1))


def _check_degrees(d1: int, d2: int) -> None:
    if d1 < 2 or d2 < 2:
        raise ValueError("d1 and d2 must be >= 2")


def p_poly(k: int, d1: int, x, d2: int | None = None):
    """p_k(x) = U_k(x/2) + s U_{k-1}(x/2) - U_{k-2}(x/2)/(d1-1) with
    s = spectral_shift(d1, d2); p_1(x) = x + s."""
    if k < 1:
        raise ValueError("k must be >= 1")
    d2 = d1 if d2 is None else d2
    _check_degrees(d1, d2)
    y = np.asarray(x, dtype=float) / 2
    out = cheb_eval("U", k, y) + spectral_shift(d1, d2) * cheb_eval("U", k - 1, y)
    if k >= 2:
        out = out - cheb_eval("U", k - 2, y) / (d1 - 1)
    return out


def phi_poly(k: int, x):
    """Phi_0 = 1, Phi_k(x) = 2 T_k(x/2)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    x = np.asarray(x, dtype=float)
    if k == 0:
        return np.ones_like(x)
    return 2 * cheb_eval("T", k, x / 2)


def gamma_poly(k: int, d1: int, x, d2: int | None = None):
    """Gamma_k = Phi_k + gamma_constant(k, d1, d2)."""
    d2 = d1 if d2 is None else d2
    _check_degrees(d1, d2)
    out, c = phi_poly(k, x), gamma_constant(k, d1, d2)
    return out + c if c else out


def gamma_constant(k: int, d1: int, d2: int | None = None) -> float:
    """Gamma_k(x) - Phi_k(x), a constant in x: 0 for k = 0, and for k >= 1
    cnbw_constant(k, n, d1, d2) / (n q^{k/2}), the same for every n, so read
    at n = d2 (where m = d1).  For d1 = d2 = d it is (d-2)/(d-1)^k."""
    d2 = d1 if d2 is None else d2
    if k == 0:
        return 0.0
    return cnbw_constant(k, d2, d1, d2) / (d2 * ((d1 - 1) * (d2 - 1)) ** (k / 2))


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChebExpansion:
    """Truncated expansion of a test function in the Phi or Gamma basis.

    coeffs[k] multiplies basis_k; the Gamma basis depends on (d1, d2), and a
    Gamma expansion given d1 alone takes d2 = d1.  k1 is the half-width of
    the interval on which the reconstruction was validated; decay_rate and
    coeff_bound are the fitted (rho, M) of the envelope |a_k| <= M rho^-k.
    """

    basis: str
    coeffs: tuple
    d1: int | None = None
    d2: int | None = None
    k1: float = 2.0
    decay_rate: float = field(default=float("inf"))
    coeff_bound: float = 0.0

    def __post_init__(self):
        if self.basis not in ("phi", "gamma"):
            raise ValueError("basis must be 'phi' or 'gamma'")
        if self.basis == "gamma":
            if self.d1 is None:
                raise ValueError("gamma basis requires d1 >= 2")
            if self.d2 is None:
                object.__setattr__(self, "d2", self.d1)
            _check_degrees(self.d1, self.d2)
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> float:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0.0

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for k, a in enumerate(self.coeffs):
            if a == 0.0:
                continue
            base = gamma_poly(k, self.d1, x, self.d2) if self.basis == "gamma" else phi_poly(k, x)
            out = out + a * base
        return out

    def __call__(self, x):
        return self.evaluate(x)

    def to_phi(self) -> "ChebExpansion":
        if self.basis == "phi":
            return self
        a = list(self.coeffs)
        a0 = a[0] + sum(a[k] * gamma_constant(k, self.d1, self.d2) for k in range(1, len(a)))
        return replace(self, basis="phi", coeffs=[a0] + a[1:])

    def to_gamma(self, d1: int | None = None, d2: int | None = None) -> "ChebExpansion":
        """The same function in the Gamma basis of (d1, d2); d1 defaults to
        the expansion's own, d2 to the expansion's own or else to d1."""
        d1 = self.d1 if d1 is None else d1
        if d2 is None:
            d2 = self.d2 if self.d2 is not None else d1
        if d1 is None:
            raise ValueError("gamma basis requires d1 >= 2")
        _check_degrees(d1, d2)
        if self.basis == "gamma" and (d1, d2) == (self.d1, self.d2):
            return self
        a = list(self.to_phi().coeffs)
        a0 = a[0] - sum(a[k] * gamma_constant(k, d1, d2) for k in range(1, len(a)))
        return replace(self, basis="gamma", coeffs=[a0] + a[1:], d1=d1, d2=d2)

    def tail_bound(self) -> float:
        """Upper bound for the truncation error sup_{|x|<=k1} |f - reconstruction|.

        Uses the fitted envelope M rho^-k and the sup of Phi_k on [-k1, k1]
        (|Phi_k| <= 2 cosh(k acosh(k1/2)) for k1 > 2, else <= 2).  In either
        basis the error is the Phi tail sum_{k > degree} a_k Phi_k: a_0 of a
        Gamma expansion holds the constants of the kept terms only.
        """
        if not math.isfinite(self.decay_rate) or self.decay_rate <= 1.0:
            return float("inf") if self.coeff_bound else 0.0
        rho, big_m = self.decay_rate, self.coeff_bound
        # sup |Phi_k| <= 2 cosh(k acosh(k1/2)) <= 2 growth^k for k1 > 2, <= 2 otherwise
        growth = math.exp(math.acosh(self.k1 / 2)) if self.k1 > 2 else 1.0
        ratio = growth / rho
        if ratio >= 1:
            return float("inf")
        return 2.0 * big_m * ratio ** (self.degree + 1) / (1 - ratio)

    def to_dict(self) -> dict:
        return {
            "basis": self.basis,
            "coeffs": list(self.coeffs),
            "d1": self.d1,
            "d2": self.d2,
            "k1": self.k1,
            "decay_rate": self.decay_rate,
            "coeff_bound": self.coeff_bound,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChebExpansion":
        """The expansion that to_dict wrote, or a config object with the same
        keys; basis and coeffs are required."""
        check_config_keys("expansion", data, {"basis", "coeffs", "d1", "d2", "k1", "decay_rate", "coeff_bound"})
        check_required_keys("expansion", data, ("basis", "coeffs"))
        coeffs = data["coeffs"]
        if not isinstance(coeffs, (list, tuple)) or not coeffs:
            raise MalformedInput(f"expansion key 'coeffs' must be a non-empty list, got {coeffs!r}")
        for c in coeffs:
            check_number("expansion", "coeffs", c)
        for key in ("d1", "d2"):
            check_int("expansion", key, data.get(key), allow_none=True)
        for key in ("k1", "decay_rate", "coeff_bound"):
            # to_dict writes decay_rate Infinity for an exact expansion; k1 is
            # a half-width and coeff_bound an envelope, so neither is negative
            if key in data and not (key == "decay_rate" and data[key] == math.inf):
                check_number("expansion", key, data[key], minimum=None if key == "decay_rate" else 0)
        return cls(
            basis=data["basis"],
            coeffs=tuple(coeffs),
            d1=data.get("d1"),
            d2=data.get("d2"),
            k1=data.get("k1", 2.0),
            decay_rate=data.get("decay_rate", float("inf")),
            coeff_bound=data.get("coeff_bound", 0.0),
        )


def _phi_coeffs_quadrature(f, max_k: int, nodes: int) -> np.ndarray:
    theta = np.pi * (np.arange(nodes) + 0.5) / nodes
    vals = np.asarray(f(2 * np.cos(theta)), dtype=float)
    ks = np.arange(max_k + 1)
    cos_table = np.cos(np.outer(ks, theta))
    # a_0 = mean of f(2 cos t); a_k = (1/pi) int f(2 cos t) cos(kt) dt
    return (cos_table @ vals) / nodes


def fit_expansion(
    f,
    basis: str = "phi",
    d1: int | None = None,
    d2: int | None = None,
    k1: float = 2.0,
    max_k: int = 48,
    tol: float = DEFAULT_TOL,
) -> ChebExpansion:
    """Fit f on the basis interval by Chebyshev-Gauss quadrature.

    Node count starts at 4*(max_k+1) and doubles until the coefficients are
    stable to tol.  Trailing coefficients below tol (relative to the largest)
    are dropped; if the trailing coefficient never falls below that threshold
    and the fitted envelope shows no decay, NonDecayingCoefficients is raised.
    """
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    nodes = 4 * (max_k + 1)
    a = _phi_coeffs_quadrature(f, max_k, nodes)
    while nodes < MAX_QUAD_NODES:
        nodes *= 2
        a2 = _phi_coeffs_quadrature(f, max_k, nodes)
        if np.max(np.abs(a2 - a)) <= tol * max(1.0, np.max(np.abs(a2))):
            a = a2
            break
        a = a2
    scale = max(1.0, float(np.max(np.abs(a))))
    keep = np.where(np.abs(a) >= tol * scale)[0]
    rho, big_m = _fit_envelope(a, tol * scale)
    if len(keep) and keep[-1] == max_k and np.abs(a[max_k]) >= tol * scale:
        # not converged by max_k and no usable geometric envelope: the fit
        # interval's Bernstein ellipse is (numerically) empty
        if rho <= 1.15:
            raise NonDecayingCoefficients(
                f"|a_{max_k}| = {abs(a[max_k]):.3e} has not decayed below "
                f"{tol * scale:.3e}; fitted decay rate {rho:.4f}"
            )
    last = int(keep[-1]) if len(keep) else 0
    coeffs = [float(v) for v in a[: last + 1]]
    exp = ChebExpansion(basis="phi", coeffs=coeffs, d1=d1, d2=d2, k1=float(k1), decay_rate=rho, coeff_bound=big_m)
    if basis == "gamma":
        exp = exp.to_gamma(d1, d2)
    return exp


def _fit_envelope(a: np.ndarray, floor: float):
    """Least-squares fit of |a_k| ~ M rho^-k over the significant k >= 1."""
    ks = [k for k in range(1, len(a)) if abs(a[k]) > max(floor, 1e-300)]
    if len(ks) < 2:
        return float("inf"), float(np.max(np.abs(a))) if len(a) else 0.0
    logs = np.log([abs(a[k]) for k in ks])
    slope, intercept = np.polyfit(ks, logs, 1)
    rho = float(np.exp(-slope))
    # inflate M so the envelope genuinely dominates every kept coefficient
    big_m = max(abs(a[k]) * rho**k for k in ks)
    big_m = max(big_m, abs(a[0]))
    return rho, float(big_m)


# ---------------------------------------------------------------------------
# CLT quantities
# ---------------------------------------------------------------------------


def sigma_f(expansion: ChebExpansion) -> float:
    """Limit variance 2 sum_{k>=2} k a_k^2 (Phi-basis coefficients)."""
    a = expansion.to_phi().coeffs
    return 2.0 * sum(k * a[k] ** 2 for k in range(2, len(a)))


def cov_fg(exp_f: ChebExpansion, exp_g: ChebExpansion) -> float:
    """Limit covariance 2 sum_{k>=2} k a_k(f) a_k(g)."""
    af = exp_f.to_phi().coeffs
    ag = exp_g.to_phi().coeffs
    kmax = min(len(af), len(ag)) - 1
    return 2.0 * sum(k * af[k] * ag[k] for k in range(2, kmax + 1))


def mu_cnbw(k: int, d1: int, d2: int) -> int:
    """Mean of the limiting CNBW variable: sum over divisors j >= 2 of q^j."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q = (d1 - 1) * (d2 - 1)
    return sum(q**j for j in range(2, k + 1) if k % j == 0)


def cnbw_constant(k: int, n: int, d1: int, d2: int) -> int:
    """(|E| - n - m) + (m - n)(1 - d2)^k, with |E| = n d1 and m = n d1/d2:
    CNBW_k minus q^{k/2} sum_i Phi_k(y_i), k >= 1, over the n recentred
    eigenvalues y_i of a graph with n V1 vertices.

    Derivation (Ihara-Bass).  Let A and D be the adjacency and degree
    matrices of the whole bipartite graph and H its non-backtracking matrix
    on the 2|E| directed edges; then
    det(I - uH) = (1 - u^2)^{|E|-n-m} det(I - uA + u^2(D - I)).  With
    z = u^2, the Schur complement of the V2 block gives
    det(I - uA + u^2(D - I)) = (1 + (d2-1)z)^{m-n} prod_i (1 - beta_i z + q z^2),
    where beta_i = sqrt(q) y_i are the eigenvalues of B = XX^T - (d1+d2-2) I.
    A closed non-backtracking cycle of 2k directed edges starts in V1 for
    half of its rotations, so CNBW_k = tr H^{2k} / 2, and -log det(I - uH) =
    sum_k tr H^{2k} z^k / (2k).  Reading off z^k: the factor (1 - z)^{|E|-n-m},
    from the +-1 eigenvalues of H, gives |E| - n - m; the factor
    (1 + (d2-1)z)^{m-n}, from the m - n kernel vectors of X^T X, gives
    (m - n)(1 - d2)^k; and 1 - beta z + q z^2 = (1 - alpha z)(1 - alpha' z)
    gives alpha^k + alpha'^k = q^{k/2} Phi_k(y).
    """
    m = v2_size(n, d1, d2)
    return n * d1 - n - m + (m - n) * (1 - d2) ** k


def default_r_n(n: int, d1: int, d2: int) -> int:
    """floor(0.4 log n / log q); the eigenvalue-statistic cutoff scale."""
    q = (d1 - 1) * (d2 - 1)
    if q < 2:
        raise ValueError("need (d1-1)(d2-1) >= 2")
    return int(0.4 * math.log(n) / math.log(q))


def walk_sum(coeffs, counts, q: int, start=0):
    """start + sum_{k>=1} coeffs[k] counts[k-1] q^{-k/2}, over the k that both
    sequences reach: the pairing of expansion coefficients with walk counts
    (CNBW_k, or their limit means) that every walk-based statistic uses."""
    total = start
    for k in range(1, min(len(coeffs) - 1, len(counts)) + 1):
        total += (coeffs[k] * counts[k - 1]) / q ** (k / 2)
    return total


def m_f_n(expansion: ChebExpansion, n: int, d1: int, d2: int, r_n: int) -> float:
    """Deterministic centering for growing-degree linear statistics.

    m_f = n a_0 + sum_{k=1}^{r_n} a_k q^{-k/2} (mu_k - cnbw_constant(k)),
    with Phi-basis coefficients a_k.
    """
    a = expansion.to_phi().coeffs
    ks = range(1, min(r_n, len(a) - 1) + 1)
    counts = [mu_cnbw(k, d1, d2) - cnbw_constant(k, n, d1, d2) for k in ks]
    return float(walk_sum(a, counts, (d1 - 1) * (d2 - 1), start=n * a[0]))


def basis_element(basis: str, k: int, d1: int | None = None, d2: int | None = None) -> ChebExpansion:
    """The expansion whose only nonzero coefficient is a_k = 1."""
    if k < 0:
        raise ValueError(f"basis index must be >= 0, got {k}")
    coeffs = [0.0] * k + [1.0]
    return ChebExpansion(basis=basis, coeffs=coeffs, d1=d1, d2=d2)


def builtin_function(name: str, d1: int | None = None, d2: int | None = None):
    """Named test functions for configs: phi_k, gamma_k, exp, poly:c0,c1,..."""
    if name.startswith("phi_"):
        return basis_element("phi", int(name[4:]), d1, d2)
    if name.startswith("gamma_"):
        return basis_element("gamma", int(name[6:]), d1, d2)
    if name == "exp":
        return np.exp
    if name.startswith("poly:"):
        cs = [float(t) for t in name[5:].split(",")]
        return lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), cs)
    raise ValueError(f"unknown builtin function {name!r}")

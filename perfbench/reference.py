"""Reference values computed apart from specrad, with scipy.

Every check of the benchmark compares the program's output with one of
these functions, or with a property the method must have.  None of them
imports specrad.

Exact finite-n cdfs are products of order-statistic factors, each a tail
of a classical law (the same identities the paper rests on):

    spherical     P(Binomial(n, u) >= j),      u = r^2/(1+r^2), j <= n
    truncated     P(NegBinomial(n-p, x) >= j), x = r^2,         j <= p
    product k=1   P(Poisson(r^2) >= j),                          j <= n
    product k=2   P(s1 s2 <= r^2), s1, s2 ~ Gamma(j),            j <= n

The first three come from scipy.special's binomial and negative-binomial
tails (regularized incomplete beta functions) and Poisson tails; k=2 from
a closed form in Bessel K functions, or from scipy.integrate.quad over the
Gamma(j) mass in log s at single points.
The limit laws come from products of scipy Poisson cdfs (H), sums of
scipy.special.log_ndtr terms (Phi_alpha) and ndtr/ndtri (normal).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

# false-alarm rate of every Monte Carlo threshold
FALSE_ALARM = 1e-6

# factors further than this many standard deviations (plus a margin) below
# the mean are 1, and above it 0, to double precision; used only for n > 5000
_WINDOW_SD = 40.0
_WINDOW_MARGIN = 800.0
_FULL_RANGE = 5000
_LOG_TINY = math.log(1e-320)
_POINT_CHUNK = 1000


# --- Kolmogorov-Smirnov ------------------------------------------------------


def dkw_threshold(n: int, alpha: float = FALSE_ALARM) -> float:
    """One-sample KS distance exceeded with probability <= alpha
    (Dvoretzky-Kiefer-Wolfowitz with Massart's constant)."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def two_sample_threshold(n: int, m: int, alpha: float = FALSE_ALARM) -> float:
    """Two-sample KS distance exceeded with probability about alpha
    (leading term of the Kolmogorov limit law)."""
    return math.sqrt(math.log(2.0 / alpha) / 2.0 * (n + m) / (n * m))


def ks_distance(values, cdf) -> float:
    """sup |F_emp - F| of a sample against a vectorized cdf."""
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size
    f = np.asarray(cdf(ordered), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def ks_two_sample(a, b) -> float:
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    both = np.concatenate([a, b])
    fa = np.searchsorted(a, both, side="right") / a.size
    fb = np.searchsorted(b, both, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


# --- exact finite-n cdfs -----------------------------------------------------


def _log_factor(value: np.ndarray, complement: np.ndarray) -> np.ndarray:
    """log of a factor from the factor and its complement, each relatively
    accurate where small: log(value) when value <= 1/2, else
    log1p(-complement)."""
    with np.errstate(divide="ignore"):
        return np.where(value <= 0.5, np.log(value), np.log1p(-complement))


def _factor_product(j_max: int, mean: float, sd: float, tail_body) -> float:
    """sum_{j=1}^{j_max} log P(X >= j) for one law with the given mean/sd;
    ``tail_body(j)`` returns (P(X >= j), P(X < j)) for an array of j."""
    if j_max <= _FULL_RANGE:
        lo, hi = 1, j_max
    else:
        lo = max(1, int(math.floor(mean - _WINDOW_SD * sd - _WINDOW_MARGIN)))
        hi = int(math.ceil(mean + _WINDOW_SD * sd + _WINDOW_MARGIN))
        if hi < j_max:
            # the factor at j_max is below 1e-320, and so is the product
            return -math.inf
        hi = j_max
        if lo > hi:
            return 0.0
    j = np.arange(lo, hi + 1, dtype=float)
    return float(np.sum(_log_factor(*tail_body(j))))


def _spherical_factors(n: int, q, j):
    """P(Binomial(n, u) >= j) = P(Binomial(n, q) <= n - j), q = 1 - u, as
    the incomplete beta 1 - I_q(n-j+1, j) and its complement; q is formed
    directly, so u near 1 loses no digits of it."""
    return special.betaincc(n - j + 1, j, q), special.betainc(n - j + 1, j, q)


def _truncated_factors(m: int, x, j):
    """P(NegBinomial(m, x) >= j) = I_x(j, m) and its complement."""
    return special.betainc(j, m, x), special.betaincc(j, m, x)


def spherical_log_cdf(n: int, r: float) -> float:
    if r <= 0.0:
        return -math.inf
    q = 1.0 / (1.0 + r * r)
    return _factor_product(n, n * (1.0 - q), math.sqrt(n * q * (1.0 - q)),
                           lambda j: _spherical_factors(n, q, j))


def truncated_log_cdf(n: int, p: int, r: float) -> float:
    if r <= 0.0:
        return -math.inf
    if r >= 1.0:
        return 0.0
    x, m = r * r, n - p
    return _factor_product(p, m * x / (1.0 - x), math.sqrt(m * x) / (1.0 - x),
                           lambda j: _truncated_factors(m, x, j))


def product_k1_log_cdf(n: int, r: float) -> float:
    if r <= 0.0:
        return -math.inf
    y = r * r
    return _factor_product(
        n, y, math.sqrt(y),
        lambda j: (special.pdtrc(j - 1, y), special.pdtr(j - 1, y)),
    )


def _k2_upper_tail(j: int, t: np.ndarray) -> np.ndarray:
    """P(s1 s2 > t), s1, s2 ~ Gamma(j):
    sum_{i<j} 2 t^((j+i)/2) K_{j-i}(2 sqrt t) / (i! Gamma(j))."""
    z = 2.0 * np.sqrt(t)
    i = np.arange(j, dtype=float)
    log_terms = (
        math.log(2.0)
        + 0.5 * (j + i)[None, :] * np.log(t)[:, None]
        + np.log(special.kve(j - i[None, :], z[:, None]))
        - z[:, None]
        - special.gammaln(i + 1.0)[None, :]
        - math.lgamma(j)
    )
    return np.exp(special.logsumexp(log_terms, axis=1))


def product_k2_log_cdf_bessel(n: int, r) -> np.ndarray:
    """Vectorized k=2 log cdf from the Bessel closed form of each factor."""
    t = np.asarray(r, dtype=float) ** 2
    out = np.zeros(t.shape)
    for j in range(1, n + 1):
        with np.errstate(divide="ignore"):
            out += np.log1p(-np.minimum(_k2_upper_tail(j, t), 1.0))
    return out


def _k2_log_factor_quad(j: int, t: float) -> float:
    """log P(s1 s2 <= t) by quad over the Gamma(j) mass in u = log s of
    P(j, t/s) (or of its complement, whichever is smaller)."""
    log_t, lg = math.log(t), math.lgamma(j)

    def integrand(u, incomplete):
        y = math.exp(min(log_t - u, 700.0))
        return math.exp(j * u - math.exp(min(u, 700.0)) - lg) * incomplete(j, y)

    # the Gamma(j) density in u is below 1e-320 outside [u_lo, u_hi]
    u_lo = (_LOG_TINY + math.lgamma(j + 1)) / j
    u_hi = math.log(j + _WINDOW_SD * math.sqrt(j) + _WINDOW_MARGIN)
    grid = np.linspace(u_lo, u_hi, 4000)
    log_density = j * grid - np.exp(grid)

    def integral(incomplete) -> float:
        with np.errstate(divide="ignore", over="ignore"):
            peak = grid[np.argmax(log_density + np.log(incomplete(j, np.exp(log_t - grid))))]
        value, _ = integrate.quad(integrand, u_lo, u_hi, args=(incomplete,), points=[peak],
                                  epsabs=0.0, epsrel=1e-12, limit=500)
        return value

    upper = integral(special.gammaincc)
    if upper <= 0.5:
        return math.log1p(-upper)
    lower = integral(special.gammainc)
    return math.log(lower) if lower > 0.0 else -math.inf


def product_k2_log_cdf_quad(n: int, r: float) -> float:
    if r <= 0.0:
        return -math.inf
    return math.fsum(_k2_log_factor_quad(j, r * r) for j in range(1, n + 1))


def finite_n_cdf(family: str, n: int, r, p: int | None = None) -> np.ndarray:
    """Vectorized exact cdf values at small n, for a KS reference: every
    factor j = 1..n (or p) at once, in chunks of points."""
    r = np.asarray(r, dtype=float)
    if family == "product_k2":
        return np.exp(product_k2_log_cdf_bessel(n, r))
    j = np.arange(1.0, (p if family == "truncated" else n) + 1.0)[None, :]
    out = np.empty(r.shape)
    for start in range(0, r.size, _POINT_CHUNK):
        x = r[start:start + _POINT_CHUNK, None] ** 2
        if family == "spherical":
            value, complement = _spherical_factors(n, 1.0 / (1.0 + x), j)
        elif family == "truncated":
            value, complement = _truncated_factors(n - p, x, j)
        else:
            value, complement = special.pdtrc(j - 1, x), special.pdtr(j - 1, x)
        out[start:start + _POINT_CHUNK] = np.sum(_log_factor(value, complement), axis=1)
    return np.exp(out)


def log_cdf_agrees(program: float, reference: float, rel: float = 1e-7,
                   absolute: float = 1e-12) -> bool:
    """Agreement of two log-cdf values: within rel*|ref| + absolute, or
    both below log(1e-300) (zero to double precision).  The absolute term
    holds upper tails near F = 1 to 1e-12; the relative term admits the
    1e-8 relative drift of the program's n = 10^6 pmf tables."""
    floor = math.log(1e-300)
    if reference < floor or program < floor:
        return reference < floor + 1.0 and program < floor + 1.0
    return abs(program - reference) <= rel * abs(reference) + absolute


# --- limit laws --------------------------------------------------------------


def spherical_h_log_cdf(x) -> np.ndarray:
    """log H(x) = sum_{k>=1} log P(Poisson(x^-2) <= k-1), truncated where
    the dropped complements sum below 1e-100."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full(x.shape, -np.inf)
    for idx, xi in enumerate(x):
        if xi <= 0.0:
            continue
        tau = xi ** -2.0
        if tau > 745.0:
            continue  # H(x) <= exp(-tau) underflows
        k = np.arange(1.0, math.ceil(tau + _WINDOW_SD * math.sqrt(tau) + 40.0) + 1.0)
        out[idx] = float(np.sum(_log_factor(special.pdtr(k - 1, tau), special.pdtrc(k - 1, tau))))
    return out


def phi_alpha_log(t, alpha: float) -> np.ndarray:
    """log Phi_alpha(t) = sum_{j>=0} log_ndtr(t + j sqrt(alpha)), up to the
    first term past 12 (the rest sum below 1e-32)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    step = math.sqrt(alpha)
    terms = int(math.ceil((12.0 - float(np.min(t))) / step)) + 1
    out = np.zeros(t.shape)
    for start in range(0, terms, 256):
        j = np.arange(start, min(terms, start + 256), dtype=float)
        out += np.sum(special.log_ndtr(t[:, None] + step * j[None, :]), axis=1)
    return out


def product_law_log_cdf(x, alpha: float) -> np.ndarray:
    """log of Phi_alpha(sqrt(a)/2 + 2 log(x)/sqrt(a)), the k/n -> a limit."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full(x.shape, -np.inf)
    pos = x > 0.0
    sqrt_a = math.sqrt(alpha)
    out[pos] = phi_alpha_log(0.5 * sqrt_a + 2.0 * np.log(x[pos]) / sqrt_a, alpha)
    return out


def law_log_cdf(law: str, x) -> np.ndarray:
    """law is one of "spherical_h", "gumbel", "normal", "phi_<alpha>"."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if law == "spherical_h":
        return spherical_h_log_cdf(x)
    if law == "gumbel":
        return -np.exp(-x)
    if law == "normal":
        return special.log_ndtr(x)
    if law.startswith("phi_"):
        return product_law_log_cdf(x, float(law[4:]))
    raise ValueError(f"unknown law {law!r}")


def law_cdf(law: str, x) -> np.ndarray:
    return np.exp(law_log_cdf(law, x))


def law_upper_tail(law: str, x) -> np.ndarray:
    """1 - F(x), relatively accurate far out."""
    if law == "normal":
        return special.ndtr(-np.atleast_1d(np.asarray(x, dtype=float)))
    return -np.expm1(law_log_cdf(law, x))


def tail_asymptote(law: str, x) -> np.ndarray:
    """The paper's leading-order tails: x^-2 for H, phi(x)/x for the
    normal law, C exp(-2 (log x)^2/a)/(x log x) for the product law."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if law == "spherical_h":
        return x ** -2.0
    if law == "normal":
        return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) / x
    a = float(law[4:])
    c = math.sqrt(a) * math.exp(-a / 8.0) / (2.0 * math.sqrt(2.0 * math.pi))
    return c * np.exp(-2.0 * np.log(x) ** 2 / a) / (x * np.log(x))


# --- norming constants, from the formulas in the paper ------------------------


def truncated_constants(n: int, p: int) -> tuple[float, float]:
    """(A_n, B_n) with r = A_n + B_n x Gumbel-normalizing the radius."""
    c_sq = (p - 1) / (n - 1)
    log_y = math.log(n * c_sq / (1.0 - c_sq))
    a = math.sqrt(log_y) - math.log(math.sqrt(2.0 * math.pi) * log_y) / math.sqrt(log_y)
    half = 0.5 * math.sqrt(1.0 - c_sq) / math.sqrt(n - 1.0)
    return math.sqrt(c_sq) + half * a, half / math.sqrt(log_y)


def small_k_constants(n: int, k: int) -> tuple[float, float]:
    """(alpha_n, beta_n) with alpha_n (r^2/n^k - 1) - beta_n -> Gumbel."""
    ratio = n / k
    log_ratio = math.log(ratio)
    alpha_n = math.sqrt(ratio * log_ratio)
    beta_n = log_ratio - math.log(log_ratio) - 0.5 * math.log(2.0 * math.pi)
    return alpha_n, beta_n

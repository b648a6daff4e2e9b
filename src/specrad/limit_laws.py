"""The four limiting distributions of the normalized spectral radius.

    SphericalH       H(x) = prod_{k>=1} H_k(x^-2), H_k the Poisson(x^-2)
                     cdf at k-1; limit of radius/sqrt(n) for the spherical
                     ensemble.  H(x) = 0 for x <= 0.
    Gumbel           Lambda(x) = exp(-exp(-x)); limit for the truncated
                     ensemble and the small-k product regime.
    ProductLaw{a}    Phi_a(sqrt(a)/2 + 2 log(x)/sqrt(a)) with
                     Phi_a(x) = prod_{j>=0} Phi(x + j sqrt(a)); limit of
                     the product-ensemble radius when k/n -> a.
    StandardNormal   limit of the centered log-radius when k/n -> inf.

Both infinite products are evaluated as compensated sums of log factors
with a certified truncation bound:

  * For H, the dropped mass R_K = sum_{k>K} (1 - H_k(tau)) = E[(X - K)^+]
    with X ~ Poisson(tau) is a suffix sum of the pmf table's suffix sums,
    so no term cancels, and -log(1-u) <= u/(1-u) turns it into a bound on
    the dropped log sum.
  * For Phi_a, the Gaussian tail bound 1 - Phi(t) <= phi(t)/t plus the
    geometric factor-ratio bound exp(-sqrt(a) t) dominate the dropped tail.

Each cdf value is returned as a CdfValue carrying its log and that bound.

The vector paths evaluate the same factors as arrays, one table row per
point.  Normal tails come from specfun's array erfc (Cody's rational
approximations), never from a Python float per element.  Each Phi_a point
keeps the scalar path's own truncation J: the points are sorted, so J
falls along them, and each row's log is read at its J from a cumulative
sum.  Both tables are cut into blocks of at most _TABLE_CELLS = 2^14 cells
(128 KB per temporary; on a 2-CPU Xeon with 4 MB L2 the Phi_a kernel ran
about a third faster than at 2^15 or 2^16 cells).  So a point's value
does not depend on the other points of the call, and working memory
follows the block, not the call.

Neither product has a closed-form inverse, so ``quantiles`` inverts the
vector cdf numerically in the law's natural coordinate (log x for H, the
Gaussian argument t for Phi_a, x for the normal law).  One tabulation of
the cdf on a fixed grid gives every level a bracketing cell (Hormann and
Leydold, ACM TOMACS 2003); the levels not yet solved then take bracketed
Illinois steps (Dowell and Jarratt, BIT 1971) until |F(x) - q| <= tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import NonConvergenceError
from .specfun import _erfc_array, log_std_normal_cdf, std_normal_cdf, std_normal_pdf
from .samplers import RandomStream

__all__ = [
    "SphericalH",
    "Gumbel",
    "ProductLaw",
    "StandardNormal",
    "LimitLaw",
    "SPHERICAL_H",
    "GUMBEL",
    "STANDARD_NORMAL",
    "CdfValue",
    "spherical_h_cdf",
    "gumbel_cdf",
    "phi_alpha",
    "product_law_cdf",
    "cdf",
    "cdf_values",
    "upper_tail",
    "tail_asymptote",
    "quantile",
    "quantiles",
    "sample_limit",
    "sample_limit_batch",
]


@dataclass(frozen=True)
class SphericalH:
    pass


@dataclass(frozen=True)
class Gumbel:
    pass


@dataclass(frozen=True)
class ProductLaw:
    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not (math.isfinite(a) and a > 0.0):
            raise ValueError(f"alpha must be a positive finite real, got {self.alpha}")
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class StandardNormal:
    pass


LimitLaw = Union[SphericalH, Gumbel, ProductLaw, StandardNormal]

SPHERICAL_H = SphericalH()
GUMBEL = Gumbel()
STANDARD_NORMAL = StandardNormal()


@dataclass(frozen=True)
class CdfValue:
    """A cdf evaluation with its natural log and a rigorous bound on the
    |log error| introduced by truncating an infinite product (0 when the
    formula is closed-form)."""

    value: float
    log_value: float
    truncation_bound: float


# cells (rows x columns) per block of the vector H and Phi_alpha tables,
# one row per point; a block holds one row when that row alone is wider
_TABLE_CELLS = 1 << 14


def _validate_tol(tol: float) -> float:
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive finite real, got {tol}")
    return tol


# ---------------------------------------------------------------------------
# spherical H law


def _poisson_weight_table(tau: float, i_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled Poisson(tau) pmf machinery on i = 0..i_max.

    Returns (prefix, suffix, total) of weights w_i = pmf_i * exp(-m) for the
    row max m, so every entry is in (0, 1] and ratios are exact pmf ratios.
    prefix[i] = sum_{l<=i} w_l, suffix[i] = sum_{l>=i} w_l; both are sums of
    positives and keep relative accuracy at their small ends.
    """
    i = np.arange(i_max + 1, dtype=float)
    if tau > 0.0:
        log_pmf = -tau + i * math.log(tau) - np.cumsum(np.concatenate(([0.0], np.log(i[1:]))))
    else:
        log_pmf = np.full(i_max + 1, -np.inf)
        log_pmf[0] = 0.0
    w = np.exp(log_pmf - np.max(log_pmf))
    prefix = np.cumsum(w)
    suffix = np.cumsum(w[::-1])[::-1]
    return prefix, suffix, float(prefix[-1])


def _poisson_table_span(tau: float) -> int:
    return int(math.ceil(tau + 12.0 * math.sqrt(tau + 1.0))) + 40


def _dropped_complement_mass(tau, suffix: np.ndarray, total) -> np.ndarray:
    """R_k = sum_{l>k} (1 - H_l(tau)) = E[(X - k)^+], X ~ Poisson(tau), for
    k = 1..i_max, along the last axis of a weight table on 0..i_max.

    Inside the table R_k is a suffix sum of the suffix sums, a sum of
    positives with no cancellation.  The complements beyond the table's end
    add at most p_m ((m+1)/(m+1-tau))^2 with m = i_max + 1, since the pmf
    ratios tau/(l+1) stay below tau/(m+1) < 1 there.
    """
    tail = np.cumsum(suffix[..., ::-1], axis=-1)[..., ::-1]
    inside = np.zeros(suffix.shape[:-1] + (suffix.shape[-1] - 1,))
    inside[..., :-1] = tail[..., 2:]
    tau = np.asarray(tau, dtype=float)
    m = suffix.shape[-1]
    with np.errstate(divide="ignore"):
        log_p_m = -tau + m * np.log(tau) - math.lgamma(m + 1.0)
    beyond = np.exp(log_p_m) * ((m + 1.0) / (m + 1.0 - tau)) ** 2
    return inside / np.asarray(total)[..., None] + np.asarray(beyond)[..., None]


def spherical_h_cdf(x: float, tol: float = 1e-12, max_terms: int = 200_000) -> CdfValue:
    """H(x) for the spherical radius limit; exactly 0 for x <= 0.

    log H(x) = sum_{k=1}^K log H_k(tau), tau = x^-2, stopping at the first
    K whose certified remainder bound R_K / H_K(tau) falls below tol (the
    dropped factors satisfy -log H_k <= (1-H_k)/H_k and H_k >= H_K for
    k > K, so the bound dominates the dropped log mass).
    """
    tol = _validate_tol(tol)
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if x <= 0.0:
        return CdfValue(0.0, -math.inf, 0.0)
    tau = x ** (-2.0)
    if tau > 745.0:
        # H(x) <= H_1(tau) = e^{-tau} < 5e-324: exactly 0 in double precision
        return CdfValue(0.0, -math.inf, 0.0)

    i_max = _poisson_table_span(tau)
    prefix, suffix, total = _poisson_weight_table(tau, i_max)
    dropped = _dropped_complement_mass(tau, suffix, total)

    log_factors: list[float] = []
    k = 0
    while True:
        k += 1
        if k + 1 > i_max:
            i_max *= 2
            prefix, suffix, total = _poisson_weight_table(tau, i_max)
            dropped = _dropped_complement_mass(tau, suffix, total)
        # c_k = P(Poi >= k) = 1 - H_k; h_k = H_k = P(Poi <= k-1)
        c_k = float(suffix[k]) / total
        h_k = float(prefix[k - 1]) / total
        if c_k <= 0.5:
            log_factors.append(math.log1p(-c_k))
        else:
            log_factors.append(math.log(h_k))
        bound = float(dropped[k - 1]) / h_k if h_k > 0.0 else math.inf
        if bound <= tol:
            break
        if k >= max_terms:
            raise NonConvergenceError(
                f"spherical H truncation did not reach tol={tol} within "
                f"{max_terms} factors at x={x}",
                achieved=bound,
            )

    log_value = math.fsum(log_factors)
    return CdfValue(math.exp(log_value), log_value, bound)


def _spherical_h_log_vec(x: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Vector version of the H log-cdf for bulk evaluation (sampling, KS
    grids).  Same factor formulas; plain summation instead of fsum, which
    costs ~1e-13 absolute at worst, irrelevant at the tolerances used for
    batch work (>= 1e-10)."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -np.inf)
    bounds = np.zeros(x.shape)
    pos = x > 0.0
    if not np.any(pos):
        return out, bounds

    # H(x) <= H_1(tau) = e^{-tau}, so tau > 745 underflows the double value
    # to exactly 0: those points keep log -inf, as in the scalar path,
    # without giant Poisson tables
    tau = np.clip(x[pos] ** (-2.0), 1e-300, None)
    pos[pos] = tau <= 745.0
    tau = tau[tau <= 745.0]
    if tau.size == 0:
        return out, bounds
    tau_max = float(np.max(tau))
    i_max = _poisson_table_span(tau_max)
    i = np.arange(i_max + 1, dtype=float)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(i[1:]))))
    log_pos, bounds_pos = np.empty(tau.shape), np.empty(tau.shape)
    step = max(1, _TABLE_CELLS // (i_max + 1))
    for start in range(0, len(tau), step):
        rows = slice(start, start + step)
        log_pos[rows], bounds_pos[rows] = _spherical_h_log_rows(tau[rows], i, log_fact, tol)
    out[pos] = log_pos
    bounds[pos] = bounds_pos
    return out, bounds


def _spherical_h_log_rows(tau, i, log_fact, tol):
    """log H and its bound for a block of rows, one tau per row; columns
    are the Poisson support 0..i_max shared by every block of a call."""
    log_pmf = -tau[:, None] + i[None, :] * np.log(tau)[:, None] - log_fact[None, :]
    w = np.exp(log_pmf - np.max(log_pmf, axis=1, keepdims=True))
    prefix = np.cumsum(w, axis=1)
    suffix = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
    total = prefix[:, -1]

    # c[:, k-1] = 1 - H_k for k = 1..i_max; factor logs from whichever of
    # (complement, direct) is the small, relatively-accurate one
    c = suffix[:, 1:] / total[:, None]
    h = prefix[:, :-1] / total[:, None]
    with np.errstate(divide="ignore"):
        logs = np.where(c <= 0.5, np.log1p(-np.minimum(c, 1.0)), np.log(np.maximum(h, 1e-320)))

    # per-row K: first k with R_k/H_k <= tol
    residual = _dropped_complement_mass(tau, suffix, total)
    ok = residual <= tol * np.maximum(h, 1e-320)
    k_stop = np.argmax(ok, axis=1)
    rows = np.arange(len(tau))
    if not np.all(ok[rows, k_stop]):
        raise NonConvergenceError(
            f"H table span insufficient for tol={tol} (tau_max={float(np.max(tau)):.3g})"
        )
    csum = np.cumsum(logs, axis=1)
    bounds = np.maximum(residual[rows, k_stop], 0.0) / np.maximum(h[rows, k_stop], 1e-320)
    return csum[rows, k_stop], bounds


# ---------------------------------------------------------------------------
# Gumbel


def gumbel_cdf(x: float) -> float:
    """Lambda(x) = exp(-exp(-x)), exact."""
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    return math.exp(-math.exp(-x))


# ---------------------------------------------------------------------------
# Phi_alpha and the product law


def phi_alpha(x: float, alpha: float, tol: float = 1e-12, max_terms: int = 200_000) -> CdfValue:
    """Phi_alpha(x) = prod_{j>=0} Phi(x + j sqrt(alpha)).

    Truncates at the first J with t_J = x + J sqrt(alpha) >= 1 and
    u_J/(1 - r_J) <= tol * Phi(t_J), where u_J = 1 - Phi(t_J) and
    r_J = exp(-sqrt(alpha) t_J) dominates the ratio of successive tails;
    the dropped log mass is then below u_J/((1-r_J) Phi(t_J)) <= tol.
    """
    tol = _validate_tol(tol)
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be a positive finite real, got {alpha}")
    sqrt_a = math.sqrt(alpha)

    logs: list[float] = []
    j = 0
    while True:
        t = x + j * sqrt_a
        if t >= 1.0:
            u, bound = _phi_tail(t, sqrt_a)
            if bound <= tol:
                break
            # log Phi(t) for t > 0 is log1p(-u), as in log_std_normal_cdf
            logs.append(math.log1p(-u))
        else:
            logs.append(log_std_normal_cdf(t))
        j += 1
        if j > max_terms:
            raise NonConvergenceError(
                f"Phi_alpha truncation did not reach tol={tol} within {max_terms} "
                f"factors at x={x}, alpha={alpha}",
                achieved=bound if t >= 1.0 else math.inf,
            )
    log_value = math.fsum(logs)
    return CdfValue(math.exp(log_value), log_value, bound)


_SQRT1_2 = math.sqrt(0.5)

_PHI_MAX_TERMS = 1_000_000


def _phi_tail(t: float, sqrt_a: float) -> tuple[float, float]:
    """u = 1 - Phi(t) and the certified bound u / ((1 - r) Phi(t)), with
    r = exp(-sqrt_a t), on the log mass of the Phi_alpha factors from the
    one at t >= 1 on."""
    u = 0.5 * math.erfc(t * _SQRT1_2)
    return u, u / ((1.0 - math.exp(-sqrt_a * t)) * (1.0 - u))


def _phi_tail_bound_vec(t: np.ndarray, sqrt_a: float) -> np.ndarray:
    """The bound of ``_phi_tail`` over an array of t >= 1."""
    u = 0.5 * _erfc_array(t * _SQRT1_2)
    return u / ((1.0 - np.exp(-sqrt_a * t)) * (1.0 - u))


def _log_std_normal_cdf_vec(t: np.ndarray) -> np.ndarray:
    """Vectorized log Phi; mirrors specfun.log_std_normal_cdf.

    With c = erfc(|t|/sqrt 2)/2, log Phi(t) is log1p(-c) for t > 0 and
    log c for -30 <= t <= 0; below -30 the Mills-ratio continued fraction
    takes over on the log scale.
    """
    t = np.asarray(t, dtype=float)
    c = 0.5 * _erfc_array(np.abs(t) * _SQRT1_2)
    with np.errstate(divide="ignore"):
        out = np.where(t > 0.0, np.log1p(-c), np.log(c))
    lo = t < -30.0
    if np.any(lo):
        s = -t[lo]
        cf = s + 40.0
        for kk in range(39, 0, -1):
            cf = s + kk / cf
        out[lo] = -0.5 * s * s - 0.5 * math.log(2.0 * math.pi) - np.log(cf)
    return out


def _phi_alpha_truncation(x: np.ndarray, sqrt_a: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the scalar path's J (the first J with t_J = x + J sqrt_a
    >= 1 and bound(t_J) <= tol) and that bound.

    The bound falls as t grows and is 0 in double precision at t = 40, so
    every J follows from the one t* where it meets tol: a scalar bisection
    finds t*, and single steps of J settle the rounding near it.
    """
    lo, hi = 1.0, 40.0
    for _ in range(42):
        mid = 0.5 * (lo + hi)
        if _phi_tail(mid, sqrt_a)[1] <= tol:
            hi = mid
        else:
            lo = mid
    j_stop = np.maximum(np.ceil((hi - x) / sqrt_a), 0.0)
    if np.any(j_stop > _PHI_MAX_TERMS):
        raise NonConvergenceError(
            f"Phi_alpha vector truncation needs more than {_PHI_MAX_TERMS} factors "
            f"at x={float(np.min(x))}",
            achieved=math.inf,
        )

    def meets(j):
        t = x + j * sqrt_a
        bound = np.where(t >= 1.0, _phi_tail_bound_vec(np.maximum(t, 1.0), sqrt_a), np.inf)
        return bound <= tol, bound

    while True:
        ok, bounds = meets(j_stop)
        back = ok & (j_stop > 0.0) & meets(j_stop - 1.0)[0]
        if np.all(ok) and not np.any(back):
            return j_stop.astype(np.int64), bounds
        j_stop += ~ok
        j_stop -= back


def _phi_alpha_log_rows(x: np.ndarray, j_stop: np.ndarray, sqrt_a: float) -> np.ndarray:
    """log Phi_alpha for a block of rows, one point per row, each row summed
    over its own first j_stop factors; the table spans the widest row."""
    width = int(np.max(j_stop))
    out = np.zeros(x.shape)
    if width == 0:
        return out
    terms = x[:, None] + sqrt_a * np.arange(width, dtype=float)
    csum = np.cumsum(_log_std_normal_cdf_vec(terms), axis=1)
    rows = np.flatnonzero(j_stop > 0)
    out[rows] = csum[rows, j_stop[rows] - 1]
    return out


def _phi_alpha_log_vec(x: np.ndarray, alpha: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """log Phi_alpha and its truncation bound at every point.

    Each point keeps its own truncation J, as in ``phi_alpha``.  The points
    are sorted, so J falls along them, and cut into blocks of at most
    _TABLE_CELLS table cells; each row's log is read at its own J from
    a cumulative sum.  A point's value does not depend on the other points
    of the call.  +inf gives log 1 and -inf log 0.
    """
    x = np.asarray(x, dtype=float)
    sqrt_a = math.sqrt(alpha)
    flat = x.ravel()
    log_v = np.where(flat > 0.0, 0.0, -np.inf)
    bounds = np.zeros(flat.shape)
    finite = np.flatnonzero(np.isfinite(flat))
    if finite.size:
        finite = finite[np.argsort(flat[finite], kind="stable")]
        xs = flat[finite]
        j_stop, bounds[finite] = _phi_alpha_truncation(xs, sqrt_a, tol)
        start = 0
        while start < len(xs):
            stop = start + max(1, _TABLE_CELLS // max(int(j_stop[start]), 1))
            log_v[finite[start:stop]] = _phi_alpha_log_rows(xs[start:stop], j_stop[start:stop], sqrt_a)
            start = stop
    return log_v.reshape(x.shape), bounds.reshape(x.shape)


def product_law_cdf(x: float, alpha: float, tol: float = 1e-12) -> CdfValue:
    """Limit cdf of radius/n^(k/2) when k/n -> alpha:
    Phi_alpha(sqrt(alpha)/2 + 2 log(x)/sqrt(alpha)); 0 for x <= 0."""
    tol = _validate_tol(tol)
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be a positive finite real, got {alpha}")
    if x <= 0.0:
        return CdfValue(0.0, -math.inf, 0.0)
    sqrt_a = math.sqrt(alpha)
    return phi_alpha(0.5 * sqrt_a + 2.0 * math.log(x) / sqrt_a, alpha, tol)


# ---------------------------------------------------------------------------
# generic dispatch


def cdf(law: LimitLaw, x: float, tol: float = 1e-12) -> CdfValue:
    """CdfValue of any limit law at x (closed forms report bound 0)."""
    if isinstance(law, SphericalH):
        return spherical_h_cdf(x, tol)
    if isinstance(law, Gumbel):
        x = float(x)
        if math.isnan(x):
            raise ValueError("x must not be NaN")
        return CdfValue(gumbel_cdf(x), -math.exp(-x), 0.0)
    if isinstance(law, ProductLaw):
        return product_law_cdf(x, law.alpha, tol)
    if isinstance(law, StandardNormal):
        x = float(x)
        if math.isnan(x):
            raise ValueError("x must not be NaN")
        return CdfValue(std_normal_cdf(x), log_std_normal_cdf(x), 0.0)
    raise ValueError(f"unknown limit law: {law!r}")


def cdf_values(law: LimitLaw, x, tol: float = 1e-10) -> np.ndarray:
    """Vectorized cdf evaluation (values only), for KS statistics and grids."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.isnan(x)):
        raise ValueError("x must not be NaN")
    if isinstance(law, SphericalH):
        log_v, _ = _spherical_h_log_vec(x, tol)
        return np.exp(log_v)
    if isinstance(law, Gumbel):
        with np.errstate(over="ignore"):
            return np.exp(-np.exp(-x))
    if isinstance(law, ProductLaw):
        out = np.zeros(x.shape)
        pos = x > 0.0
        if np.any(pos):
            sqrt_a = math.sqrt(law.alpha)
            args = 0.5 * sqrt_a + 2.0 * np.log(x[pos]) / sqrt_a
            log_v, _ = _phi_alpha_log_vec(args, law.alpha, tol)
            out[pos] = np.exp(log_v)
        return out
    if isinstance(law, StandardNormal):
        return 0.5 * _erfc_array(-x * _SQRT1_2)
    raise ValueError(f"unknown limit law: {law!r}")


def upper_tail(law: LimitLaw, x: float, tol: float = 1e-12) -> float:
    """1 - cdf(x) with relative accuracy preserved through the log form:
    -expm1(log_value) never subtracts two near-1 doubles."""
    if isinstance(law, Gumbel):
        return -math.expm1(-math.exp(-float(x)))
    if isinstance(law, StandardNormal):
        return 0.5 * math.erfc(float(x) * _SQRT1_2)
    cv = cdf(law, x, tol)
    return -math.expm1(cv.log_value)


def tail_asymptote(law: LimitLaw, x: float) -> float:
    """Leading-order upper-tail approximation 1 - cdf(x) for x > 1.

    SphericalH: x^-2.  ProductLaw{a}: C exp(-2 (log x)^2/a)/(x log x) with
    C = sqrt(a) e^(-a/8) / (2 sqrt(2 pi)).  StandardNormal: phi(x)/x.
    Gumbel: the exact complement -expm1(-exp(-x)) (no approximation).
    """
    x = float(x)
    if not x > 1.0:
        raise ValueError(f"tail asymptote requires x > 1, got {x}")
    if isinstance(law, SphericalH):
        return x ** (-2.0)
    if isinstance(law, Gumbel):
        return -math.expm1(-math.exp(-x))
    if isinstance(law, ProductLaw):
        a = law.alpha
        c = math.sqrt(a) * math.exp(-a / 8.0) / (2.0 * math.sqrt(2.0 * math.pi))
        log_x = math.log(x)
        return c * math.exp(-2.0 * log_x * log_x / a) / (x * log_x)
    if isinstance(law, StandardNormal):
        return std_normal_pdf(x) / x
    raise ValueError(f"unknown limit law: {law!r}")


# ---------------------------------------------------------------------------
# quantiles and sampling


def _seed_bracket(law: LimitLaw, q_lo: float, q_hi: float) -> tuple[float, float, bool]:
    """Starting bracket containing all quantiles in [q_lo, q_hi].

    Base intervals are [1e-3, 1e3] on positive-support laws and [-8, 8]
    otherwise, refined with certified analytic pre-brackets:

      SphericalH:  H(x) <= H_1(x^-2) = exp(-x^-2) gives a lower edge, and
                   1 - H(x) <= x^-2 / H_1(x^-2) gives an upper edge.  This
                   keeps tau = x^-2 modest, so bracketing never evaluates
                   the product at astronomically long Poisson spans.
      ProductLaw:  the search runs in the Gaussian argument t = sqrt(a)/2
                   + 2 log(x)/sqrt(a), where Phi_a(t) <= Phi(t) bounds the
                   lower edge via the Gaussian tail.

    The caller still expands outward when an edge turns out to be inside.
    """
    if isinstance(law, SphericalH):
        lo = max(1e-3, 0.98 / math.sqrt(math.log(1.0 / q_lo)))
        hi = min(1e3, 1.5 * math.sqrt(2.0 / (1.0 - q_hi)))
        return lo, max(hi, 2.0 * lo), True
    if isinstance(law, ProductLaw):
        # t-space bracket (caller converts); Phi(t) <= exp(-t^2/2) for t < 0
        lo = -math.sqrt(2.0 * math.log(1.0 / q_lo)) - 1.0
        hi = math.sqrt(2.0 * math.log(1.0 / (1.0 - q_hi))) + 3.0 + 1.0 / math.sqrt(law.alpha)
        return lo, hi, False
    return -8.0, 8.0, False


def _product_arg_to_x(law: ProductLaw, t):
    sqrt_a = math.sqrt(law.alpha)
    return np.exp((np.asarray(t, dtype=float) - 0.5 * sqrt_a) * sqrt_a / 2.0)


def quantile(law: LimitLaw, q: float, tol: float = 1e-10, max_iter: int = 500) -> float:
    """x with |cdf(x) - q| <= tol, by bracket expansion then bisection.
    Gumbel inverts in closed form."""
    q = float(q)
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie strictly between 0 and 1, got {q}")
    tol = _validate_tol(tol)
    if isinstance(law, Gumbel):
        return -math.log(-math.log(q))

    eval_tol = min(tol * 0.1, 1e-11)
    stop_tol = tol - eval_tol

    in_t_space = isinstance(law, ProductLaw)

    def f(point: float) -> float:
        if in_t_space:
            return phi_alpha(point, law.alpha, eval_tol).value
        return cdf(law, point, eval_tol).value

    lo, hi, positive = _seed_bracket(law, q, q)
    for _ in range(80):
        if f(lo) <= q:
            break
        lo = lo / 2.0 if positive else lo - 4.0
    else:
        raise NonConvergenceError(f"could not bracket quantile q={q} from below")
    for _ in range(80):
        if f(hi) >= q:
            break
        hi = hi * 2.0 if positive else hi + 4.0
    else:
        raise NonConvergenceError(f"could not bracket quantile q={q} from above")

    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        v = f(mid)
        if abs(v - q) <= stop_tol:
            return float(_product_arg_to_x(law, mid)) if in_t_space else mid
        if v < q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= abs(mid) * 1e-17:
            return float(_product_arg_to_x(law, mid)) if in_t_space else mid
    raise NonConvergenceError(
        f"quantile bisection for q={q} did not reach tol={tol} in {max_iter} iterations"
    )


# nodes of the one cdf tabulation that seeds every level's bracket in
# ``quantiles``, and its caps on bracket expansion and solver passes
_QUANTILE_GRID_NODES = 257
_EXPAND_STEPS = 64
_SOLVE_STEPS = 200


def quantiles(law: LimitLaw, q, tol: float = 1e-10) -> np.ndarray:
    """Vectorized quantile: x with |cdf(x) - q| <= tol for every level.

    Works in the law's natural coordinate u: log x for SphericalH, the
    Gaussian argument t for ProductLaw, x for StandardNormal.  Gumbel
    inverts in closed form.

      1. The certified ``_seed_bracket`` of [min q, max q] is expanded
         outward, with doubling steps, until F(lo) < min q and
         F(hi) >= max q hold for evaluated values.
      2. The vector cdf is evaluated once on _QUANTILE_GRID_NODES equally
         spaced nodes of [lo, hi], and a binary search gives each level a
         cell with F(left) < q <= F(right).  Binary search finds such a
         cell even where the evaluated cdf is not monotone; a cell whose
         values still do not bracket q (a NaN value) falls back to the
         whole [lo, hi].
      3. The unsolved levels take Illinois steps (regula falsi that halves
         the value kept at an end retained twice in a row), a bisection
         step whenever the secant point leaves the open bracket, and the
         vector cdf is evaluated on those levels only.

    Every cdf value is computed to eval_tol = min(tol/10, 1e-11) and a
    level is accepted once |F(u) - q| <= tol - eval_tol, so the returned
    x is within tol of its level.  Raises NonConvergenceError when the
    bracket cannot be expanded, when a bracket shrinks to adjacent doubles
    without meeting tol, or after _SOLVE_STEPS passes.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if not np.all((q > 0.0) & (q < 1.0)):
        raise ValueError("all quantile levels must lie strictly in (0, 1)")
    tol = _validate_tol(tol)
    if isinstance(law, Gumbel):
        return -np.log(-np.log(q))
    if q.size == 0:
        return np.empty(q.shape)

    eval_tol = min(tol * 0.1, 1e-11)
    stop_tol = tol - eval_tol

    if isinstance(law, ProductLaw):
        def fvec(u: np.ndarray) -> np.ndarray:
            return np.exp(_phi_alpha_log_vec(u, law.alpha, eval_tol)[0])

        def to_x(u: np.ndarray) -> np.ndarray:
            return _product_arg_to_x(law, u)
    elif isinstance(law, SphericalH):
        def fvec(u: np.ndarray) -> np.ndarray:
            return cdf_values(law, np.exp(u), eval_tol)

        to_x = np.exp
    else:
        def fvec(u: np.ndarray) -> np.ndarray:
            return cdf_values(law, u, eval_tol)

        def to_x(u: np.ndarray) -> np.ndarray:
            return u

    levels = q.ravel()
    q_min, q_max = float(np.min(levels)), float(np.max(levels))

    # 1. expand the certified seed bracket until evaluated values bracket
    lo, hi, positive = _seed_bracket(law, q_min, q_max)
    ends = np.log([lo, hi]) if positive else np.array([lo, hi])
    steps = np.full(2, math.log(2.0) if positive else 4.0)
    f_ends = fvec(ends)
    for _ in range(_EXPAND_STEPS):
        short = np.array([f_ends[0] >= q_min, f_ends[1] < q_max])
        if not np.any(short):
            break
        ends[short] += np.array([-1.0, 1.0])[short] * steps[short]
        steps[short] *= 2.0
        f_ends[short] = fvec(ends[short])
    else:
        raise NonConvergenceError(
            f"could not bracket quantile levels [{q_min}, {q_max}] "
            f"in {_EXPAND_STEPS} expansion steps"
        )

    # 2. one tabulation of F gives each level its bracketing cell
    nodes = np.linspace(ends[0], ends[1], _QUANTILE_GRID_NODES)
    f_nodes = np.concatenate(([f_ends[0]], fvec(nodes[1:-1]), [f_ends[1]]))
    right = np.clip(np.searchsorted(f_nodes, levels), 1, _QUANTILE_GRID_NODES - 1)
    left = right - 1
    unbracketed = ~((f_nodes[left] < levels) & (f_nodes[right] >= levels))
    left[unbracketed] = 0
    right[unbracketed] = _QUANTILE_GRID_NODES - 1

    u_out = np.empty(levels.shape)
    a, b = nodes[left], nodes[right]
    fa, fb = f_nodes[left] - levels, f_nodes[right] - levels
    at_b = np.abs(fb) <= stop_tol
    at_a = ~at_b & (np.abs(fa) <= stop_tol)
    u_out[at_b] = b[at_b]
    u_out[at_a] = a[at_a]

    # 3. Illinois steps on the unsolved levels only; fa < 0 <= fb throughout
    active = np.flatnonzero(~(at_a | at_b))
    a, b, fa, fb, lev = a[active], b[active], fa[active], fb[active], levels[active]
    moved = np.zeros(active.shape, dtype=np.int8)  # end replaced last: -1 a, +1 b
    for _ in range(_SOLVE_STEPS):
        if active.size == 0:
            break
        with np.errstate(invalid="ignore", over="ignore"):
            u = b - fb * (b - a) / (fb - fa)
        u = np.where((u > a) & (u < b), u, 0.5 * (a + b))
        stuck = ~((u > a) & (u < b))
        if np.any(stuck):
            raise NonConvergenceError(
                f"quantile bracket for q={lev[stuck][0]} shrank to adjacent "
                f"doubles without reaching tol={tol}"
            )
        fu = fvec(u) - lev
        done = np.abs(fu) <= stop_tol
        u_out[active[done]] = u[done]
        below = fu < 0.0
        fb = np.where(below & (moved == -1), 0.5 * fb, fb)
        fa = np.where(~below & (moved == 1), 0.5 * fa, fa)
        a, fa = np.where(below, u, a), np.where(below, fu, fa)
        b, fb = np.where(below, b, u), np.where(below, fb, fu)
        moved = np.where(below, -1, 1).astype(np.int8)
        keep = ~done
        active, a, b, fa, fb, lev, moved = (
            v[keep] for v in (active, a, b, fa, fb, lev, moved)
        )
    if active.size:
        raise NonConvergenceError(
            f"quantile solver left {active.size} levels above tol={tol} "
            f"after {_SOLVE_STEPS} steps"
        )
    return to_x(u_out).reshape(q.shape)


def _uniform_source(rng):
    # accept a RandomStream or a bare numpy Generator
    return getattr(rng, "generator", rng)


def sample_limit(law: LimitLaw, rng: RandomStream) -> float:
    """One draw by inverse-cdf transform of a uniform variate (exact up to
    the 1e-10 quantile tolerance)."""
    gen = _uniform_source(rng)
    u = float(gen.random())
    while u <= 0.0 or u >= 1.0:
        u = float(gen.random())
    if isinstance(law, Gumbel):
        return -math.log(-math.log(u))
    return quantile(law, u, 1e-10)


def sample_limit_batch(law: LimitLaw, rng: RandomStream, size: int) -> np.ndarray:
    """size draws by vectorized inverse-cdf transform."""
    if int(size) != size or size < 1:
        raise ValueError(f"size must be a positive integer, got {size}")
    u = _uniform_source(rng).random(int(size))
    u = np.clip(u, 1e-16, 1.0 - 1e-16)
    if isinstance(law, Gumbel):
        return -np.log(-np.log(u))
    return quantiles(law, u, 1e-10)

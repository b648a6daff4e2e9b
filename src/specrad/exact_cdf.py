"""Exact finite-n cdfs of the spectral radius.

Each ensemble's radius cdf is a finite product of order-statistic factors,
and every factor is a tail probability of a classical discrete law:

    spherical:  prod_{j=1}^n I_u(j, n-j+1),  u = r^2/(1+r^2)
                I_u(j, n-j+1) = P(Binomial(n, u) >= j)
    truncated:  prod_{j=1}^p I_x(j, m),  x = r^2, m = n-p
                I_x(j, m) = P(NegBinomial(m, x) >= j)
    product k=1: prod_{j=1}^n P(j, r^2) = P(Poisson(r^2) >= j)

So one scaled pmf table per evaluation point yields every factor at once:
prefix sums give the factor complements (relatively accurate when the
factor is near 1), suffix sums give the factors themselves (relatively
accurate when tiny), and the log-product is the sum of per-factor logs,
with early exit to 0 once it falls below log(1e-320).  For product k=1 a
Chernoff bound on the Poisson lower tail also certifies, with no table,
the radii at which every factor is 1 and the log-product is 0.  This is
cancellation-free and O(support) per point, where per-point support is
windowed to mean +/- 45 sd once sizes are large.

The k=2 product ensemble has no single-pmf structure; its factor
P(s1 s2 <= t) = integral of P(j, t/s) against the Gamma(j) density is
computed by Gauss-Legendre quadrature in u = log s (the integrand is
log-concave in u), after peeling off the exactly-known piece below
s_a = t/y_eps where P(j, t/s) = 1 to double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .norming import EnsembleSpec, GinibreProduct, Spherical, TruncatedUnitary
from .specfun import reg_inc_beta, reg_inc_gamma_lower

__all__ = [
    "CdfCurve",
    "spherical_exact_cdf",
    "truncated_exact_cdf",
    "product_exact_cdf_k1",
    "product_exact_cdf_k2",
    "exact_log_cdf",
    "exact_cdf_fn",
    "cdf_curve",
]

_LOG_ZERO_CUT = math.log(1e-320)
# pmf support window half-width in standard deviations; the cut mass is
# below exp(-45^2/2) ~ 1e-440, beyond the 1e-320 early-exit floor
_WINDOW_SD = 45.0
_WINDOW_PAD = 100
_FULL_SUPPORT_LIMIT = 4096


@dataclass(frozen=True)
class CdfCurve:
    """An exact cdf sampled on an increasing grid."""

    grid: np.ndarray
    values: np.ndarray
    spec: EnsembleSpec

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.shape != values.shape or grid.ndim != 1:
            raise ValueError("grid and values must be aligned 1-d arrays")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if np.any(np.diff(values) < -1e-12):
            raise ValueError("cdf values must be nondecreasing")


def _factor_log_sum(log_pmf: np.ndarray, i0: int, j_max: int) -> np.ndarray:
    """Sum of log tail-factors sum_{j=1}^{j_max} log P(X >= j) per row.

    ``log_pmf`` holds log pmf values on consecutive integers i0..i0+cols-1
    (one row per evaluation point); mass outside the window must be below
    the 1e-320 floor.  Factors with j beyond the window's right edge make
    the row -inf (the product is then 0 to double precision); factors left
    of the window contribute log 1 = 0.
    """
    w = np.exp(log_pmf - np.max(log_pmf, axis=1, keepdims=True))
    prefix = np.cumsum(w, axis=1)
    suffix = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
    total = prefix[:, -1:]

    # columns c correspond to j = i0 + c; usable j range within the window
    cols = w.shape[1]
    c_lo = max(1 - i0, 0)
    c_hi = min(j_max - i0, cols - 1)

    out = np.zeros(w.shape[0])
    if j_max > i0 + cols - 1:
        return np.full(w.shape[0], -np.inf)
    if c_hi < c_lo:
        return out

    suf = suffix[:, c_lo : c_hi + 1]
    pre = prefix[:, c_lo - 1 : c_hi] if c_lo >= 1 else None
    if pre is None:
        # window starts at the support origin; complements there are 0
        pre = np.concatenate([np.zeros((w.shape[0], 1)), prefix[:, :c_hi]], axis=1)
    with np.errstate(divide="ignore"):
        small_direct = np.log(np.maximum(suf, 1e-320)) - np.log(total)
        near_one = np.log1p(-np.minimum(pre / total, 1.0))
    logs = np.where(suf <= pre, small_direct, near_one)
    out = np.sum(logs, axis=1)
    return out


def _window(center: float, sd: float, lo_cap: int, hi_cap: int | None) -> tuple[int, int]:
    lo = int(math.floor(center - _WINDOW_SD * sd)) - _WINDOW_PAD
    hi = int(math.ceil(center + _WINDOW_SD * sd)) + _WINDOW_PAD
    lo = max(lo, lo_cap)
    if hi_cap is not None:
        hi = min(hi, hi_cap)
    return lo, max(hi, lo)


def _chunked(values: np.ndarray, chunk: int = 64):
    for start in range(0, len(values), chunk):
        yield start, values[start : start + chunk]


def _spherical_log_cdf_vec(n: int, r: np.ndarray) -> np.ndarray:
    """log of prod_j P(Binomial(n, u) >= j) for each r; -inf where 0."""
    r = np.asarray(r, dtype=float)
    out = np.full(r.shape, -np.inf)
    pos = r > 0.0
    if not np.any(pos):
        return out
    # r^2 must stay finite; past 1e150 every factor is 1 - O(n r^-2) = 1
    rp = np.minimum(r[pos], 1e150)
    log_u = 2.0 * np.log(rp) - np.log1p(rp**2)
    log_1mu = -np.log1p(rp**2)

    # log C(n, i) from the ratio recurrence, once per call
    i = np.arange(1, n + 1, dtype=float)
    log_comb = np.concatenate(([0.0], np.cumsum(np.log((n - i + 1.0) / i))))

    res = np.empty(rp.shape)
    for start, lu in _chunked(log_u):
        l1 = log_1mu[start : start + len(lu)]
        # window from the chunk's extreme means (grids are sorted in practice,
        # so the union stays narrow)
        u_vals = np.exp(lu)
        mu_lo = n * float(np.min(u_vals))
        mu_hi = n * float(np.max(u_vals))
        sd = math.sqrt(max(mu_hi * (1.0 - mu_hi / n if mu_hi < n else 1.0), 1.0))
        if n <= _FULL_SUPPORT_LIMIT:
            i0, i1 = 0, n
        else:
            i0, _ = _window(mu_lo, sd, 0, n)
            _, i1 = _window(mu_hi, sd, 0, n)
        idx = np.arange(i0, i1 + 1, dtype=float)
        log_pmf = (
            log_comb[i0 : i1 + 1][None, :]
            + idx[None, :] * lu[:, None]
            + (n - idx)[None, :] * l1[:, None]
        )
        res[start : start + len(lu)] = _factor_log_sum(log_pmf, i0, n)
    out[pos] = res
    return out


def _nb_log_comb(m: int, i1: int) -> np.ndarray:
    """log C(i+m-1, i) for i = 0..i1 via cumulative ratios log((i+m-1)/i)."""
    ii = np.arange(1, i1 + 1, dtype=float)
    return np.concatenate(([0.0], np.cumsum(np.log((ii + m - 1.0) / ii))))


def _truncated_log_cdf_vec(n: int, p: int, r: np.ndarray) -> np.ndarray:
    """log of prod_{j<=p} P(NegBinomial(n-p, r^2) >= j); -inf where 0."""
    r = np.asarray(r, dtype=float)
    out = np.full(r.shape, -np.inf)
    if np.any((r < 0.0) | (r > 1.0)):
        raise ValueError("truncated-ensemble radius must lie in [0, 1]")
    out[r >= 1.0] = 0.0
    interior = (r > 0.0) & (r < 1.0)
    if not np.any(interior):
        return out
    rp = r[interior]
    m = n - p
    if m == 1:
        # I_x(j, 1) = x^j, so the log product is p(p+1)/2 * log x
        log_x_all = 2.0 * np.log(rp)
        out[interior] = 0.5 * p * (p + 1) * log_x_all
        return out
    log_x = 2.0 * np.log(rp)
    log_1mx = np.log1p(-rp) + np.log1p(rp)
    x = rp**2
    mean = m * x / (1.0 - x)
    sd = np.sqrt(m * x) / (1.0 - x)

    # all factors j <= p sit in the left tail of the pmf there, so the
    # normalized prefix on [0, p] is enough (total mass is analytically 1)
    deep = mean - _WINDOW_SD * sd - _WINDOW_PAD > p
    wide = (1 + _WINDOW_SD) * sd > 2_000_000.0
    res = np.empty(rp.shape)

    if np.any(deep):
        log_comb = _nb_log_comb(m, p)
        idx = np.arange(0, p + 1, dtype=float)
        for start, lx in _chunked(log_x[deep]):
            l1 = log_1mx[deep][start : start + len(lx)]
            log_pmf = (
                log_comb[None, :] + idx[None, :] * lx[:, None] + m * l1[:, None]
            )
            with np.errstate(under="ignore"):
                prefix = np.cumsum(np.exp(log_pmf), axis=1)
            # log factor_j = log1p(-P(X < j)), complements taken literally
            res_block = np.sum(np.log1p(-np.minimum(prefix[:, :-1], 1.0)), axis=1)
            sel = np.flatnonzero(deep)[start : start + len(lx)]
            res[sel] = res_block

    bulk = ~deep & ~wide
    if np.any(bulk):
        sel_all = np.flatnonzero(bulk)
        for start, lx in _chunked(log_x[bulk]):
            sel = sel_all[start : start + len(lx)]
            l1 = log_1mx[sel]
            i0 = int(np.min(np.floor(mean[sel] - _WINDOW_SD * sd[sel]))) - _WINDOW_PAD
            i0 = max(i0, 0)
            i1 = int(np.max(np.ceil(mean[sel] + _WINDOW_SD * sd[sel]))) + _WINDOW_PAD
            i1 = max(i1, p + _WINDOW_PAD)
            log_comb_all = _nb_log_comb(m, i1)
            idx = np.arange(i0, i1 + 1, dtype=float)
            log_pmf = (
                log_comb_all[i0 : i1 + 1][None, :]
                + idx[None, :] * lx[:, None]
                + m * l1[:, None]
            )
            res[sel] = _factor_log_sum(log_pmf, i0, p)

    slow = ~deep & wide
    for idx_s in np.flatnonzero(slow):
        # rare huge-dispersion corner: per-factor incomplete-beta calls
        acc = 0.0
        for j in range(1, p + 1):
            f = reg_inc_beta(float(x[idx_s]), float(j), float(m))
            if f <= 0.0:
                acc = -math.inf
                break
            acc += math.log(f)
            if acc < _LOG_ZERO_CUT:
                acc = -math.inf
                break
        res[idx_s] = acc

    out[interior] = res
    return out


def _product_k1_log_cdf_vec(n: int, r: np.ndarray) -> np.ndarray:
    """log of prod_{j<=n} P(Poisson(r^2) >= j); -inf where 0."""
    r = np.asarray(r, dtype=float)
    out = np.full(r.shape, -np.inf)
    pos = r > 0.0
    if not np.any(pos):
        return out
    # clamping keeps y finite; the Chernoff test below certifies these radii
    rp = np.minimum(r[pos], 1e150)
    y = rp**2
    log_y = 2.0 * np.log(rp)

    # Chernoff: P(Poisson(y) <= k) <= e^-y (e y/k)^k for 0 < k < y.  Once n
    # times that bound at k = n-1 is below the 1e-320 floor, every factor
    # P(Poisson(y) >= j), j <= n, is 1 and the log-product is 0 to double
    # precision, so those points skip the pmf kernel
    k = n - 1
    chernoff = -y + (k * (1.0 + log_y - math.log(k)) if k > 0 else 0.0) + math.log(n)
    sure = (y > k) & (chernoff < _LOG_ZERO_CUT)
    res = np.zeros(rp.shape)
    rest = ~sure
    res[rest] = _product_k1_kernel(n, y[rest], log_y[rest])
    out[pos] = res
    return out


def _product_k1_kernel(n: int, y: np.ndarray, log_y: np.ndarray) -> np.ndarray:
    """The same log-product from windowed Poisson(y) pmf tables, y = r^2 > 0."""
    res = np.empty(y.shape)
    for start, ys in _chunked(y):
        ly = log_y[start : start + len(ys)]
        y_hi = float(np.max(ys))
        y_lo = float(np.min(ys))
        sd = math.sqrt(max(y_hi, 1.0))
        if y_hi + _WINDOW_SD * sd + _WINDOW_PAD < _FULL_SUPPORT_LIMIT and n <= _FULL_SUPPORT_LIMIT:
            i0, i1 = 0, max(n, int(y_hi + _WINDOW_SD * sd) + _WINDOW_PAD)
        else:
            i0, _ = _window(y_lo, sd, 0, None)
            _, i1 = _window(y_hi, sd, 0, None)
            i1 = max(i1, n + _WINDOW_PAD)
        idx = np.arange(i0, i1 + 1, dtype=float)
        log_fact = np.concatenate(
            ([0.0], np.cumsum(np.log(np.arange(1, i1 + 1, dtype=float))))
        )
        log_pmf = (
            -ys[:, None] + idx[None, :] * ly[:, None] - log_fact[i0 : i1 + 1][None, :]
        )
        res[start : start + len(ys)] = _factor_log_sum(log_pmf, i0, n)
    return res


def _as_prob(log_v: float) -> float:
    if log_v < _LOG_ZERO_CUT:
        return 0.0
    return min(1.0, math.exp(log_v))


def spherical_exact_cdf(n: int, r: float) -> float:
    """P(spherical radius <= r) at matrix size n, exactly."""
    n = _check_n(n)
    r = _check_radius(r)
    if r == 0.0:
        return 0.0
    return _as_prob(float(_spherical_log_cdf_vec(n, np.array([r]))[0]))


def truncated_exact_cdf(n: int, p: int, r: float) -> float:
    """P(truncated-unitary radius <= r) for the p x p block of an n x n
    Haar unitary, exactly; the radius lives in [0, 1]."""
    spec = TruncatedUnitary(n, p)
    r = float(r)
    if math.isnan(r) or not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0, 1], got {r}")
    if r == 0.0:
        return 0.0
    if r == 1.0:
        return 1.0
    return _as_prob(float(_truncated_log_cdf_vec(spec.n, spec.p, np.array([r]))[0]))


def product_exact_cdf_k1(n: int, r: float) -> float:
    """P(single-Ginibre radius <= r) at matrix size n, exactly."""
    n = _check_n(n)
    r = _check_radius(r)
    if r == 0.0:
        return 0.0
    return _as_prob(float(_product_k1_log_cdf_vec(n, np.array([r]))[0]))


# --- k = 2 quadrature -------------------------------------------------------

# P(j, t/s) = 1 to double precision once t/s >= _Y_SURE(j)
def _y_sure(j: int) -> float:
    return 760.0 + (j - 1) * 8.0 + 20.0


def _gamma_upper_cut(j: int) -> float:
    """s_b with Gamma(j) mass above s_b below ~1e-330."""
    w = 760.0 / j + 1.0
    for _ in range(50):
        w = 760.0 / j + 1.0 + math.log(w)
    return j * w


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# adaptive node-doubling stops here; leggauss cost grows quadratically
_NODE_CAP = 8192


def _gl_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    if m not in _GL_CACHE:
        _GL_CACHE[m] = np.polynomial.legendre.leggauss(m)
    return _GL_CACHE[m]


def _reg_lower_gamma_int(j: int, y: np.ndarray) -> np.ndarray:
    """P(j, y) elementwise for integer shape j >= 1, accurate down to the
    deep left tail (the 1 - sum(Poisson) complement cancels to 0 there)."""
    out = np.empty(y.shape)
    small = y < j + 1.0

    ys = y[small]
    acc = np.ones(ys.shape)
    term = np.ones(ys.shape)
    for i in range(1, 1000):
        term = term * ys / (j + i)
        acc += term
        if not np.any(term > 1e-18 * acc):
            break
    with np.errstate(divide="ignore"):
        out[small] = np.exp(
            j * np.log(ys) - ys - math.lgamma(j + 1) + np.log(acc)
        )

    yl = y[~small]
    term = np.ones(yl.shape)
    total = np.ones(yl.shape)
    for i in range(1, j):
        term = term * yl / i
        total += term
    out[~small] = np.maximum(1.0 - np.exp(-yl + np.log(total)), 0.0)
    return out


def _k2_log_factors(t: np.ndarray, j: int, m_nodes: int) -> np.ndarray:
    """log P(s1 s2 <= t) for s1, s2 ~ Gamma(j), vectorized over t > 0.

    Splits at s_a = t_min/y_sure: below it P(j, t/s) is 1 to double
    precision, contributing reg_inc_gamma_lower(j, s_a) exactly; the rest
    is Gauss-Legendre in u = log s with m_nodes nodes.
    """
    t = np.asarray(t, dtype=float)
    t_min = float(np.min(t))
    s_a = t_min / _y_sure(j)
    s_b = _gamma_upper_cut(j)
    if s_a >= s_b:
        # the whole Gamma mass sits where P == 1
        return np.zeros(t.shape)
    u_lo = math.log(s_a)
    u_hi = math.log(s_b)
    nodes, weights = _gl_nodes(m_nodes)
    u = 0.5 * (u_hi - u_lo) * nodes + 0.5 * (u_hi + u_lo)
    half = 0.5 * (u_hi - u_lo)
    lgj = math.lgamma(j)
    # Gamma(j) log-density in u: j*u - e^u - log Gamma(j)
    log_g = j * u - np.exp(u) - lgj

    p_vals = _reg_lower_gamma_int(j, t[:, None] * np.exp(-u)[None, :])

    integral = np.sum(p_vals * np.exp(log_g)[None, :] * weights[None, :], axis=1) * half
    closed = reg_inc_gamma_lower(j, s_a) if s_a > 0 else 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.maximum(closed + integral, 0.0))


def _k2_chunk_log_cdf(
    n: int, t: np.ndarray, quad_points: int, rel_tol: float
) -> np.ndarray:
    """Adaptive-node log cdf over one narrow-spread block of t values."""
    total = np.zeros(t.shape)
    for j in range(1, n + 1):
        m = quad_points
        prev = _k2_log_factors(t, j, m)
        err = math.inf
        while True:
            m *= 2
            if m > _NODE_CAP:
                raise QuadratureError(
                    f"k=2 factor quadrature did not reach rel tol {rel_tol} "
                    f"for j={j} (node cap {_NODE_CAP})",
                    achieved=err,
                )
            cur = _k2_log_factors(t, j, m)
            scale = np.maximum(np.abs(cur), 1.0)
            err = float(np.max(np.abs(cur - prev) / scale))
            if err <= rel_tol:
                break
            prev = cur
        total += cur
    return total


def _product_k2_log_cdf_vec(
    n: int, r: np.ndarray, quad_points: int = 64, rel_tol: float = 1e-8
) -> np.ndarray:
    """log cdf of the k=2 product radius, adaptive in the node count.

    The points are processed in sorted blocks of 64 so each block derives
    its quadrature interval from a narrow spread of t; one interval for a
    wide t-range would need a node count growing with the range.
    """
    r = np.asarray(r, dtype=float)
    out = np.full(r.shape, -np.inf)
    pos = np.flatnonzero(r > 0.0)
    if pos.size == 0:
        return out
    t = r[pos] ** 2
    order = np.argsort(t)
    logs = np.empty(t.shape)
    for start, block in _chunked(t[order]):
        logs[start : start + block.size] = _k2_chunk_log_cdf(
            n, block, quad_points, rel_tol
        )
    out[pos[order]] = logs
    return out


def product_exact_cdf_k2(n: int, r: float, quad_points: int = 64) -> float:
    """P(two-factor Ginibre-product radius <= r) at matrix size n.

    Each of the n order-statistic factors is an adaptive Gauss-Legendre
    quadrature with relative error <= 1e-8 (node doubling from
    ``quad_points``, which must be at least 64).
    """
    n = _check_n(n)
    r = _check_radius(r)
    if int(quad_points) != quad_points or quad_points < 64:
        raise ValueError(f"quad_points must be an integer >= 64, got {quad_points}")
    if r == 0.0:
        return 0.0
    return _as_prob(float(_product_k2_log_cdf_vec(n, np.array([r]), int(quad_points))[0]))


# --- generic entry points ---------------------------------------------------


def _check_n(n: int) -> int:
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return int(n)


def _check_radius(r: float) -> float:
    r = float(r)
    if math.isnan(r) or r < 0.0:
        raise ValueError(f"r must be a nonnegative real, got {r}")
    return r


def exact_log_cdf(spec: EnsembleSpec, r, quad_points: int = 64) -> np.ndarray:
    """Vectorized exact log cdf for any supported ensemble.

    For GinibreProduct the argument is the radius (not the log-radius) and
    only k in {1, 2} is supported; larger k has no closed finite-n form
    here and is covered by Monte Carlo.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if isinstance(spec, Spherical):
        return _spherical_log_cdf_vec(spec.n, r)
    if isinstance(spec, TruncatedUnitary):
        return _truncated_log_cdf_vec(spec.n, spec.p, r)
    if isinstance(spec, GinibreProduct):
        if spec.k == 1:
            return _product_k1_log_cdf_vec(spec.n, r)
        if spec.k == 2:
            return _product_k2_log_cdf_vec(spec.n, r, quad_points)
        raise ValueError(f"exact product cdf supports k in {{1, 2}}, got k={spec.k}")
    raise ValueError(f"unknown ensemble spec: {spec!r}")


def exact_cdf_fn(spec: EnsembleSpec, quad_points: int = 64):
    """A vectorized r -> cdf callable for the given ensemble."""

    def fn(r):
        log_v = exact_log_cdf(spec, r, quad_points)
        with np.errstate(over="ignore"):
            vals = np.where(log_v < _LOG_ZERO_CUT, 0.0, np.exp(np.minimum(log_v, 0.0)))
        return vals

    return fn


def cdf_curve(spec: EnsembleSpec, grid, quad_points: int = 64) -> CdfCurve:
    """Evaluate the exact cdf on an increasing grid."""
    grid = np.asarray(grid, dtype=float)
    values = exact_cdf_fn(spec, quad_points)(grid)
    return CdfCurve(grid=grid, values=values, spec=spec)

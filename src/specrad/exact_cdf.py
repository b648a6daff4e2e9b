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
accurate when tiny), and the log-product is the sum of per-factor logs.
The logs are accurate down to log(1e-320); a cdf below that floor may come
out as -inf or as any log below the floor, and the probability is 0.

Each point's table covers only its own window, mean +/- 45 sd (the cut
mass is below 1e-440), or the whole support at small sizes.  A table is
built from the step ratios pmf(i)/pmf(i-1), summed outward from the
point's mean, so its error does not grow with n.  Points are sorted by
their mean and cut into blocks whose rows x union-width stays within
_BLOCK_CELLS cells (one row when a window alone is wider), so working
memory follows that budget and not how far apart the points lie.

For product k=1 and truncated, two Chernoff bounds skip the table.  With
J the last factor's index (n or p), a bound on J P(X <= J-1) below the
floor certifies every factor as 1 (log 0), and one on P(X >= J), which
bounds every factor, certifies the product as 0 (-inf).

The k=2 product ensemble has no single-pmf structure; its factor
P(s1 s2 <= t) = integral of P(j, t/s) against the Gamma(j) density is
computed by Gauss-Legendre quadrature in u = log s (the integrand is
log-concave in u), after peeling off the exactly-known piece below
s_a = t/y_eps where P(j, t/s) = 1 to double precision.  The complement
P(s1 s2 > t) is the same integral of Q(j, t/s), and a factor whose
complement is below 1/2 is log1p(-complement), so an upper tail is not
lost to cancellation in 1 - P.
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
_LOG_TINY = math.log(np.finfo(float).tiny)
# pmf support window half-width in standard deviations; the cut mass is
# below exp(-45^2/2) ~ 1e-440, beyond the 1e-320 floor
_WINDOW_SD = 45.0
_WINDOW_PAD = 100
_FULL_SUPPORT_LIMIT = 4096
# cells (rows x columns) of one pmf block: at 2^16 cells the temporaries
# of _factor_log_sum stay in cache, and peak memory no longer follows how
# far apart a call's points lie
_BLOCK_CELLS = 1 << 16


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
    (one row per evaluation point), up to a per-row constant; mass outside
    the window must be below the 1e-320 floor.  Factors with j beyond the
    window's right edge make the row -inf (the product is then 0 to double
    precision); factors left of the window contribute log 1 = 0.  The
    array is overwritten with the pmf scaled to its row maximum.
    """
    rows, cols = log_pmf.shape
    if j_max > i0 + cols - 1:
        return np.full(rows, -np.inf)
    # columns c correspond to j = i0 + c; usable j range within the window
    c_lo = max(1 - i0, 0)
    c_hi = min(j_max - i0, cols - 1)
    if c_hi < c_lo:
        return np.zeros(rows)

    w = log_pmf
    w -= np.max(w, axis=1, keepdims=True)
    np.exp(w, out=w)
    prefix = np.cumsum(w, axis=1)
    suffix = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
    total = prefix[:, -1:]

    suf = suffix[:, c_lo : c_hi + 1]
    if c_lo >= 1:
        pre = prefix[:, c_lo - 1 : c_hi]
    else:
        # window starts at the support origin; complements there are 0
        pre = np.concatenate([np.zeros((rows, 1)), prefix[:, :c_hi]], axis=1)
    with np.errstate(divide="ignore"):
        # each log factor from the smaller of P(X >= j) and P(X < j)
        logs = np.log1p(-np.minimum(pre / total, 1.0))
        small = suf <= pre
        direct = np.log(np.maximum(suf, 1e-320))
        direct -= np.log(total)
    np.copyto(logs, direct, where=small)
    return np.sum(logs, axis=1)


def _windows(center: np.ndarray, sd: np.ndarray, hi_cap: int | None = None):
    """Per-point pmf windows [lo, hi]: mean +/- 45 sd plus a pad, in [0, hi_cap]."""
    lo = np.maximum(np.floor(center - _WINDOW_SD * sd).astype(np.int64) - _WINDOW_PAD, 0)
    hi = np.ceil(center + _WINDOW_SD * sd).astype(np.int64) + _WINDOW_PAD
    if hi_cap is not None:
        hi = np.minimum(hi, hi_cap)
    return lo, np.maximum(hi, lo)


def _plan_blocks(lo: np.ndarray, hi: np.ndarray):
    """Split points, sorted by pmf mean, into consecutive blocks.

    Yields (start, stop, i0, i1): rows start..stop-1 share the union window
    [i0, i1].  A block holds at least one row, and a block of more than one
    row has rows * (i1 - i0 + 1) <= _BLOCK_CELLS.
    """
    count = lo.size
    start = 0
    while start < count:
        # the union is at least as wide as the first window, which caps
        # the rows worth looking at
        look = min(count - start, max(1, _BLOCK_CELLS // int(hi[start] - lo[start] + 1)))
        i0 = np.minimum.accumulate(lo[start : start + look])
        i1 = np.maximum.accumulate(hi[start : start + look])
        cells = (i1 - i0 + 1) * np.arange(1, look + 1)
        rows = max(1, int(np.searchsorted(cells, _BLOCK_CELLS, side="right")))
        yield start, start + rows, int(i0[rows - 1]), int(i1[rows - 1])
        start += rows


def _log_pmf_blocks(lo, hi, centre, row_step, col_step):
    """Yield (rows, i0, log_pmf) for cache-sized blocks of points.

    ``log_pmf[r, c]`` is log pmf(i0 + c) - log pmf(a) of point ``rows[r]``,
    a = round(centre) clipped to the block: cumulative sums of the step
    ratios log pmf(i)/pmf(i-1) = row_step[point] + col_step(i), outward in
    both directions from a.  With ``centre`` the pmf mean, the partial sums
    stay small where the mass is, no table of size n and magnitude n log n
    enters the values, and a row's values do not depend on the other rows
    of its block.  ``col_step`` maps an array of integers i to its column
    term; it is tabulated once over the union of all windows.
    """
    if lo.size == 0:
        return
    base = int(np.min(lo))
    table = col_step(np.arange(base + 1, int(np.max(hi)) + 1, dtype=float))
    anchor = np.rint(centre)
    order = np.argsort(centre, kind="stable")
    for start, stop, i0, i1 in _plan_blocks(lo[order], hi[order]):
        rows = order[start:stop]
        # steps[:, k] = log pmf(i0 + k + 1) - log pmf(i0 + k)
        log_pmf = _sums_outward(
            row_step[rows, None] + table[i0 - base : i1 - base],
            np.clip(anchor[rows] - i0, 0, i1 - i0),
        )
        yield rows, i0, log_pmf


def _sums_outward(steps: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Per row, the partial sums of ``steps`` outward from column a[row]:
    out[:, c] = sum of steps[:, a:c] right of a, minus that of
    steps[:, c:a] left of it, so out[:, a] = 0.  Each side sums only over
    the columns some row needs."""
    a = a.astype(np.int64)[:, None]
    a_lo, a_hi = int(a.min()), int(a.max())
    k = np.arange(steps.shape[1])
    out = np.empty((steps.shape[0], steps.shape[1] + 1))
    out[:, : a_lo + 1] = 0.0
    right = np.where(k[a_lo:] >= a, steps[:, a_lo:], 0.0)
    np.cumsum(right, axis=1, out=out[:, a_lo + 1 :])
    del right
    left = np.where(k[:a_hi] < a, steps[:, :a_hi], 0.0)
    out[:, :a_hi] -= np.cumsum(left[:, ::-1], axis=1)[:, ::-1]
    return out


def _windowed_log_sums(lo, hi, centre, row_step, col_step, j_max: int) -> np.ndarray:
    """_factor_log_sum for every point, from its own pmf window [lo, hi]."""
    res = np.empty(lo.shape)
    for rows, i0, log_pmf in _log_pmf_blocks(lo, hi, centre, row_step, col_step):
        res[rows] = _factor_log_sum(log_pmf, i0, j_max)
    return res


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
    mu = n * np.exp(log_u)
    if n <= _FULL_SUPPORT_LIMIT:
        lo = np.zeros(rp.shape, dtype=np.int64)
        hi = np.full(rp.shape, n, dtype=np.int64)
    else:
        lo, hi = _windows(mu, np.sqrt(np.maximum(mu * (1.0 - mu / n), 1.0)), n)
    # pmf(i)/pmf(i-1) = (n-i+1)/i * u/(1-u)
    out[pos] = _windowed_log_sums(
        lo, hi, mu, log_u - log_1mu, lambda i: np.log((n - i + 1.0) / i), n
    )
    return out


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
        out[interior] = p * (p + 1) * np.log(rp)
        return out
    sure, null = _negbin_certificates(m, p, rp)
    res = np.where(null, -np.inf, 0.0)
    rest = ~sure & ~null
    res[rest] = _truncated_kernel(n, p, rp[rest])
    out[interior] = res
    return out


def _negbin_certificates(m: int, p: int, r: np.ndarray):
    """Masks (sure, null) for X ~ NegBinomial(m, r^2): every factor
    P(X >= j), j <= p, is 1 where p P(X <= p-1) is below the floor (log 0),
    and at most P(X >= p), so the product is 0 where that is."""
    log_x = 2.0 * np.log(r)
    log_1mx = np.log1p(-r) + np.log1p(r)

    # Chernoff, t = k/(x(m+k)) in E[t^X] = ((1-x)/(1-xt))^m: log P(X <= k)
    # for k < mean and log P(X >= k) for k > mean are at most this
    def chernoff(k):
        tail = k * (log_x + math.log1p(m / k)) if k else 0.0
        return tail + m * (log_1mx + math.log1p(k / m))

    # the mean m x/(1-x) exceeds k where x (m+k) > k
    sure = (r**2 * (m + p - 1) > p - 1) & (math.log(p) + chernoff(p - 1) < _LOG_ZERO_CUT)
    null = (r**2 * (m + p) < p) & (chernoff(p) < _LOG_ZERO_CUT)
    return sure, null


def _truncated_kernel(n: int, p: int, rp: np.ndarray) -> np.ndarray:
    """The same log-product from NegBinomial(n-p, x) pmf tables, 0 < r < 1."""
    m = n - p
    x = rp**2
    mean = m * x / (1.0 - x)
    sd = np.sqrt(m * x) / (1.0 - x)
    wide = (1 + _WINDOW_SD) * sd > 2_000_000.0
    res = np.empty(rp.shape)

    sel = np.flatnonzero(~wide)
    lo, hi = _windows(mean[sel], sd[sel])
    # pmf(i)/pmf(i-1) = (i+m-1)/i * x
    res[sel] = _windowed_log_sums(
        lo, np.maximum(hi, p + _WINDOW_PAD), mean[sel], 2.0 * np.log(rp[sel]),
        lambda i: np.log((i + m - 1.0) / i), p,
    )

    for idx_s in np.flatnonzero(wide):
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
    return res


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
    # the lower twin: every factor is at most P(Poisson(y) >= n) <=
    # e^-y (e y/n)^n for y < n; below the floor the product is 0
    lower = -y + n * (1.0 + log_y - math.log(n))
    null = (y < n) & (lower < _LOG_ZERO_CUT)
    res = np.where(null, -np.inf, 0.0)
    rest = ~sure & ~null
    res[rest] = _product_k1_kernel(n, y[rest], log_y[rest])
    out[pos] = res
    return out


def _product_k1_kernel(n: int, y: np.ndarray, log_y: np.ndarray) -> np.ndarray:
    """The same log-product from windowed Poisson(y) pmf tables, y = r^2 > 0."""
    sd = np.sqrt(np.maximum(y, 1.0))
    lo, hi = _windows(y, sd)
    full = (y + _WINDOW_SD * sd + _WINDOW_PAD < _FULL_SUPPORT_LIMIT) & (n <= _FULL_SUPPORT_LIMIT)
    lo[full] = 0
    hi = np.maximum(hi, np.where(full, n, n + _WINDOW_PAD))
    # pmf(i)/pmf(i-1) = y/i
    return _windowed_log_sums(lo, hi, y, log_y, lambda i: -np.log(i), n)


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


def _reg_gamma_int(j: int, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P(j, y), Q(j, y)) elementwise for integer shape j >= 1.

    Below y = j + 1 the series of P is summed and Q = 1 - P; above it the
    finite Poisson sum Q = e^-y sum_{i<j} y^i/i! is summed from its largest
    term i = j-1 down, in logs, and P = 1 - Q.  Each deep tail is thus
    relatively accurate: the lower one of P and the upper one of Q.
    """
    p = np.empty(y.shape)
    q = np.empty(y.shape)
    small = y < j + 1.0

    # both sums fall term by term, slowest at the y nearest j + 1, so that
    # y alone fixes how many terms it takes to fall below 1e-18
    ys = y[small]
    acc = np.ones(ys.shape)
    term = np.ones(ys.shape)
    y_max = float(np.max(ys, initial=0.0))
    bound = 1.0
    for i in range(1, 1000):
        term *= ys
        term /= j + i
        acc += term
        bound *= y_max / (j + i)
        if bound <= 1e-18:
            break
    with np.errstate(divide="ignore"):
        p_small = np.exp(j * np.log(ys) - ys - math.lgamma(j + 1) + np.log(acc))
    p[small] = p_small
    q[small] = 1.0 - p_small

    large = ~small
    yl = y[large]
    term = np.ones(yl.shape)
    acc = np.ones(yl.shape)
    y_min = float(np.min(yl, initial=math.inf))
    bound = 1.0
    for i in range(j - 1, 0, -1):
        term *= i
        term /= yl
        acc += term
        bound *= i / y_min
        if bound <= 1e-18:
            break
    log_q = (j - 1) * np.log(yl) - yl - math.lgamma(j) + np.log(acc)
    q[large] = np.exp(log_q)
    p[large] = -np.expm1(log_q)
    return p, q


def _k2_log_factors(t: np.ndarray, j: int, m_nodes: int) -> np.ndarray:
    """log P(s1 s2 <= t) for s1, s2 ~ Gamma(j), vectorized over t > 0.

    Splits at s_a = t_min/y_sure: below it P(j, t/s) is 1 to double
    precision, contributing reg_inc_gamma_lower(j, s_a) exactly; the rest
    is Gauss-Legendre in u = log s with m_nodes nodes.  The upper tail
    P(s1 s2 > t) is the same integral of Q(j, t/s), which vanishes below
    s_a; where it is below 1/2 the log factor is its log1p, so factors near
    1 keep their relative accuracy in 1 - factor.
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
    g_weights = np.exp(log_g) * weights * half

    p_vals, q_vals = _reg_gamma_int(j, t[:, None] * np.exp(-u)[None, :])
    closed = reg_inc_gamma_lower(j, s_a) if s_a > 0 else 0.0
    lower = closed + p_vals @ g_weights
    upper = q_vals @ g_weights
    with np.errstate(divide="ignore"):
        return np.where(
            upper < 0.5,
            np.log1p(-np.minimum(upper, 0.5)),
            np.log(np.maximum(lower, 0.0)),
        )


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
            # subnormal factors carry too few digits for a relative test,
            # and two of them take the product below the 1e-320 floor, so
            # they compare equal
            cur_c = np.maximum(cur, _LOG_TINY)
            prev_c = np.maximum(prev, _LOG_TINY)
            scale = np.maximum(np.abs(cur_c), 1.0)
            err = float(np.max(np.abs(cur_c - prev_c) / scale))
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
    for start in range(0, t.size, 64):
        block = t[order[start : start + 64]]
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

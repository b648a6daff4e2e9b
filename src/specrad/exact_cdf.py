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

The k=2 factor P(S_j <= x), x = log r^2, S_j = log s1 + log s2 with s1,
s2 ~ Gamma(j), has no pmf table but has the mgf M(z) = (Gamma(j+z)/Gamma(j))^2.
The trapezoidal rule inverts it on the line Re z = theta through the saddle
point of M(z) e^{-zx}, with step and node count from bounds for relative
error 2^-53 (Abate and Whitt 1992; Trefethen and Weideman 2014): theta < 0
gives the factor and theta > 0 its complement, so neither tail is lost to
1 - p.  The Chernoff bound M(theta) e^{-theta x} scales each sum, skips
factors that are 1, and certifies products that are 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .norming import EnsembleSpec, GinibreProduct, Spherical, TruncatedUnitary
from .specfun import reg_inc_beta

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


def _plan_blocks(lo: np.ndarray, hi: np.ndarray, budget: int = _BLOCK_CELLS):
    """Split points, sorted by pmf mean or node count, into consecutive blocks.

    Yields (start, stop, i0, i1): rows start..stop-1 share the union window
    [i0, i1].  A block holds at least one row, and a block of more than one
    row has rows * (i1 - i0 + 1) <= budget cells.
    """
    count = lo.size
    start = 0
    while start < count:
        # the union is at least as wide as the first window, which caps
        # the rows worth looking at
        look = min(count - start, max(1, budget // int(hi[start] - lo[start] + 1)))
        i0 = np.minimum.accumulate(lo[start : start + look])
        i1 = np.maximum.accumulate(hi[start : start + look])
        cells = (i1 - i0 + 1) * np.arange(1, look + 1)
        rows = max(1, int(np.searchsorted(cells, budget, side="right")))
        yield start, start + rows, int(i0[rows - 1]), int(i1[rows - 1])
        start += rows


def _windowed_log_sums(lo, hi, centre, row_step, col_step, j_max: int) -> np.ndarray:
    """_factor_log_sum for every point, from its own pmf window [lo, hi],
    in cache-sized blocks of points.

    A block's ``log_pmf[r, c]`` is log pmf(i0 + c) - log pmf(a) of point
    ``rows[r]``, a = round(centre) clipped to the block: cumulative sums of
    the step ratios log pmf(i)/pmf(i-1) = row_step[point] + col_step(i),
    outward in both directions from a.  With ``centre`` the pmf mean, the
    partial sums stay small where the mass is, no table of size n and
    magnitude n log n enters the values, and a row's values do not depend
    on the other rows of its block.  ``col_step`` maps an array of integers
    i to its column term; it is tabulated once over the union of all windows.
    """
    res = np.empty(lo.shape)
    if lo.size == 0:
        return res
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
        res[rows] = _factor_log_sum(log_pmf, i0, j_max)
    return res


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


# --- k = 2 by contour inversion ----------------------------------------------

# relative error the contour sums aim at: 2^-53 (log 36.7) and two nats
_CONTOUR_LOG_EPS = 38.7
# the deepest k=2 factor above the floor takes about 80,000 nodes
_CONTOUR_NODE_CAP = 1 << 17
# contour blocks hold complex cells and about 8x the pmf kernel's temporaries
_CONTOUR_CELLS = _BLOCK_CELLS // 16
# B_2m / (2m (2m-1)), m = 8..1: Stirling's series, converged from |w| = 8 on
_STIRLING = (-3617 / 122400, 1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260,
             -1 / 360, 1 / 12)


def _log_gamma_ratio(a, z):
    """log Gamma(a+z) - log Gamma(a) mod 2 pi i, for real a > 0, Re(a+z) > 0:
    recurrence up to Re >= 8, then Stirling's series, as small differences."""
    m = np.ceil(np.maximum(8.0 - np.minimum(a, a + z.real), 0.0))
    shift = np.ones(np.broadcast(a, z).shape, dtype=complex)
    for i in range(int(np.max(m, initial=0))):
        # Gamma(b+z)/Gamma(b) = Gamma(b+1+z)/Gamma(b+1) / (1 + z/b), b = a+i
        shift *= 1.0 + z * np.where(i < m, 1.0 / (a + i), 0.0)
    a = a + m
    w = a + z
    vw, va = 1.0 / w, 1.0 / a
    series = np.polyval(_STIRLING, vw * vw) * vw - np.polyval(_STIRLING, va * va) * va
    # log1p(z/a), its real part without the cancellation in log|1 + u| near 0
    u = z * va
    log1p = np.where(np.abs(u) < 0.5, 0.5 * np.log1p(u.real * (2.0 + u.real) + u.imag**2),
                     np.log(np.abs(w * va))) + 1j * np.arctan2(u.imag, 1.0 + u.real)
    return (a - 0.5) * log1p + z * (np.log(w) - 1.0) + series - np.log(shift)


def _digammas(w):
    """(psi, psi') at w to ~1e-8: log Gamma(w+ie)/Gamma(w) = ie psi - e^2 psi'/2 + O(e^3)."""
    e = 1e-4 * w
    g = _log_gamma_ratio(w, 1j * e)
    return g.imag / e, -2.0 * g.real / e**2


def _contour_log_factors(a: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """log P(S <= x), S a sum of k logs of Gamma(a) variables, per factor of
    (points x factors) arrays: P = -(1/pi) int_0^inf Re[M(z) e^{-zx}/z] dy on
    Re z = theta < 0, 1 - P the same unsigned on theta > 0.  A factor is 1
    where its upper-tail bound C is below the floor or 50 nats below its
    row's largest, and a row 0 where its lower-tail Cs multiply below it."""
    # Minka's start for the inverse digamma, then Newton steps on psi(w) = x/k
    y = x / k
    w = np.where(y >= -2.22, np.exp(np.minimum(y, 700.0)) + 0.5,
                 -1.0 / (np.minimum(y, -2.22) + 0.5772156649015329))
    for _ in range(4):
        psi, psi1 = _digammas(w)
        w = np.maximum(w - (psi - y) / psi1, w / 8.0)
    # the lower tail where the saddle is 1.5 sd below 0; |theta| sd >= 2
    sd = np.sqrt(k * psi1)
    lower = (w - a) * sd < -1.5
    theta = np.where(lower, np.minimum(w - a, -2.0 / sd), np.maximum(w - a, 2.0 / sd))
    log_c = k * _log_gamma_ratio(a, theta + 0j).real - theta * x
    logs = np.zeros(a.shape)
    logs[np.sum(np.where(lower, log_c, 0.0), axis=1) < _LOG_ZERO_CUT] = -np.inf
    top = np.max(np.where(lower, 0.0, log_c), axis=1, keepdims=True)
    keep = (lower | (log_c >= np.maximum(top - 50.0, _LOG_ZERO_CUT))) & (logs == 0.0)
    a, x, theta, lower, log_c = (v[keep] for v in (a, x, theta, lower, log_c))

    w = a + theta
    psi, psi1 = _digammas(w)
    sd = np.sqrt(k * psi1)
    # nats: 2^-53 of the tail, about C u / (sqrt(2 pi) (1 + u^2)), u = |theta| sd
    u = np.abs(theta) * sd
    target = _CONTOUR_LOG_EPS + np.log(2.5066282746310002 * (1.0 + u * u) / u)
    # a strip of half-width d over which |M e^{-zx}| grows by e^g costs
    # e^{g - 2 pi d/h}; towards 1/z, d = |theta| and e^g = 1/C at the pole
    h = 2.0 * np.pi * np.abs(theta) / (target + np.maximum(-log_c, 0.0))
    # the other side: half-way to Gamma's pole at -a, or open past theta > 0
    d = np.where(lower, 0.5 * w, np.sqrt(2.0 * target) / sd)
    grow = np.where(lower, k * _log_gamma_ratio(w, -d + 0j).real + d * x,
                    target + np.maximum(k * psi - x, 0.0) * d)
    h = np.minimum(h, 2.0 * np.pi * d / (target + np.maximum(grow, 0.0)))
    # |M(theta+iy)/M(theta)| <= e^{-kB/2}, B = 2y atan(y/w) - w log1p(y^2/w^2)
    # from Gamma's product formula; B is convex, so Newton ends above its root
    def bound(y):
        return 2.0 * y * np.arctan(y / w) - w * np.log1p((y / w) ** 2)
    y = np.sqrt(2.0 * w * target / k) + 2.0 * target / (k * np.pi)
    for _ in range(6):
        y -= (bound(y) - 2.0 * target / k) / (2.0 * np.arctan(y / w))
    nodes = np.ceil(y / h).astype(np.int64)
    if np.any(nodes > _CONTOUR_NODE_CAP):
        rel = np.exp(target - _CONTOUR_LOG_EPS - 0.5 * k * bound(_CONTOUR_NODE_CAP * h))
        raise QuadratureError(f"a k={k} factor needs {int(nodes.max())} contour nodes "
                              f"(cap {_CONTOUR_NODE_CAP})", achieved=float(np.max(rel)))

    tail = np.empty(a.shape)
    order = np.argsort(nodes, kind="stable")
    for start, stop, _, cols in _plan_blocks(0 * nodes, nodes[order], _CONTOUR_CELLS):
        rows = order[start:stop]
        iy = 1j * h[rows, None] * np.arange(cols + 1)
        z = theta[rows, None] + iy
        g = _log_gamma_ratio(a[rows, None], z)
        g = (np.exp(k * (g - g[:, :1]) - iy * x[rows, None]) / z).real
        tail[rows] = h[rows] * (np.sum(g, axis=1) - 0.5 * g[:, 0]) / np.pi
    logs[keep] = np.where(lower, log_c + np.log(np.maximum(-tail, 1e-320)),
                          np.log1p(-np.minimum(np.exp(log_c) * tail, 1.0)))
    return logs


def _product_log_cdf_vec(n: int, k: int, r: np.ndarray) -> np.ndarray:
    """log of prod_{j<=n} P(S_j <= 2 log r), S_j a sum of k logs of Gamma(j)
    variables; -inf where 0.  Points go in groups of <= _CONTOUR_CELLS factors."""
    out = np.full(r.shape, -np.inf)
    pos = np.flatnonzero(r > 0.0)
    # saddles w ~ e^(x/k) <= 1e40 keep Gamma's recurrence finite; past that every factor is 1
    x = np.minimum(2.0 * np.log(r[pos]), 92.0 * k)
    step = max(1, _CONTOUR_CELLS // n)
    for start in range(0, pos.size, step):
        a, xs = np.broadcast_arrays(np.arange(1.0, n + 1.0), x[start : start + step, None])
        out[pos[start : start + step]] = np.sum(_contour_log_factors(a, xs, k), axis=1)
    return out


def product_exact_cdf_k2(n: int, r: float, quad_points: int = 64) -> float:
    """P(two-factor Ginibre-product radius <= r) at matrix size n.

    Each factor comes from its mgf, as its lower tail below the mean and
    its upper tail above it, so both keep their relative accuracy; the log
    factors agree with mpmath to 1e-12 relative.  ``quad_points`` is
    accepted and validated (an integer >= 64) but unused.
    """
    n = _check_n(n)
    r = _check_radius(r)
    _check_quad_points(quad_points)
    if r == 0.0:
        return 0.0
    return _as_prob(float(_product_log_cdf_vec(n, 2, np.array([r]))[0]))


# --- generic entry points ---------------------------------------------------


def _check_n(n: int) -> int:
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return int(n)


def _check_quad_points(quad_points: int) -> None:
    """``quad_points`` is kept in the public signatures, unused, and must
    be an integer >= 64."""
    try:
        ok = int(quad_points) == quad_points and quad_points >= 64
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"quad_points must be an integer >= 64, got {quad_points}")


def _check_radius(r: float) -> float:
    r = float(r)
    if math.isnan(r) or r < 0.0:
        raise ValueError(f"r must be a nonnegative real, got {r}")
    return r


def exact_log_cdf(spec: EnsembleSpec, r, quad_points: int = 64) -> np.ndarray:
    """Vectorized exact log cdf for any supported ensemble.

    For GinibreProduct the argument is the radius (not the log-radius) and
    only k in {1, 2} is supported; larger k has no closed finite-n form
    here and is covered by Monte Carlo.  ``quad_points`` is validated
    (an integer >= 64) but unused.
    """
    _check_quad_points(quad_points)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if isinstance(spec, Spherical):
        return _spherical_log_cdf_vec(spec.n, r)
    if isinstance(spec, TruncatedUnitary):
        return _truncated_log_cdf_vec(spec.n, spec.p, r)
    if isinstance(spec, GinibreProduct):
        if spec.k == 1:
            return _product_k1_log_cdf_vec(spec.n, r)
        if spec.k == 2:
            return _product_log_cdf_vec(spec.n, 2, r)
        raise ValueError(f"exact product cdf supports k in {{1, 2}}, got k={spec.k}")
    raise ValueError(f"unknown ensemble spec: {spec!r}")


def exact_cdf_fn(spec: EnsembleSpec, quad_points: int = 64):
    """A vectorized r -> cdf callable for the given ensemble."""
    _check_quad_points(quad_points)

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

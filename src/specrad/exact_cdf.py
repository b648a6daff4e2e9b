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

Each point's table covers only its own window, mean +/- 45 sd.  That cuts
about 1e-440 of a Gaussian-like tail, an estimate and not a bound: the
NegBinomial tail at small m is geometric (at m = 2, x = 0.99 the right
edge is 61 nats below the mode), and there the m = 2 closed form checks
the log-cdfs above the floor to 1e-12.  A table is built from the step
ratios pmf(i)/pmf(i-1), summed outward from the point's mean, so its error
does not grow with n.  Points are sorted by their mean and cut into blocks
whose rows x union-width stays within _BLOCK_CELLS cells (one row when a
window alone is wider), so working memory follows that budget and not how
far apart the points lie.

One driver, `_pmf_log_sums`, does this for all three families; each states
only its pmf mean, sd and step ratios, and for product k=1 and truncated a
Chernoff exponent.  With J the last factor's index (n or p), a bound on
J P(X <= J-1) below the floor certifies every factor as 1 (log 0), and one
on P(X >= J), which bounds every factor, certifies the product as 0
(-inf); neither builds a table.  A truncated point whose table would pass
_WIDE_CELLS cells takes one incomplete-beta call per factor instead, as the
complement 1 - I_{1-x}(m, j), which stays below 1/2 while the product is
above the floor, so factors near 1 keep their relative accuracy.

For every k >= 2 the product factor P(S_j <= x), x = log r^2, S_j a sum of
k logs of Gamma(j) variables, has no pmf table but has the mgf
M(z) = (Gamma(j+z)/Gamma(j))^k.  The trapezoidal rule inverts it on the
line Re z = theta through the saddle point of M(z) e^{-zx}, with step and
node count from bounds for relative error 2^-53 (Abate and Whitt 1992;
Trefethen and Weideman 2014): theta < 0 gives the factor and theta > 0 its
complement, so neither tail is lost to 1 - p.  The Chernoff bound
M(theta) e^{-theta x} scales each sum, skips factors that are 1, and
certifies products that are 0.

No value depends on the order of a call's points, and a k >= 2 value does
not depend on the other points at all.

Every public entry takes radii.  `_statistic_log_cdf` takes the statistic
that `run_monte_carlo` returns: the radius, and for products the log
radius, which the contour reads as x = 2 s with no exp/log round trip.
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
# pmf support window half-width in standard deviations; a Gaussian-tail
# estimate of the cut mass is exp(-45^2/2) ~ 1e-440, but a geometric tail
# (NegBinomial at small m) is cut far higher (see the module docstring)
_WINDOW_SD = 45.0
_WINDOW_PAD = 100
# a truncated point whose table would pass this many cells takes one
# incomplete-beta call per factor instead
_WIDE_CELLS = 2_000_000
_LOG_R_CAP = math.log(1e150)
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


def _pmf_log_sums(j_max: int, centre, sd, row_step, col_step, cap: int | None = None,
                  log_tail=None, skip=None) -> np.ndarray:
    """_factor_log_sum for every point, X with pmf mean ``centre`` and sd
    ``sd``, from a table over the point's own window, in cache-sized blocks.

    ``log_tail(k)``, a per-point Chernoff exponent, bounds log P(X <= k)
    below the mean and log P(X >= k) above it.  With it a point is log 0
    where its mean is above j_max - 1 and j_max P(X <= j_max - 1) is below
    the floor, and -inf where its mean is below j_max and P(X >= j_max),
    which bounds every factor, is.  Points in ``skip`` that neither settles
    come back NaN.  Every other point reads mean +/- 45 sd plus a pad, cut
    at ``cap`` (the support's end) or else reaching j_max + pad.

    A block's ``log_pmf[r, c]`` is log pmf(i0 + c) - log pmf(a) of point
    ``rows[r]``, a = round(centre) clipped to the block: cumulative sums of
    the step ratios log pmf(i)/pmf(i-1) = row_step[point] + col_step(i),
    outward in both directions from a.  With ``centre`` the pmf mean, the
    partial sums stay small where the mass is, no table of size n and
    magnitude n log n enters the values, and a row's values do not depend
    on the other rows of its block.  ``col_step`` maps an array of integers
    i to its column term; it is tabulated once over the union of all windows.
    """
    res = np.full(centre.shape, np.nan)
    if log_tail is not None:
        res[(centre > j_max - 1) & (math.log(j_max) + log_tail(j_max - 1) < _LOG_ZERO_CUT)] = 0.0
        res[(centre < j_max) & (log_tail(j_max) < _LOG_ZERO_CUT)] = -np.inf
    idx = np.flatnonzero(np.isnan(res) if skip is None else np.isnan(res) & ~skip)
    if idx.size == 0:
        return res
    centre, sd, row_step = centre[idx], sd[idx], row_step[idx]
    lo = np.maximum(np.floor(centre - _WINDOW_SD * sd).astype(np.int64) - _WINDOW_PAD, 0)
    hi = np.ceil(centre + _WINDOW_SD * sd).astype(np.int64) + _WINDOW_PAD
    hi = np.minimum(hi, cap) if cap is not None else np.maximum(hi, j_max + _WINDOW_PAD)
    hi = np.maximum(hi, lo)
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
        res[idx[rows]] = _factor_log_sum(log_pmf, i0, j_max)
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
    out = np.full(r.shape, -np.inf)
    pos = r > 0.0
    # r^2 must stay finite; past 1e150 every factor is 1 - O(n r^-2) = 1
    rp = np.minimum(r[pos], 1e150)
    log_u = 2.0 * np.log(rp) - np.log1p(rp**2)
    log_1mu = -np.log1p(rp**2)
    mu = n * np.exp(log_u)
    # pmf(i)/pmf(i-1) = (n-i+1)/i * u/(1-u)
    out[pos] = _pmf_log_sums(n, mu, np.sqrt(np.maximum(mu * (1.0 - mu / n), 1.0)),
                             log_u - log_1mu, lambda i: np.log((n - i + 1.0) / i), cap=n)
    return out


def _truncated_log_cdf_vec(n: int, p: int, r: np.ndarray) -> np.ndarray:
    """log of prod_{j<=p} P(NegBinomial(n-p, r^2) >= j); -inf where 0, 0 from r = 1."""
    out = np.full(r.shape, -np.inf)
    out[r >= 1.0] = 0.0
    interior = (r > 0.0) & (r < 1.0)
    rp = r[interior]
    m = n - p
    if m == 1:
        # I_x(j, 1) = x^j, so the log product is p(p+1)/2 * log x
        out[interior] = p * (p + 1) * np.log(rp)
        return out
    x = rp**2
    log_x = 2.0 * np.log(rp)
    log_1mx = np.log1p(-rp) + np.log1p(rp)

    # Chernoff, t = k/(x(m+k)) in E[t^X] = ((1-x)/(1-xt))^m
    def log_tail(k):
        return (k * (log_x + math.log1p(m / k)) if k else 0.0) + m * (log_1mx + math.log1p(k / m))

    sd = np.sqrt(m * x) / (1.0 - x)
    # pmf(i)/pmf(i-1) = (i+m-1)/i * x
    res = _pmf_log_sums(p, m * x / (1.0 - x), sd, log_x, lambda i: np.log((i + m - 1.0) / i),
                        log_tail=log_tail, skip=(1 + _WINDOW_SD) * sd > _WIDE_CELLS)
    # rare huge-dispersion corner: one incomplete-beta call per factor
    for i in np.flatnonzero(np.isnan(res)):
        res[i] = _truncated_wide_log_cdf(m, p, float(rp[i]))
    out[interior] = res
    return out


def _truncated_wide_log_cdf(m: int, p: int, r: float) -> float:
    """The truncated log-product at one radius 0 < r < 1 from p incomplete-beta
    calls: each factor as 1 - c_j, c_j = I_delta(m, j) = P(X < j), delta =
    1 - r^2, so factors near 1 keep their relative accuracy.

    No c_j reaches 1/2, where log f_j would be better taken from
    I_{r^2}(j, m) itself: a wide point has a NegBinomial sd above
    _WIDE_CELLS / 46 ~ 43,000, so the c_j up to 1.6 sd below the mean of X
    already sum past 736, and -log(1 - c) >= c puts the running log sum
    under _LOG_ZERO_CUT before j gets there."""
    delta = (1.0 - r) * (1.0 + r)
    acc = 0.0
    for j in range(1, p + 1):
        acc += math.log1p(-reg_inc_beta(delta, float(m), float(j)))
        if acc < _LOG_ZERO_CUT:
            return -math.inf
    return acc


def _product_k1_log_cdf_vec(n: int, s: np.ndarray) -> np.ndarray:
    """log of prod_{j<=n} P(Poisson(r^2) >= j) at log radii s = log r; -inf where 0."""
    # clamping r at 1e150 keeps the Poisson mean y = r^2 finite; the
    # certificates settle these radii, and r = 0 as 0
    log_y = 2.0 * np.minimum(s, _LOG_R_CAP)
    y = np.exp(log_y)

    # Chernoff: P(Poisson(y) <= k) for k < y, and P(Poisson(y) >= k) for
    # k > y, are at most e^-y (e y/k)^k
    def log_tail(k):
        return -y + (k * (1.0 + log_y - math.log(k)) if k > 0 else 0.0)

    # pmf(i)/pmf(i-1) = y/i
    return _pmf_log_sums(n, y, np.sqrt(np.maximum(y, 1.0)), log_y, lambda i: -np.log(i),
                         log_tail=log_tail)


def _exact_cdf_at(spec: EnsembleSpec, r: float) -> float:
    """The exact cdf of ``spec`` at one radius r >= 0."""
    r = _check_radius(r)
    return float(_cdf_from_log(exact_log_cdf(spec, r))[0])


def spherical_exact_cdf(n: int, r: float) -> float:
    """P(spherical radius <= r) at matrix size n, exactly."""
    return _exact_cdf_at(Spherical(n), r)


def truncated_exact_cdf(n: int, p: int, r: float) -> float:
    """P(truncated-unitary radius <= r) for the p x p block of an n x n
    Haar unitary, exactly; the radius lives in [0, 1]."""
    return _exact_cdf_at(TruncatedUnitary(n, p), r)


def product_exact_cdf_k1(n: int, r: float) -> float:
    """P(single-Ginibre radius <= r) at matrix size n, exactly."""
    return _exact_cdf_at(GinibreProduct(n, 1), r)


# --- k >= 2 by contour inversion ---------------------------------------------

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
        # each factor sums its own nodes only, so the block does not move its bits
        total = np.cumsum(g, axis=1)[np.arange(rows.size), nodes[rows]]
        tail[rows] = h[rows] * (total - 0.5 * g[:, 0]) / np.pi
    logs[keep] = np.where(lower, log_c + np.log(np.maximum(-tail, 1e-320)),
                          np.log1p(-np.minimum(np.exp(log_c) * tail, 1.0)))
    return logs


def _product_log_cdf_vec(n: int, k: int, s: np.ndarray) -> np.ndarray:
    """log of prod_{j<=n} P(S_j <= 2 s) at 1-d log radii s, S_j a sum of k logs of
    Gamma(j) variables; -inf where 0.  Points go in groups of <= _CONTOUR_CELLS factors."""
    out = np.full(s.shape, -np.inf)
    pos = np.flatnonzero(s > -np.inf)
    # saddles w ~ e^(x/k) <= 1e40 keep Gamma's recurrence finite; past that
    # every factor is 1.  Below x = -800 k, P(S_1 <= x) <= k e^(x/k) puts the
    # product under the floor, and the clip keeps the saddle search finite
    x = np.clip(2.0 * s[pos], -800.0 * k, 92.0 * k)
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
    _check_quad_points(quad_points)
    return _exact_cdf_at(GinibreProduct(n, 2), r)


# --- generic entry points ---------------------------------------------------


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


def _statistic_log_cdf(spec: EnsembleSpec, s) -> np.ndarray:
    """log P(T <= s) for the statistic T that `run_monte_carlo` returns: the
    radius, and for GinibreProduct the natural-log radius.  s may be any real
    array and the output has its shape: -inf below the support, 0 above it.
    NaN raises ValueError."""
    s = np.asarray(s, dtype=float)
    if np.any(np.isnan(s)):
        raise ValueError("the exact cdf is undefined at NaN")
    flat = s.ravel()
    if isinstance(spec, Spherical):
        out = _spherical_log_cdf_vec(spec.n, flat)
    elif isinstance(spec, TruncatedUnitary):
        out = _truncated_log_cdf_vec(spec.n, spec.p, flat)
    elif isinstance(spec, GinibreProduct) and spec.k == 1:
        out = _product_k1_log_cdf_vec(spec.n, flat)
    elif isinstance(spec, GinibreProduct):
        out = _product_log_cdf_vec(spec.n, spec.k, flat)
    else:
        raise ValueError(f"unknown ensemble spec: {spec!r}")
    return out.reshape(s.shape)


def _cdf_from_log(log_v: np.ndarray) -> np.ndarray:
    """Probabilities from exact log cdfs: 0 below the floor, at most 1."""
    return np.where(log_v < _LOG_ZERO_CUT, 0.0, np.exp(np.minimum(log_v, 0.0)))


def exact_log_cdf(spec: EnsembleSpec, r, quad_points: int = 64) -> np.ndarray:
    """Vectorized exact log cdf at radii r (any shape, returned at least 1-d)
    for any supported ensemble, including GinibreProduct at every k.

    The argument is the radius for every family, products included; NaN
    raises ValueError, and truncated radii must lie in [0, 1].
    ``quad_points`` is validated (an integer >= 64) but unused.
    """
    _check_quad_points(quad_points)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if isinstance(spec, TruncatedUnitary) and np.any((r < 0.0) | (r > 1.0)):
        raise ValueError("truncated-ensemble radius must lie in [0, 1]")
    if isinstance(spec, GinibreProduct):
        with np.errstate(divide="ignore"):
            r = np.log(np.maximum(r, 0.0))
    return _statistic_log_cdf(spec, r)


def exact_cdf_fn(spec: EnsembleSpec, quad_points: int = 64):
    """A vectorized r -> cdf callable for the given ensemble."""
    _check_quad_points(quad_points)

    def fn(r):
        return _cdf_from_log(exact_log_cdf(spec, r, quad_points))

    return fn


def cdf_curve(spec: EnsembleSpec, grid, quad_points: int = 64) -> CdfCurve:
    """Evaluate the exact cdf on an increasing grid."""
    grid = np.asarray(grid, dtype=float)
    values = exact_cdf_fn(spec, quad_points)(grid)
    return CdfCurve(grid=grid, values=values, spec=spec)

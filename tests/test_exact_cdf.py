"""Exact finite-n spectral-radius cdfs.

Frozen reference values were produced by an extended-precision direct
evaluation (mpmath, dps=40) of the defining factor products; Monte Carlo
bands were produced by a one-time 10^6-replicate run with the recorded
seeds (the sampled fractions are frozen, the exact cdf is recomputed).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrad import exact_cdf, norming, stats
from specrad.errors import NonConvergenceError, QuadratureError, WorkBudgetError
from specrad.exact_cdf import (
    CdfCurve,
    cdf_curve,
    exact_cdf_fn,
    exact_log_cdf,
    product_exact_cdf_k1,
    product_exact_cdf_k2,
    spherical_exact_cdf,
    truncated_exact_cdf,
)
from specrad.limit_laws import GUMBEL, SPHERICAL_H
from specrad.norming import GinibreProduct, Spherical, TruncatedUnitary
from specrad.samplers import run_monte_carlo
from specrad.specfun import reg_inc_beta


def _poisson_tables(n, r):
    """The k=1 log-product from Poisson(r^2) pmf tables, no certificate."""
    y = r**2
    return exact_cdf._pmf_log_sums(n, y, np.sqrt(np.maximum(y, 1.0)), 2.0 * np.log(r),
                                   lambda i: -np.log(i))


def _negbin_tables(n, p, r):
    """The truncated log-product from NegBinomial(n-p, r^2) pmf tables, no
    certificate; points too wide for a table take the per-factor path."""
    m, x = n - p, r**2
    sd = np.sqrt(m * x) / (1.0 - x)
    wide = (1 + exact_cdf._WINDOW_SD) * sd > exact_cdf._WIDE_CELLS
    out = exact_cdf._pmf_log_sums(p, m * x / (1.0 - x), sd, 2.0 * np.log(r),
                                  lambda i: np.log((i + m - 1.0) / i), skip=wide)
    out[wide] = [exact_cdf._truncated_wide_log_cdf(m, p, v) for v in r[wide]]
    return out


class TestClosedForms:
    def test_spherical_n1(self):
        assert spherical_exact_cdf(1, 1.0) == pytest.approx(0.5, rel=1e-14)
        assert spherical_exact_cdf(1, 2.0) == pytest.approx(0.8, rel=1e-14)

    def test_truncated_n2_p1(self):
        assert truncated_exact_cdf(2, 1, 0.6) == pytest.approx(0.36, rel=1e-14)

    def test_truncated_full_support(self):
        assert truncated_exact_cdf(10, 3, 1.0) == 1.0

    def test_product_k1_half(self):
        assert product_exact_cdf_k1(1, math.sqrt(math.log(2.0))) == pytest.approx(
            0.5, rel=1e-14
        )

    def test_zero_radius(self):
        assert spherical_exact_cdf(7, 0.0) == 0.0
        assert product_exact_cdf_k1(7, 0.0) == 0.0
        assert product_exact_cdf_k2(1, 0.0) == 0.0
        assert truncated_exact_cdf(5, 2, 0.0) == 0.0

    def test_k2_monotone_example(self):
        assert product_exact_cdf_k2(1, 1.0) < product_exact_cdf_k2(1, 2.0)


class TestProductK1ExtremeRadii:
    """Radii whose Poisson tables would not fit: the Chernoff bound
    certifies every factor as 1, as spherical_exact_cdf returns 1."""

    @pytest.mark.parametrize("r", [1e150, math.inf])
    def test_scalar_is_one(self, r):
        assert product_exact_cdf_k1(10, r) == 1.0
        assert spherical_exact_cdf(10, r) == 1.0

    @pytest.mark.parametrize("r", [1e150, math.inf])
    def test_vector_paths_are_one(self, r):
        spec = GinibreProduct(10, 1)
        assert exact_log_cdf(spec, [r, 2.0])[0] == 0.0
        assert exact_cdf_fn(spec)([r, 2.0])[0] == 1.0

    @pytest.mark.parametrize("r", [1e160, math.inf])
    def test_spherical_vector_path_is_one(self, r):
        # r^2 overflowed to inf and the log-cdf came out NaN
        spec = Spherical(10)
        assert abs(exact_log_cdf(spec, [r])[0]) <= 1e-298
        assert exact_cdf_fn(spec)([r])[0] == 1.0

    @pytest.mark.parametrize("n", [1, 2, 40, 3000])
    def test_certified_points_agree_with_kernel(self, n):
        # across the certification edge the pmf kernel itself returns log 0
        # to within the 1e-320 floor
        r = np.sqrt(n) * np.linspace(1.0, 3.0, 400) + np.linspace(0.0, 30.0, 400)
        got = exact_log_cdf(GinibreProduct(n, 1), r)
        kernel = _poisson_tables(n, r)
        certified = got == 0.0
        assert np.any(certified) and not np.all(certified)
        assert np.all(np.abs(kernel[certified]) <= 1e-300)
        np.testing.assert_allclose(got[~certified], kernel[~certified], rtol=1e-14, atol=0)


FROZEN_SPHERICAL = [
    (5, 1.3, 0.025646660751572721),
    (20, 4.0, 0.17132852374849737),
    (200, 16.0, 0.35463329428164963),
]

FROZEN_TRUNCATED = [
    (10, 5, 0.9, 0.97102800640038884),
    (200, 100, 0.72, 0.044950598431639481),
    (30, 29, 0.9999999, 0.99991300378004063),
]

FROZEN_PRODUCT_K1 = [
    (8, 3.0, 0.43534756394122242),
    (100, 11.0, 0.90607768701703802),
]

# k=2 single-factor values have the closed form 1 - 2 sqrt(t) K_1(2 sqrt(t))
# with t = r^2 (modified Bessel function of the second kind).
FROZEN_PRODUCT_K2 = [
    (1, 1.0, 0.72026823636695515),
    (1, 2.5, 0.97977693277273918),
    (5, 2.5, 0.0030475011289904153),
]


class TestFrozenValues:
    @pytest.mark.parametrize("n,r,want", FROZEN_SPHERICAL)
    def test_spherical(self, n, r, want):
        assert spherical_exact_cdf(n, r) == pytest.approx(want, rel=5e-13, abs=0)

    @pytest.mark.parametrize("n,p,r,want", FROZEN_TRUNCATED)
    def test_truncated(self, n, p, r, want):
        assert truncated_exact_cdf(n, p, r) == pytest.approx(want, rel=5e-13, abs=0)

    def test_truncated_huge_dispersion_fallback(self):
        # negative-binomial window mean ~ 1e9 forces the per-factor path
        value = truncated_exact_cdf(102, 100, 1.0 - 1e-9)
        assert value == pytest.approx(0.9999999999993132, rel=1e-11, abs=0)

    @pytest.mark.parametrize("n,r,want", FROZEN_PRODUCT_K1)
    def test_product_k1(self, n, r, want):
        assert product_exact_cdf_k1(n, r) == pytest.approx(want, rel=5e-13, abs=0)

    @pytest.mark.parametrize("n,r,want", FROZEN_PRODUCT_K2)
    def test_product_k2(self, n, r, want):
        assert product_exact_cdf_k2(n, r) == pytest.approx(want, rel=1e-7, abs=0)


# (spec, predicate threshold is the r of the matching frozen case, sampled
# fraction from the one-time run, master seed of that run)
FROZEN_MC_BANDS = [
    ("spherical", 0.025452, 101, FROZEN_SPHERICAL[0][2]),
    ("truncated", 0.971293, 102, FROZEN_TRUNCATED[0][3]),
    ("product_k1", 0.435673, 103, FROZEN_PRODUCT_K1[0][2]),
    ("product_k2", 0.003067, 104, FROZEN_PRODUCT_K2[2][2]),
]


class TestMonteCarloBands:
    @pytest.mark.parametrize("label,frac,seed,exact", FROZEN_MC_BANDS)
    def test_exact_value_inside_3se_band(self, label, frac, seed, exact):
        se = math.sqrt(frac * (1.0 - frac) / 1_000_000)
        assert abs(exact - frac) <= 3.0 * se


class TestLargeNWindowedAgainstBruteForce:
    """The windowed/suffix-sum factor engine vs a direct per-factor product.

    scipy's regularized incomplete beta/gamma functions provide an
    independent implementation of each factor; the log-product is summed
    with compensated summation.
    """

    def test_spherical_windowed(self):
        scipy_special = pytest.importorskip("scipy.special")
        n, r = 8192, float(np.sqrt(8192.0))
        u = r * r / (1.0 + r * r)
        j = np.arange(1, n + 1, dtype=float)
        logs = np.log(scipy_special.betainc(j, n - j + 1, u))
        want = math.exp(math.fsum(logs.tolist()))
        assert spherical_exact_cdf(n, r) == pytest.approx(want, rel=2e-10, abs=0)

    def test_truncated_distant_window(self):
        scipy_special = pytest.importorskip("scipy.special")
        n, p, r = 10100, 100, 0.9
        x = r * r
        j = np.arange(1, p + 1, dtype=float)
        logs = np.log(scipy_special.betainc(j, n - p, x))
        want = math.exp(math.fsum(logs.tolist()))
        assert truncated_exact_cdf(n, p, r) == pytest.approx(want, rel=2e-10, abs=0)

    def test_product_k1_windowed(self):
        scipy_special = pytest.importorskip("scipy.special")
        n, r = 5000, 71.0
        j = np.arange(1, n + 1, dtype=float)
        logs = np.log(scipy_special.gammainc(j, r * r))
        want = math.exp(math.fsum(logs.tolist()))
        assert product_exact_cdf_k1(n, r) == pytest.approx(want, rel=2e-10, abs=0)


class TestOrderedFactors:
    @pytest.mark.parametrize("n,p,r", [(30, 12, 0.7), (101, 26, 0.55), (60, 30, 0.82)])
    def test_truncated_factors_nonincreasing_and_multiply(self, n, p, r):
        x = r * r
        factors = [reg_inc_beta(x, j, n - p) for j in range(1, p + 1)]
        assert all(factors[i] >= factors[i + 1] for i in range(p - 1))
        product = math.exp(math.fsum(math.log(f) for f in factors))
        assert truncated_exact_cdf(n, p, r) == pytest.approx(product, rel=1e-11, abs=0)


class TestMonotoneGrids:
    def test_spherical(self):
        fn = exact_cdf_fn(Spherical(20))
        grid = np.linspace(0.0, 60.0, 1000)
        values = fn(grid)
        assert np.all(np.diff(values) >= -1e-12)
        assert values[0] == 0.0
        assert abs(fn(np.array([1e9]))[0] - 1.0) <= 1e-12

    def test_truncated(self):
        fn = exact_cdf_fn(TruncatedUnitary(60, 30))
        grid = np.linspace(0.0, 1.0, 1000)
        values = fn(grid)
        assert np.all(np.diff(values) >= -1e-12)
        assert values[0] == 0.0
        assert abs(values[-1] - 1.0) <= 1e-12

    def test_product_k1(self):
        fn = exact_cdf_fn(GinibreProduct(40, 1))
        grid = np.linspace(0.0, 50.0, 1000)
        values = fn(grid)
        assert np.all(np.diff(values) >= -1e-12)
        assert values[0] == 0.0
        assert abs(values[-1] - 1.0) <= 1e-12

    def test_product_k2(self):
        fn = exact_cdf_fn(GinibreProduct(5, 2))
        grid = np.linspace(0.0, 40.0, 1000)
        values = fn(grid)
        assert np.all(np.diff(values) >= -1e-12)
        assert values[0] == 0.0
        assert abs(values[-1] - 1.0) <= 1e-12

    def test_spherical_underflow_is_exact_zero(self):
        assert spherical_exact_cdf(200, 0.05) == 0.0


class TestNormalizedConvergence:
    def test_spherical_gap_decreases(self):
        gaps = [stats._exact_limit_gap(Spherical(n), SPHERICAL_H) for n in (20, 200, 2000)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.02

    def test_truncated_gap_values(self):
        # The affinely normalized curves sit a stable O(1/log n) distance
        # from the Gumbel limit over this range; the gap is not yet
        # shrinking at n = 2*10^4 (see the acceptance suite) but must stay
        # bounded and reproduce these levels.
        gaps = [stats._exact_limit_gap(TruncatedUnitary(n, n // 2), GUMBEL)
                for n in (200, 2000, 20000)]
        assert gaps == pytest.approx([0.0283, 0.0603, 0.0720], abs=5e-4)

    def test_product_k1_gap_values(self):
        gaps = [stats._exact_limit_gap(GinibreProduct(n, 1), GUMBEL) for n in (100, 1000, 10000)]
        assert gaps == pytest.approx([0.0562, 0.0627, 0.0673], abs=5e-4)
        assert gaps[2] <= 0.1


class TestCurveAndDispatch:
    def test_cdf_curve_roundtrip(self):
        spec = Spherical(10)
        grid = np.linspace(0.5, 6.0, 50)
        curve = cdf_curve(spec, grid)
        assert isinstance(curve, CdfCurve)
        assert curve.spec == spec
        assert np.array_equal(curve.grid, grid)
        assert np.array_equal(curve.values, exact_cdf_fn(spec)(grid))

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            CdfCurve(
                grid=np.array([1.0, 1.0, 2.0]),
                values=np.array([0.1, 0.2, 0.3]),
                spec=Spherical(3),
            )
        with pytest.raises(ValueError):
            CdfCurve(
                grid=np.array([1.0, 2.0, 3.0]),
                values=np.array([0.3, 0.2, 0.4]),
                spec=Spherical(3),
            )
        with pytest.raises(ValueError):
            CdfCurve(
                grid=np.array([1.0, 2.0]),
                values=np.array([0.1, 0.2, 0.3]),
                spec=Spherical(3),
            )

    def test_log_cdf_matches_scalars(self):
        assert exact_log_cdf(Spherical(5), 1.3) == pytest.approx(
            math.log(spherical_exact_cdf(5, 1.3)), rel=1e-13
        )
        assert exact_log_cdf(TruncatedUnitary(10, 5), 0.9) == pytest.approx(
            math.log(truncated_exact_cdf(10, 5, 0.9)), rel=1e-13
        )

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_every_k_reads_the_log_radius(self, k):
        # the radius entry is the log-radius entry after one log, bit for bit
        spec = GinibreProduct(6, k)
        r = np.concatenate([[0.0], np.geomspace(0.05, 1e3, 40), [math.inf]])
        with np.errstate(divide="ignore"):
            s = np.log(r)
        got = exact_log_cdf(spec, r)
        assert np.array_equal(got, exact_cdf._statistic_log_cdf(spec, s))
        assert np.all(np.diff(got) >= 0.0) and got[0] == -np.inf and got[-1] == 0.0

    SPECS = [Spherical(10), TruncatedUnitary(10, 5), GinibreProduct(10, 1),
             GinibreProduct(10, 2), GinibreProduct(10, 3)]

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_nan_raises(self, spec):
        # every path returned log 0 (cdf 0) for NaN
        for call in (lambda r: exact_log_cdf(spec, r), exact_cdf_fn(spec),
                     lambda r: cdf_curve(spec, r),
                     lambda r: exact_cdf._statistic_log_cdf(spec, r)):
            with pytest.raises(ValueError, match="NaN"):
                call([math.nan, 0.5])

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_input_shape_is_kept(self, spec):
        # k >= 2 raised IndexError on 2-d input
        r = np.array([[0.3, 0.6], [0.9, 1.0]]) * (1.0 if spec.family == "truncated" else 4.0)
        flat = exact_log_cdf(spec, r.ravel())
        assert np.array_equal(exact_log_cdf(spec, r), flat.reshape(2, 2))
        assert np.array_equal(exact_cdf_fn(spec)(r), exact_cdf_fn(spec)(r.ravel()).reshape(2, 2))
        s = np.log(r) if spec.family == "product" else r
        assert np.array_equal(exact_cdf._statistic_log_cdf(spec, s), flat.reshape(2, 2))
        assert exact_cdf._statistic_log_cdf(spec, s[0, 0]).shape == ()

    @pytest.mark.parametrize("spec", SPECS, ids=repr)
    def test_statistic_entry_takes_any_real(self, spec):
        # log 0 below the support and log 1 above it (the spherical log cdf
        # is -n/r^2 there, with r capped at 1e150), with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = exact_cdf._statistic_log_cdf(spec, [-math.inf, -1e300, -1e5, 1e300, math.inf])
        assert np.all(got[:3] == -np.inf)
        assert np.all(np.abs(got[3:]) <= 1e-290)

    def test_quad_points_validation(self):
        with pytest.raises(ValueError):
            product_exact_cdf_k2(1, 1.0, quad_points=32)
        with pytest.raises(ValueError):
            product_exact_cdf_k2(1, 1.0, quad_points=64.5)

    BAD_QUAD_POINTS = [32, 64.5, math.inf, math.nan, "64"]

    @pytest.mark.parametrize("bad", BAD_QUAD_POINTS)
    def test_quad_points_validated_by_exact_log_cdf(self, bad):
        for spec in (Spherical(5), GinibreProduct(5, 2)):
            with pytest.raises(ValueError):
                exact_log_cdf(spec, [1.0], quad_points=bad)

    @pytest.mark.parametrize("bad", BAD_QUAD_POINTS)
    def test_quad_points_validated_by_exact_cdf_fn(self, bad):
        with pytest.raises(ValueError):
            exact_cdf_fn(TruncatedUnitary(6, 3), quad_points=bad)

    @pytest.mark.parametrize("bad", BAD_QUAD_POINTS)
    def test_quad_points_validated_by_cdf_curve(self, bad):
        with pytest.raises(ValueError):
            cdf_curve(GinibreProduct(5, 1), [0.5, 1.0], quad_points=bad)

    @pytest.mark.parametrize("bad", BAD_QUAD_POINTS)
    def test_quad_points_validated_by_product_exact_cdf_k2(self, bad):
        with pytest.raises(ValueError):
            product_exact_cdf_k2(5, 2.5, quad_points=bad)

    def test_valid_quad_points_do_not_change_values(self):
        spec = GinibreProduct(5, 2)
        assert np.array_equal(
            exact_log_cdf(spec, [1.5, 2.5], quad_points=256), exact_log_cdf(spec, [1.5, 2.5])
        )
        assert cdf_curve(spec, [2.5], quad_points=np.int64(64)).values[0] == exact_cdf_fn(spec)([2.5])[0]

    def test_quadrature_failure_reports_achieved(self, monkeypatch):
        # a factor that needs more contour nodes than the cap raises, with
        # the truncation bound reached at the cap
        monkeypatch.setattr(exact_cdf, "_CONTOUR_NODE_CAP", 8)
        with pytest.raises(QuadratureError) as exc:
            exact_log_cdf(GinibreProduct(5, 2), [2.5])
        assert 0.0 < exc.value.achieved < math.inf

    def test_k2_deterministic_and_node_stable(self):
        a = product_exact_cdf_k2(5, 2.5)
        b = product_exact_cdf_k2(5, 2.5)
        c = product_exact_cdf_k2(5, 2.5, quad_points=128)
        assert a == b
        assert c == pytest.approx(a, rel=2e-8, abs=0)


class TestProductK1LowerCertificate:
    """Radii where P(Poisson(y) >= n) <= e^-y (e y/n)^n is below the 1e-320
    floor: every factor is at most that, so the product is 0 without a
    table."""

    @staticmethod
    def _edge_log_y(n):
        # the certificate's edge: -y + n (1 + log(y/n)) = log(1e-320), y < n
        lo, hi = -800.0, math.log(n)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if -math.exp(mid) + n * (1.0 + mid - math.log(n)) < exact_cdf._LOG_ZERO_CUT:
                lo = mid
            else:
                hi = mid
        return lo

    @pytest.mark.parametrize("n", [1, 2, 40, 3000, 10**5])
    def test_certified_points_are_below_the_floor_in_the_kernel(self, n):
        log_y = self._edge_log_y(n) + np.linspace(-0.3, 0.3, 121) * min(1.0, 30.0 / math.sqrt(n))
        r = np.exp(0.5 * log_y)
        got = exact_log_cdf(GinibreProduct(n, 1), r)
        kernel = _poisson_tables(n, r)
        certified = np.isneginf(got)
        assert np.any(certified) and not np.all(certified)
        assert np.all(kernel[certified] <= exact_cdf._LOG_ZERO_CUT)
        # just outside the edge the table path runs, on the same points
        np.testing.assert_allclose(got[~certified], kernel[~certified], rtol=1e-14, atol=0)

    def test_floor_artefact_is_now_zero(self):
        # the table path returned about -1.24e8 here, an artefact of the floor
        spec = GinibreProduct(10**6, 1)
        assert exact_log_cdf(spec, [900.0])[0] == -np.inf
        assert exact_cdf_fn(spec)([900.0])[0] == 0.0
        assert product_exact_cdf_k1(10**6, 900.0) == 0.0


class TestTruncatedCertificates:
    """With X ~ NegBinomial(m, x), m = n-p: where p P(X <= p-1) is certified
    below the 1e-320 floor every factor is 1 (log 0), and where P(X >= p)
    is, the product is 0 (-inf); both without a table."""

    @staticmethod
    def _bound(n, p, k, r):
        # Chernoff: k log(x (m+k)/k) + m log((1-x)(m+k)/m), x = r^2
        m, x = n - p, r * r
        b = m * math.log((1.0 - x) * (m + k) / m)
        return b + k * math.log(x * (m + k) / k) if k > 0 else b

    def _sweep(self, n, p, upper):
        """121 radii across a certificate's edge: its log bound runs from
        150 below the floor's log to 150 above it."""
        r_mean = math.sqrt(p / n)  # the pmf mean is p there
        if upper:  # falls as r rises past r_mean
            bound = lambda r: math.log(p) + self._bound(n, p, p - 1, r)
            lo, hi = r_mean, 1.0 - 1e-15
        else:  # rises with r below r_mean
            bound = lambda r: self._bound(n, p, p, r)
            lo, hi = 1e-150, r_mean

        def solve(level):
            a, b = lo, hi
            for _ in range(200):
                mid = 0.5 * (a + b)
                a, b = (mid, b) if (bound(mid) < level) != upper else (a, mid)
            return a

        cut = exact_cdf._LOG_ZERO_CUT
        return np.linspace(solve(cut - 150.0), solve(cut + 150.0), 121)

    @pytest.mark.parametrize(
        "n,p,upper",
        [(n, p, False) for n, p in [(10, 5), (60, 30), (300, 20), (2000, 1000), (10**5, 5 * 10**4)]]
        # at smaller m no double r < 1 reaches the upper edge
        + [(n, p, True) for n, p in [(40, 1), (60, 30), (300, 20), (2000, 1000), (10**5, 5 * 10**4)]],
    )
    def test_certified_points_are_at_the_floor_in_the_kernel(self, n, p, upper):
        r = self._sweep(n, p, upper)
        got = exact_log_cdf(TruncatedUnitary(n, p), r)
        kernel = _negbin_tables(n, p, r)
        k = p - 1 if upper else p
        bound = np.array([self._bound(n, p, k, v) for v in r]) + (math.log(p) if upper else 0.0)
        certified = bound < exact_cdf._LOG_ZERO_CUT
        assert np.any(certified) and not np.all(certified)
        if upper:
            assert np.all(got[certified] == 0.0)
            assert np.all(np.abs(kernel[certified]) <= 1e-300)
        else:
            assert np.all(np.isneginf(got[certified]))
            assert np.all(kernel[certified] <= exact_cdf._LOG_ZERO_CUT)
        # on the other side of the edge the table path runs, on the same points
        np.testing.assert_allclose(got[~certified], kernel[~certified], rtol=1e-14, atol=0)

    def test_large_n_points_need_no_table(self):
        # r = 0.5 gave the floor artefact -2.39e8 from a 23 MB table, and
        # r = 0.73 and 0.8 built a 20 MB prefix table to return log 0
        spec = TruncatedUnitary(10**6, 5 * 10**5)
        tracemalloc = pytest.importorskip("tracemalloc")
        tracemalloc.start()
        try:
            got = exact_log_cdf(spec, [0.5, 0.73, 0.8])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[0] == -np.inf and got[1] == 0.0 and got[2] == 0.0
        assert peak <= 1e6
        assert truncated_exact_cdf(10**6, 5 * 10**5, 0.5) == 0.0

    def test_one_call_holds_every_kind_of_point(self):
        # null, table, wide (per-factor) and sure points, in that order
        spec = TruncatedUnitary(1050, 1000)
        r = np.array([0.5, 0.976, math.sqrt(1.0 - 2e-6), math.sqrt(1.0 - 1e-9)])
        got = exact_log_cdf(spec, r)
        assert got[0] == -np.inf and -100.0 < got[1] < -1.0 and got[3] == 0.0
        assert got[2] == pytest.approx(-2.5389446986195823892e-198, rel=1e-12, abs=0)
        for i, v in enumerate(r):
            assert exact_log_cdf(spec, [v])[0] == got[i]


# truncated log-cdfs at points whose table would pass _WIDE_CELLS cells, by
# mpmath at 50 digits: sum_j log1p(-I_delta(m, j)), delta = 1 - r^2 at the
# double r
FROZEN_TRUNCATED_WIDE = [
    (102, 100, 1.0 - 1e-9, -6.8679989247195362191e-13),
    (12, 10, math.sqrt(1.0 - 1e-6), -2.199990099798738911e-10),
    (52, 50, math.sqrt(1.0 - 1e-7), -2.2099945855551910964e-10),
    (1050, 1000, math.sqrt(1.0 - 2e-6), -2.5389446986195823892e-198),
]


@pytest.mark.parametrize("n,p,r,want", FROZEN_TRUNCATED_WIDE)
def test_wide_truncated_factors_keep_relative_accuracy(n, p, r, want):
    # I_x(j, m) near 1 put these off by 1.3e-3 to 1e-6 relative, and the
    # last at 0; rel 1e-12 is the reg_inc_beta contract
    m, x = n - p, r * r
    assert (1 + exact_cdf._WINDOW_SD) * math.sqrt(m * x) / (1.0 - x) > exact_cdf._WIDE_CELLS
    assert exact_log_cdf(TruncatedUnitary(n, p), [r])[0] == pytest.approx(want, rel=1e-12, abs=0)


def test_wide_truncated_product_exits_at_the_floor(monkeypatch):
    # m = 2, 1 - r^2 = 3e-5: the NegBinomial mean is 66,665 and the running
    # log sum passes log(1e-320) at j = 18,377, where P(X < j) is 0.106
    calls = []
    real = exact_cdf.reg_inc_beta
    monkeypatch.setattr(exact_cdf, "reg_inc_beta",
                        lambda x, a, b: calls.append(b) or real(x, a, b))
    r = math.sqrt(1.0 - 3e-5)
    assert exact_log_cdf(TruncatedUnitary(20_002, 20_000), [r])[0] == -np.inf
    assert len(calls) == 18_377
    assert real((1.0 - r) * (1.0 + r), 2.0, 18_377.0) < 0.5


def test_truncated_m2_matches_its_closed_form(monkeypatch):
    """m = n - p = 2, where the NegBinomial(2, x) tail is geometric, not
    Gaussian: P(X >= j) = x^j (1 + j(1-x)), so with d = 1 - x

        log F = p(p+1)/2 log x + p log d + log Gamma(1/d + p + 1) - log Gamma(1/d + 1).

    The terms cancel (an fsum of the per-factor logs in doubles is off by up
    to 1.6e-8 relative here), so mpmath evaluates the closed form at 60
    digits from the double r.  The points above the floor run over both the
    window and the wide per-factor branch."""
    mpmath = pytest.importorskip("mpmath")
    wide = []
    real = exact_cdf._truncated_wide_log_cdf
    monkeypatch.setattr(exact_cdf, "_truncated_wide_log_cdf",
                        lambda m, p, r: wide.append((p, r)) or real(m, p, r))
    x = np.concatenate([np.linspace(0.01, 0.999, 25), 1.0 - np.logspace(-2, -9, 15)])
    r = np.sqrt(x)
    checked = set()
    for p in (1, 2, 5, 20, 100, 1000, 5000):
        got = exact_log_cdf(TruncatedUnitary(p + 2, p), r)
        for g, v in zip(got, r.tolist()):
            with mpmath.workdps(60):
                xm = mpmath.mpf(v) ** 2
                d = 1 - xm
                want = float(p * (p + 1) // 2 * mpmath.log(xm) + p * mpmath.log(d)
                             + mpmath.loggamma(1 / d + p + 1) - mpmath.loggamma(1 / d + 1))
            if want > exact_cdf._LOG_ZERO_CUT:
                assert g == pytest.approx(want, rel=1e-12, abs=0), (p, v)
                checked.add((p, v))
    assert 0 < len(checked & set(wide)) < len(checked)


class TestBlockPlanner:
    """pmf tables are built in blocks of rows x union-width <= _BLOCK_CELLS
    cells, so memory follows the block budget, not the grid's spread."""

    def test_blocks_cover_the_points_within_budget(self):
        rng = np.random.default_rng(7)
        centre = np.sort(rng.uniform(0.0, 5e5, 400))
        half = rng.uniform(5.0, 3000.0, 400)
        half[[0, 150, 399]] = [1e5, 4e4, 2e5]  # windows alone over budget
        lo = np.floor(centre - half).astype(np.int64)
        hi = np.ceil(centre + half).astype(np.int64)
        stop = 0
        for start, stop_b, i0, i1 in exact_cdf._plan_blocks(lo, hi):
            assert start == stop and stop_b > start
            assert i0 == lo[start:stop_b].min() and i1 == hi[start:stop_b].max()
            if stop_b - start > 1:
                assert (stop_b - start) * (i1 - i0 + 1) <= exact_cdf._BLOCK_CELLS
            stop = stop_b
        assert stop == 400

    @pytest.mark.parametrize(
        "spec,r",
        [
            (GinibreProduct(10**6, 1), 1000.0 * np.linspace(0.9, 1.2, 200)),
            (TruncatedUnitary(10**6, 5 * 10**5), np.linspace(0.7078, 0.7090, 100)),
        ],
        ids=["k1_wide", "truncated"],
    )
    def test_peak_memory(self, spec, r):
        tracemalloc = pytest.importorskip("tracemalloc")
        tracemalloc.start()
        try:
            cdf_curve(spec, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    @pytest.mark.parametrize(
        "spec,r",
        [
            (Spherical(50), np.sqrt(50.0) * np.linspace(0.5, 2.0, 3000)),
            (Spherical(10**5), np.sqrt(1e5) * np.linspace(0.99, 1.01, 300)),
            (TruncatedUnitary(60, 30), np.linspace(0.6, 0.99, 3000)),
            (TruncatedUnitary(20000, 10000), np.linspace(0.70, 0.72, 300)),
            (GinibreProduct(40, 1), np.sqrt(40.0) * np.linspace(0.5, 2.0, 3000)),
            (GinibreProduct(10**5, 1), np.sqrt(1e5) * np.linspace(0.98, 1.03, 300)),
            (GinibreProduct(20, 2), 20.0 * np.linspace(0.3, 3.0, 300)),
            (GinibreProduct(100, 2), 100.0 * np.linspace(0.5, 2.0, 300)),
            (GinibreProduct(50, 3), 50.0**1.5 * np.linspace(0.3, 3.0, 300)),
        ],
        ids=["sph50", "sph1e5", "tr60", "tr2e4", "k1_40", "k1_1e5", "k2_20", "k2_100", "k3_50"],
    )
    def test_input_order_does_not_matter(self, spec, r):
        perm = np.random.default_rng(3).permutation(r.size)
        want = exact_log_cdf(spec, r)
        got = np.empty_like(want)
        got[perm] = exact_log_cdf(spec, r[perm])
        assert np.array_equal(got, want)
        # a single point gives its value within the grid
        for i in (0, r.size // 3, r.size - 1):
            single = exact_log_cdf(spec, r[i : i + 1])[0]
            assert single == pytest.approx(want[i], rel=1e-14, abs=0)

    def test_point_whose_window_exceeds_the_budget(self):
        n, r = 10**6, 1001.5
        assert 2.0 * exact_cdf._WINDOW_SD * r > exact_cdf._BLOCK_CELLS
        spec = GinibreProduct(n, 1)
        alone = exact_log_cdf(spec, [r])[0]
        among = exact_log_cdf(spec, np.linspace(1000.5, 1002.5, 5))[2]
        assert alone == pytest.approx(among, rel=1e-14, abs=0)
        assert -1.0 < alone < 0.0


# log-cdfs at n = 10^6 by mpmath (dps=40): the factor product over the pmf
# from mean - 60 sd on, each pmf from the last by its ratio, at the double r
FROZEN_LARGE_N = [
    (GinibreProduct(10**6, 1), 1001.08, -5.5046436018113864999),
    (TruncatedUnitary(10**6, 5 * 10**5), 0.70787, -5.5084798246597125797),
]


@pytest.mark.parametrize("spec,r,want", FROZEN_LARGE_N, ids=["k1", "truncated"])
def test_no_drift_at_n_1e6(spec, r, want):
    # tables of log i! and log C summed over 10^6 terms put the log-cdf off
    # by 5e-9 (k=1) and 6.8e-10 (truncated) relative here
    assert exact_log_cdf(spec, [r])[0] == pytest.approx(want, rel=1e-11, abs=0)


# log-cdfs of the k=2 radius from the Bessel closed form of each factor,
# P(s1 s2 > t) = sum_{i<j} 2 t^((j+i)/2) K_{j-i}(2 sqrt t) / (i! Gamma(j)),
# by mpmath at 60 digits (K by upward recurrence from K_0 and K_1)
K2_REFERENCE = [
    (20, [10.0, 30.0], [-46.361807661022680475, -0.0031293810229314622611]),
    (100, [60.0, 150.0], [-396.79616863407682828, -4.7281361136717048074e-10]),
    (200, [234.09448818897636], [-0.0017172394755701514804]),
    (300, [405.0], [-8.4249352980690994679e-15]),
    (400, [500.0, 520.0], [-6.1281360988360242353e-11, -8.082228600635637318e-15]),
]


class TestProductK2UpperTail:
    @pytest.mark.parametrize("n,r,want", K2_REFERENCE, ids=[f"n{c[0]}" for c in K2_REFERENCE])
    def test_against_bessel_reference(self, n, r, want):
        # the upper tail overflowed for n >~ 300: -1.44e-6 at (400, 500)
        # and QuadratureError at (400, 520)
        got = exact_log_cdf(GinibreProduct(n, 2), r)
        want = np.array(want)
        assert np.all(got <= 0.0)
        assert np.all(np.abs(got - want) <= 1e-7 * np.abs(want) + 1e-12)

    def test_factor_below_the_floor_does_not_stall_quadrature(self):
        # at r = 0.05 the factors underflow to 0; the node doubling compared
        # -inf with -inf and ran to QuadratureError after about 50 s
        got = exact_log_cdf(GinibreProduct(100, 2), [0.05, 60.0])
        assert got[0] == -np.inf
        assert got[1] == pytest.approx(-396.79616863407682828, rel=1e-10)


# log P(S_j <= x), S_j = log s1 + log s2 with s1, s2 ~ Gamma(j), at x = mean
# + z sd for z in (-6, -2, -0.5, -0.05, 0, 0.05, 0.5, 2, 6): from the same
# Bessel closed form, by mpmath at 60 digits past the cancellation in 1 - P
K2_FACTOR_REFERENCE = {
    1: [
        (-12.037227515208373, -9.5621325263576512656),
        (-4.782030058271501, -3.2444510547042485325),
        (-2.0613310119201746, -1.3054359664975706403),
        (-1.2451212980147766, -8.4771940628744539124e-1),
        (-1.1544313298030657, -8.0200343536097839606e-1),
        (-1.063741361591355, -7.5742037016248892404e-1),
        (-0.24753164768595678, -4.1164913160431650436e-1),
        (2.47316739866537, -3.537581885949097355e-3),
        (9.72836485560224, -5.844480860559479983e-112),
    ],
    2: [
        (-5.968773030442409, -1.0957992403028365435e+1),
        (-1.4258785633495137, -3.3503310100179132923),
        (0.2777068618103223, -1.2630164760284252988),
        (0.7887824893582731, -8.1107470793762738543e-1),
        (0.8455686701969343, -7.6704104921844926901e-1),
        (0.9023548510355954, -7.2429942533696681142e-1),
        (1.4134304785835463, -3.994171419112406189e-1),
        (3.117015903743382, -8.4436130906054773165e-3),
        (7.659910370836278, -2.5734366596940947697e-36),
    ],
    5: [
        (-0.9796630602743202, -1.3183327264180074918e+1),
        (1.6816025378176274, -3.4780615853074351804),
        (2.6795771371021075, -1.226821904583283831),
        (2.9789695168874517, -7.8017900442394293487e-1),
        (3.012235336863601, -7.375879837202316623e-1),
        (3.0455011568397503, -6.9640700228983109305e-1),
        (3.3448935366250945, -3.8837786773553783636e-1),
        (4.342868135909574, -1.384490900836256676e-2),
        (7.004133734001522, -4.4717409361780171789e-19),
    ],
    10: [
        (1.7517827776937878, -1.4793193785101424893e+1),
        (3.5862643779868906, -3.5550965784858980725),
        (4.274194978096804, -1.2104761556958956524),
        (4.480574158129778, -7.6583207762013785613e-1),
        (4.503505178133442, -7.2387192187612520584e-1),
        (4.526436198137106, -6.8337613041845631334e-1),
        (4.73281537817008, -3.8277232385902366841e-1),
        (5.420745978279994, -1.661145292001279909e-2),
        (7.255227578573097, -5.1942347090964705635e-15),
    ],
    50: [
        (6.597954474673543, -1.7628246519358010118e+1),
        (7.40197105612837, -3.6727423217925814673),
        (7.703477274173931, -1.190641676062457698),
        (7.793929139587599, -7.4780450372721713105e-1),
        (7.803979346855784, -7.0658319039715721897e-1),
        (7.8140295541239695, -6.668965180650735374e-1),
        (7.904481419537638, -3.752103556295525658e-1),
        (8.205987637583199, -2.0206418263939163277e-2),
        (9.010004219038027, -1.4143687592895877941e-11),
    ],
    100: [
        (8.349669839464848, -1.84480450133031332e+1),
        (8.916772416805733, -3.7034962523107945782),
        (9.129435883308565, -1.1862228636147470984),
        (9.193234923259414, -7.436732624931361695e-1),
        (9.200323705476174, -7.0261204415000880404e-1),
        (9.207412487692936, -6.6310203591514566782e-1),
        (9.271211527643786, -3.7339392622483864143e-1),
        (9.483874994146618, -2.1037797981083691597e-2),
        (10.050977571487502, -5.7020833049746296527e-11),
    ],
}

# log cdf at n=100 in the far upper tail, from the same closed form
K2_FAR_UPPER_TAIL = [
    (267.0, -2.1008611576267471883e-62),
    (272.0, -3.7305510128774783996e-65),
    (277.0, -6.1997004199186781061e-68),
    (282.0, -9.6651204800758218687e-71),
    (287.0, -1.4165987879967597663e-73),
]


class TestProductK2Contour:
    """The contour kernel behind the k=2 cdf, factor by factor."""

    @pytest.mark.parametrize("j", sorted(K2_FACTOR_REFERENCE))
    def test_factor_logs_against_mpmath(self, j):
        x, want = np.array(K2_FACTOR_REFERENCE[j]).T
        got = exact_cdf._contour_log_factors(np.full((x.size, 1), float(j)), x[:, None], 2)
        np.testing.assert_allclose(got[:, 0], want, rtol=1e-12, atol=0)

    def test_far_upper_tail(self):
        # the Gauss-Legendre path was off by 3.7e-11 to 1.6e-10 relative here
        r, want = np.array(K2_FAR_UPPER_TAIL).T
        got = exact_log_cdf(GinibreProduct(100, 2), r)
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)

    def test_log_gamma_ratio_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for a in (0.5, 1.0, 2.0, 7.5, 50.0, 400.0, 1e4):
            z = np.array([complex(re, im) for re in (-0.9 * a, -0.3, 0.0, 0.7, 3.0, 50.0)
                          for im in (0.0, 0.01, 0.5, 3.0, 20.0, 150.0)])
            got = exact_cdf._log_gamma_ratio(a, z)
            for zi, gi in zip(z, got):
                with mpmath.workdps(40):
                    want = complex(mpmath.loggamma(a + mpmath.mpc(zi)) - mpmath.loggamma(a))
                # equal mod 2 pi i
                d = gi - want
                d = complex(d.real, math.remainder(d.imag, 2.0 * math.pi))
                assert abs(d) <= 2e-14 * max(abs(want), 1.0), (a, zi)

    @pytest.mark.parametrize("r", [1e40, 1e150, math.inf])
    def test_extreme_radii_are_one(self, r):
        # every upper tail is below the floor; no recurrence product overflows
        assert product_exact_cdf_k2(10, r) == 1.0
        assert exact_log_cdf(GinibreProduct(3, 2), [r, 2.0])[0] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 5, 40, 400])
    def test_k1_matches_poisson_kernel(self, n):
        # S_j = log s1 at k=1, so the kernel gives prod_j P(Poisson(r^2) >= j);
        # below the floor either path may return any log below it
        s = np.log(np.sqrt(n) * np.linspace(0.5, 1.6, 60))
        want = exact_cdf._product_k1_log_cdf_vec(n, s)
        got = exact_cdf._product_log_cdf_vec(n, 1, s)
        live = want > exact_cdf._LOG_ZERO_CUT
        assert np.all(got[~live] <= exact_cdf._LOG_ZERO_CUT)
        np.testing.assert_allclose(got[live], want[live], rtol=1e-12, atol=1e-300)


# log P(S <= x), S a sum of k logs of Gamma(j) variables, at x = k psi(j) +
# z sqrt(k psi'(j)) for z in (-3, -2, -1, -0.5, 0, 0.5, 1, 2, 3): from the
# Meijer-G closed form P(s_1...s_k <= e^x) = G^{k,1}_{1,k+1}(e^x | 1; j,...,j, 0)
# / Gamma(j)^k (Springer and Thompson, SIAM J. Appl. Math. 1970), by mpmath's
# meijerg at 40 digits; independent of the mgf the contour inverts
MEIJER_G_FACTOR_REFERENCE = {
    (3, 1): [(-8.395971401942148, -4.9199126455901725),
             (-6.174529932862965, -3.2985499848308284),
             (-3.9530884637837818, -1.8786184825980792),
             (-2.8423677292441902, -1.2802224130899365),
             (-1.7316469947045987, -0.7822888782493328),
             (-0.6209262601650072, -0.405508595124792),
             (0.48979447437458434, -0.1625062032832143),
             (2.7112359434537674, -0.005964081437898516),
             (4.93267741253295, -3.525883178019883e-06)],
    (3, 2): [(-2.904562019588537, -5.255761707657557),
             (-1.5135903446272239, -3.402838188699748),
             (-0.12261866966591128, -1.8620679440142842),
             (0.572867167814745, -1.2461736106989494),
             (1.2683530052954013, -0.7536467144197235),
             (1.9638388427760576, -0.39466025192066806),
             (2.659324680256714, -0.16777833820721547),
             (4.050296355218027, -0.010768955254994262),
             (5.441268030179339, -6.477018467313463e-05)],
    (3, 5): [(2.073824460789915, -5.667688593054478),
             (2.8886673089584107, -3.522233621846144),
             (3.7035101571269062, -1.849493682883702),
             (4.110931581211154, -1.2170407990299372),
             (4.518353005295402, -0.7294446332072749),
             (4.92577442937965, -0.38509850334784296),
             (5.333195853463898, -0.17093522542170433),
             (6.148038701632393, -0.0154731132707706),
             (6.962881549800889, -0.00029732551662281205)],
    (3, 10): [(5.070178818484253, -5.9106166987237785),
              (5.631871801389557, -3.5908392082560607),
              (6.1935647842948605, -1.8452211326062187),
              (6.474411275747512, -1.2038869726106003),
              (6.755257767200163, -0.7182195331759876),
              (7.036104258652815, -0.38036288437388144),
              (7.316950750105466, -0.17188780225477107),
              (7.87864373301077, -0.017778294594658732),
              (8.440336715916073, -0.0005129617134359099)],
    (5, 1): [(-11.48968413882588, -5.155851718296538),
             (-8.621815534053141, -3.3680234340039656),
             (-5.753946929280403, -1.864722511340334),
             (-4.320012626894034, -1.2553221858459915),
             (-2.886078324507664, -0.7622201079410063),
             (-1.4521440221212951, -0.39846516659603465),
             (-0.018209719734926022, -0.16673427748170006),
             (2.849658885037812, -0.009131243466345978),
             (5.71752748981055, -2.8620084555553684e-05)],
    (5, 2): [(-3.273288456679064, -5.473860293104279),
             (-1.4775517459552638, -3.4656055767407015),
             (0.31818496476853597, -1.854147949059561),
             (1.216053320130436, -1.2295312935655327),
             (2.113921675492336, -0.7400616479187783),
             (3.0117900308542356, -0.3894760872980392),
             (3.909658386216136, -0.16979170547754027),
             (5.705395096939935, -0.013339616987624247),
             (7.501131807663736, -0.00016125304709545282)],
    (5, 5): [(4.3747155614262, -5.841729674732961),
             (5.426673155003801, -3.5713894298996047),
             (6.478630748581402, -1.8462192662478132),
             (7.004609545370202, -1.2073909676511498),
             (7.530588342159002, -0.7212497584121116),
             (8.056567138947802, -0.3816691200953874),
             (8.582545935736603, -0.17166910693338902),
             (9.634503529314204, -0.017150135573930525),
             (10.686461122891805, -0.00044600217643075524)],
    (5, 10): [(9.083335376859797, -6.048121432414302),
              (9.8084778996844, -3.629288708728689),
              (10.533620422509003, -1.8435771539608168),
              (10.896191683921304, -1.1973767277958403),
              (11.258762945333604, -0.7125487503377017),
              (11.621334206745905, -0.3778842032245942),
              (11.983905468158206, -0.17223709931310877),
              (12.709047990982809, -0.01895872051968472),
              (13.434190513807412, -0.0006562551375580054)],
}


class TestProductEveryK:
    """The contour kernel at k >= 3, where the cdf has no other exact path here."""

    @pytest.mark.parametrize("k, j", sorted(MEIJER_G_FACTOR_REFERENCE))
    def test_factor_logs_against_meijer_g(self, k, j):
        x, want = np.array(MEIJER_G_FACTOR_REFERENCE[k, j]).T
        got = exact_cdf._contour_log_factors(np.full((x.size, 1), float(j)), x[:, None], k)
        np.testing.assert_allclose(got[:, 0], want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n, k, reps", [(20, 3, 5000), (50, 10, 5000), (50, 500, 2000)])
    def test_sampler_within_dkw_line(self, n, k, reps):
        # sup |F_reps - F| exceeds the line with probability at most 1e-6
        # (Dvoretzky-Kiefer-Wolfowitz with Massart's constant)
        spec = GinibreProduct(n, k)
        batch = run_monte_carlo(spec, reps, 11)
        report = stats.ks_statistic(
            batch, lambda s: exact_cdf._cdf_from_log(exact_cdf._statistic_log_cdf(spec, s)))
        assert report.statistic < math.sqrt(math.log(2.0 / 1e-6) / (2.0 * reps))


def _robustness_spec(family, n, other):
    if family == "spherical":
        return Spherical(n)
    if family == "truncated":
        return TruncatedUnitary(n + 1, 1 + other % n)
    return GinibreProduct(n, 1 + other % 200)


def _bulk_radius(spec, z):
    """A radius in or near the bulk of spec's cdf, for z in [-4, 8]."""
    if isinstance(spec, Spherical):
        return math.sqrt(spec.n) * math.exp(z / 4.0)
    if isinstance(spec, TruncatedUnitary):
        # 1 - r^2 from 1 down to e^-24
        return math.sqrt(-math.expm1(-2.0 * (z + 4.0)))
    return math.exp(min(float(norming._denormalize(norming.norming_for(spec), z)), 709.0))


@pytest.mark.parametrize("family", ["spherical", "truncated", "product"])
@given(
    n=st.integers(1, 3000),
    other=st.integers(0, 3000),
    radii=st.lists(st.sampled_from(["0", "5e-324", "1e300", "inf"]) | st.floats(-4.0, 8.0),
                   min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_every_radius_gives_a_cdf_or_a_typed_error(family, n, other, radii):
    """Sizes up to a few thousand, products up to k = 200, radii at 0, 5e-324,
    1e300 and inf and in the bulk: the log cdf is at most 0 and
    nondecreasing in r above the 1e-320 floor, or the call raises
    ValueError or a typed specrad error.  pytest turns numpy warnings into
    errors."""
    spec = _robustness_spec(family, n, other)
    r = sorted(float(v) if isinstance(v, str) else _bulk_radius(spec, v) for v in radii)
    try:
        logs = exact_log_cdf(spec, r)
    except (NonConvergenceError, WorkBudgetError, ValueError):
        return
    assert logs.shape == (len(r),) and np.all(logs <= 0.0)
    above = np.maximum(logs, exact_cdf._LOG_ZERO_CUT)
    assert np.all(np.diff(above) >= -1e-10 * (1.0 - above[:-1]))

"""Exact finite-n spectral-radius cdfs.

Frozen reference values were produced by an extended-precision direct
evaluation (mpmath, dps=40) of the defining factor products; Monte Carlo
bands were produced by a one-time 10^6-replicate run with the recorded
seeds (the sampled fractions are frozen, the exact cdf is recomputed).
"""

import math

import numpy as np
import pytest

from specrad import exact_cdf
from specrad.errors import QuadratureError
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
from specrad.norming import GinibreProduct, Spherical, TruncatedUnitary
from specrad.specfun import reg_inc_beta

from _util import product_k1_limit_gap, spherical_limit_gap, truncated_limit_gap


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
        y = r**2
        got = exact_log_cdf(GinibreProduct(n, 1), r)
        kernel = exact_cdf._product_k1_kernel(n, y, 2.0 * np.log(r))
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
        gaps = [spherical_limit_gap(n) for n in (20, 200, 2000)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.02

    def test_truncated_gap_values(self):
        # The affinely normalized curves sit a stable O(1/log n) distance
        # from the Gumbel limit over this range; the gap is not yet
        # shrinking at n = 2*10^4 (see the acceptance suite) but must stay
        # bounded and reproduce these levels.
        gaps = [truncated_limit_gap(n) for n in (200, 2000, 20000)]
        assert gaps == pytest.approx([0.0283, 0.0603, 0.0720], abs=5e-4)

    def test_product_k1_gap_values(self):
        gaps = [product_k1_limit_gap(n) for n in (100, 1000, 10000)]
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

    def test_k3_not_supported(self):
        with pytest.raises(ValueError):
            exact_log_cdf(GinibreProduct(5, 3), 1.0)

    def test_quad_points_validation(self):
        with pytest.raises(ValueError):
            product_exact_cdf_k2(1, 1.0, quad_points=32)
        with pytest.raises(ValueError):
            product_exact_cdf_k2(1, 1.0, quad_points=64.5)

    def test_quadrature_failure_reports_achieved(self, monkeypatch):
        monkeypatch.setattr(exact_cdf, "_NODE_CAP", 256)
        with pytest.raises(QuadratureError) as exc:
            exact_cdf._product_k2_log_cdf_vec(5, np.array([2.5]), rel_tol=1e-30)
        assert exc.value.achieved > 0.0

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
        kernel = exact_cdf._product_k1_kernel(n, r**2, 2.0 * np.log(r))
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
        ],
        ids=["sph50", "sph1e5", "tr60", "tr2e4", "k1_40", "k1_1e5"],
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

"""Limit-law cdfs, quantiles, tails, and inverse-transform sampling."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrad import limit_laws
from specrad.errors import NonConvergenceError
from specrad.limit_laws import (
    GUMBEL,
    SPHERICAL_H,
    STANDARD_NORMAL,
    Gumbel,
    ProductLaw,
    SphericalH,
    StandardNormal,
    cdf,
    cdf_values,
    gumbel_cdf,
    phi_alpha,
    product_law_cdf,
    quantile,
    quantiles,
    sample_limit,
    sample_limit_batch,
    spherical_h_cdf,
    tail_asymptote,
    upper_tail,
)

from _util import ks_distance

# frozen by an extended-precision direct evaluation (mpmath, dps=40)
H_AT_1 = 0.24314714161123875
PHI1_AT_0 = 0.41053395461029184
PRODUCT_LAW_1_1 = 0.64110952601677352


class TestSphericalH:
    def test_zero_below_support(self):
        for x in [-1.0, 0.0, -50.0]:
            cv = spherical_h_cdf(x)
            assert cv.value == 0.0
            assert cv.log_value == -math.inf

    def test_tail_at_10(self):
        v = spherical_h_cdf(10.0, tol=1e-12).value
        assert abs(100.0 * (1.0 - v) - 1.0) <= 0.05

    def test_long_product_oracle_at_1(self):
        cv = spherical_h_cdf(1.0, tol=1e-12)
        assert cv.value == pytest.approx(H_AT_1, rel=1e-10, abs=0)

    def test_brute_force_product_at_1(self):
        # direct product of Poisson cdfs at tau = 1, accumulated with fsum
        tau = 1.0
        pmf = math.exp(-tau)
        h_k = pmf
        logs = []
        for k in range(2, 200):
            logs.append(math.log(h_k))
            pmf = pmf * tau / (k - 1)
            h_k += pmf
        brute = math.exp(math.fsum(logs))
        assert spherical_h_cdf(1.0).value == pytest.approx(brute, rel=1e-10, abs=0)

    def test_truncation_bound_is_sound(self):
        for x in [0.5, 1.0, 3.0, 10.0]:
            coarse = spherical_h_cdf(x, tol=1e-8)
            fine = spherical_h_cdf(x, tol=1e-10)
            assert abs(coarse.log_value - fine.log_value) <= coarse.truncation_bound
            assert coarse.truncation_bound <= 1e-8

    def test_value_matches_log_value(self):
        cv = spherical_h_cdf(2.0)
        assert cv.value == pytest.approx(math.exp(cv.log_value), rel=1e-14, abs=0)

    def test_nonconvergence_reports_achieved_bound(self):
        with pytest.raises(NonConvergenceError) as exc:
            spherical_h_cdf(0.05, tol=1e-12, max_terms=10)
        assert exc.value.achieved > 1e-12

    @pytest.mark.parametrize("x", [0.05, 0.04])
    def test_small_x_matches_vector_path(self, x):
        # tau = x^-2 of 400 and 625: the dropped mass is a suffix sum, so the
        # truncation test no longer stalls on a cancelled tau - sum c_k
        cv = spherical_h_cdf(x, tol=1e-12)
        log_vec, bound_vec = limit_laws._spherical_h_log_vec(np.array([x]), 1e-12)
        assert cv.log_value < -1e4
        assert cv.log_value == pytest.approx(log_vec[0], rel=1e-12, abs=0)
        assert cv.truncation_bound <= 1e-12 and bound_vec[0] <= 1e-12

    def test_small_x_table_stays_in_blocks(self):
        # x down to 0.037 makes the Poisson span about 1,100 columns; blocks
        # of 256 rows held 2.3 MB per temporary and peaked near 24 MiB
        x = np.linspace(0.037, 3.0, 5000)
        cdf_values(SPHERICAL_H, x[:5])
        tracemalloc.start()
        try:
            cdf_values(SPHERICAL_H, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_below_double_range_is_zero_on_both_paths(self):
        # tau = 2500 > 745: H(x) <= e^-tau is 0 in double precision
        assert spherical_h_cdf(0.02).value == 0.0
        assert cdf_values(SPHERICAL_H, [0.02], tol=1e-12)[0] == 0.0

    def test_vector_log_is_monotone_across_the_cut(self):
        # below x = 745^-1/2 ~ 0.0366 the log is -inf, as on the scalar path;
        # a surrogate -55 - tau lay far above the true log just past the cut
        x = np.linspace(0.02, 0.06, 401)
        log_vec, _ = limit_laws._spherical_h_log_vec(x, 1e-12)
        assert np.all(log_vec[1:] >= log_vec[:-1])
        cut = x**-2.0 > 745.0
        assert np.all(np.isneginf(log_vec[cut])) and np.all(np.isfinite(log_vec[~cut]))
        assert spherical_h_cdf(float(x[0])).log_value == -math.inf
        assert np.all(cdf_values(SPHERICAL_H, x, tol=1e-12) == 0.0)
        # the values these levels had while the surrogate was in place
        got = quantiles(SPHERICAL_H, [1e-300, 1e-200, 1e-10, 0.5])
        assert list(got) == [
            0.14441178523793857, 0.16282005342259911, 0.37708971335068975, 1.340104669750513
        ]


class TestGumbel:
    def test_at_zero(self):
        assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_saturates(self):
        assert abs(gumbel_cdf(50.0) - 1.0) <= 1e-15

    def test_median(self):
        assert gumbel_cdf(-math.log(math.log(2.0))) == pytest.approx(0.5, rel=1e-15)


class TestPhiAlpha:
    def test_dominated_by_normal_cdf(self):
        phi = 0.5 * math.erfc(-0.3 / math.sqrt(2.0))
        assert phi_alpha(0.3, 1.0).value <= phi

    def test_degenerates_to_normal_at_huge_alpha(self):
        for x in [-2.0, 0.0, 2.0]:
            phi = 0.5 * math.erfc(-x / math.sqrt(2.0))
            assert abs(phi_alpha(x, 1e6, tol=1e-12).value - phi) <= 1e-6

    def test_brute_force_product_at_0(self):
        logs = [math.log(0.5 * math.erfc(-j / math.sqrt(2.0))) for j in range(41)]
        brute = math.exp(math.fsum(logs))
        got = phi_alpha(0.0, 1.0, tol=1e-12).value
        assert got == pytest.approx(brute, abs=1e-12)
        assert got == pytest.approx(PHI1_AT_0, rel=1e-12, abs=0)

    def test_truncation_bound_is_sound(self):
        for x, alpha in [(0.8, 0.5), (-1.0, 2.0), (0.0, 1.0)]:
            coarse = phi_alpha(x, alpha, tol=1e-8)
            fine = phi_alpha(x, alpha, tol=1e-10)
            assert abs(coarse.log_value - fine.log_value) <= coarse.truncation_bound

    def test_nonconvergence_at_tiny_alpha(self):
        with pytest.raises(NonConvergenceError):
            phi_alpha(0.0, 1e-14, tol=1e-12, max_terms=1000)


class TestPhiAlphaVector:
    """The blocked vector log Phi_alpha behind cdf_values and quantiles."""

    @pytest.mark.parametrize("alpha", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("tol", [1e-6, 1e-11])
    def test_matches_scalar_within_both_bounds(self, alpha, tol):
        x = np.concatenate((np.linspace(-12.0, 12.0, 241), np.random.default_rng(4).normal(0.0, 4.0, 60)))
        log_v, bounds = limit_laws._phi_alpha_log_vec(x, alpha, tol)
        for xi, lv, b in zip(x, log_v, bounds):
            ref = phi_alpha(float(xi), alpha, tol)
            assert 0.0 <= b <= tol
            # plain left-to-right sums against fsum add rounding only
            slack = 1e-14 * max(1.0, abs(ref.log_value))
            assert abs(lv - ref.log_value) <= b + ref.truncation_bound + slack

    @pytest.mark.parametrize("alpha", [0.01, 1.0, 100.0])
    def test_values_do_not_depend_on_the_other_points(self, alpha):
        rng = np.random.default_rng(5)
        # wide enough at alpha = 0.01 to fill several blocks
        x = np.concatenate((np.linspace(-12.0, 12.0, 2001), rng.normal(0.0, 5.0, 2000)))
        log_v, bounds = limit_laws._phi_alpha_log_vec(x, alpha, 1e-11)
        perm = rng.permutation(x.size)
        log_p, bounds_p = limit_laws._phi_alpha_log_vec(x[perm], alpha, 1e-11)
        assert np.array_equal(log_p, log_v[perm])
        assert np.array_equal(bounds_p, bounds[perm])
        for i in range(0, x.size, 211):
            one, one_bound = limit_laws._phi_alpha_log_vec(x[i : i + 1], alpha, 1e-11)
            assert one[0] == log_v[i] and one_bound[0] == bounds[i]

    def test_infinite_arguments(self):
        log_v, bounds = limit_laws._phi_alpha_log_vec(np.array([np.inf, -np.inf, 0.0]), 1.0, 1e-11)
        assert log_v[0] == 0.0 and log_v[1] == -np.inf and np.isfinite(log_v[2])
        assert bounds[0] == 0.0 and bounds[1] == 0.0

    def test_ten_thousand_points_stay_in_blocks(self):
        # the old whole-call table held every point times the largest J
        x = np.exp(np.random.default_rng(6).normal(0.0, 0.3, 10_000))
        law = ProductLaw(0.01)
        cdf_values(law, x[:10])
        tracemalloc.start()
        try:
            cdf_values(law, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestProductLaw:
    def test_vanishes_at_origin(self):
        assert product_law_cdf(1e-12, 1.0).value <= 1e-15
        assert product_law_cdf(0.0, 1.0).value == 0.0
        assert product_law_cdf(-2.0, 1.0).value == 0.0

    def test_argument_collapse(self):
        # x = e^{-alpha/4} puts the transformed argument at 0
        got = product_law_cdf(math.exp(-0.25), 1.0, tol=1e-12).value
        want = phi_alpha(0.0, 1.0, tol=1e-12).value
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_frozen_value(self):
        assert product_law_cdf(1.0, 1.0).value == pytest.approx(
            PRODUCT_LAW_1_1, rel=1e-11, abs=0
        )

    def test_tail_matches_asymptote(self):
        law = ProductLaw(alpha=1.0)
        masses = np.geomspace(1e-8, 1e-4, 9)
        ratios = []
        for m in masses:
            x = quantile(law, 1.0 - m, tol=1e-12)
            ratios.append(upper_tail(law, x, tol=1e-12) / tail_asymptote(law, x))
        ratios = np.array(ratios)
        assert np.all(ratios >= 0.8) and np.all(ratios <= 1.2)
        # deviation from 1 shrinks as the tail deepens
        assert abs(ratios[-1] - 1.0) > abs(ratios[0] - 1.0)


class TestTailAsymptote:
    def test_spherical(self):
        assert tail_asymptote(SPHERICAL_H, 10.0) == pytest.approx(0.01, rel=1e-15)

    def test_product_at_e(self):
        want = (math.exp(-0.125) / (2.0 * math.sqrt(2.0 * math.pi))) * math.exp(-2.0) / math.e
        assert tail_asymptote(ProductLaw(alpha=1.0), math.e) == pytest.approx(
            want, rel=1e-14, abs=0
        )

    def test_normal_within_4pct_of_true_tail(self):
        approx = tail_asymptote(STANDARD_NORMAL, 5.0)
        true = 0.5 * math.erfc(5.0 / math.sqrt(2.0))
        assert approx == pytest.approx(2.973e-7, rel=1e-3, abs=0)
        assert abs(approx / true - 1.0) <= 0.04

    def test_gumbel_is_exact_complement(self):
        assert tail_asymptote(GUMBEL, 3.0) == pytest.approx(
            -math.expm1(-math.exp(-3.0)), rel=1e-15
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            tail_asymptote(SPHERICAL_H, 1.0)


class TestTailLaws:
    def test_spherical_tail_window(self):
        for x, band in [(10.0, 0.05), (30.0, 0.01)]:
            t = x * x * upper_tail(SPHERICAL_H, x, tol=1e-13)
            assert 1.0 - band <= t <= 1.0 + band


class TestQuantile:
    def test_gumbel_closed_form(self):
        assert quantile(GUMBEL, math.exp(-1.0)) == pytest.approx(0.0, abs=1e-14)

    def test_roundtrips(self):
        for law in [SPHERICAL_H, GUMBEL, ProductLaw(alpha=1.0),
                    ProductLaw(alpha=0.25), STANDARD_NORMAL]:
            for q in [0.01, 0.5, 0.99]:
                x = quantile(law, q, tol=1e-10)
                assert abs(cdf(law, x).value - q) <= 1e-9

    def test_product_tail_quantile_forward(self):
        x = quantile(ProductLaw(alpha=1.0), 0.99, tol=1e-10)
        assert upper_tail(ProductLaw(alpha=1.0), x) == pytest.approx(0.01, abs=2e-9)

    def test_rejects_endpoint_q(self):
        with pytest.raises(ValueError):
            quantile(GUMBEL, 0.0)
        with pytest.raises(ValueError):
            quantile(GUMBEL, 1.0)

    def test_vectorized_agrees_with_scalar(self):
        qs = np.array([1e-4, 0.2, 0.5, 0.9, 1.0 - 1e-4])
        xs = quantiles(SPHERICAL_H, qs)
        back = cdf_values(SPHERICAL_H, xs)
        assert np.max(np.abs(back - qs)) <= 1e-9


LEVELS = (np.arange(5000) + 0.25 + 0.5 * np.random.default_rng(3).random(5000)) / 5000

VECTOR_LAWS = [SPHERICAL_H, ProductLaw(alpha=0.01), ProductLaw(alpha=1.0), STANDARD_NORMAL]


def _round_trip_error(law, q, x):
    return np.max(np.abs(cdf_values(law, x, tol=1e-12) - q))


class TestVectorQuantiles:
    @pytest.mark.parametrize(
        "law", VECTOR_LAWS + [ProductLaw(alpha=1e-3), ProductLaw(alpha=100.0)], ids=repr
    )
    def test_round_trip_within_tol(self, law):
        # the solver certifies |F - q| <= tol at eval_tol; the check's own
        # evaluation adds at most its 1e-12 truncation
        q = LEVELS[::3]
        assert _round_trip_error(law, q, quantiles(law, q, tol=1e-10)) <= 1e-10 + 1e-12

    @pytest.mark.parametrize("law", VECTOR_LAWS, ids=repr)
    def test_clip_levels_round_trip(self, law):
        # sample_limit_batch clips its uniforms to [1e-16, 1 - 1e-16]
        q = np.array([1e-16, 1.0 - 1e-16])
        x = quantiles(law, q)
        assert np.all(np.isfinite(x))
        assert _round_trip_error(law, q, x) <= 1e-10 + 1e-12

    def test_deep_spherical_level(self):
        # the lower bracket edge sits at tau ~ 480, where the old truncation
        # test raised "H table span insufficient"
        x = quantiles(SPHERICAL_H, [1e-200])
        assert x[0] > 0.0
        assert _round_trip_error(SPHERICAL_H, np.array([1e-200]), x) <= 1e-10 + 1e-12

    @pytest.mark.parametrize("law", VECTOR_LAWS, ids=repr)
    def test_unsorted_duplicated_and_single_levels(self, law):
        q = np.array([0.9, 0.1, 0.5, 0.1, 0.999, 0.5, 1e-3])
        x = quantiles(law, q)
        order = np.argsort(q, kind="stable")
        np.testing.assert_array_equal(quantiles(law, q[order]), x[order])
        assert x[1] == x[3] and x[2] == x[5]
        assert np.all(np.diff(x[order]) >= 0.0)
        single = quantiles(law, 0.3)
        assert single.shape == (1,)
        assert _round_trip_error(law, np.array([0.3]), single) <= 1e-10 + 1e-12

    def test_shape_is_kept(self):
        q = LEVELS[:12].reshape(3, 4)
        assert quantiles(ProductLaw(alpha=1.0), q).shape == (3, 4)

    @pytest.mark.parametrize("law", VECTOR_LAWS, ids=repr)
    def test_vector_cdf_evaluation_count(self, law, monkeypatch):
        # one tabulation plus a few steps on a shrinking set; whole-array
        # bisection takes about 40 calls
        calls = []
        for name in ("cdf_values", "_phi_alpha_log_vec"):
            inner = getattr(limit_laws, name)

            def counted(*args, _inner=inner, **kwargs):
                calls.append(1)
                return _inner(*args, **kwargs)

            monkeypatch.setattr(limit_laws, name, counted)
        quantiles(law, LEVELS)
        assert 3 <= len(calls) <= 12

    def test_nonmonotone_cdf_still_brackets(self, monkeypatch):
        # a dip makes F non-monotone over two grid cells; the brackets come
        # from evaluated values, so every level still meets tol against F
        def dipped(law, x, tol=1e-10):
            x = np.asarray(x, dtype=float)
            return 0.5 * np.vectorize(math.erfc)(-x / math.sqrt(2.0)) - 0.05 * np.exp(
                -(((x - 0.5) / 0.05) ** 2)
            )

        monkeypatch.setattr(limit_laws, "cdf_values", dipped)
        q = np.linspace(0.55, 0.75, 81)
        x = quantiles(STANDARD_NORMAL, q)
        assert np.max(np.abs(dipped(None, x) - q)) <= 1e-10

    def test_unreachable_level_raises(self, monkeypatch):
        monkeypatch.setattr(
            limit_laws, "cdf_values", lambda law, x, tol=1e-10: np.full(np.shape(x), 0.25)
        )
        with pytest.raises(NonConvergenceError):
            quantiles(STANDARD_NORMAL, [0.5])

    def test_jump_over_level_raises(self, monkeypatch):
        # F jumps from 0 to 1 at 0.1, so no x meets q = 0.5 within tol
        monkeypatch.setattr(
            limit_laws, "cdf_values", lambda law, x, tol=1e-10: (np.asarray(x) >= 0.1) * 1.0
        )
        with pytest.raises(NonConvergenceError):
            quantiles(STANDARD_NORMAL, [0.2, 0.5])

    def test_rejects_bad_levels(self):
        for bad in ([0.0], [1.0], [0.5, math.nan]):
            with pytest.raises(ValueError):
                quantiles(SPHERICAL_H, bad)


class TestMonotonicityAndLimits:
    @pytest.mark.parametrize(
        "law, grid",
        [
            (SPHERICAL_H, np.linspace(1e-3, 200.0, 1000)),
            (GUMBEL, np.linspace(-8.0, 30.0, 1000)),
            (ProductLaw(alpha=1.0), np.linspace(1e-3, 50.0, 1000)),
            (ProductLaw(alpha=9.0), np.linspace(1e-3, 50.0, 1000)),
            (STANDARD_NORMAL, np.linspace(-10.0, 10.0, 1000)),
        ],
    )
    def test_nondecreasing_on_grid(self, law, grid):
        values = cdf_values(law, grid)
        assert np.all(np.diff(values) >= -1e-15)

    @pytest.mark.parametrize(
        "law, lo, hi",
        [
            (SPHERICAL_H, 1e-3, 1e6),
            (GUMBEL, -30.0, 50.0),
            (ProductLaw(alpha=1.0), 1e-6, 1e9),
            (STANDARD_NORMAL, -40.0, 40.0),
        ],
    )
    def test_support_limits(self, law, lo, hi):
        assert cdf(law, lo, tol=1e-10).value <= 1e-10
        assert cdf(law, hi, tol=1e-10).value >= 1.0 - 1e-10


class TestCdfValuesInputs:
    """cdf_values at the ends of the real line and at NaN, law by law."""

    LAWS = [SPHERICAL_H, GUMBEL, ProductLaw(alpha=1.0), ProductLaw(alpha=0.01), STANDARD_NORMAL]

    @pytest.mark.parametrize("law", LAWS)
    def test_infinities(self, law):
        assert np.array_equal(cdf_values(law, [np.inf, -np.inf]), [1.0, 0.0])

    @pytest.mark.parametrize("law", LAWS)
    def test_far_left_is_zero_without_warnings(self, law):
        # pytest's filterwarnings setting turns RuntimeWarning into an error
        assert cdf_values(law, [-1000.0])[0] == 0.0

    @pytest.mark.parametrize("law", LAWS)
    def test_nan_raises_like_the_scalar_cdf(self, law):
        with pytest.raises(ValueError):
            cdf(law, math.nan)
        with pytest.raises(ValueError):
            cdf_values(law, [0.5, math.nan])


class TestSampling:
    def test_gumbel_inverse_transform(self):
        class Stub:
            def random(self):
                return math.exp(-1.0)

        assert sample_limit(GUMBEL, Stub()) == pytest.approx(0.0, abs=1e-14)

    def test_spherical_self_consistency(self):
        rng = np.random.default_rng(20260825)
        draws = sample_limit_batch(SPHERICAL_H, rng, 10_000)
        d = ks_distance(draws, lambda xs: cdf_values(SPHERICAL_H, xs))
        assert d <= 0.025

    def test_normal_mean(self):
        rng = np.random.default_rng(7)
        draws = sample_limit_batch(STANDARD_NORMAL, rng, 100_000)
        assert abs(float(np.mean(draws))) <= 0.02


@given(st.floats(0.05, 50.0), st.floats(0.05, 50.0))
@settings(max_examples=60, deadline=None)
def test_product_law_monotone_pairs(a, b):
    lo, hi = sorted((a, b))
    assert product_law_cdf(lo, 1.0).value <= product_law_cdf(hi, 1.0).value + 1e-14


@given(st.floats(-3.0, 3.0), st.floats(0.1, 10.0))
@settings(max_examples=60, deadline=None)
def test_phi_alpha_below_first_factor(x, alpha):
    phi = 0.5 * math.erfc(-x / math.sqrt(2.0))
    assert phi_alpha(x, alpha).value <= phi * (1.0 + 1e-12)


@given(st.floats(0.001, 0.999))
@settings(max_examples=60, deadline=None)
def test_gumbel_quantile_roundtrip(q):
    assert gumbel_cdf(quantile(GUMBEL, q)) == pytest.approx(q, abs=1e-12)

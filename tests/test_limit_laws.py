"""Limit-law cdfs, quantiles, tails, and inverse-transform sampling."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specrad import limit_laws
from specrad.errors import NonConvergenceError, WorkBudgetError
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

    def test_at_infinity_every_factor_is_one(self):
        assert spherical_h_cdf(math.inf) == limit_laws.CdfValue(1.0, 0.0, 0.0)

    def test_support_cut_is_the_rule_x_to_the_minus_2_above_745(self):
        # the 64 doubles on each side of the cut; both powers agree with it
        x = [limit_laws._H_ZERO_X]
        for _ in range(64):
            x = [math.nextafter(x[0], 0.0)] + x + [math.nextafter(x[-1], 1.0)]
        x = np.array(x)
        zero = x ** -2.0 > 745.0
        assert zero.tolist() == [v ** -2.0 > 745.0 for v in x.tolist()]
        assert zero.tolist() == [True] * 64 + [False] * 65
        log_vec, bounds = limit_laws._spherical_h_log_vec(x, 1e-12)
        assert np.array_equal(np.isneginf(log_vec), zero)
        assert np.all(bounds[zero] == 0.0) and np.all(bounds[~zero] <= 1e-12)
        scalar = [spherical_h_cdf(v) for v in x.tolist()]
        assert [cv.log_value == -math.inf for cv in scalar] == zero.tolist()
        assert all(cv.truncation_bound == 0.0 for cv, z in zip(scalar, zero) if z)

    def test_below_double_range_is_zero_on_both_paths(self):
        # tau = 2500 > 745: H(x) <= e^-tau is 0 in double precision
        assert spherical_h_cdf(0.02).value == 0.0
        assert cdf_values(SPHERICAL_H, [0.02], tol=1e-12)[0] == 0.0

    @pytest.mark.parametrize("x", [1e-154, 7e-155, 1e-300, 5e-324])
    def test_below_the_overflow_of_x_to_the_minus_2(self, x):
        # x^-2 overflows below x ~ 7.46e-155, where the scalar path raised a
        # bare OverflowError and the vector path warned
        assert cdf(SPHERICAL_H, x) == limit_laws.CdfValue(0.0, -math.inf, 0.0)
        assert upper_tail(SPHERICAL_H, x) == 1.0
        assert cdf_values(SPHERICAL_H, [x, 1.0], tol=1e-12)[0] == 0.0

    # frozen values at points where the first Poisson span is too short
    # for tol, so the scalar loop doubles the span once
    @pytest.mark.parametrize("x, tol, expected", [
        (0.5, 1e-100, (6.972101194787486e-05, -9.571008822961751, 1.3529549371845508e-101)),
        (1.7, 1e-100, (0.6698318571876002, -0.4007285575142027, 1.559068496435831e-101)),
        (3.0, 1e-200, (0.8895157511050318, -0.11707806421399358, 1.0665868147680297e-201)),
        (10.0, 1e-300, (0.9900004958622439, -0.01004983498267339, 4.0874791407322976e-303)),
    ])
    def test_span_doubling_is_frozen(self, x, tol, expected, monkeypatch):
        tables = []
        real = limit_laws._poisson_factor_table
        monkeypatch.setattr(limit_laws, "_poisson_factor_table",
                            lambda *args: tables.append(args[2]) or real(*args))
        cv = spherical_h_cdf(x, tol)
        assert tables == [tables[0], 2 * tables[0]]
        assert cv == limit_laws.CdfValue(*expected)
        assert cv.truncation_bound <= tol

    @pytest.mark.parametrize("x, tol", [
        (0.5, 1e-100), (1.7, 1e-100), (3.0, 1e-200), (10.0, 1e-300), (1.0, 5e-324),
    ])
    def test_vector_path_matches_the_doubled_scalar_span(self, x, tol):
        # the vector table raised "H table span insufficient" where the
        # scalar loop doubles its span and returns
        log_vec, bound_vec = limit_laws._spherical_h_log_vec(np.array([x]), tol)
        assert log_vec[0] == pytest.approx(spherical_h_cdf(x, tol).log_value, rel=0, abs=1e-13)
        assert bound_vec[0] <= tol

    def test_vector_grid_at_deep_tolerance(self):
        # at tol = 1e-100 the points x <= 1.668 of this grid raised, one at
        # a time and in one call
        x = np.geomspace(0.04, 50.0, 60)
        log_vec, bound_vec = limit_laws._spherical_h_log_vec(x, 1e-100)
        expected = [spherical_h_cdf(float(v), 1e-100).log_value for v in x]
        np.testing.assert_allclose(log_vec, expected, rtol=1e-13, atol=1e-13)
        assert np.all(bound_vec <= 1e-100)
        np.testing.assert_array_equal(cdf_values(SPHERICAL_H, x, tol=1e-100), np.exp(log_vec))

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

    def test_far_left_where_exp_overflows(self):
        # exp(-x) overflows below x = -709.78; these calls used to raise
        # OverflowError, while cdf_values already returned 0
        for x in (-710.0, -800.0, -1e300, -math.inf):
            assert gumbel_cdf(x) == 0.0
            assert cdf(GUMBEL, x) == limit_laws.CdfValue(0.0, -math.inf, 0.0)
            assert upper_tail(GUMBEL, x) == 1.0
            assert cdf_values(GUMBEL, [x])[0] == 0.0
        # just above the cut the log keeps its finite value
        assert cdf(GUMBEL, -709.78).log_value == -math.exp(709.78)


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
        # at x = 4 the cap certificate is only -26.8, so the value is not 0
        with pytest.raises(NonConvergenceError):
            phi_alpha(4.0, 1e-14, tol=1e-12, max_terms=1000)


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


class TestPhiAlphaUnderflow:
    """Phi_alpha(t) <= Phi(t), which is 0 in double precision where
    log Phi(t) < -746; these points used to raise NonConvergenceError."""

    @pytest.mark.parametrize("x, alpha", [(0.9, 1e-6), (1e-300, 1e-4)])
    def test_scalar_and_vector_give_zero(self, x, alpha):
        cv = product_law_cdf(x, alpha)
        assert (cv.value, cv.log_value, cv.truncation_bound) == (0.0, -math.inf, 0.0)
        assert cdf_values(ProductLaw(alpha), [x])[0] == 0.0

    @pytest.mark.parametrize("alpha", [1e-4, 1.0])
    def test_scalar_matches_vector_across_the_cut(self, alpha):
        # log Phi(t) = -746 near t = -38.6: certified 0 below, the product above
        t = np.array([-1e5, -38.7, -38.6, -38.5, -38.4])
        log_v, bounds = limit_laws._phi_alpha_log_vec(t, alpha, 1e-11)
        for ti, lv, b in zip(t, log_v, bounds):
            ref = phi_alpha(float(ti), alpha, 1e-11)
            if ti <= -38.6:
                assert (lv, b) == (ref.log_value, ref.truncation_bound) == (-math.inf, 0.0)
            else:
                slack = 1e-14 * abs(ref.log_value)
                assert abs(lv - ref.log_value) <= b + ref.truncation_bound + slack
                assert ref.value == 0.0


class TestPhiAlphaCapCertificate:
    """Past the term caps, log Phi_alpha(t) <= M log Phi(t + M sqrt(alpha))
    over M = 2^i certifies the 0 of double precision; these calls used to
    raise NonConvergenceError."""

    def test_certificate_values(self):
        caps = [limit_laws._phi_alpha_log_cap(t, 1e-7) for t in (2.0, 4.0)]
        assert caps == pytest.approx([-32727.2, -26.81], rel=1e-4)

    def test_certified_zeros_on_both_paths(self):
        for cv in (product_law_cdf(1.0, 1e-14), phi_alpha(2.0, 1e-14)):
            assert (cv.value, cv.log_value, cv.truncation_bound) == (0.0, -math.inf, 0.0)
        assert cdf_values(ProductLaw(1e-14), [1.0])[0] == 0.0
        log_v, bounds = limit_laws._phi_alpha_log_vec(np.array([3.0, -1.0, 2.0]), 1e-14, 1e-10)
        assert np.array_equal(log_v, [-np.inf] * 3) and np.array_equal(bounds, [0.0] * 3)

    def test_uncertified_vector_point_still_raises(self):
        # one point certified 0, one (t = 6, cdf near 1) not; the scalar
        # path's uncertified point is in test_nonconvergence_at_tiny_alpha
        with pytest.raises(NonConvergenceError):
            cdf_values(ProductLaw(1e-14), [1.0, 1.0000003])


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

    @pytest.mark.parametrize(
        "law",
        [SPHERICAL_H, ProductLaw(alpha=0.01), ProductLaw(alpha=1.0), ProductLaw(alpha=100.0),
         STANDARD_NORMAL],
        ids=repr,
    )
    def test_far_levels_at_tight_tol(self, law):
        # the solver puts the true cdf within tol of q; the check's own
        # evaluation, truncated at 1e-12, is allowed 1e-13 more
        for q in (1e-8, 0.5, 1.0 - 1e-8):
            x = quantile(law, q, tol=1e-12)
            assert abs(cdf(law, x).value - q) <= 1e-12 + 1e-13

    def test_step_cap_raises(self):
        with pytest.raises(NonConvergenceError):
            quantile(ProductLaw(alpha=1.0), 0.3, max_iter=1)

    @pytest.mark.parametrize(
        "law", [SPHERICAL_H, ProductLaw(alpha=0.01), ProductLaw(alpha=1.0), STANDARD_NORMAL],
        ids=repr,
    )
    def test_scalar_cdf_only(self, law, monkeypatch):
        # one level costs less on the scalar cdf than on the vector kernels
        calls = []
        for name in ("cdf_values", "_phi_alpha_log_vec"):
            inner = getattr(limit_laws, name)

            def counted(*args, _inner=inner, **kwargs):
                calls.append(1)
                return _inner(*args, **kwargs)

            monkeypatch.setattr(limit_laws, name, counted)
        for q in (1e-6, 0.3, 0.999):
            quantile(law, q)
        assert calls == []


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
    def test_two_dimensional_input_keeps_its_shape(self, law):
        # the H path indexed its flat point positions into the 2-d array
        # and raised a bare IndexError
        for x in (np.array([[1.0, 2.0]]), np.array([[0.5, 1.0, 2.0], [3.0, 0.8, 1.5]])):
            out = cdf_values(law, x)
            assert out.shape == x.shape
            np.testing.assert_array_equal(out, cdf_values(law, x.ravel()).reshape(x.shape))

    @pytest.mark.parametrize("law", LAWS)
    def test_nan_raises_like_the_scalar_cdf(self, law):
        with pytest.raises(ValueError):
            cdf(law, math.nan)
        with pytest.raises(ValueError):
            cdf_values(law, [0.5, math.nan])
        with pytest.raises(ValueError):
            upper_tail(law, math.nan)


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


ROBUSTNESS_LAWS = {"spherical-h": SPHERICAL_H, "gumbel": GUMBEL, "normal": STANDARD_NORMAL}


@pytest.mark.parametrize("name", ["spherical-h", "gumbel", "product-alpha", "normal"])
@given(
    xs=st.lists(st.floats(allow_nan=False) | st.floats(-50.0, 50.0), min_size=1, max_size=4),
    tol=st.floats(5e-324, 1e-3),
    log10_alpha=st.floats(-8.0, 8.0),
)
@example(xs=[5e-324], tol=1e-12, log10_alpha=0.0)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_every_double_gives_a_cdf_or_a_typed_error(name, xs, tol, log10_alpha):
    """x over all doubles (signed zeros, subnormals and infinities included)
    and over the bulk [-50, 50]: the scalar and the vector cdf each return
    values in [0, 1], nondecreasing in x up to the truncation tol, or raise
    ValueError or a typed specrad error, and the two agree within
    1e-12 + tol.  pytest turns numpy warnings into errors.  H raised
    OverflowError at x = 5e-324."""
    law = ROBUSTNESS_LAWS.get(name) or ProductLaw(10.0 ** log10_alpha)
    xs = sorted(xs)
    try:
        scalar = [cdf(law, x, tol) for x in xs]
    except (NonConvergenceError, WorkBudgetError, ValueError):
        scalar = None
    try:
        vector = cdf_values(law, xs, tol)
    except (NonConvergenceError, WorkBudgetError, ValueError):
        vector = None
    if scalar is not None:
        assert all(0.0 <= cv.value <= 1.0 and cv.log_value <= 0.0 for cv in scalar)
        logs = [cv.log_value for cv in scalar]
        assert all(b >= a - tol - 1e-12 * (1.0 - a) for a, b in zip(logs, logs[1:]))
    if vector is not None:
        assert np.all((vector >= 0.0) & (vector <= 1.0))
        assert np.all(np.diff(vector) >= -(1e-12 + tol))
    if scalar is not None and vector is not None:
        assert np.all(np.abs(vector - [cv.value for cv in scalar]) <= 1e-12 + tol)

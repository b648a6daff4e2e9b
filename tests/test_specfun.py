"""Special-function accuracy tests.

Expected values were frozen from independent oracles: exact closed forms
where available (factorials, finite sums, polynomial cdfs) and 50-digit
mpmath evaluation otherwise.  A few tests rebuild the oracle in-place
(harmonic recurrence plus asymptotic series) instead of trusting the
implementation's own code path.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specrad.specfun import (
    Accuracy,
    _erfc_array,
    digamma,
    log_gamma,
    log_std_normal_cdf,
    poisson_cdf,
    reg_inc_beta,
    reg_inc_gamma_lower,
    reg_inc_gamma_pair,
    reg_inc_gamma_upper,
    std_normal_cdf,
    std_normal_pdf,
    trigamma,
)


class TestLogGamma:
    def test_trivial_integers(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_factorial_values(self):
        # log Gamma(n) = log((n-1)!), exact integer oracle
        for n in (3, 5, 10, 20, 100):
            assert log_gamma(float(n)) == pytest.approx(
                math.log(math.factorial(n - 1)), abs=1e-13
            )

    def test_frozen_values(self):
        # mpmath, 50 digits
        assert log_gamma(4.7) == pytest.approx(2.7364051463155666822, abs=1e-13)
        assert log_gamma(1e-3) == pytest.approx(6.9071788853838536825, abs=1e-13)
        # at x = 1e8 the result is ~1.74e9, where one ulp is ~2.4e-7; the
        # absolute target is only meaningful relative to representability
        assert log_gamma(1e8) == pytest.approx(1742068066.1038347, rel=1e-14)

    def test_recurrence(self):
        for x in (0.5, 1.0, 3.7, 100.0):
            assert log_gamma(x + 1.0) == pytest.approx(
                log_gamma(x) + math.log(x), abs=1e-12
            )

    def test_domain(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                log_gamma(bad)


class TestDigamma:
    def test_recurrence_exact(self):
        assert digamma(2.0) == pytest.approx(digamma(1.0) + 1.0, abs=1e-13)

    def test_euler_mascheroni_via_independent_oracle(self):
        # psi(1) = psi(N) - sum_{k<N} 1/k with psi(N) from the asymptotic
        # series at N = 1e6; fsum makes the harmonic sum exactly rounded.
        n = 1_000_000
        harmonic = math.fsum(1.0 / k for k in range(1, n))
        x = float(n)
        psi_n = math.log(x) - 0.5 / x - 1.0 / (12.0 * x * x) + 1.0 / (120.0 * x**4)
        oracle = psi_n - harmonic
        assert digamma(1.0) == pytest.approx(oracle, abs=1e-12)
        assert digamma(1.0) == pytest.approx(-0.57721566490153286061, abs=1e-12)

    def test_frozen_value(self):
        assert digamma(3.25) == pytest.approx(1.0169909110681790364, abs=1e-12)

    def test_log_expansion(self):
        # psi(x) = log x - 1/(2x) + O(1/x^2)
        assert digamma(1000.0) == pytest.approx(math.log(1000.0) - 1.0 / 2000.0, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-3.0)


class TestTrigamma:
    def test_recurrence_exact(self):
        assert trigamma(2.0) == pytest.approx(trigamma(1.0) - 1.0, abs=1e-11)

    def test_basel_value(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, abs=1e-10)

    def test_frozen_value(self):
        assert trigamma(7.5) == pytest.approx(0.14261589669670379977, abs=1e-10)

    def test_expansion(self):
        assert trigamma(1000.0) == pytest.approx(1e-3 + 0.5e-6, abs=1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            trigamma(-1.0)


@given(st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=100)
def test_digamma_trigamma_recurrences(x):
    assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, abs=1e-12)
    assert trigamma(x + 1.0) == pytest.approx(trigamma(x) - 1.0 / (x * x), abs=1e-10)


class TestStdNormal:
    def test_center(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_symmetry(self):
        assert std_normal_cdf(-1.7) + std_normal_cdf(1.7) == pytest.approx(1.0, abs=1e-15)

    def test_tail_values(self):
        # mpmath: Phi(-5), Phi(-30)
        assert std_normal_cdf(-5.0) == pytest.approx(2.8665157187919391167e-07, rel=1e-14, abs=0)
        assert std_normal_cdf(5.0) == pytest.approx(1.0 - 2.866516e-07, abs=1e-13)
        assert std_normal_cdf(-30.0) == pytest.approx(
            4.9067139271481870595e-198, rel=1e-13, abs=0
        )

    def test_pdf(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)
        assert std_normal_pdf(2.0) == pytest.approx(
            math.exp(-2.0) / math.sqrt(2.0 * math.pi), rel=1e-14
        )

    def test_log_cdf_matches_direct(self):
        for x in (-29.0, -20.0, -5.0, -1.0, 0.0, 1.3, 8.0):
            assert log_std_normal_cdf(x) == pytest.approx(
                math.log(std_normal_cdf(x)), rel=1e-12, abs=1e-14
            )

    def test_log_cdf_deep_tail(self):
        # below x ~ -38.5 the cdf itself underflows but its log must not;
        # frozen from mpmath log(Phi(-t))
        assert log_std_normal_cdf(-38.0) == pytest.approx(-726.5572160188201, rel=1e-13)
        assert log_std_normal_cdf(-50.0) == pytest.approx(-1254.8313611394199, rel=1e-13)
        assert log_std_normal_cdf(-200.0) == pytest.approx(-20006.21728089819, rel=1e-13)
        assert log_std_normal_cdf(-1000.0) == pytest.approx(-500007.82669481216, rel=1e-13)


@given(st.floats(min_value=-37.0, max_value=8.0))
@settings(max_examples=200)
def test_std_normal_monotone_and_symmetric(x):
    assert std_normal_cdf(x) <= std_normal_cdf(x + 0.01)
    assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-15


class TestErfcArray:
    """The array erfc against math.erfc (libm): its docstring promises
    8 ulp relative wherever erfc(x) > 1e-300."""

    def test_dense_grid_and_random_draws(self):
        x = np.concatenate(
            (np.linspace(-6.0, 27.0, 400_001), np.random.default_rng(7).uniform(-6.0, 27.0, 100_000))
        )
        ref = np.frompyfunc(math.erfc, 1, 1)(x).astype(float)
        got = _erfc_array(x)
        keep = ref > 1e-300
        rel = np.abs(got[keep] - ref[keep]) / ref[keep]
        assert float(np.max(rel)) <= 8.0 * np.finfo(float).eps
        # past the cut erfc underflows; the array form returns 0 or a subnormal
        assert np.all(got[~keep] <= 1e-300)

    def test_range_edges(self):
        # both sides of Cody's range cuts at 0.46875 and 4
        x = np.array([0.46875, np.nextafter(0.46875, 1.0), 4.0, np.nextafter(4.0, 5.0)])
        for v in np.concatenate((x, -x)):
            assert _erfc_array([v])[0] == pytest.approx(math.erfc(v), rel=8.0 * np.finfo(float).eps)

    def test_special_values(self):
        got = _erfc_array([0.0, -0.0, np.inf, -np.inf, np.nan])
        assert got[0] == 1.0 and got[1] == 1.0
        assert got[2] == 0.0 and got[3] == 2.0
        assert math.isnan(got[4])

    def test_shape_kept(self):
        x = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert _erfc_array(x).shape == (3, 4)
        assert np.array_equal(_erfc_array(x).ravel(), _erfc_array(x.ravel()))


class TestRegIncGamma:
    def test_exponential_case(self):
        assert reg_inc_gamma_lower(1.0, math.log(2.0)) == pytest.approx(0.5, rel=1e-13)

    def test_zero(self):
        assert reg_inc_gamma_lower(3.5, 0.0) == 0.0
        assert reg_inc_gamma_upper(3.5, 0.0) == 1.0

    def test_finite_sum_oracle(self):
        # P(5,5) = 1 - e^-5 sum_{j<5} 5^j/j!, exact rational-coefficient sum
        oracle = 1.0 - math.exp(-5.0) * math.fsum(5.0**j / math.factorial(j) for j in range(5))
        assert reg_inc_gamma_lower(5.0, 5.0) == pytest.approx(oracle, rel=1e-13)
        assert reg_inc_gamma_lower(5.0, 5.0) == pytest.approx(0.55950671493478758856, rel=1e-12)

    def test_noninteger_shape(self):
        # mpmath, 50 digits
        assert reg_inc_gamma_lower(0.5, 0.3) == pytest.approx(0.56142197391900014495, rel=1e-12)

    def test_pair_sums_to_one(self):
        for a, x in ((0.5, 0.2), (3.0, 7.0), (40.0, 35.0), (2.0, 100.0)):
            p, q = reg_inc_gamma_pair(a, x)
            assert p + q == pytest.approx(1.0, abs=1e-14)

    def test_small_tail_relative_accuracy(self):
        # Q(1, x) = e^-x exactly; deep tail must keep relative accuracy
        for x in (50.0, 200.0, 600.0):
            assert reg_inc_gamma_upper(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)
        # P(k, x) for x << k: direct series value from mpmath, P(20, 0.5)
        assert reg_inc_gamma_lower(20.0, 0.5) == pytest.approx(
            2.43546542992531432e-25, rel=1e-11, abs=0
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_inc_gamma_lower(-1.0, 2.0)
        with pytest.raises(ValueError):
            reg_inc_gamma_lower(1.0, -2.0)


@given(
    st.floats(min_value=0.2, max_value=60.0),
    st.floats(min_value=0.0, max_value=80.0),
    st.floats(min_value=1e-6, max_value=5.0),
)
@settings(max_examples=150)
def test_reg_inc_gamma_monotone(a, x, dx):
    lo = reg_inc_gamma_lower(a, x)
    hi = reg_inc_gamma_lower(a, x + dx)
    assert 0.0 <= lo <= 1.0
    assert hi >= lo - 1e-14


class TestRegIncBeta:
    def test_uniform(self):
        assert reg_inc_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_symmetry(self):
        assert reg_inc_beta(0.3, 4.0, 7.0) + reg_inc_beta(0.7, 7.0, 4.0) == pytest.approx(
            1.0, abs=1e-13
        )

    def test_closed_form(self):
        # I_x(2,2) = 3x^2 - 2x^3
        assert reg_inc_beta(0.5, 2.0, 2.0) == pytest.approx(0.5, rel=1e-13)
        assert reg_inc_beta(0.2, 2.0, 2.0) == pytest.approx(3 * 0.04 - 2 * 0.008, rel=1e-12)

    def test_frozen_values(self):
        # I_0.3(4,7) is a terminating decimal (binomial tail sum)
        oracle = math.fsum(
            math.comb(10, r) * 0.3**r * 0.7 ** (10 - r) for r in range(4, 11)
        )
        assert reg_inc_beta(0.3, 4.0, 7.0) == pytest.approx(oracle, rel=1e-12)
        assert reg_inc_beta(0.9, 2.5, 0.5) == pytest.approx(0.48958974456442750367, rel=1e-12)

    def test_endpoints(self):
        assert reg_inc_beta(0.0, 3.0, 4.0) == 0.0
        assert reg_inc_beta(1.0, 3.0, 4.0) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_inc_beta(1.2, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0.0, 1.0)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.3, max_value=30.0),
    st.floats(min_value=0.3, max_value=30.0),
)
@settings(max_examples=150)
@example(1e-8, 0.375, 1.0)
def test_reg_inc_beta_bounds_and_symmetry(x, a, b):
    v = reg_inc_beta(x, a, b)
    assert 0.0 <= v <= 1.0
    # the symmetry identity is only checkable where 1-x does not round away
    # the complement; ultra-tiny x would compare I_x > 0 against exactly 1
    if 1e-8 <= x <= 1.0 - 1e-8:
        # rounding 1-x moves the argument by up to half an ulp of 1, which
        # the steep I_x near x=0 turns into an identity error above 1e-12;
        # x' = 1-(1-x) and 1-x sum to exactly 1, so both sides see exactly
        # complementary arguments
        y = 1.0 - x
        x_exact = 1.0 - y
        assert x_exact + y == 1.0
        assert reg_inc_beta(x_exact, a, b) + reg_inc_beta(y, b, a) == pytest.approx(
            1.0, abs=1e-12
        )


class TestPoissonCdf:
    def test_empty_event(self):
        assert poisson_cdf(4, 0.0) == 1.0

    def test_k1_exponential(self):
        assert poisson_cdf(1, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)

    def test_finite_sum(self):
        # P(Poi(2) <= 2) = e^-2 (1 + 2 + 2) = 5 e^-2
        assert poisson_cdf(3, 2.0) == pytest.approx(5.0 * math.exp(-2.0), rel=1e-13)

    def test_matches_direct_summation(self):
        for k in (1, 2, 5, 11, 30):
            for x in (0.1, 1.0, 4.5, 20.0, 50.0):
                direct = math.exp(-x) * math.fsum(x**j / math.factorial(j) for j in range(k))
                assert abs(poisson_cdf(k, x) - direct) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            poisson_cdf(0, 1.0)
        with pytest.raises(ValueError):
            poisson_cdf(2, -0.5)
        with pytest.raises(ValueError):
            poisson_cdf(2.5, 1.0)


class TestAccuracy:
    def test_validation(self):
        with pytest.raises(ValueError):
            Accuracy(max_terms=0)
        assert Accuracy().max_terms >= 1

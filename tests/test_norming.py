"""Centering/scaling constants and the normalization maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrad.norming import (
    GinibreProduct,
    LargeK,
    PreTransform,
    ProportionalK,
    SmallK,
    Spherical,
    TruncatedUnitary,
    _denormalize,
    ab_functions,
    default_regime,
    normalize,
    norming_for,
    product_norming,
    spherical_norming,
    truncated_norming,
)

# frozen by an extended-precision direct evaluation (mpmath, dps=40)
A_AT_E = 0.081061466795327258
A_AT_1E6 = 2.7632486203489164
B_AT_1E6 = 0.26903979938020689
A_101_26 = 0.53094442421235658
B_101_26 = 0.023091110367450101
ALPHA_1000_1 = 83.112906813455496
BETA_1000_1 = 4.0561720118613988
PSI_50 = 3.9019896734278922


class TestEnsembleSpecs:
    def test_validation(self):
        with pytest.raises(ValueError):
            Spherical(0)
        with pytest.raises(ValueError):
            TruncatedUnitary(10, 10)
        with pytest.raises(ValueError):
            TruncatedUnitary(10, 0)
        with pytest.raises(ValueError):
            GinibreProduct(5, 0)

    def test_work_per_replicate(self):
        assert Spherical(100).work_per_replicate == 200
        assert TruncatedUnitary(100, 40).work_per_replicate == 80
        assert GinibreProduct(50, 3).work_per_replicate == 150


class TestAbFunctions:
    def test_at_e_with_guard_relaxed(self):
        a, b = ab_functions(math.e, check=False)
        assert a == pytest.approx(A_AT_E, rel=1e-14, abs=0)
        assert b == pytest.approx(1.0, rel=1e-14)

    def test_b_at_e4(self):
        _, b = ab_functions(math.e**4)
        assert b == pytest.approx(0.5, rel=1e-14)

    def test_direct_formula_at_1e6(self):
        a, b = ab_functions(1e6)
        assert a == pytest.approx(A_AT_1E6, rel=1e-14, abs=0)
        assert b == pytest.approx(B_AT_1E6, rel=1e-14, abs=0)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            ab_functions(3.0)
        with pytest.raises(ValueError):
            ab_functions(math.e, check=True)


class TestTruncatedNorming:
    def test_c_n_and_y(self):
        constants = truncated_norming(101, 26)
        assert constants.aux["c_n"] == pytest.approx(0.5, rel=1e-15)
        assert constants.aux["y"] == pytest.approx(101.0 / 3.0, rel=1e-14)

    def test_direct_formula_oracle(self):
        constants = truncated_norming(101, 26)
        assert constants.shift == pytest.approx(A_101_26, rel=1e-13, abs=0)
        assert constants.scale == pytest.approx(B_101_26, rel=1e-13, abs=0)
        assert constants.pre_transform is PreTransform.IDENTITY

    def test_p_edges_rejected(self):
        with pytest.raises(ValueError):
            truncated_norming(10, 1)
        with pytest.raises(ValueError):
            TruncatedUnitary(10, 10)

    def test_extreme_ratio_warns(self):
        with pytest.warns(UserWarning):
            truncated_norming(1000, 20)

    def test_scale_has_inverse_sqrt_nlogn_order(self):
        for n, p in [(1000, 500), (10_000, 5000)]:
            scale = truncated_norming(n, p).scale
            assert 0.1 <= scale * math.sqrt(n * math.log(n)) <= 10.0

    def test_shift_bounded_on_ratio_band(self):
        for n in [100, 1000, 10_000, 100_000, 1_000_000]:
            for ratio in [0.25, 0.5, 0.75]:
                shift = truncated_norming(n, max(2, round(ratio * n))).shift
                assert 0.0 <= shift <= 2.0


class TestProductNorming:
    def test_small_k_direct_formula(self):
        constants = product_norming(1000, 1, SmallK())
        assert constants.aux["alpha_n"] == pytest.approx(ALPHA_1000_1, rel=1e-13, abs=0)
        assert constants.aux["alpha_n"] == pytest.approx(
            math.sqrt(1000.0 * math.log(1000.0)), rel=1e-14
        )
        assert constants.aux["beta_n"] == pytest.approx(BETA_1000_1, rel=1e-13, abs=0)
        assert constants.pre_transform is PreTransform.LOG_SPACE

    def test_small_k_guard(self):
        with pytest.raises(ValueError):
            product_norming(2, 1, SmallK())

    def test_alpha_beta_consistency(self):
        for n, k in [(1000, 1), (10_000, 7), (300, 2)]:
            aux = product_norming(n, k, SmallK()).aux
            lhs = math.exp(
                aux["beta_n"] + 0.5 * math.log(2.0 * math.pi) + math.log(math.log(n / k))
            )
            assert lhs == pytest.approx(n / k, rel=1e-9)

    def test_large_k_constants(self):
        constants = product_norming(50, 2500, LargeK())
        assert constants.shift == pytest.approx(1250.0 * PSI_50, rel=1e-13, abs=0)
        assert constants.scale == pytest.approx(math.sqrt(2500.0 / 50.0) / 2.0, rel=1e-14)
        assert constants.aux["psi_n"] == pytest.approx(PSI_50, rel=1e-13, abs=0)

    def test_digamma_expansion_sanity(self):
        # psi(50) = log 50 - 1/100 - 1/30000 + O(n^-4): the middle two terms
        # leave a residual of exactly the 1/(12 n^2) order
        aux = product_norming(50, 2500, LargeK()).aux
        assert abs(aux["psi_n"] - (math.log(50.0) - 0.01)) <= 5e-5

    def test_proportional_statistic_is_plain_exp(self):
        constants = product_norming(500, 300, ProportionalK(alpha=0.6))
        assert constants.shift == 0.0
        assert constants.scale == 1.0
        assert constants.aux["alpha"] == 0.6
        assert constants.aux["log_shift"] == pytest.approx(150.0 * math.log(500.0), rel=1e-14)


class TestDefaultRegime:
    def test_examples(self):
        assert isinstance(default_regime(10_000, 1), SmallK)
        regime = default_regime(200, 200)
        assert isinstance(regime, ProportionalK)
        assert regime.alpha == 1.0
        assert isinstance(default_regime(50, 10_000), LargeK)

    def test_boundaries_inclusive(self):
        assert isinstance(default_regime(100, 1), SmallK)
        assert isinstance(default_regime(1, 100), LargeK)
        assert isinstance(default_regime(99, 1), ProportionalK)


class TestNormalize:
    def test_spherical_division(self):
        spec = Spherical(4)
        constants = spherical_norming(4)
        assert constants.scale == 2.0
        assert normalize(spec, constants, 3.0) == pytest.approx(1.5, rel=1e-15)

    def test_truncated_centering(self):
        spec = TruncatedUnitary(101, 26)
        constants = truncated_norming(101, 26)
        assert normalize(spec, constants, constants.shift) == pytest.approx(0.0, abs=1e-15)

    def test_large_k_centering(self):
        spec = GinibreProduct(50, 2500)
        constants = product_norming(50, 2500, LargeK())
        assert normalize(spec, constants, constants.shift) == pytest.approx(0.0, abs=1e-12)

    def test_log_space_matches_extended_precision(self):
        import mpmath as mp

        mp.mp.dps = 50
        spec = GinibreProduct(500, 300)
        constants = product_norming(500, 300, ProportionalK(alpha=0.6))
        log_shift = constants.aux["log_shift"]
        for offset in [-3.0, -0.5, 0.0, 0.5, 3.0]:
            raw = log_shift + offset
            got = normalize(spec, constants, raw)
            want = float(mp.e**mp.mpf(raw) / mp.mpf(500) ** 150)
            assert got == pytest.approx(want, rel=1e-9, abs=0)

    def test_strictly_increasing_on_grids(self):
        cases = [
            (Spherical(30), norming_for(Spherical(30)), np.linspace(0.1, 40.0, 200)),
            (
                TruncatedUnitary(101, 26),
                truncated_norming(101, 26),
                np.linspace(0.0, 1.0, 200),
            ),
            (
                GinibreProduct(100, 1),
                product_norming(100, 1, SmallK()),
                np.linspace(0.0, 5.0, 200),
            ),
            (
                GinibreProduct(100, 100),
                product_norming(100, 100, ProportionalK(alpha=1.0)),
                np.linspace(220.0, 240.0, 200),
            ),
            (
                GinibreProduct(50, 500),
                product_norming(50, 500, LargeK()),
                np.linspace(900.0, 1100.0, 200),
            ),
        ]
        for spec, constants, grid in cases:
            values = normalize(spec, constants, grid)
            assert np.all(np.diff(values) > 0.0)

    @pytest.mark.parametrize("spec, regime, z", [
        (Spherical(30), None, np.geomspace(0.3, 10.0, 25)),
        (TruncatedUnitary(101, 26), None, np.linspace(-3.0, 8.0, 25)),
        (GinibreProduct(100, 1), SmallK(), np.linspace(-3.0, 8.0, 25)),
        (GinibreProduct(1000, 2), SmallK(), np.linspace(-3.0, 8.0, 25)),
        (GinibreProduct(100, 100), ProportionalK(alpha=1.0), np.geomspace(0.2, 5.0, 25)),
        (GinibreProduct(20, 2), ProportionalK(alpha=0.1), np.geomspace(0.2, 5.0, 25)),
        (GinibreProduct(50, 500), LargeK(), np.linspace(-4.0, 4.0, 24)),
    ])
    def test_denormalize_inverts_normalize(self, spec, regime, z):
        constants = norming_for(spec, regime)
        assert normalize(spec, constants, _denormalize(constants, z)) == pytest.approx(z, rel=1e-12)

    def test_overflow_error_on_misspecified_regime(self):
        spec = GinibreProduct(100, 100)
        constants = product_norming(100, 100, ProportionalK(alpha=1.0))
        with pytest.raises(OverflowError):
            normalize(spec, constants, constants.aux["log_shift"] + 1000.0)


class TestNormingFor:
    def test_dispatch(self):
        assert norming_for(Spherical(9)).scale == 3.0
        assert norming_for(TruncatedUnitary(101, 26)).shift == pytest.approx(A_101_26, rel=1e-13)
        auto = norming_for(GinibreProduct(200, 200))
        assert auto.aux["alpha"] == 1.0

    def test_regime_override(self):
        constants = norming_for(GinibreProduct(50, 2500), LargeK())
        assert constants.scale == pytest.approx(math.sqrt(50.0) / 2.0, rel=1e-14)


@given(st.integers(2, 400))
@settings(max_examples=40, deadline=None)
def test_spherical_scale_is_sqrt_n(n):
    constants = spherical_norming(n)
    assert constants.scale == pytest.approx(math.sqrt(n), rel=1e-15)
    assert constants.shift == 0.0


@given(st.integers(20, 5000), st.data())
@settings(max_examples=40, deadline=None)
def test_truncated_shift_scale_positive(n, data):
    # p/n in [1/4, 3/4] keeps the centering argument above its y > 3 guard
    p = data.draw(st.integers(max(2, n // 4), max(3, (3 * n) // 4)))
    if p >= n:
        p = n - 1
    constants = truncated_norming(n, p)
    assert constants.scale > 0.0
    assert 0.0 < constants.shift < 2.5

"""Empirical-cdf utilities, KS reporting, convergence tables, and QQ points.

Monte Carlo assertions run against frozen seeds.  The KS statistic of a
finite sample against its own limit has a noise floor near 0.87/sqrt(reps),
so ordering assertions across sample sizes use seeds checked once to leave
a margin above that floor; the checks remain deterministic because every
replicate stream is a pure function of (seed, replicate index).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrad import exact_cdf, limit_laws, stats
from specrad.limit_laws import (
    GUMBEL,
    SPHERICAL_H,
    STANDARD_NORMAL,
    Gumbel,
    ProductLaw,
    SphericalH,
)
from specrad.norming import GinibreProduct, Spherical, TruncatedUnitary
from specrad.samplers import RandomStream, SampleBatch, run_monte_carlo
from specrad.stats import (
    KsReport,
    convergence_table,
    empirical_cdf,
    ks_statistic,
    law_cdf_fn,
    mass_span_grid,
    normalized_batch,
    qq_points,
)


def _batch(values, reps=None, spec=Spherical(1), seed=0) -> SampleBatch:
    values = np.asarray(values, dtype=float)
    return SampleBatch(spec=spec, statistics=values, seed=seed,
                       reps=values.size if reps is None else reps)


class TestKsReport:
    def test_field_validation(self):
        KsReport(statistic=0.3, location=1.0, reps=100,
                 critical_005=1.358 / math.sqrt(100), reference="x")
        with pytest.raises(ValueError):
            KsReport(statistic=1.5, location=0.0, reps=100,
                     critical_005=1.358 / math.sqrt(100), reference="x")
        with pytest.raises(ValueError):
            KsReport(statistic=-0.1, location=0.0, reps=100,
                     critical_005=1.358 / math.sqrt(100), reference="x")
        with pytest.raises(ValueError):
            KsReport(statistic=0.3, location=0.0, reps=100,
                     critical_005=0.2, reference="x")


class TestEmpiricalCdf:
    def test_counting_examples(self):
        cdf = empirical_cdf(_batch([1.0, 2.0, 3.0]))
        assert cdf(2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert cdf(0.5) == 0.0
        assert cdf(3.0) == 1.0

    def test_right_continuity(self):
        cdf = empirical_cdf(_batch([1.0, 2.0, 3.0]))
        assert cdf(2.0 - 1e-9) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert cdf(2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_infinite_queries_exact(self):
        cdf = empirical_cdf(_batch([-4.0, 0.0, 9.5]))
        assert cdf(math.inf) == 1.0
        assert cdf(-math.inf) == 0.0

    def test_array_query(self):
        cdf = empirical_cdf(_batch([1.0, 2.0, 3.0]))
        out = cdf(np.array([0.5, 2.0, 10.0]))
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, [0.0, 2.0 / 3.0, 1.0])
        assert isinstance(cdf(2.0), float)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf(_batch([], reps=0))

    def test_nan_query_raises(self):
        # searchsorted sorts NaN last, so [nan, 1.5] gave [1.0, 0.5]
        cdf = empirical_cdf(_batch([1.0, 2.0]))
        with pytest.raises(ValueError):
            cdf(math.nan)
        with pytest.raises(ValueError):
            cdf(np.array([math.nan, 1.5]))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_step_function_properties(self, values):
        cdf = empirical_cdf(_batch(values))
        lo, hi = min(values), max(values)
        assert cdf(hi) == 1.0
        assert cdf(lo - 1.0) == 0.0
        probes = np.linspace(lo - 1.0, hi + 1.0, 17)
        out = cdf(probes)
        assert np.all(np.diff(out) >= 0.0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_self_comparison_attains_floor(self, values):
        # against its own empirical cdf the gap is exactly 1/N (right limits
        # match, left limits miss by one step)
        batch = _batch(values)
        report = ks_statistic(batch, empirical_cdf(batch))
        assert report.statistic == pytest.approx(1.0 / len(values), rel=1e-12)


class TestKsStatistic:
    def test_exact_quantile_batch(self):
        n = 40
        levels = (np.arange(1, n + 1) - 0.5) / n
        values = limit_laws.quantiles(GUMBEL, levels)
        report = ks_statistic(_batch(values), law_cdf_fn(GUMBEL))
        assert report.statistic == pytest.approx(1.0 / (2 * n), abs=1e-8)
        assert report.reps == n
        assert report.critical_005 == pytest.approx(1.358 / math.sqrt(n), rel=1e-15)
        assert report.reference == "Gumbel"

    def test_uniform_null_band(self):
        # 0.95-level band 1.63/sqrt(N): the null exceedance rate is about 1%,
        # and master seed 0 realizes 1 exceedance in these 200 trials
        n = 400
        bound = 1.63 / math.sqrt(n)
        identity = lambda x: np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        exceedances = 0
        for trial in range(200):
            u = RandomStream(0, trial).generator.random(n)
            if ks_statistic(_batch(u), identity).statistic >= bound:
                exceedances += 1
        assert exceedances <= 2

    def test_degenerate_batch(self):
        c = 0.3
        reference = law_cdf_fn(GUMBEL)
        f_c = float(reference(np.array([c]))[0])
        report = ks_statistic(_batch([c] * 25), reference)
        assert report.statistic == max(f_c, 1.0 - f_c)
        assert report.location == c

    def test_location_is_argmax_order_statistic(self):
        values = np.array([0.1, 0.2, 0.9])
        report = ks_statistic(_batch(values), lambda x: np.asarray(x, dtype=float))
        f = values
        i = np.arange(1, 4)
        gaps = np.maximum(i / 3 - f, f - (i - 1) / 3)
        assert report.statistic == float(np.max(gaps))
        assert report.location == values[int(np.argmax(gaps))]

    def test_float_only_reference(self):
        # math.erfc raises TypeError on an array, so the reference is called
        # once per order statistic, and agrees with its array twin
        values = np.array([0.3, -1.2, 2.5, 0.0, 0.7])
        report = ks_statistic(_batch(values), lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0)))
        twin = ks_statistic(_batch(values), law_cdf_fn(STANDARD_NORMAL))
        assert report.statistic == pytest.approx(twin.statistic, rel=1e-14, abs=0)
        assert report.location == twin.location

    def test_non_monotone_reference_rejected(self):
        with pytest.raises(ValueError, match="monotone"):
            ks_statistic(_batch([0.0, 1.0, 2.0]), lambda x: -np.asarray(x, dtype=float))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic(_batch([], reps=0), law_cdf_fn(GUMBEL))

    def test_log_transform_invariance_bitwise(self):
        # the KS distance only sees reference values at the order statistics,
        # so comparing log radii against F(e^x) and radii against F gives the
        # same statistic to the last bit and exp-related locations
        spec = GinibreProduct(6, 1)
        raw = run_monte_carlo(spec, 500, 21)
        radius_cdf = exact_cdf.exact_cdf_fn(spec)
        log_report = ks_statistic(
            raw, lambda x: radius_cdf(np.exp(np.asarray(x, dtype=float)))
        )
        radius_batch = SampleBatch(spec=spec, statistics=np.exp(raw.statistics),
                                   seed=raw.seed, reps=raw.reps)
        radius_report = ks_statistic(radius_batch, radius_cdf)
        assert log_report.statistic == radius_report.statistic
        assert math.exp(log_report.location) == radius_report.location


class TestLawCdfFn:
    def test_values_and_labels(self):
        fn = law_cdf_fn(GUMBEL)
        assert fn.description == "Gumbel"
        assert float(fn(np.array([0.0]))[0]) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert law_cdf_fn(SPHERICAL_H).description == "SphericalH"
        assert law_cdf_fn(STANDARD_NORMAL).description == "StandardNormal"
        assert law_cdf_fn(ProductLaw(alpha=0.5)).description == "ProductLaw(alpha=0.5)"

    def test_matches_scalar_cdf(self):
        fn = law_cdf_fn(SPHERICAL_H)
        xs = np.array([0.5, 1.0, 2.0])
        expected = [limit_laws.spherical_h_cdf(x).value for x in xs]
        assert np.allclose(fn(xs), expected, rtol=1e-9)


class TestNormalizedBatch:
    def test_spherical_matches_manual_normalization(self):
        spec = Spherical(50)
        batch = normalized_batch(spec, 200, 9, SPHERICAL_H)
        raw = run_monte_carlo(spec, 200, 9)
        assert np.array_equal(batch.statistics, raw.statistics / math.sqrt(50.0))
        assert batch.spec == spec
        assert batch.seed == 9
        assert batch.reps == 200

    def test_product_proportional_regime(self):
        batch = normalized_batch(GinibreProduct(100, 10), 100, 4, ProductLaw(alpha=0.1))
        assert np.all(np.isfinite(batch.statistics))
        assert np.all(batch.statistics > 0.0)

    def test_product_largek_regime(self):
        batch = normalized_batch(GinibreProduct(20, 400), 50, 3, STANDARD_NORMAL)
        assert np.all(np.isfinite(batch.statistics))

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError, match="SphericalH"):
            normalized_batch(Spherical(10), 5, 0, GUMBEL)
        with pytest.raises(ValueError, match="Gumbel"):
            normalized_batch(TruncatedUnitary(10, 5), 5, 0, SPHERICAL_H)
        with pytest.raises(ValueError, match="regime"):
            normalized_batch(GinibreProduct(10, 1), 5, 0, SPHERICAL_H)

    def test_product_alpha_mismatch_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            normalized_batch(GinibreProduct(100, 10), 5, 0, ProductLaw(alpha=0.5))


class TestConvergenceTable:
    def test_spherical_strictly_decreasing(self):
        # seed 3 at 4000 reps keeps each drop well above the sampling noise
        rows = convergence_table(
            [Spherical(20), Spherical(200), Spherical(2000)], SPHERICAL_H, 4000, 3
        )
        ks = [report.statistic for _, report in rows]
        assert ks[0] > ks[1] > ks[2]

    def test_single_row_matches_standalone_call(self):
        rows = convergence_table([Spherical(30)], SPHERICAL_H, 400, 5)
        batch = normalized_batch(Spherical(30), 400, 5, SPHERICAL_H)
        standalone = ks_statistic(batch, law_cdf_fn(SPHERICAL_H))
        assert rows[0][0] == Spherical(30)
        assert rows[0][1] == standalone

    def test_bit_reproducible(self):
        specs = [Spherical(20), Spherical(40)]
        a = convergence_table(specs, SPHERICAL_H, 300, 12)
        b = convergence_table(specs, SPHERICAL_H, 300, 12)
        for (_, ra), (_, rb) in zip(a, b):
            assert ra == rb

    def test_rows_follow_input_order(self):
        specs = [Spherical(40), Spherical(20)]
        rows = convergence_table(specs, SPHERICAL_H, 100, 1)
        assert [s for s, _ in rows] == specs

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            convergence_table([], SPHERICAL_H, 100, 0)

    def test_mixed_families_rejected(self):
        with pytest.raises(ValueError, match="mix"):
            convergence_table([Spherical(5), TruncatedUnitary(4, 2)], SPHERICAL_H, 100, 0)


class TestQqPoints:
    def test_deciles_near_diagonal(self):
        draws = limit_laws.sample_limit_batch(GUMBEL, RandomStream(17, 0), 100_000)
        pts = qq_points(_batch(draws), GUMBEL, 10)
        assert pts.shape == (10, 2)
        assert np.max(np.abs(pts[:, 1] - pts[:, 0])) <= 0.1

    def test_single_median_pair(self):
        batch = run_monte_carlo(Spherical(40), 101, 8)
        pts = qq_points(batch, SPHERICAL_H, 1)
        assert pts.shape == (1, 2)
        assert pts[0, 0] == limit_laws.quantiles(SPHERICAL_H, np.array([0.5]))[0]
        assert pts[0, 1] == np.quantile(batch.statistics, 0.5, method="inverted_cdf")

    def test_monotone_coordinates(self):
        batch = run_monte_carlo(Spherical(25), 500, 2)
        pts = qq_points(batch, SPHERICAL_H, 20)
        assert np.all(np.diff(pts[:, 0]) >= 0.0)
        assert np.all(np.diff(pts[:, 1]) >= 0.0)

    def test_count_validation(self):
        batch = run_monte_carlo(Spherical(5), 5, 0)
        with pytest.raises(ValueError):
            qq_points(batch, SPHERICAL_H, 0)
        with pytest.raises(ValueError):
            qq_points(batch, SPHERICAL_H, 7)
        with pytest.raises(ValueError):
            qq_points(batch, SPHERICAL_H, 2.5)


class TestMassSpanGrid:
    def test_gumbel_linear_spacing(self):
        grid = mass_span_grid(GUMBEL)
        assert grid.size == 200
        assert grid[0] == limit_laws.quantile(GUMBEL, 1e-4)
        assert grid[-1] == limit_laws.quantile(GUMBEL, 1.0 - 1e-4)
        steps = np.diff(grid)
        assert np.allclose(steps, steps[0], rtol=1e-9)

    def test_spherical_log_spacing(self):
        grid = mass_span_grid(SPHERICAL_H, points=64)
        assert grid.size == 64
        assert np.all(grid > 0.0)
        assert grid[0] == limit_laws.quantile(SPHERICAL_H, 1e-4)
        assert grid[-1] == limit_laws.quantile(SPHERICAL_H, 1.0 - 1e-4)
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-9)

    def test_product_law_positive_support(self):
        grid = mass_span_grid(ProductLaw(alpha=1.0), points=32)
        assert np.all(grid > 0.0)
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-9)

    def test_normal_symmetric_span(self):
        grid = mass_span_grid(STANDARD_NORMAL, points=32)
        assert grid[0] == pytest.approx(-grid[-1], rel=1e-8)
        steps = np.diff(grid)
        assert np.allclose(steps, steps[0], rtol=1e-9)

    def test_custom_mass_bounds(self):
        grid = mass_span_grid(GUMBEL, points=10, lo=0.01)
        assert grid.size == 10
        assert grid[0] == limit_laws.quantile(GUMBEL, 0.01)
        assert grid[-1] == limit_laws.quantile(GUMBEL, 0.99)


class TestExactLimitGap:
    """The exact-vs-limit sup gap shared by the acceptance criteria and
    scripts/convergence_study.py."""

    @pytest.mark.parametrize("spec, law", [
        (Spherical(20), GUMBEL),
        (TruncatedUnitary(20, 10), SPHERICAL_H),
        (GinibreProduct(20, 2), ProductLaw(alpha=0.5)),
        (GinibreProduct(20, 2), SphericalH()),
    ])
    def test_family_law_mismatch_raises(self, spec, law):
        with pytest.raises(ValueError):
            stats._exact_limit_gap(spec, law)

    @pytest.mark.parametrize("spec, law, grid", [
        # the SmallK affine value 1 + (z + beta_n)/alpha_n is <= 0 below
        # z = -(alpha_n + beta_n), about -24 at n = 100
        (GinibreProduct(100, 1), GUMBEL, np.array([-200.0, -50.0, -24.5, 0.0, 2.0])),
        # the Phi_alpha statistic exp(L - (k/2) log n) is the affine value itself
        (GinibreProduct(20, 2), ProductLaw(alpha=0.1), np.array([-1.0, 0.0, 1.0, 2.0])),
    ])
    def test_nonpositive_affine_values_add_nothing_and_warn_nothing(self, spec, law, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gap = stats._exact_limit_gap(spec, law, grid)
        assert gap == stats._exact_limit_gap(spec, law, grid[-2:])

    @pytest.mark.parametrize("spec, law, want, abs_tol", [
        # n gap is near 0.14 in the Phi_alpha regime
        (GinibreProduct(20, 2), ProductLaw(alpha=0.1), 0.00676, 5e-5),
        # still growing with n, as criterion 7's k = 1 gaps do
        (GinibreProduct(100, 2), GUMBEL, 0.0556, 5e-5),
        (GinibreProduct(100, 3), GUMBEL, 0.0546, 5e-5),
        # log radii near 975, past exp's overflow at 709: the exact cdf reads
        # them as they are
        (GinibreProduct(50, 500), STANDARD_NORMAL, 0.00204, 1e-5),
    ])
    def test_product_gap(self, spec, law, want, abs_tol):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stats._exact_limit_gap(spec, law) == pytest.approx(want, abs=abs_tol)

    def test_default_grid_is_the_mass_span_grid(self):
        spec = TruncatedUnitary(60, 30)
        assert stats._exact_limit_gap(spec, GUMBEL) == stats._exact_limit_gap(
            spec, GUMBEL, mass_span_grid(GUMBEL))

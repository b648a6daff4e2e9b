"""Exact-distribution samplers and the deterministic Monte Carlo driver."""

import math

import numpy as np
import pytest

from specrad import exact_cdf, samplers
from specrad.errors import WorkBudgetError
from specrad.norming import GinibreProduct, Spherical, TruncatedUnitary
from specrad.samplers import (
    RandomStream,
    SampleBatch,
    run_monte_carlo,
    sample_gamma,
    sample_product_log_radius,
    sample_spherical_radius,
    sample_truncated_radius,
)
from specrad.specfun import reg_inc_gamma_lower

from _util import ks_distance

EULER_GAMMA = 0.5772156649015329


@pytest.fixture
def pool_starts(monkeypatch):
    """Records max_workers of every process pool run_monte_carlo starts."""
    starts = []
    real = samplers.ProcessPoolExecutor

    def counting(*args, **kwargs):
        starts.append(kwargs.get("max_workers"))
        return real(*args, **kwargs)

    monkeypatch.setattr(samplers, "ProcessPoolExecutor", counting)
    return starts


def _truncated_radii_coupled(n: int, ps: list[int], rng: RandomStream) -> list[float]:
    """Radii for several p values from one coupled construction.

    Writes every Gamma as a sum of unit exponentials: G1_j = sum of j draws
    E[j, :j], G2_j(m) = sum of the first m draws of a second row-indexed
    array.  Shrinking m = n - p (larger p) can only shrink G2_j, so each
    Beta draw B_j = G1_j/(G1_j + G2_j) grows, and the max over a larger j
    range grows again: the returned radii are a.s. nondecreasing in p.

    This coupling is the construction under which the monotonicity property
    of the truncated radius is meaningful; the production sampler draws each
    Gamma directly and therefore cannot share them across different p.
    """
    p_max = max(ps)
    m_max = n - min(ps)
    g = rng.generator
    e1 = g.standard_exponential((p_max, p_max))
    e2 = g.standard_exponential((p_max, m_max))
    g1 = np.array([e1[j, : j + 1].sum() for j in range(p_max)])
    out = []
    for p in ps:
        m = n - p
        g2 = e2[:p, :m].sum(axis=1)
        b = g1[:p] / (g1[:p] + g2)
        out.append(float(np.sqrt(np.max(b))))
    return out


class TestRandomStream:
    def test_same_pair_same_output(self):
        a = RandomStream(42, 7).generator.random(5)
        b = RandomStream(42, 7).generator.random(5)
        assert np.array_equal(a, b)

    def test_distinct_pairs_differ(self):
        a = RandomStream(42, 7).generator.random(5)
        b = RandomStream(42, 8).generator.random(5)
        c = RandomStream(43, 7).generator.random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_u64_validation(self):
        with pytest.raises(ValueError):
            RandomStream(-1, 0)
        with pytest.raises(ValueError):
            RandomStream(0, 2**64)
        RandomStream(2**64 - 1, 0)  # top of range is fine


class TestSampleGamma:
    def test_mean_and_variance(self):
        rng = RandomStream(1, 0)
        draws = np.array([sample_gamma(7.0, rng) for _ in range(100_000)])
        assert abs(float(np.mean(draws)) - 7.0) <= 0.05
        assert abs(float(np.var(draws)) - 7.0) <= 0.3

    def test_cdf_against_incomplete_gamma(self):
        rng = RandomStream(2, 0)
        draws = np.array([sample_gamma(3.0, rng) for _ in range(20_000)])
        d = ks_distance(draws, lambda xs: np.array([reg_inc_gamma_lower(3.0, x) for x in xs]))
        assert d <= 0.015

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            sample_gamma(0.0, RandomStream(0, 0))


class TestSphericalSampler:
    def test_deterministic(self):
        r1 = sample_spherical_radius(50, RandomStream(9, 3))
        r2 = sample_spherical_radius(50, RandomStream(9, 3))
        assert r1 == r2

    def test_n1_median(self):
        draws = np.array(
            [sample_spherical_radius(1, RandomStream(3, i)) for i in range(20_000)]
        )
        # the n=1 cdf r^2/(1+r^2) has median exactly 1
        assert abs(float(np.median(draws)) - 1.0) <= 0.03

    def test_against_exact_cdf(self):
        batch = run_monte_carlo(Spherical(20), 20_000, master_seed=11)
        d = ks_distance(batch.statistics, exact_cdf.exact_cdf_fn(Spherical(20)))
        assert d <= 0.015


class TestTruncatedSampler:
    def test_n2_p1_is_uniform_square(self):
        draws = np.array(
            [sample_truncated_radius(2, 1, RandomStream(4, i)) for i in range(100_000)]
        )
        assert abs(float(np.mean(draws**2)) - 0.5) <= 0.01

    def test_support(self):
        draws = [sample_truncated_radius(7, 3, RandomStream(5, i)) for i in range(500)]
        assert all(0.0 <= r <= 1.0 for r in draws)

    def test_against_exact_cdf(self):
        batch = run_monte_carlo(TruncatedUnitary(60, 30), 20_000, master_seed=12)
        d = ks_distance(batch.statistics, exact_cdf.exact_cdf_fn(TruncatedUnitary(60, 30)))
        assert d <= 0.015

    def test_monotone_coupling_in_p(self):
        ps = [5, 10, 20, 39]
        for i in range(300):
            radii = _truncated_radii_coupled(40, ps, RandomStream(21, i))
            assert all(radii[j] <= radii[j + 1] + 1e-15 for j in range(len(ps) - 1))


class TestProductSampler:
    def test_n1_k1_exponential(self):
        draws = np.array(
            [sample_product_log_radius(1, 1, RandomStream(6, i)) for i in range(100_000)]
        )
        # 2 log R = log Exp(1): P(R <= 1) = 1 - e^-1
        frac = float(np.mean(draws <= 0.0))
        assert abs(frac - (1.0 - math.exp(-1.0))) <= 0.005

    def test_n1_k3_mean(self):
        draws = np.array(
            [sample_product_log_radius(1, 3, RandomStream(8, i)) for i in range(100_000)]
        )
        assert abs(float(np.mean(2.0 * draws)) - (-3.0 * EULER_GAMMA)) <= 0.02

    def test_against_exact_cdf(self):
        batch = run_monte_carlo(GinibreProduct(10, 1), 20_000, master_seed=13)
        radii = np.exp(batch.statistics)
        d = ks_distance(radii, exact_cdf.exact_cdf_fn(GinibreProduct(10, 1)))
        assert d <= 0.015

    def test_k2_against_exact_cdf(self):
        batch = run_monte_carlo(GinibreProduct(8, 2), 20_000, master_seed=14)
        radii = np.exp(batch.statistics)
        d = ks_distance(radii, exact_cdf.exact_cdf_fn(GinibreProduct(8, 2)))
        assert d <= 0.015

    def test_block_size_invariance(self, monkeypatch):
        full = sample_product_log_radius(40, 5, RandomStream(15, 2))
        monkeypatch.setattr(samplers, "_PRODUCT_BLOCK_ELEMS", 64)
        blocked = sample_product_log_radius(40, 5, RandomStream(15, 2))
        assert full == blocked


# (seed, replicate) pairs and the statistics the public samplers gave for
# them before the samplers re-keyed one generator per chunk; any change to
# the random stream moves these values
STREAM_PAIRS = [(7, 3), (2**40 + 1, 12345), (2**64 - 1, 2**63)]
STREAM_PINS = [
    (lambda rng: sample_spherical_radius(50, rng),
     [6.6048875045388575, 18.000515591183845, 16.37033923129227]),
    (lambda rng: sample_spherical_radius(1, rng),
     [0.8514113972449676, 0.22404267161930658, 0.2259932620983132]),
    (lambda rng: sample_truncated_radius(60, 30, rng),
     [0.7731742319496825, 0.731601568981843, 0.7851387021022989]),
    (lambda rng: sample_product_log_radius(40, 1, rng),
     [1.9869637229244124, 1.9088763157572868, 1.8188027246743463]),
    (lambda rng: sample_product_log_radius(10, 2, rng),
     [2.366352635930245, 2.296058350253323, 2.240485878646318]),
    (lambda rng: sample_product_log_radius(40, 5, rng),
     [9.342892662807788, 9.358064468820187, 9.366590543847611]),
]
# run_monte_carlo(spec, 3000, 31) at replicates 1, 374, 375 and 2999; with
# two workers the chunks are 375 replicates long
BATCH_PINS = [
    (Spherical(50),
     [12.4027791268913, 11.477980905970671, 6.005442548587649, 5.162672956755582]),
    (TruncatedUnitary(60, 30),
     [0.7870603972846507, 0.7439015336400094, 0.7505606583891206, 0.7457079470652896]),
    (GinibreProduct(40, 1),
     [1.9130316870617021, 2.0104129985156494, 1.9022060982584017, 1.8765778868722887]),
    (GinibreProduct(10, 2),
     [2.607680023312975, 2.209616247743135, 2.5316461673167687, 2.637082807523065]),
]


@pytest.mark.parametrize("sample, sizes, message", [
    (sample_spherical_radius, (0,), "n must be >= 1"),
    (sample_spherical_radius, (2.5,), "n must be an integer"),
    (sample_truncated_radius, (5, 5), "need 1 <= p < n"),
    (sample_truncated_radius, (5, 7), "need 1 <= p < n"),
    (sample_truncated_radius, (5, 0), "p must be >= 1"),
    (sample_product_log_radius, (0, 3), "n must be >= 1"),
    (sample_product_log_radius, (-2, 3), "n must be >= 1"),
    (sample_product_log_radius, (3, 0), "k must be >= 1"),
])
def test_public_samplers_reject_bad_sizes(sample, sizes, message):
    # the ensemble specs' own rules; these returned 1.0 or -inf, or raised
    # numpy errors, ZeroDivisionError or TypeError
    with pytest.raises(ValueError, match=message):
        sample(*sizes, RandomStream(1, 0))


class TestStreamPins:
    @pytest.mark.parametrize("sample,expected", STREAM_PINS)
    def test_public_samplers(self, sample, expected):
        assert [sample(RandomStream(s, i)) for s, i in STREAM_PAIRS] == expected

    def test_product_blocks(self, monkeypatch):
        # 2000 rows of 2100 draws are two blocks of _PRODUCT_BLOCK_ELEMS
        assert sample_product_log_radius(2000, 2100, RandomStream(5, 9)) == 7981.358315427351
        monkeypatch.setattr(samplers, "_PRODUCT_BLOCK_ELEMS", 64)
        got = [sample_product_log_radius(40, 5, RandomStream(s, i)) for s, i in STREAM_PAIRS]
        assert got == STREAM_PINS[-1][1]

    @pytest.mark.parametrize("spec,_", BATCH_PINS)
    def test_rekeyed_chunk_matches_fresh_streams(self, spec, _):
        sample = samplers._sampler(spec)
        chunk = samplers._replicate_range(spec, 2**40 + 1, 5, 45)
        assert list(chunk) == [sample(RandomStream(2**40 + 1, i)) for i in range(5, 45)]

    @pytest.mark.parametrize("spec,expected", BATCH_PINS)
    def test_batches_across_chunks(self, spec, expected, pool_starts):
        for workers in (1, 2):
            stats = run_monte_carlo(spec, 3000, 31, workers=workers).statistics
            assert [stats[i] for i in (1, 374, 375, 2999)] == expected
        assert pool_starts == [2]


class TestRunMonteCarlo:
    def test_worker_count_invariance(self):
        a = run_monte_carlo(Spherical(100), 1000, master_seed=7, workers=1)
        b = run_monte_carlo(Spherical(100), 1000, master_seed=7, workers=8)
        assert np.array_equal(a.statistics, b.statistics)

    @pytest.mark.parametrize("spec", [GinibreProduct(12, 3), Spherical(40)])
    def test_default_workers_matches_serial(self, spec):
        default = run_monte_carlo(spec, 300, master_seed=9)
        serial = run_monte_carlo(spec, 300, master_seed=9, workers=1)
        assert np.array_equal(default.statistics, serial.statistics)

    def test_worker_count_invariance_through_the_pool(self, pool_starts):
        spec = Spherical(100)
        serial = run_monte_carlo(spec, 3000, master_seed=7, workers=1)
        for workers in (2, 3):
            pooled = run_monte_carlo(spec, 3000, master_seed=7, workers=workers)
            assert np.array_equal(serial.statistics, pooled.statistics)
        assert pool_starts == [2, 3]

    @pytest.mark.parametrize(
        "spec",
        [Spherical(n) for n in (5, 10, 20, 40)]
        + [TruncatedUnitary(n, n // 2) for n in (6, 10, 20, 40)]
        + [GinibreProduct(n, 1) for n in (5, 10, 20, 40)],
    )
    def test_short_runs_stay_in_process(self, spec, pool_starts):
        # 300 replicates cost less than starting a pool
        assert run_monte_carlo(spec, 300, master_seed=1, workers=4).reps == 300
        assert pool_starts == []

    def test_long_run_starts_a_pool(self, pool_starts):
        # the smallest of the exact-cdf check batches, just above the line
        run_monte_carlo(GinibreProduct(10, 2), 5000, master_seed=1, workers=2)
        assert pool_starts == [2]

    def test_single_chunk_stays_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single chunk must not start a process pool")

        monkeypatch.setattr(samplers, "ProcessPoolExecutor", no_pool)
        assert run_monte_carlo(Spherical(5), 1, master_seed=0, workers=4).reps == 1
        assert run_monte_carlo(Spherical(5), 10, master_seed=0, workers=1).reps == 10

    def test_single_rep(self):
        batch = run_monte_carlo(Spherical(5), 1, master_seed=0)
        assert batch.reps == 1
        assert batch.statistics.shape == (1,)

    def test_replicate_indexing_gives_prefix_property(self):
        longer = run_monte_carlo(GinibreProduct(6, 2), 100, master_seed=3)
        shorter = run_monte_carlo(GinibreProduct(6, 2), 40, master_seed=3)
        assert np.array_equal(longer.statistics[:40], shorter.statistics)

    def test_truncated_support_at_scale(self):
        batch = run_monte_carlo(TruncatedUnitary(2000, 1000), 100_000, master_seed=42)
        assert np.all(batch.statistics >= 0.0)
        assert np.all(batch.statistics <= 1.0)

    def test_budget_enforced(self):
        with pytest.raises(WorkBudgetError) as exc:
            run_monte_carlo(GinibreProduct(1000, 1000), 10_000, master_seed=0)
        assert exc.value.required > exc.value.budget

    def test_budget_disabled(self):
        batch = run_monte_carlo(Spherical(3), 5, master_seed=0, budget=None)
        assert batch.reps == 5

    def test_nan_budget_rejected(self):
        # NaN compares False with the required work, so any run went unguarded
        with pytest.raises(ValueError):
            run_monte_carlo(Spherical(3), 5, master_seed=0, budget=float("nan"))

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            SampleBatch(
                spec=Spherical(3),
                statistics=np.array([1.0, math.nan]),
                seed=0,
                reps=2,
            )
        with pytest.raises(ValueError):
            SampleBatch(spec=Spherical(3), statistics=np.array([1.0]), seed=0, reps=2)

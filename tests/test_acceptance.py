"""Acceptance gate: fourteen end-to-end checks, one test and one printed
[PASS]/[FAIL] line each (run with -s to see the lines for passing checks).

Monte Carlo checks use frozen seeds; every replicate stream is keyed by
(seed, replicate index), so each number below is deterministic.  Checks 6
and 7 fail and are expected to: under the affine extreme-value norming the
exact truncated-ensemble curves sit 0.028/0.060/0.072 from the Gumbel
limit over n in {2e2, 2e3, 2e4} (still growing; the approach is
logarithmic and the gap only saturates near 0.073 around n ~ 2e5), and the
k=1 product curves sit 0.056/0.063/0.067 over n in {1e2, 1e3, 1e4} (below
the 0.1 level bound but likewise not yet decreasing).  Both checks assert
the stated monotone-decrease requirement anyway so the failures stay
visible rather than being masked.

Criteria 8 and 9 each have an exact companion: the same regimes read from
the exact product cdf, with no Monte Carlo noise floor.
"""

import math
import time

import numpy as np

from specrad import exact_cdf, limit_laws, stats
from specrad.cli import main as cli_main
from specrad.limit_laws import (
    GUMBEL,
    SPHERICAL_H,
    STANDARD_NORMAL,
    ProductLaw,
)
from specrad.norming import GinibreProduct, Spherical, TruncatedUnitary
from specrad.samplers import SampleBatch, run_monte_carlo
from specrad.specfun import digamma, poisson_cdf, reg_inc_beta, trigamma


def _verdict(ok: bool, label: str, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    return line


def _sampler_vs_exact(spec, reps, seed, log_stats):
    raw = run_monte_carlo(spec, reps, seed)
    if log_stats:
        batch = SampleBatch(spec=spec, statistics=np.exp(raw.statistics),
                            seed=raw.seed, reps=raw.reps)
    else:
        batch = raw
    return stats.ks_statistic(batch, exact_cdf.exact_cdf_fn(spec)).statistic


def test_criterion_01_spherical_sampler_matches_exact_cdf():
    start = time.perf_counter()
    ks = _sampler_vs_exact(Spherical(50), 20_000, 42, log_stats=False)
    elapsed = time.perf_counter() - start
    ok = ks <= 0.015 and elapsed < 10.0
    line = _verdict(ok, "criterion 1",
                    f"spherical n=50 sampler KS {ks:.5f} (tol 0.015), {elapsed:.1f}s (<10s)")
    assert ok, line


def test_criterion_02_truncated_sampler_matches_exact_cdf():
    start = time.perf_counter()
    ks = _sampler_vs_exact(TruncatedUnitary(60, 30), 20_000, 42, log_stats=False)
    elapsed = time.perf_counter() - start
    ok = ks <= 0.015 and elapsed < 10.0
    line = _verdict(ok, "criterion 2",
                    f"truncated n=60 p=30 sampler KS {ks:.5f} (tol 0.015), {elapsed:.1f}s (<10s)")
    assert ok, line


def test_criterion_03_product_k1_sampler_matches_exact_cdf():
    start = time.perf_counter()
    ks = _sampler_vs_exact(GinibreProduct(40, 1), 20_000, 42, log_stats=True)
    elapsed = time.perf_counter() - start
    ok = ks <= 0.015 and elapsed < 10.0
    line = _verdict(ok, "criterion 3",
                    f"product n=40 k=1 sampler KS {ks:.5f} (tol 0.015), {elapsed:.1f}s (<10s)")
    assert ok, line


def test_criterion_04_product_k2_sampler_matches_exact_cdf():
    start = time.perf_counter()
    ks = _sampler_vs_exact(GinibreProduct(10, 2), 20_000, 42, log_stats=True)
    elapsed = time.perf_counter() - start
    ok = ks <= 0.02 and elapsed < 60.0
    line = _verdict(ok, "criterion 4",
                    f"product n=10 k=2 sampler KS {ks:.5f} (tol 0.02), {elapsed:.1f}s (<60s)")
    assert ok, line


def test_criterion_05_spherical_limit_convergence():
    start = time.perf_counter()
    gaps = [stats._exact_limit_gap(Spherical(n), SPHERICAL_H) for n in (20, 200, 2000)]
    elapsed = time.perf_counter() - start
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 0.02 and elapsed < 60.0
    line = _verdict(ok, "criterion 5",
                    "spherical exact-vs-limit sup gaps "
                    f"{gaps[0]:.4f} > {gaps[1]:.4f} > {gaps[2]:.4f}, last <= 0.02, "
                    f"{elapsed:.1f}s (<60s)")
    assert ok, line


def test_criterion_06_truncated_limit_convergence():
    start = time.perf_counter()
    gaps = [stats._exact_limit_gap(TruncatedUnitary(n, n // 2), GUMBEL)
            for n in (200, 2000, 20_000)]
    elapsed = time.perf_counter() - start
    decreasing = gaps[0] > gaps[1] > gaps[2]
    ok = decreasing and gaps[2] <= 0.05 and elapsed < 60.0
    line = _verdict(ok, "criterion 6",
                    "truncated exact-vs-Gumbel sup gaps "
                    f"{gaps[0]:.4f}, {gaps[1]:.4f}, {gaps[2]:.4f} "
                    "(required strictly decreasing and last <= 0.05; the gap "
                    f"is still growing at n=2e4), {elapsed:.1f}s (<60s)")
    assert ok, line


def test_criterion_07_product_k1_limit_convergence():
    start = time.perf_counter()
    gaps = [stats._exact_limit_gap(GinibreProduct(n, 1), GUMBEL) for n in (100, 1000, 10_000)]
    elapsed = time.perf_counter() - start
    decreasing = gaps[0] > gaps[1] > gaps[2]
    ok = decreasing and gaps[2] <= 0.1 and elapsed < 60.0
    line = _verdict(ok, "criterion 7",
                    "product k=1 exact-vs-Gumbel sup gaps "
                    f"{gaps[0]:.4f}, {gaps[1]:.4f}, {gaps[2]:.4f} "
                    "(required strictly decreasing and last <= 0.1; the level "
                    f"bound holds but the gap is still growing at n=1e4), "
                    f"{elapsed:.1f}s (<60s)")
    assert ok, line


def test_criterion_08_product_equal_k_convergence():
    start = time.perf_counter()
    law = ProductLaw(alpha=1.0)
    reference = stats.law_cdf_fn(law)
    ks = []
    for n in (50, 100, 200):
        batch = stats.normalized_batch(GinibreProduct(n, n), 20_000, 16, law)
        ks.append(stats.ks_statistic(batch, reference).statistic)
    elapsed = time.perf_counter() - start
    ok = ks[0] >= ks[1] >= ks[2] and ks[2] <= 0.08 and elapsed < 120.0
    line = _verdict(ok, "criterion 8",
                    f"product k=n KS vs ProductLaw(1) {ks[0]:.4f} >= {ks[1]:.4f} >= "
                    f"{ks[2]:.4f}, last <= 0.08, {elapsed:.1f}s (<120s)")
    assert ok, line


def test_criterion_08_exact_companion():
    # the noise-free gaps behind criterion 8, at alpha = k/n in {0.1, 1, 10}:
    # the exact cdf approaches Phi_alpha at the rate 1/n
    start = time.perf_counter()
    rows = {alpha: [stats._exact_limit_gap(GinibreProduct(n, round(alpha * n)), ProductLaw(alpha))
                    for n in (50, 100, 200)] for alpha in (0.1, 1.0, 10.0)}
    elapsed = time.perf_counter() - start
    ok = all(g[0] > g[1] > g[2] and all(0.12 <= n * x <= 0.16 for n, x in zip((50, 100, 200), g))
             for g in rows.values())
    line = _verdict(ok, "criterion 8 (exact)",
                    "product k=alpha n exact-vs-Phi_alpha sup gaps at n=50/100/200, "
                    + "; ".join(f"alpha={a:g}: " + "/".join(f"{x:.5f}" for x in g)
                                for a, g in rows.items())
                    + f" (decreasing, n gap in [0.12, 0.16]), {elapsed:.1f}s")
    assert ok, line


def test_criterion_09_product_large_k_convergence():
    start = time.perf_counter()
    reference = stats.law_cdf_fn(STANDARD_NORMAL)
    ks = []
    for k in (500, 2500):
        # k=2500 needs 2.5e9 scalar draws, past the default per-call budget
        batch = stats.normalized_batch(GinibreProduct(50, k), 20_000, 42,
                                       STANDARD_NORMAL, budget=None)
        ks.append(stats.ks_statistic(batch, reference).statistic)
    elapsed = time.perf_counter() - start
    ok = ks[0] >= ks[1] and ks[1] <= 0.05 and elapsed < 120.0
    line = _verdict(ok, "criterion 9",
                    f"product n=50 large-k KS vs normal {ks[0]:.4f} >= {ks[1]:.4f}, "
                    f"last <= 0.05, {elapsed:.1f}s (<120s)")
    assert ok, line


def test_criterion_09_exact_companion():
    # the noise-free gaps behind criterion 9's two Monte Carlo KS values
    start = time.perf_counter()
    gaps = [stats._exact_limit_gap(GinibreProduct(50, k), STANDARD_NORMAL) for k in (500, 2500)]
    elapsed = time.perf_counter() - start
    ok = gaps[0] > gaps[1]
    line = _verdict(ok, "criterion 9 (exact)",
                    f"product n=50 exact-vs-normal sup gaps {gaps[0]:.5f} > {gaps[1]:.5f}, "
                    f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_10_spherical_tail():
    start = time.perf_counter()
    errs = [abs(x * x * limit_laws.upper_tail(SPHERICAL_H, x) - 1.0) for x in (10.0, 30.0)]
    elapsed = time.perf_counter() - start
    ok = errs[0] <= 0.05 and errs[1] <= 0.01 and elapsed < 1.0
    line = _verdict(ok, "criterion 10",
                    f"|x^2 (1-H(x)) - 1| = {errs[0]:.2e} at x=10 (tol 0.05), "
                    f"{errs[1]:.2e} at x=30 (tol 0.01), {elapsed:.2f}s (<1s)")
    assert ok, line


def test_criterion_11_product_tail():
    start = time.perf_counter()
    law = ProductLaw(alpha=1.0)
    x_lo = limit_laws.quantile(law, 1.0 - 1e-4)
    x_hi = limit_laws.quantile(law, 1.0 - 1e-8)
    xs = np.geomspace(x_lo, x_hi, 25)
    ratios = np.array([limit_laws.upper_tail(law, float(x))
                       / limit_laws.tail_asymptote(law, float(x)) for x in xs])
    elapsed = time.perf_counter() - start
    inside = bool(np.all((ratios >= 0.8) & (ratios <= 1.2)))
    toward = abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
    ok = inside and toward and elapsed < 5.0
    line = _verdict(ok, "criterion 11",
                    f"alpha=1 tail/asymptote ratio in [{ratios.min():.3f}, "
                    f"{ratios.max():.3f}] over tail mass [1e-8, 1e-4], moving toward 1, "
                    f"{elapsed:.2f}s (<5s)")
    assert ok, line


def test_criterion_12_special_function_identities():
    start = time.perf_counter()
    xs = np.linspace(0.1, 50.0, 100)
    dig = max(abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) for x in xs)
    tri = max(abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / (x * x)) for x in xs)
    beta = max(
        abs(reg_inc_beta(float(x), a, b) + reg_inc_beta(1.0 - float(x), b, a) - 1.0)
        for a in (0.5, 1.0, 2.5, 7.0, 30.0)
        for b in (0.5, 1.0, 2.5, 7.0, 30.0)
        for x in np.linspace(0.05, 0.95, 19)
    )
    poisson = max(
        abs(poisson_cdf(k, x)
            - math.fsum(math.exp(-x) * x**i / math.factorial(i) for i in range(k)))
        for x in (0.3, 1.0, 4.5, 12.0, 25.0)
        for k in range(1, 31)
    )
    elapsed = time.perf_counter() - start
    worst = max(dig, tri, beta, poisson)
    ok = worst <= 1e-12 and elapsed < 1.0
    line = _verdict(ok, "criterion 12",
                    f"identity residuals: digamma {dig:.1e}, trigamma {tri:.1e}, "
                    f"beta symmetry {beta:.1e}, poisson sum {poisson:.1e} "
                    f"(tol 1e-12), {elapsed:.2f}s (<1s)")
    assert ok, line


def test_criterion_13_sample_worker_determinism(capsys):
    start = time.perf_counter()
    base = ["sample", "--ensemble", "spherical", "--n", "1000",
            "--reps", "10000", "--seed", "42", "--workers"]
    assert cli_main(base + ["1"]) == 0
    serial = capsys.readouterr().out
    assert cli_main(base + ["8"]) == 0
    parallel = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    ok = serial == parallel and elapsed < 5.0
    line = _verdict(ok, "criterion 13",
                    f"sample n=1000 reps=10000 byte-identical for workers 1 vs 8: "
                    f"{serial == parallel}, {elapsed:.1f}s (<5s)")
    assert ok, line


def test_criterion_14_quantile_roundtrip():
    start = time.perf_counter()
    worst = 0.0
    for law in (SPHERICAL_H, GUMBEL, ProductLaw(alpha=1.0), STANDARD_NORMAL):
        for q in (0.01, 0.5, 0.99):
            x = limit_laws.quantile(law, q)
            worst = max(worst, abs(limit_laws.cdf(law, x).value - q))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    line = _verdict(ok, "criterion 14",
                    f"|cdf(quantile(q)) - q| worst {worst:.2e} over four laws at "
                    f"q in {{0.01, 0.5, 0.99}} (tol 1e-9), {elapsed:.2f}s (<5s)")
    assert ok, line

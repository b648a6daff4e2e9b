"""Tests of the benchmark's own checks: each passes on the program's output
and fails on a deliberately wrong one, so a check that can never fail is
caught.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402
from specrad import exact_cdf, limit_laws, norming, samplers, stats  # noqa: E402
from specrad.norming import GinibreProduct, Spherical, TruncatedUnitary  # noqa: E402

SMALL_SPECS = [Spherical(20), TruncatedUnitary(30, 12), GinibreProduct(15, 1), GinibreProduct(6, 2)]


def _shifted(batch):
    """The batch moved by about half a spread: log-radii up by 0.1, radii
    scaled by 1.2."""
    values = batch.statistics
    moved = values + 0.1 if isinstance(batch.spec, GinibreProduct) else values * 1.2
    return samplers.SampleBatch(spec=batch.spec, statistics=moved, seed=batch.seed,
                                reps=batch.reps)


# --- references against the program where both are right ----------------------


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_finite_n_reference_matches_program(spec):
    r = np.linspace(0.5, 2.0, 7) * (spec.n if w._family(spec) == "product_k2"
                                      else math.sqrt(spec.n))
    if isinstance(spec, TruncatedUnitary):
        r = np.linspace(0.3, 0.95, 7)
    got = exact_cdf.exact_cdf_fn(spec)(r)
    assert np.allclose(w._reference_cdf(spec)(r), got, rtol=0, atol=1e-12)


def test_k2_bessel_and_quad_references_agree():
    r = np.array([12.0, 20.0, 30.0])
    bessel = ref.product_k2_log_cdf_bessel(20, r)
    quad = [ref.product_k2_log_cdf_quad(20, x) for x in r]
    assert np.allclose(bessel, quad, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("name,law", w.LAWS)
def test_limit_references_match_program(name, law):
    x = limit_laws.quantiles(law, np.linspace(0.01, 0.99, 25))
    assert np.allclose(ref.law_cdf(name, x), limit_laws.cdf_values(law, x), atol=1e-10)


# --- every check fails on a wrong input ------------------------------------------


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_batch_check_catches_a_shifted_batch(spec):
    batch = samplers.run_monte_carlo(spec, 2000, 5, workers=1)
    assert w._batch_problem(spec, 2000, batch) is None
    assert w._batch_problem(spec, 2000, _shifted(batch)) is not None
    assert w._batch_problem(spec, 1999, batch) is not None


def test_batch_check_compares_the_program_ks():
    spec = SMALL_SPECS[0]
    batch = samplers.run_monte_carlo(spec, 2000, 6, workers=1)
    report = stats.ks_statistic(batch, exact_cdf.exact_cdf_fn(spec))
    assert w._batch_problem(spec, 2000, batch, report.statistic) is None
    assert w._batch_problem(spec, 2000, batch, report.statistic + 1e-6) is not None


@pytest.mark.parametrize("label,spec,_reps,law,_name", w.REGIMES, ids=[r[0] for r in w.REGIMES])
def test_regime_check_catches_a_shifted_batch(label, spec, _reps, law, _name):
    reps = 500 if label == "normal" else 1000
    values = stats.normalized_batch(spec, reps, 8, law, workers=1).statistics
    assert w._regime_batch_problem(label, spec, reps, values) is None
    # move the batch by half its spread (radius scale for the product laws)
    if label.startswith("phi"):
        wrong = values * np.exp(0.5 * np.std(np.log(values)))
    else:
        wrong = values + 0.5 * np.std(values)
    assert w._regime_batch_problem(label, spec, reps, wrong) is not None


@pytest.mark.parametrize("spec", [Spherical(2000), TruncatedUnitary(2000, 1000),
                                  GinibreProduct(2000, 1), GinibreProduct(12, 2)], ids=str)
def test_curve_check_catches_a_perturbed_curve(spec):
    law = "spherical_h" if isinstance(spec, Spherical) else "gumbel"
    grid = stats.mass_span_grid(limit_laws.SPHERICAL_H if law == "spherical_h"
                                else limit_laws.GUMBEL, 40)
    constants = norming.norming_for(spec, norming.SmallK())
    assert w._constants_problem(spec, constants) is None
    radii = w._radii_for(spec, constants, grid)
    values = exact_cdf.cdf_curve(spec, radii).values
    assert w._curve_problem(spec, radii, values) is None
    assert w._curve_problem(spec, radii, values * (1.0 - 1e-6)) is not None
    assert w._curve_problem(spec, radii, values[::-1]) is not None
    assert w._curve_problem(spec, radii, values + 0.5) is not None
    bad = norming.NormingConstants(constants.pre_transform, constants.shift,
                                   constants.scale * (1 + 1e-9), constants.aux)
    assert w._constants_problem(spec, bad) is not None


def test_spherical_curve_op_checks_its_gap_to_the_limit():
    ops = {op.name: op for op in w.exact_curves_ops(1, 0, tracing.Tracer(False))}
    results = {}
    for name in ("grid spherical_h", "limit spherical_h", "curve spherical_2e3"):
        results[name] = ops[name].run(results)
        assert ops[name].check(results[name], results) is None
    constants, radii, curve, _ = results["curve spherical_2e3"]
    wrong = (constants, radii, curve, 0.05)
    assert ops["curve spherical_2e3"].check(wrong, results) is not None


def test_upper_tail_check_flags_the_k2_defect():
    got = float(exact_cdf.exact_log_cdf(w.TAIL_SPEC, np.array([w.TAIL_RADIUS]))[0])
    assert w._log_cdf_problem(w.TAIL_SPEC, w.TAIL_RADIUS, got) is not None
    right = ref.product_k2_log_cdf_bessel(w.TAIL_SPEC.n, [w.TAIL_RADIUS])[0]
    assert w._log_cdf_problem(w.TAIL_SPEC, w.TAIL_RADIUS, float(right)) is None


def test_grid_check_catches_a_wrong_grid():
    lo = 1.2e-4
    grid = stats.mass_span_grid(limit_laws.GUMBEL, w.CURVE_POINTS, lo)
    assert w._grid_problem("gumbel", lo, grid) is None
    assert w._grid_problem("gumbel", 1e-4, grid) is not None


@pytest.mark.parametrize("name,law", w.LAWS)
def test_round_trip_check_catches_wrong_quantiles(name, law):
    q = np.linspace(0.001, 0.999, 50)
    x = limit_laws.quantiles(law, q)
    assert w._round_trip_problem(name, q, x) is None
    assert w._round_trip_problem(name, q, x * (1 + 1e-6) + 1e-6) is not None


def test_qq_check_catches_a_wrong_column():
    law = limit_laws.ProductLaw(1.0)
    draws = limit_laws.sample_limit_batch(law, samplers.RandomStream(3, 0), w.QQ_POINTS * 5)
    batch = samplers.SampleBatch(spec=None, statistics=draws, seed=3, reps=draws.size)
    qq = stats.qq_points(batch, law, w.QQ_POINTS)
    assert w._qq_problem("phi_1", qq, draws) is None
    assert w._qq_problem("phi_1", qq + [0.0, 1e-9], draws) is not None
    assert w._qq_problem("phi_1", qq * [1.001, 1.0], draws) is not None


@pytest.mark.parametrize("with_tail", [False, True])
def test_table_check_catches_wrong_columns(with_tail):
    name = "spherical_h"
    law_args, plain, tail = w.TABLES[name]
    grid = tail if with_tail else plain
    argv = ["cdf", *law_args, f"--grid={grid[0]!r}:{grid[1]!r}:{w.TABLE_POINTS}"]
    text = w._run_cli(argv + (["--with-tail"] if with_tail else []))
    assert w._table_problem(name, grid, with_tail, text) is None
    lines = text.splitlines()
    row = lines[5].split(",")
    row[1] = repr(float(row[1]) + 1e-8)
    assert w._table_problem(name, grid, with_tail, "\n".join(
        lines[:5] + [",".join(row)] + lines[6:])) is not None
    assert w._table_problem(name, (grid[0], grid[1] * 1.01), with_tail, text) is not None
    if with_tail:
        row = lines[7].split(",")
        row[2] = repr(float(row[2]) * (1 + 1e-9))
        assert w._table_problem(name, grid, True, "\n".join(
            lines[:7] + [",".join(row)] + lines[8:])) is not None


def test_thresholds_have_their_false_alarm_rate():
    n = 10_000
    eps = ref.dkw_threshold(n)
    assert 2.0 * math.exp(-2.0 * n * eps * eps) == pytest.approx(ref.FALSE_ALARM)
    assert ref.two_sample_threshold(n, n) == pytest.approx(eps * math.sqrt(2.0))


# --- tracer ----------------------------------------------------------------------


def test_tracer_restores_the_program_and_splits_ks_self_time():
    original = samplers.run_monte_carlo
    tracer = tracing.Tracer(True)
    tracer.install()
    try:
        samplers.run_monte_carlo(Spherical(10), 10, 1, workers=1)  # round 0: not timed
        tracer.round = 1
        assert stats.run_monte_carlo is not original
        batch = samplers.run_monte_carlo(Spherical(10), 1000, 1, workers=1)
        reference = tracer.wrap("ks.reference", exact_cdf.exact_cdf_fn(Spherical(10)))
        stats.ks_statistic(batch, reference)
    finally:
        tracer.uninstall()
    assert samplers.run_monte_carlo is original and stats.run_monte_carlo is original
    names = [s["name"] for s in tracer.spans]
    assert names == ["samplers.run_monte_carlo", "samplers.run_monte_carlo",
                     "stats.ks_statistic", "ks.reference", "exact_cdf.exact_log_cdf"]
    metrics = tracer.layer_metrics(2)
    assert set(metrics) == set(tracing.LAYER_UNITS)
    ks, inner = tracer.spans[2], tracer.spans[3]
    assert metrics["stats.ks_self_s"] == pytest.approx(
        (ks["end"] - ks["start"]) - (inner["end"] - inner["start"]))
    assert metrics["samplers.us_per_replicate"] > 0.0
    assert metrics["samplers.short_call_ms"] == 0.0  # the round-0 call is left out
    assert metrics["cli.cdf_s"] == 0.0


def test_disabled_tracer_changes_nothing():
    tracer = tracing.Tracer(False)
    tracer.install()
    fn = exact_cdf.exact_cdf_fn(Spherical(5))
    assert tracer.wrap("ks.reference", fn) is fn
    assert stats.run_monte_carlo is samplers.run_monte_carlo
    assert tracer.spans == []

"""The four workloads: their inputs, their timed operations, their checks.

A workload builds one round of operations from (seed, round).  Every round
holds the same operations; only the seeded inputs differ.  An operation's
``run`` makes the timed program calls; its ``check`` runs after the timed
window and returns None when the output is correct, else the reason.
Checks use ``reference`` (scipy), imported only when a check runs, so the
timed window carries neither scipy's import nor its memory.

Program functions are always looked up on their module at call time, so a
tracer that swaps them in is seen.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from specrad import cli, exact_cdf, limit_laws, norming, samplers, stats
from specrad.limit_laws import GUMBEL, SPHERICAL_H, STANDARD_NORMAL, ProductLaw
from specrad.norming import GinibreProduct, Spherical, TruncatedUnitary

REFERENCE_SAMPLE = Path(__file__).resolve().parent / "reference_sample.npz"


@dataclass
class Op:
    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], "str | None"]
    expected_failure: bool = False


def sub_seed(seed: int, *keys: int) -> int:
    """A 64-bit seed derived from the run's seed and a path of keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)[0])


def _uniforms(seed: int, *keys: int, size: int) -> np.ndarray:
    return np.random.default_rng(sub_seed(seed, *keys)).random(size)


def _stratified(seed: int, *keys: int, size: int) -> np.ndarray:
    """Sorted levels, one in the middle half of each of ``size`` equal
    cells of (0, 1): random, yet the extreme levels stay within a factor 3."""
    u = _uniforms(seed, *keys, size=size)
    return (np.arange(size) + 0.25 + 0.5 * u) / size


def _ref():
    import reference

    return reference


def _family(spec) -> str:
    if isinstance(spec, Spherical):
        return "spherical"
    if isinstance(spec, TruncatedUnitary):
        return "truncated"
    return f"product_k{spec.k}"


def _radii(spec, batch) -> np.ndarray:
    """Radii of a raw batch; product statistics are log-radii."""
    values = np.asarray(batch.statistics, dtype=float)
    return np.exp(values) if isinstance(spec, GinibreProduct) else values


def _fail_if(condition: bool, message: str) -> "str | None":
    return message if condition else None


def _first_problem(*problems) -> "str | None":
    return next((p for p in problems if p), None)


# --- finite_n -----------------------------------------------------------------

# (spec, replicates); the k=2 exact cdf costs about 0.35 ms per point, so its
# batch is smaller
FINITE_N_SPECS = [
    (Spherical(50), 20_000),
    (TruncatedUnitary(60, 30), 20_000),
    (GinibreProduct(40, 1), 20_000),
    (GinibreProduct(10, 2), 5_000),
]
LADDER_SPECS = (
    [Spherical(n) for n in (5, 10, 20, 40)]
    + [TruncatedUnitary(n, n // 2) for n in (6, 10, 20, 40)]
    + [GinibreProduct(n, 1) for n in (5, 10, 20, 40)]
)
LADDER_REPS = 300


def _reference_cdf(spec):
    p = spec.p if isinstance(spec, TruncatedUnitary) else None
    return lambda r: _ref().finite_n_cdf(_family(spec), spec.n, r, p)


def _batch_problem(spec, reps: int, batch, program_ks=None) -> "str | None":
    """Batch shape, then KS against the exact finite-n cdf computed apart;
    the program's own KS statistic, if given, must equal ours."""
    if batch.statistics.shape != (reps,):
        return f"batch shape {batch.statistics.shape}, expected ({reps},)"
    ref = _ref()
    d = ref.ks_distance(_radii(spec, batch), _reference_cdf(spec))
    return _first_problem(
        _fail_if(d > ref.dkw_threshold(reps),
                 f"KS {d:.5f} to the exact cdf above {ref.dkw_threshold(reps):.5f}"),
        _fail_if(program_ks is not None and abs(program_ks - d) > 1e-9,
                 f"program KS {program_ks!r} differs from {d!r}"),
    )


def _sample_and_ks(spec, reps, seed, tracer) -> Op:
    def run(_):
        batch = samplers.run_monte_carlo(spec, reps, seed)
        radii = samplers.SampleBatch(spec=spec, statistics=_radii(spec, batch),
                                     seed=batch.seed, reps=batch.reps)
        reference = tracer.wrap("ks.reference", exact_cdf.exact_cdf_fn(spec))
        return batch, stats.ks_statistic(radii, reference)

    return Op(f"ks {spec}", run,
              lambda out, _: _batch_problem(spec, reps, out[0], out[1].statistic))


def finite_n_ops(seed: int, rnd: int, tracer) -> list[Op]:
    ops = []
    for i, (spec, reps) in enumerate(FINITE_N_SPECS):
        ops.append(_sample_and_ks(spec, reps, sub_seed(seed, rnd, i), tracer))
    for i, spec in enumerate(LADDER_SPECS):
        s = sub_seed(seed, rnd, 100 + i)
        ops.append(Op(
            f"ladder {spec}",
            lambda _, spec=spec, s=s: samplers.run_monte_carlo(spec, LADDER_REPS, s),
            lambda batch, _, spec=spec: _batch_problem(spec, LADDER_REPS, batch),
        ))
    return ops


# --- product_regimes ------------------------------------------------------------

# (label, spec, replicates, limit law, reference law name)
REGIMES = [
    ("gumbel", GinibreProduct(400, 1), 10_000, GUMBEL, "gumbel"),
    ("phi_0.01", GinibreProduct(400, 4), 10_000, ProductLaw(0.01), "phi_0.01"),
    ("phi_1", GinibreProduct(50, 50), 10_000, ProductLaw(1.0), "phi_1"),
    ("normal", GinibreProduct(50, 500), 2_000, STANDARD_NORMAL, "normal"),
]
# KS allowance for the finite-n gap of GinibreProduct(50, 500) to the normal
# limit; acceptance criterion 9 measures the whole KS at 0.006 (20,000 reps)
NORMAL_GAP = 0.02


def _regime_batch_problem(label, spec, reps, values) -> "str | None":
    """Is the normalized batch distributed as the finite-n law?  Each
    regime's normalization is undone with the paper's formulas."""
    ref = _ref()
    n, k = spec.n, spec.k
    if label == "gumbel":
        alpha_n, beta_n = ref.small_k_constants(n, k)
        radii = np.sqrt(n ** k * (1.0 + (values + beta_n) / alpha_n))
        d = ref.ks_distance(radii, lambda r: ref.finite_n_cdf("product_k1", n, r))
        limit = ref.dkw_threshold(reps)
        what = "the exact k=1 cdf"
    elif label == "normal":
        d = ref.ks_distance(values, lambda x: ref.law_cdf("normal", x))
        limit = ref.dkw_threshold(reps) + NORMAL_GAP
        what = "the normal limit"
    else:
        log_radii = np.log(values) + 0.5 * k * math.log(n)
        with np.load(REFERENCE_SAMPLE) as stored:
            sample = stored[f"product_{n}_{k}"]
        d = ref.ks_two_sample(log_radii, sample)
        limit = ref.two_sample_threshold(reps, sample.size)
        what = "the stored reference sample"
    return _fail_if(d > limit, f"KS {d:.5f} to {what} above {limit:.5f}")


def product_regimes_ops(seed: int, rnd: int, tracer) -> list[Op]:
    ops = []
    for i, (label, spec, reps, law, law_name) in enumerate(REGIMES):
        s = sub_seed(seed, rnd, i)

        def run(_, spec=spec, reps=reps, law=law, s=s):
            batch = stats.normalized_batch(spec, reps, s, law)
            reference = tracer.wrap("ks.reference", stats.law_cdf_fn(law))
            return batch, stats.ks_statistic(batch, reference)

        def check(out, _, label=label, spec=spec, reps=reps, law_name=law_name):
            batch, report = out
            ref = _ref()
            mine = ref.ks_distance(batch.statistics, lambda x: ref.law_cdf(law_name, x))
            return _first_problem(
                _fail_if(batch.statistics.shape != (reps,), "wrong batch shape"),
                _regime_batch_problem(label, spec, reps, batch.statistics),
                _fail_if(abs(report.statistic - mine) > 1e-9,
                         f"program KS {report.statistic!r} to {law_name} differs from {mine!r}"),
            )

        ops.append(Op(f"regime {label} {spec}", run, check))
    return ops


# --- exact_curves ---------------------------------------------------------------

# (label, spec, limit law of the normalized radius)
CURVES = [
    ("spherical_2e3", Spherical(2_000), "spherical_h"),
    ("spherical_1e6", Spherical(10**6), "spherical_h"),
    ("truncated_2e4", TruncatedUnitary(20_000, 10_000), "gumbel"),
    ("truncated_1e6", TruncatedUnitary(10**6, 5 * 10**5), "gumbel"),
    ("product_k1_1e4", GinibreProduct(10**4, 1), "gumbel"),
    ("product_k1_1e6", GinibreProduct(10**6, 1), "gumbel"),
    ("product_k2_20", GinibreProduct(20, 2), "gumbel"),
    ("product_k2_100", GinibreProduct(100, 2), "gumbel"),
]
CURVE_POINTS = 100
WIDE_POINTS = 200
# points per curve compared with the reference factor products
CHECKED_POINTS = 8
WIDE_SPEC = GinibreProduct(10**6, 1)
# the k=2 upper tail where the program's incomplete-gamma helper overflows
TAIL_SPEC, TAIL_RADIUS = GinibreProduct(400, 2), 500.0


def _reference_log_cdf(spec, r: float) -> float:
    ref = _ref()
    family = _family(spec)
    if family == "spherical":
        return ref.spherical_log_cdf(spec.n, r)
    if family == "truncated":
        return ref.truncated_log_cdf(spec.n, spec.p, r)
    if family == "product_k1":
        return ref.product_k1_log_cdf(spec.n, r)
    return float(ref.product_k2_log_cdf_bessel(spec.n, [r])[0])


def _curve_problem(spec, radii, values) -> "str | None":
    """Values in [0, 1], nondecreasing (to the 1e-12 that CdfCurve allows),
    and equal to the factor products computed apart at a subset of points."""
    values = np.asarray(values, dtype=float)
    if values.shape != radii.shape or np.any((values < 0.0) | (values > 1.0)):
        return "values outside [0, 1] or misshapen"
    if np.any(np.diff(values) < -1e-12):
        return f"values decrease by {-float(np.min(np.diff(values))):.3g}"
    checked = np.linspace(0, len(radii) - 1, CHECKED_POINTS).astype(int)
    with np.errstate(divide="ignore"):
        return _first_problem(*(_log_cdf_problem(spec, float(radii[i]), float(np.log(values[i])))
                                for i in checked))


def _log_cdf_problem(spec, r: float, got: float, expected: "float | None" = None) -> "str | None":
    if expected is None:
        expected = _reference_log_cdf(spec, r)
    return _fail_if(not _ref().log_cdf_agrees(got, expected),
                    f"log cdf at r={r!r} is {got!r}, reference {expected!r}")


def _constants_problem(spec, constants) -> "str | None":
    """The program's norming constants against the paper's formulas."""
    ref = _ref()
    if isinstance(spec, Spherical):
        want = (0.0, math.sqrt(spec.n))
    elif isinstance(spec, TruncatedUnitary):
        want = ref.truncated_constants(spec.n, spec.p)
    else:
        alpha_n, beta_n = ref.small_k_constants(spec.n, spec.k)
        want = (1.0 + beta_n / alpha_n, 1.0 / alpha_n)
    got = (constants.shift, constants.scale)
    return _fail_if(not np.allclose(got, want, rtol=1e-12, atol=0.0),
                    f"norming constants {got} differ from {want}")


def _radii_for(spec, constants, grid: np.ndarray) -> np.ndarray:
    """Radii whose normalized statistic is the grid: the inverse of
    norming.normalize (product radii through the log-space map)."""
    affine = constants.shift + constants.scale * grid
    if constants.pre_transform is norming.PreTransform.LOG_SPACE:
        aux = constants.aux
        return np.exp(aux["log_shift"] + np.log(np.maximum(affine, 1e-300)) / aux["log_multiplier"])
    if isinstance(spec, TruncatedUnitary):
        return np.clip(affine, 0.0, 1.0)
    return affine


def _grid_problem(law_name: str, lo: float, grid) -> "str | None":
    ref = _ref()
    grid = np.asarray(grid, dtype=float)
    if grid.shape != (CURVE_POINTS,) or np.any(np.diff(grid) <= 0.0):
        return "grid misshapen or not increasing"
    ends = ref.law_cdf(law_name, grid[[0, -1]])
    return _fail_if(np.max(np.abs(ends - [lo, 1.0 - lo])) > 1e-9,
                    f"grid ends carry mass {ends}, expected {lo} and {1 - lo}")


def exact_curves_ops(seed: int, rnd: int, tracer) -> list[Op]:
    u = _uniforms(seed, rnd, size=2)
    lows = {"spherical_h": 1e-4 * (1.0 + 0.5 * u[0]), "gumbel": 1e-4 * (1.0 + 0.5 * u[1])}
    laws = {"spherical_h": SPHERICAL_H, "gumbel": GUMBEL}
    ops = []
    for name, law in laws.items():
        ops.append(Op(
            f"grid {name}",
            lambda _, law=law, lo=lows[name]: stats.mass_span_grid(law, CURVE_POINTS, lo),
            lambda grid, _, name=name: _grid_problem(name, lows[name], grid),
        ))
        ops.append(Op(
            f"limit {name}",
            lambda res, law=law, name=name: limit_laws.cdf_values(law, res[f"grid {name}"]),
            lambda values, res, name=name: _fail_if(
                np.max(np.abs(values - _ref().law_cdf(name, res[f"grid {name}"]))) > 1e-9,
                f"{name} limit values differ from the reference"),
        ))
    for label, spec, law_name in CURVES:
        def run(res, spec=spec, law_name=law_name):
            constants = norming.norming_for(spec, norming.SmallK())
            grid = res[f"grid {law_name}"]
            radii = _radii_for(spec, constants, grid)
            curve = exact_cdf.cdf_curve(spec, radii)
            gap = float(np.max(np.abs(curve.values - res[f"limit {law_name}"])))
            return constants, radii, curve, gap

        def check(out, _, spec=spec):
            constants, radii, curve, gap = out
            # the spherical curves approach H fast (criterion 5 bounds the
            # gap at n = 2000 by 0.02); the Gumbel approach is logarithmic
            return _first_problem(
                _constants_problem(spec, constants),
                _curve_problem(spec, radii, curve.values),
                _fail_if(isinstance(spec, Spherical) and gap > 0.02,
                         f"sup gap {gap:.4f} to H above 0.02"),
            )

        ops.append(Op(f"curve {label}", run, check))

    wide = math.sqrt(WIDE_SPEC.n) * np.linspace(0.9, 1.2, WIDE_POINTS)
    ops.append(Op(
        "curve product_k1_1e6 wide",
        lambda _: exact_cdf.cdf_curve(WIDE_SPEC, wide),
        lambda curve, _: _curve_problem(WIDE_SPEC, wide, curve.values),
    ))
    ops.append(Op(
        "k2 upper tail n=400 r=500",
        lambda _: exact_cdf.exact_log_cdf(TAIL_SPEC, np.array([TAIL_RADIUS])),
        lambda log_v, _: _log_cdf_problem(
            TAIL_SPEC, TAIL_RADIUS, float(log_v[0]),
            _ref().product_k2_log_cdf_quad(TAIL_SPEC.n, TAIL_RADIUS)),
        expected_failure=True,
    ))
    return ops


# --- limit_tables ---------------------------------------------------------------

LAWS = [
    ("spherical_h", SPHERICAL_H),
    ("phi_0.01", ProductLaw(0.01)),
    ("phi_1", ProductLaw(1.0)),
    ("normal", STANDARD_NORMAL),
]
LEVELS = 5_000
SCALAR_LEVELS = 50
DRAWS = 2_000
QQ_POINTS = 200
TABLE_POINTS = 2_000
# law name -> (CLI law arguments, plain grid, tail grid); tail grids need x > 1,
# and the plain H grid stays above x = 0.06, where the scalar H loop stalls
TABLES = {
    "spherical_h": (["--law", "spherical-h"], (0.1, 20.0), (1.5, 30.0)),
    "phi_0.01": (["--law", "product-alpha", "--alpha", "0.01"], (0.7, 1.5), (1.05, 1.5)),
    "phi_1": (["--law", "product-alpha", "--alpha", "1"], (0.1, 20.0), (1.5, 60.0)),
    "normal": (["--law", "normal"], (-6.0, 6.0), (1.5, 8.0)),
}


def _round_trip_problem(law_name: str, q, x, tol: float = 1e-9) -> "str | None":
    ref = _ref()
    q = np.asarray(q, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape != q.shape:
        return f"{x.shape} quantiles for {q.shape} levels"
    err = np.abs(ref.law_cdf(law_name, x) - q)
    if law_name == "normal":
        from scipy import special

        z = special.ndtri(q)
        pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        if np.any(np.abs(x - z) > tol / pdf + 1e-12):
            return "normal quantiles differ from ndtri"
    return _fail_if(float(np.max(err)) > tol,
                    f"|F(Q(q)) - q| reaches {float(np.max(err)):.3g}")


def _run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"specrad {' '.join(argv)} exited {code}")
    return out.getvalue()


def _table_problem(law_name: str, grid: tuple, with_tail: bool, text: str) -> "str | None":
    ref = _ref()
    lines = text.splitlines()
    header = "x,cdf,tail" if with_tail else "x,cdf"
    if lines[0] != header or len(lines) != TABLE_POINTS + 1:
        return f"table header {lines[0]!r} with {len(lines) - 1} rows"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    x = rows[:, 0]
    if not np.array_equal(x, np.linspace(grid[0], grid[1], TABLE_POINTS)):
        return "x column is not the requested grid"
    err = float(np.max(np.abs(rows[:, 1] - ref.law_cdf(law_name, x))))
    if err > 1e-10:
        return f"cdf column off the reference by {err:.3g}"
    if not with_tail:
        return None
    asymptote = ref.tail_asymptote(law_name, x)
    if np.any(np.abs(rows[:, 2] - asymptote) > 1e-12 * asymptote):
        return "tail column differs from the asymptote formula"
    ratio = ref.law_upper_tail(law_name, x[[0, -1]]) / asymptote[[0, -1]]
    return _fail_if(not abs(ratio[1] - 1.0) < abs(ratio[0] - 1.0),
                    f"tail/asymptote ratio {ratio[0]:.4f} -> {ratio[1]:.4f} does not move toward 1")


def limit_tables_ops(seed: int, rnd: int, tracer) -> list[Op]:
    levels = _stratified(seed, rnd, 0, size=LEVELS)
    scalar_levels = _stratified(seed, rnd, 1, size=SCALAR_LEVELS)
    jitter = _uniforms(seed, rnd, 2, size=len(LAWS) + 1)
    lo = 1e-4 * (1.0 + 0.5 * jitter[-1])
    ops = []
    for i, (name, law) in enumerate(LAWS):
        draw_seed = sub_seed(seed, rnd, 10 + i)
        ops += [
            Op(f"quantiles {name}",
               lambda _, law=law: limit_laws.quantiles(law, levels),
               lambda x, _, name=name: _round_trip_problem(name, levels, x)),
            Op(f"draws {name}",
               lambda _, law=law, s=draw_seed: limit_laws.sample_limit_batch(
                   law, samplers.RandomStream(s, 0), DRAWS),
               lambda x, _, name=name: _fail_if(
                   _ref().ks_distance(x, lambda v: _ref().law_cdf(name, v))
                   > _ref().dkw_threshold(DRAWS), f"{name} draws fail KS")),
            # qq_points reads only the batch's statistics, so no ensemble is named
            Op(f"qq {name}",
               lambda res, law=law, name=name: stats.qq_points(
                   samplers.SampleBatch(spec=None, statistics=res[f"draws {name}"],
                                        seed=0, reps=DRAWS), law, QQ_POINTS),
               lambda qq, res, name=name: _qq_problem(name, qq, res[f"draws {name}"])),
            Op(f"scalar quantile {name}",
               lambda _, law=law: [limit_laws.quantile(law, float(q)) for q in scalar_levels],
               lambda x, _, name=name: _round_trip_problem(name, scalar_levels, x)),
            Op(f"mass span {name}",
               lambda _, law=law: stats.mass_span_grid(law, CURVE_POINTS, lo),
               lambda grid, _, name=name: _round_trip_problem(
                   name, [lo, 1.0 - lo], np.asarray(grid)[[0, -1]])),
        ]
        law_args, plain, tail = TABLES[name]
        for with_tail, (a, b) in ((False, plain), (True, tail)):
            grid = (a, float(b * (1.0 + 0.05 * jitter[i])))
            argv = ["cdf", *law_args, f"--grid={grid[0]!r}:{grid[1]!r}:{TABLE_POINTS}"]
            argv += ["--with-tail"] if with_tail else []
            ops.append(Op(
                f"cli {' '.join(argv)}",
                lambda _, argv=argv: _run_cli(argv),
                lambda text, _, name=name, grid=grid, t=with_tail: _table_problem(
                    name, grid, t, text),
            ))
    return ops


def _qq_problem(law_name: str, qq, draws) -> "str | None":
    qq = np.asarray(qq, dtype=float)
    if qq.shape != (QQ_POINTS, 2):
        return f"qq shape {qq.shape}"
    levels = (np.arange(1, QQ_POINTS + 1) - 0.5) / QQ_POINTS
    ordered = np.sort(np.asarray(draws, dtype=float))
    empirical = ordered[np.ceil(levels * ordered.size).astype(int) - 1]
    return _first_problem(
        _round_trip_problem(law_name, levels, qq[:, 0]),
        _fail_if(not np.array_equal(qq[:, 1], empirical), "empirical qq column is off"),
    )


WORKLOADS = {
    "finite_n": finite_n_ops,
    "product_regimes": product_regimes_ops,
    "exact_curves": exact_curves_ops,
    "limit_tables": limit_tables_ops,
}

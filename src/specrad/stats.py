"""Empirical-distribution utilities and goodness-of-fit reporting.

Glue between the samplers, the exact finite-n cdfs, and the limit laws:
one-sample Kolmogorov-Smirnov reports, empirical cdfs, QQ pairs, and the
convergence tables that operationalize the weak-convergence statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import exact_cdf, limit_laws
from .limit_laws import (
    Gumbel,
    LimitLaw,
    ProductLaw,
    SphericalH,
    StandardNormal,
)
from .norming import (
    EnsembleSpec,
    GinibreProduct,
    LargeK,
    ProportionalK,
    SmallK,
    Spherical,
    TruncatedUnitary,
    _denormalize,
    norming_for,
    normalize,
)
from .samplers import SampleBatch, run_monte_carlo

__all__ = [
    "KsReport",
    "empirical_cdf",
    "ks_statistic",
    "convergence_table",
    "qq_points",
    "mass_span_grid",
    "law_cdf_fn",
    "normalized_batch",
]


@dataclass(frozen=True)
class KsReport:
    """One-sample two-sided KS comparison against an evaluable cdf."""

    statistic: float
    location: float
    reps: int
    critical_005: float
    reference: str

    def __post_init__(self):
        if not (0.0 <= self.statistic <= 1.0):
            raise ValueError(f"statistic must lie in [0, 1], got {self.statistic}")
        expected = 1.358 / math.sqrt(self.reps)
        if not math.isclose(self.critical_005, expected, rel_tol=1e-12):
            raise ValueError("critical_005 must equal 1.358/sqrt(reps)")


def empirical_cdf(batch: SampleBatch) -> Callable[[float], float]:
    """Right-continuous empirical cdf of the batch.

    Queries cost O(log reps) after one O(reps log reps) sort; scalar and
    array arguments are both accepted, and a NaN query raises ValueError.
    """
    values = np.asarray(batch.statistics, dtype=float)
    if values.size == 0:
        raise ValueError("empirical_cdf requires a non-empty batch")
    ordered = np.sort(values)
    n = ordered.size

    def cdf(x):
        scalar = np.isscalar(x)
        x = np.asarray(x, dtype=float)
        if np.any(np.isnan(x)):
            raise ValueError("x must not be NaN")
        counts = np.searchsorted(ordered, x, side="right")
        result = counts / n
        return float(result) if scalar else result

    return cdf


def _reference_label(reference_cdf) -> str:
    label = getattr(reference_cdf, "description", None)
    if label:
        return str(label)
    name = getattr(reference_cdf, "__name__", None)
    if name and name != "<lambda>":
        return name
    return repr(reference_cdf)


def _eval_reference(reference_cdf, xs: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(reference_cdf(xs), dtype=float)
        if vals.shape == xs.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(reference_cdf(float(x))) for x in xs])


def ks_statistic(batch: SampleBatch, reference_cdf) -> KsReport:
    """Two-sided KS distance between the batch and an evaluable cdf.

    D = max_i max(i/N - F(x_(i)), F(x_(i)) - (i-1)/N) over the order
    statistics; the maximizing order statistic is recorded as location.
    """
    values = np.asarray(batch.statistics, dtype=float)
    if values.size == 0:
        raise ValueError("ks_statistic requires a non-empty batch")
    ordered = np.sort(values)
    n = ordered.size
    f = _eval_reference(reference_cdf, ordered)
    drops = np.diff(f)
    if np.any(drops < -1e-12):
        worst = float(np.min(drops))
        raise ValueError(
            f"reference cdf decreases by {-worst:.3g} across consecutive order "
            "statistics; KS needs a monotone reference"
        )
    i = np.arange(1, n + 1)
    upper = i / n - f
    lower = f - (i - 1) / n
    gaps = np.maximum(upper, lower)
    at = int(np.argmax(gaps))
    return KsReport(
        statistic=float(gaps[at]),
        location=float(ordered[at]),
        reps=n,
        critical_005=1.358 / math.sqrt(n),
        reference=_reference_label(reference_cdf),
    )


def law_cdf_fn(law: LimitLaw, tol: float = 1e-10) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized x -> cdf callable for a limit law, labelled for reports."""

    def fn(x):
        return limit_laws.cdf_values(law, np.asarray(x, dtype=float), tol)

    fn.description = _law_label(law)
    return fn


def _law_label(law: LimitLaw) -> str:
    if isinstance(law, SphericalH):
        return "SphericalH"
    if isinstance(law, Gumbel):
        return "Gumbel"
    if isinstance(law, ProductLaw):
        return f"ProductLaw(alpha={law.alpha:g})"
    if isinstance(law, StandardNormal):
        return "StandardNormal"
    return repr(law)


def _regime_for_law(spec: GinibreProduct, law: LimitLaw):
    if isinstance(law, Gumbel):
        return SmallK()
    if isinstance(law, StandardNormal):
        return LargeK()
    if isinstance(law, ProductLaw):
        alpha = spec.k / spec.n
        if not math.isclose(law.alpha, alpha, rel_tol=1e-9, abs_tol=0.0):
            raise ValueError(
                f"ProductLaw alpha {law.alpha} does not match k/n = {alpha} "
                f"for {spec!r}"
            )
        return ProportionalK(alpha=alpha)
    raise ValueError(f"no product-ensemble regime matches law {law!r}")


def _check_law_family(spec: EnsembleSpec, law: LimitLaw):
    if isinstance(spec, Spherical):
        if not isinstance(law, SphericalH):
            raise ValueError("spherical ensembles converge to the SphericalH law")
        return None
    if isinstance(spec, TruncatedUnitary):
        if not isinstance(law, Gumbel):
            raise ValueError("truncated ensembles converge to the Gumbel law")
        return None
    if isinstance(spec, GinibreProduct):
        return _regime_for_law(spec, law)
    raise ValueError(f"unknown ensemble spec: {spec!r}")


def normalized_batch(spec: EnsembleSpec, reps: int, seed: int, law: LimitLaw,
                     workers: int | None = None, budget=None) -> SampleBatch:
    """Sample a spec and normalize its statistics toward the given law.

    workers is passed to run_monte_carlo: the default (None) samples on every
    CPU this process may run on, and the batch is the same for any value.
    """
    regime = _check_law_family(spec, law)
    constants = norming_for(spec, regime)
    raw = run_monte_carlo(spec, reps, seed, workers=workers, budget=budget)
    values = normalize(spec, constants, raw.statistics)
    return SampleBatch(spec=spec, statistics=values, seed=raw.seed, reps=raw.reps)


def convergence_table(
    specs: Sequence[EnsembleSpec],
    law: LimitLaw,
    reps: int,
    seed: int,
    workers: int | None = None,
    budget=None,
) -> list[tuple[EnsembleSpec, KsReport]]:
    """KS distance to the limit law for each spec, rows in input order.

    All specs must share one ensemble family and the law must match it
    (ProductLaw alpha is validated against k/n).  Each spec is sampled by
    normalized_batch with the given workers; the default (None) uses every
    CPU this process may run on, and the rows do not depend on it.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("convergence_table requires at least one spec")
    families = {type(s) for s in specs}
    if len(families) > 1:
        raise ValueError(f"specs mix ensemble families: {sorted(t.__name__ for t in families)}")
    reference = law_cdf_fn(law)
    rows = []
    for spec in specs:
        batch = normalized_batch(spec, reps, seed, law, workers=workers, budget=budget)
        rows.append((spec, ks_statistic(batch, reference)))
    return rows


def qq_points(batch: SampleBatch, law: LimitLaw, count: int) -> np.ndarray:
    """(count, 2) array of (theoretical, empirical) quantile pairs at the
    levels (i - 1/2)/count for i = 1..count."""
    if int(count) != count or count < 1:
        raise ValueError(f"count must be a positive integer, got {count}")
    count = int(count)
    if count > batch.reps:
        raise ValueError(f"count {count} exceeds batch reps {batch.reps}")
    levels = (np.arange(1, count + 1) - 0.5) / count
    theoretical = limit_laws.quantiles(law, levels)
    empirical = np.quantile(
        np.asarray(batch.statistics, dtype=float), levels, method="inverted_cdf"
    )
    return np.column_stack([theoretical, empirical])


def mass_span_grid(law: LimitLaw, points: int = 200, lo: float = 1e-4,
                   hi: float | None = None) -> np.ndarray:
    """Evaluation grid spanning the law's cdf mass [lo, 1-lo].

    Laws supported on (0, inf) get log-spaced points; laws whose support
    crosses 0 (Gumbel, StandardNormal) get the same construction after the
    natural exponential change of variable, which is linear spacing in x.
    """
    if hi is None:
        hi = 1.0 - lo
    x_lo = limit_laws.quantile(law, lo)
    x_hi = limit_laws.quantile(law, hi)
    if x_lo > 0.0:
        return np.geomspace(x_lo, x_hi, points)
    return np.linspace(x_lo, x_hi, points)


def _exact_limit_gap(spec: EnsembleSpec, law: LimitLaw, grid=None) -> float:
    """sup over the grid (default mass_span_grid(law)) of |F_n - F|, F the
    limit cdf and F_n the exact cdf of the normalized statistic (family and
    regime checked as in normalized_batch), read at the sampler's statistic
    (the log radius for products) that each grid point denormalizes to."""
    grid = mass_span_grid(law) if grid is None else np.asarray(grid, dtype=float)
    raw = _denormalize(norming_for(spec, _check_law_family(spec, law)), grid)
    finite = exact_cdf._cdf_from_log(exact_cdf._statistic_log_cdf(spec, raw))
    return float(np.max(np.abs(finite - limit_laws.cdf_values(law, grid))))

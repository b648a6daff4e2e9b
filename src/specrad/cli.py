"""Command-line surface: exact/limit cdf evaluation, ensemble sampling,
KS reports, convergence tables, and norming constants.

Machine-readable output only: CSV (comma, LF) or a single JSON document on
stdout (or --output); diagnostics go to stderr. Exit codes: 0 success,
2 validation, 3 work-budget excess, 4 numeric non-convergence.

Every subcommand computes all of its values before it hands them to the
one writer, ``_write``, which picks the format; so a failing invocation
prints nothing and creates no --output file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time

import numpy as np

from . import limit_laws, norming, stats
from .errors import NonConvergenceError, WorkBudgetError
from .limit_laws import GUMBEL, SPHERICAL_H, STANDARD_NORMAL, ProductLaw
from .norming import (
    GinibreProduct,
    LargeK,
    ProportionalK,
    SmallK,
    Spherical,
    TruncatedUnitary,
    default_regime,
)
from .samplers import DEFAULT_WORK_BUDGET, run_monte_carlo

__all__ = ["main"]


def _fmt(x: float) -> str:
    """Shortest round-trip decimal; integral values lose the trailing .0."""
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _default_seed() -> int:
    raw = os.environ.get("SPECRAD_SEED", "")
    if not raw:
        return 0
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"SPECRAD_SEED must be an integer, got {raw!r}") from exc


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise ValueError(f"grid must look like lo:hi:steps, got {text!r}") from exc
    if steps < 1:
        raise ValueError(f"grid needs at least one step, got {steps}")
    if hi < lo:
        raise ValueError(f"grid upper end {hi} is below lower end {lo}")
    return np.linspace(lo, hi, steps)


def _build_spec(ensemble: str, n: int, p: int | None, k: int | None):
    if ensemble == "spherical":
        return Spherical(n)
    if ensemble == "truncated":
        if p is None:
            raise ValueError("truncated ensemble requires --p")
        return TruncatedUnitary(n, p)
    if ensemble == "product":
        if k is None:
            raise ValueError("product ensemble requires --k")
        return GinibreProduct(n, k)
    raise ValueError(f"unknown ensemble {ensemble!r}")


def _parse_regime(name: str, spec):
    if name == "auto":
        if isinstance(spec, GinibreProduct):
            return default_regime(spec.n, spec.k)
        return None
    if not isinstance(spec, GinibreProduct):
        raise ValueError("--regime applies only to the product ensemble")
    if name == "small-k":
        return SmallK()
    if name == "large-k":
        return LargeK()
    if name == "proportional":
        return ProportionalK(alpha=spec.k / spec.n)
    raise ValueError(f"unknown regime {name!r}")


def _law_from_name(name: str, alpha: float | None):
    if name == "product-alpha":
        if alpha is None:
            raise ValueError("--law product-alpha requires --alpha")
        return ProductLaw(alpha=alpha)
    if alpha is not None:
        raise ValueError("--alpha applies only to --law product-alpha")
    if name == "spherical-h":
        return SPHERICAL_H
    if name == "gumbel":
        return GUMBEL
    if name == "normal":
        return STANDARD_NORMAL
    raise ValueError(f"unknown law {name!r}")


def _resolve_law(args, spec):
    """(law object, law name) for a sampled ensemble; auto follows the
    family and, for products, the selected or default regime.  An explicit
    law sets the regime, so an explicit --regime must be the law's own;
    --alpha needs --law product-alpha, so auto with --alpha raises."""
    regime = _parse_regime(args.regime, spec)
    if args.law != "auto" or args.alpha is not None:
        law = _law_from_name(args.law, args.alpha)
        if args.regime != "auto" and stats._check_law_family(spec, law) != regime:
            raise ValueError(f"--law {args.law} does not follow from --regime {args.regime}")
        return law, args.law
    if isinstance(spec, Spherical):
        return SPHERICAL_H, "spherical-h"
    if isinstance(spec, TruncatedUnitary):
        return GUMBEL, "gumbel"
    if isinstance(regime, SmallK):
        return GUMBEL, "gumbel"
    if isinstance(regime, LargeK):
        return STANDARD_NORMAL, "normal"
    return ProductLaw(alpha=regime.alpha), "product-alpha"


def _output(path: str | None):
    """The --output file, or stdout (left open) when there is no path."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write(args, json_line, csv_lines) -> int:
    """Write a computed result in the chosen --format to --output or stdout:
    json_line() returns the single JSON line, csv_lines() the CSV lines,
    header included; each line is ended with LF."""
    with _output(args.output) as out:
        if args.format == "json":
            out.write(json_line() + "\n")
        else:
            for line in csv_lines():
                out.write(line + "\n")
    return 0


def _json_17g(pairs: list[tuple[str, object]]) -> str:
    """One-line JSON object with floats at 17 significant digits."""
    parts = []
    for key, value in pairs:
        if isinstance(value, float):
            rendered = _fmt17(value)
        elif isinstance(value, int):
            rendered = str(value)
        else:
            rendered = json.dumps(value)
        parts.append(f"{json.dumps(key)}: {rendered}")
    return "{" + ", ".join(parts) + "}"


def _ensemble_doc(spec) -> dict:
    doc = {"family": spec.family, "n": spec.n}
    if isinstance(spec, TruncatedUnitary):
        doc["p"] = spec.p
    if isinstance(spec, GinibreProduct):
        doc["k"] = spec.k
    return doc


# --- subcommands ------------------------------------------------------------


def cmd_cdf(args) -> int:
    if args.law == "auto":
        raise ValueError("cdf evaluates a law directly; pick one (not auto)")
    law = _law_from_name(args.law, args.alpha)
    grid = _parse_grid(args.grid)
    values = []
    tails = []
    for x in grid:
        cv = limit_laws.cdf(law, float(x), args.tol)
        values.append(cv.value)
        if args.with_tail:
            tails.append(limit_laws.tail_asymptote(law, float(x)))
    columns = {"x": [float(v) for v in grid], "cdf": values}
    if args.with_tail:
        columns["tail"] = tails
    return _write(args, lambda: json.dumps({"law": args.law, **columns}), lambda: [
        ",".join(columns),
        *(",".join(map(_fmt, row)) for row in zip(*columns.values())),
    ])


def cmd_sample(args) -> int:
    spec = _build_spec(args.ensemble, args.n, args.p, args.k)
    regime = _parse_regime(args.regime, spec)
    constants = norming.norming_for(spec, regime)
    batch = run_monte_carlo(
        spec, args.reps, args.seed, workers=args.workers, budget=args.budget
    )
    normalized = norming.normalize(spec, constants, batch.statistics)
    log_space = isinstance(spec, GinibreProduct)

    # only the chosen format is built, and CSV a line at a time: a batch can be large
    def csv_lines():
        if log_space:
            yield "# raw=log_radius"
        yield "replicate,raw,normalized"
        for i in range(batch.reps):
            yield f"{i},{_fmt(batch.statistics[i])},{_fmt(normalized[i])}"

    return _write(args, lambda: json.dumps({
        "ensemble": _ensemble_doc(spec),
        "seed": args.seed,
        "reps": args.reps,
        "raw_unit": "log_radius" if log_space else "radius",
        "raw": [float(v) for v in batch.statistics],
        "normalized": [float(v) for v in normalized],
    }), csv_lines)


def _ks_row(spec, law, args):
    start = time.perf_counter()
    batch = stats.normalized_batch(
        spec, args.reps, args.seed, law, workers=args.workers, budget=args.budget
    )
    report = stats.ks_statistic(batch, stats.law_cdf_fn(law))
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return report, runtime_ms


def cmd_ks(args) -> int:
    spec = _build_spec(args.ensemble, args.n, args.p, args.k)
    law, law_name = _resolve_law(args, spec)
    report, runtime_ms = _ks_row(spec, law, args)
    doc = {
        "ensemble": _ensemble_doc(spec),
        "law": law_name,
        "reps": report.reps,
        "seed": args.seed,
        "ks": {
            "statistic": report.statistic,
            "location": report.location,
            "critical_005": report.critical_005,
        },
        "runtime_ms": runtime_ms,
    }
    if isinstance(law, ProductLaw):
        doc["alpha"] = law.alpha
    return _write(args, lambda: json.dumps(doc), lambda: [
        "ensemble,law,reps,seed,statistic,location,critical_005,runtime_ms",
        f"{spec.family},{law_name},{report.reps},{args.seed},"
        f"{_fmt(report.statistic)},{_fmt(report.location)},"
        f"{_fmt(report.critical_005)},{_fmt(runtime_ms)}",
    ])


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise ValueError(f"--n-list must be comma-separated integers, got {text!r}") from exc
    if not values:
        raise ValueError("--n-list must name at least one size")
    return values


def _k_for(n: int, rule: str) -> int:
    if rule == "equal-n":
        return n
    if rule.startswith("fixed:"):
        return int(rule.split(":", 1)[1])
    if rule.startswith("ratio:"):
        return max(1, round(float(rule.split(":", 1)[1]) * n))
    raise ValueError(f"unknown --k-rule {rule!r} (use equal-n, fixed:K, or ratio:R)")


def cmd_converge(args) -> int:
    sizes = _parse_n_list(args.n_list)
    specs = []
    for n in sizes:
        # each family reads only its own size rule, so a bad rule of another
        # family is never evaluated
        p = max(1, round(args.p_ratio * n)) if args.ensemble == "truncated" else None
        k = _k_for(n, args.k_rule) if args.ensemble == "product" else None
        specs.append(_build_spec(args.ensemble, n, p, k))
    law, law_name = _resolve_law(args, specs[0])
    rows = []
    for spec in specs:
        report, runtime_ms = _ks_row(spec, law, args)
        rows.append((spec.n, report, runtime_ms))
    doc = {
        "ensemble": args.ensemble,
        "law": law_name,
        "reps": args.reps,
        "seed": args.seed,
        "rows": [
            {
                "n": n,
                "ks": report.statistic,
                "critical_005": report.critical_005,
                "runtime_ms": runtime_ms,
            }
            for n, report, runtime_ms in rows
        ],
    }
    return _write(args, lambda: json.dumps(doc), lambda: [
        "n,ks,critical_005,runtime_ms",
        *(f"{n},{_fmt(report.statistic)},{_fmt(report.critical_005)},{_fmt(runtime_ms)}"
          for n, report, runtime_ms in rows),
    ])


def cmd_norming(args) -> int:
    spec = _build_spec(args.ensemble, args.n, args.p, args.k)
    regime = _parse_regime(args.regime, spec)
    constants = norming.norming_for(spec, regime)
    pairs: list[tuple[str, object]] = [
        ("pre_transform", constants.pre_transform.name.lower()),
        ("shift", float(constants.shift)),
        ("scale", float(constants.scale)),
    ]
    for key in sorted(constants.aux):
        pairs.append((key, float(constants.aux[key])))
    return _write(args, lambda: _json_17g(pairs), lambda: [
        ",".join(key for key, _ in pairs),
        ",".join(_fmt17(v) if isinstance(v, float) else str(v) for _, v in pairs),
    ])


# --- argument wiring --------------------------------------------------------


def _add_ensemble_flags(sub):
    sub.add_argument("--ensemble", required=True,
                     choices=["spherical", "truncated", "product"])
    sub.add_argument("--n", type=int, required=True, help="matrix size")
    sub.add_argument("--p", type=int, default=None, help="truncated block size")
    sub.add_argument("--k", type=int, default=None, help="number of product factors")
    sub.add_argument("--regime", default="auto",
                     choices=["auto", "small-k", "proportional", "large-k"],
                     help="product-ensemble normalization regime")


def _add_run_flags(sub):
    sub.add_argument("--reps", type=int, required=True, help="replicates")
    sub.add_argument("--seed", type=int, default=None,
                     help="master seed (default: SPECRAD_SEED or 0)")
    sub.add_argument("--workers", type=int, default=None,
                     help="max worker processes (default: every available CPU)")
    sub.add_argument("--budget", type=float, default=DEFAULT_WORK_BUDGET,
                     help="max scalar draws per invocation")


def _add_law_flags(sub):
    sub.add_argument("--law", default="auto",
                     choices=["auto", "spherical-h", "gumbel", "product-alpha", "normal"])
    sub.add_argument("--alpha", type=float, default=None,
                     help="alpha for --law product-alpha")


def _add_output_flags(sub, default_format):
    sub.add_argument("--output", default=None, help="path (default: stdout)")
    sub.add_argument("--format", default=default_format, choices=["csv", "json"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specrad",
        description="Spectral-radius laws of non-Hermitian random matrix "
                    "ensembles: exact cdfs, samplers, and limit fits.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p_cdf = subs.add_parser("cdf", help="evaluate a limit-law cdf on a grid")
    _add_law_flags(p_cdf)
    p_cdf.add_argument("--grid", required=True, help="lo:hi:steps")
    p_cdf.add_argument("--with-tail", action="store_true",
                       help="append the tail-asymptote column")
    p_cdf.add_argument("--tol", type=float, default=1e-12)
    _add_output_flags(p_cdf, "csv")
    p_cdf.set_defaults(func=cmd_cdf)

    p_sample = subs.add_parser("sample", help="draw spectral-radius replicates")
    _add_ensemble_flags(p_sample)
    _add_run_flags(p_sample)
    _add_output_flags(p_sample, "csv")
    p_sample.set_defaults(func=cmd_sample)

    p_ks = subs.add_parser("ks", help="KS report of a sampled batch vs a law")
    _add_ensemble_flags(p_ks)
    _add_law_flags(p_ks)
    _add_run_flags(p_ks)
    _add_output_flags(p_ks, "json")
    p_ks.set_defaults(func=cmd_ks)

    p_conv = subs.add_parser("converge", help="KS distance across a size ladder")
    p_conv.add_argument("--ensemble", required=True,
                        choices=["spherical", "truncated", "product"])
    p_conv.add_argument("--n-list", required=True, help="comma-separated sizes")
    p_conv.add_argument("--p-ratio", type=float, default=0.5,
                        help="truncated block fraction p/n")
    p_conv.add_argument("--k-rule", default="equal-n",
                        help="product factor rule: equal-n, fixed:K, or ratio:R")
    p_conv.add_argument("--regime", default="auto",
                        choices=["auto", "small-k", "proportional", "large-k"])
    _add_law_flags(p_conv)
    _add_run_flags(p_conv)
    _add_output_flags(p_conv, "csv")
    p_conv.set_defaults(func=cmd_converge)

    p_norm = subs.add_parser("norming", help="print norming constants")
    _add_ensemble_flags(p_norm)
    _add_output_flags(p_norm, "json")
    p_norm.set_defaults(func=cmd_norming)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        if hasattr(args, "budget") and args.budget is not None and args.budget <= 0:
            args.budget = None
        return args.func(args)
    except (WorkBudgetError, NonConvergenceError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, WorkBudgetError):
            return 3
        return 4 if isinstance(exc, NonConvergenceError) else 2


if __name__ == "__main__":
    sys.exit(main())

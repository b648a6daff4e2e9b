"""Spans around the calls into specrad's layers, recorded from outside.

A Tracer replaces each traced public function, in every specrad module
that holds it, by a wrapper that records a span (name, start, end, parent,
round, attributes).  Spans stay in memory; the caller writes them out at
the end.  A disabled tracer installs nothing and wraps nothing, so the
untraced runs call the program exactly as a user would.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np


def _spec_attrs(spec) -> dict:
    attrs = {"family": type(spec).__name__, "n": spec.n}
    if hasattr(spec, "k"):
        attrs["k"] = spec.k
    return attrs


def _law_name(law) -> str:
    name = type(law).__name__
    if name == "ProductLaw":
        return f"phi_{law.alpha:g}"
    return {"SphericalH": "spherical_h", "StandardNormal": "normal", "Gumbel": "gumbel"}[name]


# (module, function) -> attributes recorded from the call's arguments
TRACED = {
    ("samplers", "run_monte_carlo"):
        lambda spec, reps, *a, **k: {**_spec_attrs(spec), "reps": int(reps)},
    ("exact_cdf", "exact_log_cdf"):
        lambda spec, r, *a, **k: {**_spec_attrs(spec), "points": int(np.size(r))},
    ("limit_laws", "quantiles"): lambda law, *a, **k: {"law": _law_name(law)},
    ("limit_laws", "quantile"): lambda law, *a, **k: {"law": _law_name(law)},
    ("limit_laws", "cdf_values"): lambda law, *a, **k: {"law": _law_name(law)},
    ("limit_laws", "sample_limit_batch"): lambda law, *a, **k: {"law": _law_name(law)},
    ("stats", "ks_statistic"): lambda *a, **k: {},
    ("norming", "normalize"): lambda *a, **k: {},
    ("cli", "main"): lambda argv=None: {"command": argv[0] if argv else None},
}


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.round = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _record(self, name: str, attrs: dict, fn, args, kwargs):
        span = {"name": name, "round": self.round, "attrs": attrs,
                "parent": self._stack[-1] if self._stack else None}
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, attrs=lambda *a, **k: {}):
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, attrs(*args, **kwargs), fn, args, kwargs)

        return traced

    # -- installing into specrad -------------------------------------------

    def install(self) -> None:
        """Swap every traced function for its wrapper wherever a specrad
        module holds it (the package namespace and importing modules)."""
        if not self.enabled:
            return
        modules = [m for name, m in list(sys.modules.items())
                   if name == "specrad" or name.startswith("specrad.")]
        for (module_name, func_name), attrs in TRACED.items():
            original = getattr(sys.modules[f"specrad.{module_name}"], func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", original, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- reading ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures over the timed rounds 1..rounds-1 (round 0
        warms the program's caches, as in the end-to-end figures); times
        are per round, rates over all timed calls.  A layer the workload
        does not call reads 0."""
        dur = [s["end"] - s["start"] for s in self.spans]
        child_time = defaultdict(float)
        for s, d in zip(self.spans, dur):
            if s["parent"] is not None:
                child_time[s["parent"]] += d
        timed = [(i, s, d) for i, (s, d) in enumerate(zip(self.spans, dur)) if s["round"] >= 1]
        timed_rounds = rounds - 1

        def spans(name, pred=lambda s: True):
            return [(s, d) for _, s, d in timed if s["name"] == name and pred(s)]

        def per_round(name, pred=lambda s: True):
            return sum(d for _, d in spans(name, pred)) / timed_rounds

        def rate(name, pred, work, scale):
            picked = spans(name, pred)
            total = sum(work(s["attrs"]) for s, _ in picked)
            return scale * sum(d for _, d in picked) / total if total else 0.0

        long_run = lambda s: s["attrs"]["reps"] >= 1000
        short = [d for s, d in spans("samplers.run_monte_carlo") if s["attrs"]["reps"] < 1000]
        family = lambda fam, k=None: (lambda s: s["attrs"]["family"] == fam
                                      and (k is None or s["attrs"].get("k") == k))
        law = lambda name: (lambda s: s["attrs"]["law"] == name)
        ks_self = sum(d - child_time[i] for i, s, d in timed
                      if s["name"] == "stats.ks_statistic") / timed_rounds
        out = {
            "samplers.us_per_replicate": rate(
                "samplers.run_monte_carlo", long_run, lambda a: a["reps"], 1e6),
            "samplers.ns_per_draw": rate(
                "samplers.run_monte_carlo",
                lambda s: long_run(s) and s["attrs"]["family"] == "GinibreProduct",
                lambda a: a["reps"] * a["n"] * a["k"], 1e9),
            "samplers.short_call_ms": 1e3 * statistics.median(short) if short else 0.0,
            "exact_cdf.spherical_s": per_round("exact_cdf.exact_log_cdf", family("Spherical")),
            "exact_cdf.truncated_s": per_round("exact_cdf.exact_log_cdf",
                                               family("TruncatedUnitary")),
            "exact_cdf.product_k1_s": per_round("exact_cdf.exact_log_cdf",
                                                family("GinibreProduct", 1)),
            "exact_cdf.product_k2_s": per_round("exact_cdf.exact_log_cdf",
                                                family("GinibreProduct", 2)),
            "exact_cdf.us_per_point": rate("exact_cdf.exact_log_cdf", lambda s: True,
                                           lambda a: a["points"], 1e6),
            "limit_laws.quantiles_s": per_round("limit_laws.quantiles"),
        }
        for name in ("spherical_h", "phi_0.01", "phi_1", "normal"):
            out[f"limit_laws.quantiles_s.{name}"] = per_round("limit_laws.quantiles", law(name))
        out.update({
            "limit_laws.cdf_values_s": per_round("limit_laws.cdf_values"),
            "limit_laws.quantile_s": per_round("limit_laws.quantile"),
            "limit_laws.sample_limit_batch_s": per_round("limit_laws.sample_limit_batch"),
            "stats.ks_self_s": ks_self,
            "norming.normalize_s": per_round("norming.normalize"),
            "cli.cdf_s": per_round("cli.main", lambda s: s["attrs"]["command"] == "cdf"),
        })
        return out


# name -> unit of every per-layer metric, in report order
LAYER_UNITS = {
    "samplers.us_per_replicate": "us",
    "samplers.ns_per_draw": "ns",
    "samplers.short_call_ms": "ms",
    "exact_cdf.spherical_s": "s",
    "exact_cdf.truncated_s": "s",
    "exact_cdf.product_k1_s": "s",
    "exact_cdf.product_k2_s": "s",
    "exact_cdf.us_per_point": "us",
    "limit_laws.quantiles_s": "s",
    "limit_laws.quantiles_s.spherical_h": "s",
    "limit_laws.quantiles_s.phi_0.01": "s",
    "limit_laws.quantiles_s.phi_1": "s",
    "limit_laws.quantiles_s.normal": "s",
    "limit_laws.cdf_values_s": "s",
    "limit_laws.quantile_s": "s",
    "limit_laws.sample_limit_batch_s": "s",
    "stats.ks_self_s": "s",
    "norming.normalize_s": "s",
    "cli.cdf_s": "s",
}

"""Benchmark of specrad's three-way check, one workload per run.

    python3 perfbench/run.py --workload finite_n --seed 1 --seconds 15 --trace 0

Imports specrad from ``src/`` next to this directory, sets up the workload
from the seed, then runs whole rounds of its operations until ``--seconds``
have passed (at least two rounds; the first warms the program's caches and
is checked but left out of the timing medians).  Checks run after the timed rounds.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Result and trace files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("finite_n", "product_regimes", "exact_curves", "limit_tables")
# set-up is timed in this process and in this many fresh child processes
SETUP_PROBES = 4
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# the result line carries the end-to-end metrics that repeat from run to run
# on a shared host; wall_s is printed and stored, but other tenants taking a
# CPU from the sampling pool move it by up to a third (README)
RESULT_METRICS = ("setup_s", "cpu_s", "peak_rss_mb")


class SetupError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(workload: str, seed: int, trace: bool):
    """Import specrad from src/ and build round 0; returns (seconds, ...)."""
    start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import specrad
    except ImportError as exc:
        raise SetupError(f"cannot import specrad from {ROOT / 'src'}: {exc}") from exc
    if Path(specrad.__file__).resolve().parent != ROOT / "src" / "specrad":
        raise SetupError(f"imported specrad from {specrad.__file__}, not from src/")
    import tracing
    import workloads

    tracer = tracing.Tracer(trace)
    make_ops = workloads.WORKLOADS[workload]
    first = make_ops(seed, 0, tracer)
    return time.perf_counter() - start, tracer, make_ops, first


def probe_setup(args) -> list[float]:
    """Set-up time of fresh processes, started one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure(seconds: float, tracer, make_ops, seed: int, first) -> list[dict]:
    """Whole rounds of program calls until ``seconds`` have passed, and at
    least two: round 0 fills the program's caches, later rounds are timed."""
    rounds = []
    start = time.perf_counter()
    ops = first
    tracer.install()
    try:
        while True:
            tracer.round = len(rounds)
            results, errors, op_wall = {}, {}, {}
            cpu0, t0 = _cpu_seconds(), time.perf_counter()
            for op in ops:
                t_op = time.perf_counter()
                try:
                    results[op.name] = op.run(results)
                except Exception:  # an operation that raises counts as failed
                    errors[op.name] = traceback.format_exc(limit=3)
                op_wall[op.name] = time.perf_counter() - t_op
            wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
            rounds.append({"ops": ops, "results": results, "errors": errors,
                           "op_wall_s": op_wall, "wall_s": wall, "cpu_s": cpu})
            if len(rounds) >= 2 and time.perf_counter() - start >= seconds:
                return rounds
            ops = make_ops(seed, len(rounds), tracer)
    finally:
        tracer.uninstall()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def check(rounds: list[dict]) -> tuple[int, int, bool, list[str]]:
    attempted = failed = 0
    correct = True
    problems = []
    for index, rnd in enumerate(rounds):
        for op in rnd["ops"]:
            attempted += 1
            if op.name in rnd["errors"]:
                problem = "raised " + rnd["errors"][op.name].strip().splitlines()[-1]
            else:
                try:
                    problem = op.check(rnd["results"][op.name], rnd["results"])
                except Exception:  # a malformed output fails its check
                    problem = "check raised " + traceback.format_exc(limit=3)
            if problem:
                failed += 1
                correct = correct and op.expected_failure
                tag = "expected failure" if op.expected_failure else "FAILED"
                problems.append(f"round {index} {op.name}: {tag}: {problem}")
    return attempted, failed, correct, problems


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        setup_s, tracer, make_ops, first = set_up(args.workload, args.seed, bool(args.trace))
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        setup_times = [setup_s] + probe_setup(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rounds = measure(args.seconds, tracer, make_ops, args.seed, first)
    peak = peak_rss_mb()
    attempted, failed, correct, problems = check(rounds)

    warm = rounds[1:]
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r["wall_s"] for r in warm),
        "cpu_s": statistics.median(r["cpu_s"] for r in warm),
        "peak_rss_mb": peak,
    }
    if args.trace:
        from tracing import LAYER_UNITS

        values, units = tracer.layer_metrics(len(rounds)), LAYER_UNITS
    else:
        values, units = end_to_end, {k: END_TO_END_UNITS[k] for k in RESULT_METRICS}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "rounds": len(rounds),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "round_cpu_s": [r["cpu_s"] for r in rounds],
        "op_wall_s": [r["op_wall_s"] for r in rounds],
        "setup_samples_s": setup_times, "end_to_end": end_to_end,
        "attempted": attempted, "failed": failed, "correct": correct,
        "problems": problems, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")

    print(f"machine: {json.dumps(record['machine'])}")
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{attempted} operations attempted, {failed} failed, correct={correct}")
    for line in problems:
        print(f"  {line}")
    for name, value in end_to_end.items():
        print(f"  {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Exact samplers for the spectral-radius statistic of each ensemble.

None of these build a matrix.  Each ensemble's set of eigenvalue moduli is
distributionally a set of independent scalar variables:

    spherical:   |z_(j)|^2 ~ B_j/(1-B_j),  B_j ~ Beta(j, n-j+1)
    truncated:   |z_(j)|^2 ~ Beta(j, n-p)
    product:     |z_(j)|^2 ~ prod_{r=1}^k s_{j,r},  s_{j,r} ~ Gamma(j)

so the radius is a max over n (or p) independent draws, O(n*k) work per
replicate, exact in distribution.

Randomness is counter-based: replicate i of a run with master seed s draws
from a Philox stream keyed (s, i).  A chunk of replicates builds one
generator and re-keys it for each replicate, which gives exactly the
stream a freshly built one would.  Parallel execution partitions replicate
indices across workers; since every replicate owns its own stream, the
assembled batch is bit-identical for any worker count or schedule.  Runs
whose estimated work is below the cost of starting a process pool stay in
the calling process.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import WorkBudgetError
from .norming import EnsembleSpec, GinibreProduct, Spherical, TruncatedUnitary

__all__ = [
    "DEFAULT_WORK_BUDGET",
    "RandomStream",
    "SampleBatch",
    "sample_gamma",
    "sample_spherical_radius",
    "sample_truncated_radius",
    "sample_product_log_radius",
    "run_monte_carlo",
]

DEFAULT_WORK_BUDGET = 1e9

_UINT64_MAX = 2**64 - 1

# row block for the product sampler's (n, k) gamma matrix; blocks of rows
# preserve the element order of the full C-order fill, so results do not
# depend on the block size
_PRODUCT_BLOCK_ELEMS = 4_000_000

# at most this many Gamma shape arrays of at most this many elements are
# kept, so the cache does not grow with the sizes sampled
_SHAPE_CACHE_ENTRIES = 16
_SHAPE_CACHE_ELEMS = 4096
_SHAPE_CACHE: dict[tuple, np.ndarray] = {}

# runs of reps * (work_per_replicate + _REPLICATE_OVERHEAD_WORK) draw-units,
# the overhead being a replicate's fixed cost, below _POOL_START_WORK cost
# less than starting a process pool and stay in the calling process
_REPLICATE_OVERHEAD_WORK = 200
_POOL_START_WORK = 600_000


def _require_u64(name: str, value) -> int:
    if int(value) != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if not (0 <= value <= _UINT64_MAX):
        raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {value}")
    return value


@dataclass
class RandomStream:
    """One replicate's private random stream.

    Philox is a counter-based generator: the pair (master_seed, stream_index)
    is its key, so stream identity is a pure function of the two integers and
    streams with distinct pairs are independent.
    """

    master_seed: int
    stream_index: int
    _generator: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.master_seed = _require_u64("master_seed", self.master_seed)
        self.stream_index = _require_u64("stream_index", self.stream_index)

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
            self._generator = np.random.Generator(np.random.Philox(key=key))
        return self._generator


@dataclass
class SampleBatch:
    """Raw Monte Carlo output: one statistic per replicate, in replicate
    order.  For GinibreProduct the statistics are natural-log radii."""

    spec: EnsembleSpec
    statistics: np.ndarray
    seed: int
    reps: int

    def __post_init__(self):
        self.statistics = np.asarray(self.statistics, dtype=float)
        if self.statistics.shape != (self.reps,):
            raise ValueError(
                f"statistics must have shape ({self.reps},), got {self.statistics.shape}"
            )
        if not np.all(np.isfinite(self.statistics)):
            raise ValueError("statistics must all be finite")


def sample_gamma(shape: float, rng: RandomStream) -> float:
    """One Gamma(shape, 1) variate.

    Marsaglia-Tsang rejection with the squeeze step for shape >= 1 and the
    standard U^(1/shape) boost below 1 (the generator's native method).
    """
    shape = float(shape)
    if not (math.isfinite(shape) and shape > 0.0):
        raise ValueError(f"shape must be a positive finite real, got {shape}")
    return float(rng.generator.standard_gamma(shape))


def sample_spherical_radius(n: int, rng: RandomStream) -> float:
    """max_j sqrt(B_j/(1-B_j)) over j = 1..n with B_j ~ Beta(j, n-j+1).

    B_j/(1-B_j) is formed as G1/G2 from the two defining Gamma variates;
    1-B_j is never computed, so j near n (B_j near 1) loses no precision.
    G1 (shapes 1..n) and G2 (shapes n..1) come from one call, in that order.
    A bad n raises ``Spherical``'s error.
    """
    if type(n) is not int or n < 1:
        n = Spherical(n).n
    g = rng.generator.standard_gamma(_shapes((1.0, 1.0, n), (float(n), -1.0, n)))
    return math.sqrt(np.divide(g[:n], g[n:], out=g[:n]).max())


def sample_truncated_radius(n: int, p: int, rng: RandomStream) -> float:
    """max_j sqrt(Beta(j, n-p)) over j = 1..p; always in [0, 1].  Bad sizes
    raise ``TruncatedUnitary``'s error."""
    if not (type(n) is type(p) is int and 1 <= p < n):
        n, p = astuple(TruncatedUnitary(n, p))
    g = rng.generator.standard_gamma(_shapes((1.0, 1.0, p), (float(n - p), 0.0, p)))
    g1, total = g[:p], g[p:]
    total += g1
    return math.sqrt(np.divide(g1, total, out=g1).max())


def sample_product_log_radius(n: int, k: int, rng: RandomStream) -> float:
    """(1/2) max_j sum_{r=1}^k log s_{j,r} with s_{j,r} ~ Gamma(j).

    Accumulates in log space; the product itself (over k factors) would
    overflow double precision at k of a few hundred.  Rows are drawn in
    blocks to bound memory, which leaves the draw order (row-major) and
    hence the result unchanged.  Bad sizes raise ``GinibreProduct``'s error.
    """
    if not (type(n) is type(k) is int and n >= 1 and k >= 1):
        n, k = astuple(GinibreProduct(n, k))
    g = rng.generator
    block = max(1, _PRODUCT_BLOCK_ELEMS // k)
    best = -math.inf
    for j0 in range(0, n, block):
        rows = min(n, j0 + block) - j0
        draws = g.standard_gamma(_shapes((j0 + 1.0, 1.0, rows))[:, None], size=(rows, k))
        best = max(best, np.log(draws, out=draws).sum(axis=1).max())
    return 0.5 * float(best)


def _shapes(*runs: tuple[float, float, int]) -> np.ndarray:
    """Read-only Gamma shapes: the arithmetic runs (start, step, count),
    concatenated.  Short ones are cached; a long one costs little next to
    its draws."""
    out = _SHAPE_CACHE.get(runs)
    if out is None:
        out = np.concatenate([start + step * np.arange(count) for start, step, count in runs])
        out.flags.writeable = False
        if out.size <= _SHAPE_CACHE_ELEMS:
            if len(_SHAPE_CACHE) >= _SHAPE_CACHE_ENTRIES:
                del _SHAPE_CACHE[next(iter(_SHAPE_CACHE))]
            _SHAPE_CACHE[runs] = out
    return out


def _sampler(spec: EnsembleSpec):
    """The public sampler of spec's family, as a function of the stream."""
    if isinstance(spec, Spherical):
        return functools.partial(sample_spherical_radius, spec.n)
    if isinstance(spec, TruncatedUnitary):
        return functools.partial(sample_truncated_radius, spec.n, spec.p)
    if isinstance(spec, GinibreProduct):
        return functools.partial(sample_product_log_radius, spec.n, spec.k)
    raise ValueError(f"unknown ensemble spec: {spec!r}")


def _replicate_range(spec: EnsembleSpec, master_seed: int, start: int, stop: int) -> np.ndarray:
    """Replicates start..stop-1 from one generator: writing i into the key
    of a fresh Philox state (counter 0, empty buffer) gives exactly the
    stream that RandomStream(master_seed, i) would build."""
    sample = _sampler(spec)
    rng = RandomStream(master_seed, start)
    bitgen = rng.generator.bit_generator
    fresh = bitgen.state
    key = fresh["state"]["key"]
    out = np.empty(stop - start)
    for i in range(start, stop):
        key[1] = rng.stream_index = i
        bitgen.state = fresh
        out[i - start] = sample(rng)
    return out


def _available_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_monte_carlo(
    spec: EnsembleSpec,
    reps: int,
    master_seed: int,
    workers: int | None = None,
    budget: float = DEFAULT_WORK_BUDGET,
) -> SampleBatch:
    """reps independent replicates of the radius statistic.

    Replicate i always draws from the stream keyed (master_seed, i), so the
    assembled batch is bit-identical for every workers value; workers only
    controls how the index range is partitioned across processes.  Each
    chunk of the range builds one generator and re-keys it per replicate.
    workers is an upper bound; the default (None) is every CPU this process
    may run on.  A run stays in the calling process when it has one worker
    or one replicate, or when reps * (work_per_replicate + 200) draw-units
    come to less than 600,000, about what starting a pool costs.

    Raises WorkBudgetError before doing any sampling if reps times the
    per-replicate work (n*k for products, 2n / 2p otherwise) exceeds
    ``budget`` (None disables the guard; NaN is a ValueError).
    """
    if int(reps) != reps or reps < 1:
        raise ValueError(f"reps must be a positive integer, got {reps}")
    reps = int(reps)
    if workers is None:
        workers = _available_cpus()
    if int(workers) != workers or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    workers = int(workers)
    master_seed = _require_u64("master_seed", master_seed)

    if budget is not None and math.isnan(budget):
        raise ValueError("budget must be a number or None, got NaN")
    required = spec.work_per_replicate * reps
    if budget is not None and required > budget:
        raise WorkBudgetError(
            f"requested work {required:.3g} draw-units exceeds budget {budget:.3g}; "
            "raise the budget explicitly to run this",
            required=required,
            budget=budget,
        )

    serial_work = reps * (spec.work_per_replicate + _REPLICATE_OVERHEAD_WORK)
    if workers == 1 or reps == 1 or serial_work < _POOL_START_WORK:
        stats = _replicate_range(spec, master_seed, 0, reps)
    else:
        n_chunks = min(workers * 4, reps)
        bounds = np.linspace(0, reps, n_chunks + 1, dtype=int).tolist()
        chunk = functools.partial(_replicate_range, spec, master_seed)
        with ProcessPoolExecutor(max_workers=min(workers, n_chunks)) as pool:
            stats = np.concatenate(list(pool.map(chunk, bounds[:-1], bounds[1:])))
    return SampleBatch(spec=spec, statistics=stats, seed=master_seed, reps=reps)

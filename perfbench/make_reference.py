"""Make anew the stored reference sample of the product_regimes workload.

    python3 perfbench/make_reference.py            # writes perfbench/reference_sample.npz

For the two proportional-regime specs (k >= 3 has no exact finite-n cdf)
it draws 20,000 log-radii 0.5 max_j sum_r log s_{j,r}, s_{j,r} ~ Gamma(j),
with scipy's log-gamma variates (the Gamma(j+1) U^(1/j) boost) on a PCG64
generator: another generator and another algorithm than specrad's Philox
standard_gamma draws.  The file is deterministic for the seed below.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy import stats

SEED = 20140709
REPS = 20_000
SPECS = {"product_400_4": (400, 4), "product_50_50": (50, 50)}
PATH = Path(__file__).resolve().parent / "reference_sample.npz"


def log_radii(n: int, k: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    shapes = np.arange(1.0, n + 1.0)[:, None]
    out = np.empty(reps)
    for i in range(reps):
        log_s = stats.loggamma.rvs(np.broadcast_to(shapes, (n, k)), random_state=rng)
        out[i] = 0.5 * np.max(np.sum(log_s, axis=1))
    return out


def main() -> None:
    rng = np.random.default_rng(SEED)
    samples = {name: log_radii(n, k, REPS, rng) for name, (n, k) in SPECS.items()}
    np.savez_compressed(PATH, **samples)
    print(f"wrote {PATH.name}: " + ", ".join(f"{k} ({v.size})" for k, v in samples.items()))


if __name__ == "__main__":
    main()

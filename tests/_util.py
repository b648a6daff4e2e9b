"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np


def ks_distance(values: np.ndarray, cdf_fn) -> float:
    """Two-sided KS distance between a sample and a vectorized cdf."""
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size
    f = np.asarray(cdf_fn(ordered), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))

"""Ensemble descriptions and centering/scaling constants.

Three ensembles are covered, each identified by the independence
representation of its spectral-radius statistic:

    Spherical{n}            radius/sqrt(n) has a nondegenerate limit
    TruncatedUnitary{n,p}   (radius - A_n)/B_n is asymptotically Gumbel
    GinibreProduct{n,k}     the log-radius is normalized per k/n regime

Product-ensemble statistics are carried as log-radii end to end: n^(k/2)
overflows double precision already at modest sizes, so every map that
conceptually divides by n^(k/2) subtracts (k/2)*log(n) in log space instead.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Union

import numpy as np

from .specfun import digamma

__all__ = [
    "Spherical",
    "TruncatedUnitary",
    "GinibreProduct",
    "EnsembleSpec",
    "SmallK",
    "ProportionalK",
    "LargeK",
    "ProductRegime",
    "SMALL_K",
    "LARGE_K",
    "PreTransform",
    "NormingConstants",
    "ab_functions",
    "spherical_norming",
    "truncated_norming",
    "product_norming",
    "default_regime",
    "norming_for",
    "normalize",
]


def _require_int(name: str, value, minimum: int) -> int:
    if int(value) != value:
        raise ValueError(f"{name} must be an integer, got {value}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class Spherical:
    """n x n spherical ensemble; statistic is the largest modulus."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _require_int("n", self.n, 1))

    family = "spherical"

    @property
    def work_per_replicate(self) -> float:
        return 2.0 * self.n


@dataclass(frozen=True)
class TruncatedUnitary:
    """Top-left p x p block of an n x n Haar unitary matrix."""

    n: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "n", _require_int("n", self.n, 2))
        object.__setattr__(self, "p", _require_int("p", self.p, 1))
        if not (1 <= self.p < self.n):
            raise ValueError(f"need 1 <= p < n, got p={self.p}, n={self.n}")

    family = "truncated"

    @property
    def work_per_replicate(self) -> float:
        return 2.0 * self.p


@dataclass(frozen=True)
class GinibreProduct:
    """Product of k independent n x n Ginibre matrices; statistic is the
    natural log of the largest modulus."""

    n: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "n", _require_int("n", self.n, 1))
        object.__setattr__(self, "k", _require_int("k", self.k, 1))

    family = "product"

    @property
    def work_per_replicate(self) -> float:
        return float(self.n) * float(self.k)


EnsembleSpec = Union[Spherical, TruncatedUnitary, GinibreProduct]


@dataclass(frozen=True)
class SmallK:
    """k/n -> 0 regime: Gumbel limit after an exp/affine map."""


@dataclass(frozen=True)
class ProportionalK:
    """k/n -> alpha in (0, inf): product-law limit."""

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not (math.isfinite(a) and a > 0.0):
            raise ValueError(f"alpha must be a positive finite real, got {self.alpha}")
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class LargeK:
    """k/n -> infinity regime: Gaussian limit for the log-radius."""


ProductRegime = Union[SmallK, ProportionalK, LargeK]

SMALL_K = SmallK()
LARGE_K = LargeK()


class PreTransform(Enum):
    """How `normalize` treats the raw statistic before the affine map."""

    IDENTITY = "identity"
    LOG_SPACE = "log_space"


@dataclass(frozen=True)
class NormingConstants:
    """Affine (or exp-then-affine) normalization x -> (T(x) - shift)/scale.

    ``aux`` records every named intermediate constant so reports can expose
    them; all entries are reproducible from the ensemble parameters alone.
    """

    pre_transform: PreTransform
    shift: float
    scale: float
    aux: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be a positive finite real, got {self.scale}")


def ab_functions(y: float, check: bool = True) -> tuple[float, float]:
    """The Gumbel centering/scaling pair for the truncated ensemble:

        a(y) = (log y)^(1/2) - (log y)^(-1/2) * log(sqrt(2 pi) * log y)
        b(y) = (log y)^(-1/2)

    Defined for y > 3 (``check=False`` relaxes the guard for substitution
    tests at smaller y; log y must still be positive).
    """
    y = float(y)
    if check and not y > 3.0:
        raise ValueError(f"y must exceed 3, got {y}")
    if not y > 1.0:
        raise ValueError(f"log y must be positive, got y={y}")
    log_y = math.log(y)
    sqrt_log = math.sqrt(log_y)
    a = sqrt_log - math.log(math.sqrt(2.0 * math.pi) * log_y) / sqrt_log
    return a, 1.0 / sqrt_log


def spherical_norming(n: int) -> NormingConstants:
    """radius/sqrt(n): shift 0, scale sqrt(n)."""
    n = _require_int("n", n, 1)
    sqrt_n = math.sqrt(n)
    return NormingConstants(
        pre_transform=PreTransform.IDENTITY,
        shift=0.0,
        scale=sqrt_n,
        aux={"sqrt_n": sqrt_n},
    )


def truncated_norming(n: int, p: int) -> NormingConstants:
    """(radius - A_n)/B_n with

        c_n = sqrt((p-1)/(n-1)),  y = n c_n^2 / (1 - c_n^2),
        A_n = c_n + (1/2) sqrt(1-c_n^2) (n-1)^(-1/2) a(y),
        B_n =       (1/2) sqrt(1-c_n^2) (n-1)^(-1/2) b(y).
    """
    n = _require_int("n", n, 3)
    p = _require_int("p", p, 1)
    if not (1 <= p < n):
        raise ValueError(f"need 1 <= p < n, got p={p}, n={n}")
    ratio = p / n
    if ratio < 0.05 or ratio > 0.95:
        warnings.warn(
            f"p/n = {ratio:.4f} is outside [0.05, 0.95]; the Gumbel "
            "approximation assumes p/n bounded away from 0 and 1",
            stacklevel=2,
        )
    c_sq = (p - 1) / (n - 1)
    if c_sq >= 1.0:
        raise ValueError(f"need p < n, got p={p}, n={n}")
    y = n * c_sq / (1.0 - c_sq)
    if not y > 3.0:
        raise ValueError(
            f"centering argument y = n c_n^2/(1-c_n^2) = {y:.4g} must exceed 3; "
            f"(n={n}, p={p}) is outside the valid range (p=1 always is)"
        )
    a_n, b_n = ab_functions(y)
    c_n = math.sqrt(c_sq)
    half_width = 0.5 * math.sqrt(1.0 - c_sq) / math.sqrt(n - 1.0)
    return NormingConstants(
        pre_transform=PreTransform.IDENTITY,
        shift=c_n + half_width * a_n,
        scale=half_width * b_n,
        aux={"c_n": c_n, "a_n": a_n, "b_n": b_n, "y": y},
    )


def default_regime(n: int, k: int) -> ProductRegime:
    """Classify a finite (n, k) into the product-ensemble regime used for
    normalization: k/n <= 0.01 is SmallK, k/n >= 100 is LargeK, anything
    between is ProportionalK with alpha = k/n."""
    n = _require_int("n", n, 1)
    k = _require_int("k", k, 1)
    ratio = k / n
    if ratio <= 0.01:
        return SMALL_K
    if ratio >= 100.0:
        return LARGE_K
    return ProportionalK(alpha=ratio)


def product_norming(n: int, k: int, regime: ProductRegime) -> NormingConstants:
    """Norming constants for the Ginibre-product log-radius L.

    SmallK:        m = exp(2L - k log n); statistic = alpha_n (m-1) - beta_n
                   with alpha_n = sqrt((n/k) log(n/k)),
                        beta_n = log(n/k) - log log(n/k) - (1/2) log(2 pi)
    ProportionalK: statistic = exp(L - (k/2) log n)
    LargeK:        statistic = (L - k psi(n)/2) / (sqrt(k/n)/2)

    The SmallK statistic lives on the squared-modulus scale m =
    max|z|^2 / n^k: writing u for the centered-and-scaled log statistic
    that is provably Gumbel, alpha_n (m - 1) - beta_n matches it through
    the linearization m - 1 = log m + O((log m)^2) only when m carries the
    factor 2 in the exponent; with m = exp(L - (k/2) log n) the same
    constants send the statistic to -infinity instead of a fixed law.
    """
    n = _require_int("n", n, 1)
    k = _require_int("k", k, 1)
    log_shift = 0.5 * k * math.log(n)
    if isinstance(regime, SmallK):
        ratio = n / k
        if ratio <= math.e:
            raise ValueError(
                f"SmallK norming needs n/k > e so log log(n/k) is defined; got n/k={ratio:.4g}"
            )
        log_ratio = math.log(ratio)
        alpha_n = math.sqrt(ratio * log_ratio)
        beta_n = log_ratio - math.log(log_ratio) - 0.5 * math.log(2.0 * math.pi)
        # alpha_n (m - 1) - beta_n == (m - shift)/scale
        return NormingConstants(
            pre_transform=PreTransform.LOG_SPACE,
            shift=1.0 + beta_n / alpha_n,
            scale=1.0 / alpha_n,
            aux={
                "alpha_n": alpha_n,
                "beta_n": beta_n,
                "log_shift": log_shift,
                "log_multiplier": 2.0,
            },
        )
    if isinstance(regime, ProportionalK):
        return NormingConstants(
            pre_transform=PreTransform.LOG_SPACE,
            shift=0.0,
            scale=1.0,
            aux={"alpha": regime.alpha, "log_shift": log_shift, "log_multiplier": 1.0},
        )
    if isinstance(regime, LargeK):
        psi_n = digamma(float(n))
        return NormingConstants(
            pre_transform=PreTransform.IDENTITY,
            shift=0.5 * k * psi_n,
            scale=0.5 * math.sqrt(k / n),
            aux={"psi_n": psi_n},
        )
    raise ValueError(f"unknown product regime: {regime!r}")


def norming_for(spec: EnsembleSpec, regime: ProductRegime | None = None) -> NormingConstants:
    """Dispatch to the family-appropriate norming constants.  ``regime``
    applies only to GinibreProduct and defaults to `default_regime`."""
    if isinstance(spec, Spherical):
        return spherical_norming(spec.n)
    if isinstance(spec, TruncatedUnitary):
        return truncated_norming(spec.n, spec.p)
    if isinstance(spec, GinibreProduct):
        if regime is None:
            regime = default_regime(spec.n, spec.k)
        return product_norming(spec.n, spec.k, regime)
    raise ValueError(f"unknown ensemble spec: {spec!r}")


def normalize(spec: EnsembleSpec, constants: NormingConstants, raw):
    """Apply the normalization map to a raw statistic (radius, or log-radius
    for GinibreProduct).  Accepts scalars or numpy arrays.

    The LOG_SPACE pre-transform computes exp(multiplier*(raw - log_shift))
    before the affine map (multiplier 2 on the squared-modulus SmallK scale,
    1 otherwise), which is the only place the conceptual n^(k/2) division
    happens; the subtraction in the exponent keeps it overflow-safe for any
    regime that matches the data.  A mis-specified regime (e.g. SmallK
    constants applied to heavily supercritical data) can still overflow the
    exp; that raises an explicit error rather than returning inf.
    """
    if constants.pre_transform is PreTransform.LOG_SPACE:
        log_shift = constants.aux["log_shift"]
        multiplier = constants.aux.get("log_multiplier", 1.0)
        arg = multiplier * (np.asarray(raw, dtype=float) - log_shift)
        if np.any(arg > 709.0):
            raise OverflowError(
                "exp overflow in log-space normalization: the chosen regime "
                "does not match the scale of the data"
            )
        pre = np.exp(arg)
        out = (pre - constants.shift) / constants.scale
    else:
        out = (np.asarray(raw, dtype=float) - constants.shift) / constants.scale
    if np.ndim(raw) == 0:
        return float(out)
    return out


def _denormalize(constants: NormingConstants, z) -> np.ndarray:
    """Inverse of `normalize`: the raw statistic whose normalized value is z.
    A LOG_SPACE affine value shift + scale*z <= 0 lies below every radius; it
    is floored at 1e-300 before the log, far in the left tail, with no warning."""
    affine = constants.shift + constants.scale * np.asarray(z, dtype=float)
    if constants.pre_transform is PreTransform.LOG_SPACE:
        aux = constants.aux
        return aux["log_shift"] + np.log(np.maximum(affine, 1e-300)) / aux.get("log_multiplier", 1.0)
    return affine

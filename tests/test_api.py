"""The public API, frozen: the names in ``specrad.__all__`` and the
signature of every public callable.

The project promises an unchanged public API between releases, so a change
here must be deliberate: edit the snapshot below in the same change that
alters the API, and say so in CHANGES.md.
"""

import enum
import inspect
import typing

import specrad

PUBLIC_NAMES = [
    "CdfCurve",
    "CdfValue",
    "DEFAULT_WORK_BUDGET",
    "EnsembleSpec",
    "GUMBEL",
    "GinibreProduct",
    "Gumbel",
    "KsReport",
    "LargeK",
    "NonConvergenceError",
    "NormingConstants",
    "PreTransform",
    "ProductLaw",
    "ProportionalK",
    "QuadratureError",
    "RandomStream",
    "SPHERICAL_H",
    "STANDARD_NORMAL",
    "SampleBatch",
    "SmallK",
    "Spherical",
    "SphericalH",
    "StandardNormal",
    "TruncatedUnitary",
    "WorkBudgetError",
    "ab_functions",
    "cdf",
    "cdf_curve",
    "cdf_values",
    "convergence_table",
    "default_regime",
    "empirical_cdf",
    "exact_cdf_fn",
    "exact_log_cdf",
    "gumbel_cdf",
    "ks_statistic",
    "law_cdf_fn",
    "mass_span_grid",
    "normalize",
    "normalized_batch",
    "norming_for",
    "phi_alpha",
    "product_exact_cdf_k1",
    "product_exact_cdf_k2",
    "product_law_cdf",
    "product_norming",
    "qq_points",
    "quantile",
    "quantiles",
    "run_monte_carlo",
    "sample_gamma",
    "sample_limit",
    "sample_limit_batch",
    "sample_product_log_radius",
    "sample_spherical_radius",
    "sample_truncated_radius",
    "spherical_exact_cdf",
    "spherical_h_cdf",
    "spherical_norming",
    "tail_asymptote",
    "truncated_exact_cdf",
    "truncated_norming",
    "upper_tail",
]

SIGNATURES = {
    "CdfCurve": "(grid: 'np.ndarray', values: 'np.ndarray', spec: 'EnsembleSpec') -> None",
    "CdfValue": "(value: 'float', log_value: 'float', truncation_bound: 'float') -> None",
    "GinibreProduct": "(n: 'int', k: 'int') -> None",
    "Gumbel": "() -> None",
    "KsReport": "(statistic: 'float', location: 'float', reps: 'int', critical_005: 'float', reference: 'str') -> None",
    "LargeK": "() -> None",
    "NonConvergenceError": "(message: str, achieved: float = nan)",
    "NormingConstants": "(pre_transform: 'PreTransform', shift: 'float', scale: 'float', aux: 'Mapping[str, float]' = <factory>) -> None",
    "ProductLaw": "(alpha: 'float') -> None",
    "ProportionalK": "(alpha: 'float') -> None",
    "QuadratureError": "(message: str, achieved: float = nan)",
    "RandomStream": "(master_seed: 'int', stream_index: 'int', _generator: 'np.random.Generator | None' = None) -> None",
    "SampleBatch": "(spec: 'EnsembleSpec', statistics: 'np.ndarray', seed: 'int', reps: 'int') -> None",
    "SmallK": "() -> None",
    "Spherical": "(n: 'int') -> None",
    "SphericalH": "() -> None",
    "StandardNormal": "() -> None",
    "TruncatedUnitary": "(n: 'int', p: 'int') -> None",
    "WorkBudgetError": "(message: str, required: float, budget: float)",
    "ab_functions": "(y: 'float', check: 'bool' = True) -> 'tuple[float, float]'",
    "cdf": "(law: 'LimitLaw', x: 'float', tol: 'float' = 1e-12) -> 'CdfValue'",
    "cdf_curve": "(spec: 'EnsembleSpec', grid, quad_points: 'int' = 64) -> 'CdfCurve'",
    "cdf_values": "(law: 'LimitLaw', x, tol: 'float' = 1e-10) -> 'np.ndarray'",
    "convergence_table": "(specs: 'Sequence[EnsembleSpec]', law: 'LimitLaw', reps: 'int', seed: 'int', workers: 'int | None' = None, budget=None) -> 'list[tuple[EnsembleSpec, KsReport]]'",
    "default_regime": "(n: 'int', k: 'int') -> 'ProductRegime'",
    "empirical_cdf": "(batch: 'SampleBatch') -> 'Callable[[float], float]'",
    "exact_cdf_fn": "(spec: 'EnsembleSpec', quad_points: 'int' = 64)",
    "exact_log_cdf": "(spec: 'EnsembleSpec', r, quad_points: 'int' = 64) -> 'np.ndarray'",
    "gumbel_cdf": "(x: 'float') -> 'float'",
    "ks_statistic": "(batch: 'SampleBatch', reference_cdf) -> 'KsReport'",
    "law_cdf_fn": "(law: 'LimitLaw', tol: 'float' = 1e-10) -> 'Callable[[np.ndarray], np.ndarray]'",
    "mass_span_grid": "(law: 'LimitLaw', points: 'int' = 200, lo: 'float' = 0.0001, hi: 'float | None' = None) -> 'np.ndarray'",
    "normalize": "(spec: 'EnsembleSpec', constants: 'NormingConstants', raw)",
    "normalized_batch": "(spec: 'EnsembleSpec', reps: 'int', seed: 'int', law: 'LimitLaw', workers: 'int | None' = None, budget=None) -> 'SampleBatch'",
    "norming_for": "(spec: 'EnsembleSpec', regime: 'ProductRegime | None' = None) -> 'NormingConstants'",
    "phi_alpha": "(x: 'float', alpha: 'float', tol: 'float' = 1e-12, max_terms: 'int' = 200000) -> 'CdfValue'",
    "product_exact_cdf_k1": "(n: 'int', r: 'float') -> 'float'",
    "product_exact_cdf_k2": "(n: 'int', r: 'float', quad_points: 'int' = 64) -> 'float'",
    "product_law_cdf": "(x: 'float', alpha: 'float', tol: 'float' = 1e-12) -> 'CdfValue'",
    "product_norming": "(n: 'int', k: 'int', regime: 'ProductRegime') -> 'NormingConstants'",
    "qq_points": "(batch: 'SampleBatch', law: 'LimitLaw', count: 'int') -> 'np.ndarray'",
    "quantile": "(law: 'LimitLaw', q: 'float', tol: 'float' = 1e-10, max_iter: 'int' = 500) -> 'float'",
    "quantiles": "(law: 'LimitLaw', q, tol: 'float' = 1e-10) -> 'np.ndarray'",
    "run_monte_carlo": "(spec: 'EnsembleSpec', reps: 'int', master_seed: 'int', workers: 'int | None' = None, budget: 'float' = 1000000000.0) -> 'SampleBatch'",
    "sample_gamma": "(shape: 'float', rng: 'RandomStream') -> 'float'",
    "sample_limit": "(law: 'LimitLaw', rng: 'RandomStream') -> 'float'",
    "sample_limit_batch": "(law: 'LimitLaw', rng: 'RandomStream', size: 'int') -> 'np.ndarray'",
    "sample_product_log_radius": "(n: 'int', k: 'int', rng: 'RandomStream') -> 'float'",
    "sample_spherical_radius": "(n: 'int', rng: 'RandomStream') -> 'float'",
    "sample_truncated_radius": "(n: 'int', p: 'int', rng: 'RandomStream') -> 'float'",
    "spherical_exact_cdf": "(n: 'int', r: 'float') -> 'float'",
    "spherical_h_cdf": "(x: 'float', tol: 'float' = 1e-12, max_terms: 'int' = 200000) -> 'CdfValue'",
    "spherical_norming": "(n: 'int') -> 'NormingConstants'",
    "tail_asymptote": "(law: 'LimitLaw', x: 'float') -> 'float'",
    "truncated_exact_cdf": "(n: 'int', p: 'int', r: 'float') -> 'float'",
    "truncated_norming": "(n: 'int', p: 'int') -> 'NormingConstants'",
    "upper_tail": "(law: 'LimitLaw', x: 'float', tol: 'float' = 1e-12) -> 'float'",
}


def _is_enum(obj) -> bool:
    return isinstance(obj, type) and issubclass(obj, enum.Enum)


def test_all_is_frozen():
    assert sorted(specrad.__all__) == PUBLIC_NAMES
    assert len(set(specrad.__all__)) == len(specrad.__all__)


def test_every_public_name_resolves():
    for name in specrad.__all__:
        assert hasattr(specrad, name), name


def test_every_public_callable_has_a_frozen_signature():
    callables = {
        name
        for name in specrad.__all__
        if callable(getattr(specrad, name))
        and not _is_enum(getattr(specrad, name))
        and typing.get_origin(getattr(specrad, name)) is not typing.Union
    }
    assert callables == set(SIGNATURES)


def test_signatures_are_frozen():
    changed = {
        name: str(inspect.signature(getattr(specrad, name)))
        for name, frozen in SIGNATURES.items()
        if str(inspect.signature(getattr(specrad, name))) != frozen
    }
    assert changed == {}


def test_enums_aliases_and_constants():
    # enum and Union signatures vary with the Python version, so their
    # members are frozen instead
    assert {m.name: m.value for m in specrad.PreTransform} == {
        "IDENTITY": "identity",
        "LOG_SPACE": "log_space",
    }
    assert typing.get_args(specrad.EnsembleSpec) == (
        specrad.Spherical,
        specrad.TruncatedUnitary,
        specrad.GinibreProduct,
    )
    assert specrad.DEFAULT_WORK_BUDGET == 1e9
    assert specrad.GUMBEL == specrad.Gumbel()
    assert specrad.SPHERICAL_H == specrad.SphericalH()
    assert specrad.STANDARD_NORMAL == specrad.StandardNormal()

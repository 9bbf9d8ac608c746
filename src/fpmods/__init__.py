"""Exact arithmetic and experiments for modules over F_p[T]/(T^n).

`import fpmods` loads no submodule and no numpy. `_EXPORTS` maps each
submodule to the public names this package re-exports from it, each name
written once; `__all__` is read from it, and this module's `__getattr__`
(PEP 562) imports a submodule, and resolves a name from it, on first access.
The exact CLI modes, `count` and `exhaustive`, compute with Python ints and
`Fraction`s, and no module on their path (`errors`, `series`, `submodules`,
`laws` and `cli`) imports numpy at module level: a module-level numpy import
costs a fresh process about 90 ms, most of its start-up, even when no numpy
call follows. The numpy layers `linalg`, `pairing` and `probability` load
when the sampled modes (`montecarlo`, `tower`) or `isotropic` run.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

_EXPORTS = {
    "errors": (
        "InvariantError",
        "ResourceBoundError",
    ),
    "series": (
        "MAX_LEVEL",
        "MAX_PRIME",
        "TruncatedSeries",
        "check_level",
        "check_prime",
        "is_power_of",
    ),
    "submodules": (
        "CyclicSubmodule",
        "Intersection",
        "ModuleVector",
        "QuotientStructure",
        "SubmoduleTower",
        "census_maximal_generators",
        "count_maximal",
        "count_maximal_generators",
        "enumerate_maximal",
        "intersect",
        "intersection_exponent_linalg",
        "is_maximal",
        "iter_module_vectors",
        "lifts",
        "project",
        "sum_and_quotient",
    ),
    "laws": (
        "collision_probability_census",
        "collision_probability_exact",
        "intersection_bound",
    ),
    "cli": (),
    "linalg": (),
    "pairing": (
        "FpSubspace",
        "MaximalIsotropic",
        "SpaceElement",
        "SpaceShape",
        "count_maximal_isotropic",
        "enumerate_maximal_isotropic",
        "gram_matrix",
        "isotropic_diagnostics",
        "t_action_matrix",
    ),
    "probability": (
        "PushforwardReport",
        "RngSpec",
        "SampledExponents",
        "chi_square_uniformity",
        "monte_carlo",
        "pushforward_consistency",
        "sample_pair",
        "tower_experiment",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it here, so this runs once per module
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_OWNER})

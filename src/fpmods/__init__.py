"""Exact arithmetic and experiments for modules over F_p[T]/(T^n).

`import fpmods` loads no numpy. The exact CLI modes, `count` and
`exhaustive`, compute with Python ints and `Fraction`s, and every module on
their path (`errors`, `series`, `submodules`, `laws` and `cli`) imports
numpy nowhere at module level: a module-level numpy import costs a fresh
process about 90 ms, most of its start-up, even when no numpy call follows.
The numpy layers `linalg`, `pairing` and `probability` load on first use:
this module's `__getattr__` (PEP 562) resolves their names, and the names
this package re-exports from them, on first access. The sampled modes
(`montecarlo`, `tower`) and `isotropic` load numpy when they run.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .errors import InvariantError, ResourceBoundError
from .series import (
    MAX_LEVEL,
    MAX_PRIME,
    TruncatedSeries,
    check_level,
    check_prime,
    is_power_of,
)
from .submodules import (
    CyclicSubmodule,
    Intersection,
    ModuleVector,
    QuotientStructure,
    SubmoduleTower,
    census_maximal_generators,
    count_maximal,
    count_maximal_generators,
    enumerate_maximal,
    intersect,
    intersection_exponent_linalg,
    is_maximal,
    iter_module_vectors,
    lifts,
    project,
    sum_and_quotient,
)
from .laws import (
    collision_probability_census,
    collision_probability_exact,
    intersection_bound,
)

# The submodules imported on first access, each with the names this package
# re-exports from it.
_LAZY = {
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
_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        # importing a submodule binds it here, so this runs once per module
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_OWNER})


__all__ = [
    "__version__",
    "InvariantError",
    "ResourceBoundError",
    "MAX_LEVEL",
    "MAX_PRIME",
    "TruncatedSeries",
    "check_level",
    "check_prime",
    "is_power_of",
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
    "FpSubspace",
    "MaximalIsotropic",
    "SpaceElement",
    "SpaceShape",
    "count_maximal_isotropic",
    "enumerate_maximal_isotropic",
    "gram_matrix",
    "isotropic_diagnostics",
    "t_action_matrix",
    "PushforwardReport",
    "RngSpec",
    "SampledExponents",
    "chi_square_uniformity",
    "collision_probability_census",
    "collision_probability_exact",
    "intersection_bound",
    "monte_carlo",
    "pushforward_consistency",
    "sample_pair",
    "tower_experiment",
]

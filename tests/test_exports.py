import json
import os
import subprocess
import sys
from pathlib import Path

import fpmods


def test_all_names_resolve_and_star_import_succeeds():
    assert len(fpmods.__all__) == len(set(fpmods.__all__))
    missing = [name for name in fpmods.__all__ if not hasattr(fpmods, name)]
    assert missing == []
    namespace = {}
    exec("from fpmods import *", namespace)
    assert set(fpmods.__all__) <= namespace.keys()


# every public name, sorted; adding one is a deliberate edit here too
EXPORTED = [
    "CyclicSubmodule", "FpSubspace", "Intersection", "InvariantError", "MAX_LEVEL",
    "MAX_PRIME", "MaximalIsotropic", "ModuleVector", "PushforwardReport",
    "QuotientStructure", "ResourceBoundError", "RngSpec", "SampledExponents",
    "SpaceElement", "SpaceShape", "SubmoduleTower", "TruncatedSeries", "__version__",
    "census_maximal_generators", "check_level", "check_prime", "chi_square_uniformity",
    "collision_probability_census", "collision_probability_exact", "count_maximal",
    "count_maximal_generators", "count_maximal_isotropic", "enumerate_maximal",
    "enumerate_maximal_isotropic", "gram_matrix", "intersect", "intersection_bound",
    "intersection_exponent_linalg", "is_maximal", "is_power_of", "isotropic_diagnostics",
    "iter_module_vectors", "lifts", "monte_carlo", "project", "pushforward_consistency",
    "sample_pair", "sum_and_quotient", "t_action_matrix", "tower_experiment",
]
MODULES = ("errors", "series", "laws", "linalg", "submodules", "probability", "pairing", "cli")
LAZY_FACTS = f"""
import json, sys
import fpmods
facts = {{"numpy_loaded": "numpy" in sys.modules}}
facts["submodules_loaded"] = sorted(m for m in sys.modules if m.startswith("fpmods."))
facts["all"] = sorted(fpmods.__all__)
facts["all_in_dir"] = set(fpmods.__all__) <= set(dir(fpmods))
facts["modules"] = {{m: getattr(fpmods, m) is sys.modules["fpmods." + m] for m in {MODULES!r}}}
facts["pushforward"] = fpmods.probability.pushforward_consistency.__name__
try:
    fpmods.no_such_name
except AttributeError as e:
    facts["unknown"] = str(e)
facts["census_is_the_law"] = (
    fpmods.probability.collision_probability_census
    is fpmods.laws.collision_probability_census
)
print(json.dumps(facts))
"""


def test_import_loads_no_numpy_and_lazy_names_resolve():
    # a fresh interpreter: this one has numpy and every module loaded already
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    result = subprocess.run(
        [sys.executable, "-c", LAZY_FACTS], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    facts = json.loads(result.stdout)
    assert facts == {
        "numpy_loaded": False,
        "submodules_loaded": [],
        "all": EXPORTED,
        "all_in_dir": True,
        "modules": dict.fromkeys(MODULES, True),
        "pushforward": "pushforward_consistency",
        "unknown": "module 'fpmods' has no attribute 'no_such_name'",
        "census_is_the_law": True,
    }

"""Every name the benchmark's layer tracer wraps still exists in fpmods.

perfbench/layers.py names its targets as (module, "Owner.attr") paths;
renaming or deleting one would otherwise show only as a missing trace
target in a benchmark run. The functions it times as generators must stay
generator functions, or the amounts it counts per yielded item read 0.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = [(module, path) for _, module, path in layers.SPANS + layers.COUNTS]
    assert targets
    missing = []
    for module_name, path in targets:
        module = importlib.import_module(f"fpmods.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{module_name}.{path}")
    assert missing == []


def test_lifts_and_the_census_are_generator_functions():
    # the tracer picks its generator span, which counts yielded items, by
    # inspect.isgeneratorfunction: a lifts that returned an iterator would
    # still run, but submodules.lifts.forms would read 0. The census builds
    # its forms through the same pipeline and is held to the same shape.
    from fpmods import submodules

    assert inspect.isgeneratorfunction(submodules.lifts)
    assert inspect.isgeneratorfunction(submodules.enumerate_maximal)

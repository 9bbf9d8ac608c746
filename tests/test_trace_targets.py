"""Every name the benchmark's layer tracer wraps still exists in fpmods.

perfbench/layers.py names its targets as (module, "Owner.attr") paths;
renaming or deleting one would otherwise show only as a missing trace
target in a benchmark run.
"""

import importlib
import importlib.util
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

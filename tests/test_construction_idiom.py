"""The library builds an immutable value object in one of two ways only.

`TruncatedSeries`, `SpaceElement`, `FpSubspace` and `CyclicSubmodule`
inherit `series.Frozen`, the one owner of the immutability guard and of the
pickle hook. The slotted ones fill their slots through the setters
`series.slot_setters` binds once at import, which skip that guard;
`CyclicSubmodule` is a tuple, built whole by `tuple.__new__`, and is the one
tuple-backed value, so only `submodules.py` calls `tuple.__new__`. This
test keeps the other idioms out of the package: a generic
`object.__setattr__` per field (the slower one), a class other than
`Frozen` defining `__setattr__`, `__delattr__` or `__reduce__`, a slot
setter bound by hand outside `slot_setters`, `tuple.__new__` outside
`submodules.py`, and a `dataclass(slots=True)`, whose class rebuild breaks
the frozen guard and whose generated `__setstate__` skips validation.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fpmods"
GUARDED = {"__setattr__", "__delattr__", "__reduce__"}


def _modules() -> list[tuple[str, ast.Module]]:
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    return [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def _name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_object_setattr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    )


def _defined_names(cls: ast.ClassDef) -> list[str]:
    """Names a class body binds by def or by assignment."""
    names = []
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [_name(t) for t in node.targets]
    return names


def test_package_never_uses_object_setattr():
    found = []
    for module, tree in _modules():
        found += [f"{module}:{node.lineno}" for node in ast.walk(tree) if _is_object_setattr(node)]
    assert found == []


def test_only_frozen_defines_the_guard_and_the_pickle_hook():
    found = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and (module, node.name) != ("series.py", "Frozen"):
                found += [
                    f"{module}:{node.name}.{name}"
                    for name in _defined_names(node)
                    if name in GUARDED
                ]
    assert found == []


def test_slot_setters_are_bound_only_by_slot_setters():
    found = []
    for module, tree in _modules():
        allowed = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "slot_setters"
            for inner in ast.walk(node)
        }
        found += [
            f"{module}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__set__"
            and id(node) not in allowed
        ]
    assert found == []


def test_only_submodules_builds_tuple_subclasses():
    found = {}
    for module, tree in _modules():
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id == "tuple"
        ]
        if lines:
            found[module] = lines
    assert set(found) == {"submodules.py"}


def test_no_dataclass_is_built_with_slots():
    found = []
    for module, tree in _modules():
        found += [
            f"{module}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _name(node.func) == "dataclass"
            and any(k.arg == "slots" for k in node.keywords)
        ]
    assert found == []

"""The library fills a slotted immutable object in one way only.

`TruncatedSeries`, `SpaceElement`, `FpSubspace` and the trusted
`CyclicSubmodule` forms write their slots through the slots' member
descriptors, bound once at import, which skip the class's `__setattr__`
guard. A generic `object.__setattr__` per field is the slower second idiom
this test keeps out of the package.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fpmods"


def _is_object_setattr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    )


def test_package_never_uses_object_setattr():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _is_object_setattr(node)
        ]
    assert found == []

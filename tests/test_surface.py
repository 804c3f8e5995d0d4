"""The public surface of the package: nothing that the package itself never uses.

Every public module-level function or class of a ``curvemorph`` module must
be read somewhere in ``src/curvemorph`` (as a name or an attribute), not
only defined; a function that only tests call belongs with the tests.
Every name the package exports must resolve.
"""

import ast
from pathlib import Path

import curvemorph

SRC = Path(curvemorph.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def _referenced_names() -> set[str]:
    names = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _public_definitions() -> list[str]:
    return [
        f"{module}.{node.name}"
        for module, tree in MODULES.items()
        if module != "__init__"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def test_every_public_definition_has_a_caller_in_src():
    referenced = _referenced_names()
    unused = [name for name in _public_definitions() if name.rpartition(".")[2] not in referenced]
    assert unused == []


def test_every_exported_name_resolves():
    assert [name for name in curvemorph.__all__ if not hasattr(curvemorph, name)] == []

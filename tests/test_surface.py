"""The public surface of the package: nothing that the package itself never uses.

Every public module-level function or class of a ``curvemorph`` module must
be read somewhere in ``src/curvemorph`` (as a name or an attribute), not
only defined; a function that only tests call belongs with the tests.
Every name the package exports must resolve.  A module reads no other
module's underscore names: what crosses a module boundary is public.  numpy
is the one runtime dependency: the package imports nothing else outside the
standard library.
"""

import ast
import os
import subprocess
import sys
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_modules_underscore_names():
    crossings = []
    for module, tree in MODULES.items():
        modules_imported = set()  # local names of curvemorph modules imported as a whole
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "curvemorph":
                for alias in node.names:
                    if _is_private(alias.name):
                        crossings.append(f"{module}: from {node.module} import {alias.name}")
                    elif node.module == "curvemorph" and alias.name in MODULES:
                        modules_imported.add(alias.asname or alias.name)
        crossings += [
            f"{module}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and _is_private(node.attr)
            and isinstance(node.value, ast.Name) and node.value.id in modules_imported
        ]
    assert crossings == []


def test_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "curvemorph"}
    imported = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert sorted(imported - allowed) == []


def test_cli_import_loads_no_scipy():
    code = "import sys, curvemorph.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert result.stdout.strip() == "[]"

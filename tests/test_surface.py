"""The public surface of the package: nothing that the package itself never uses.

Every public module-level function or class of a ``curvemorph`` module must
be read somewhere in ``src/curvemorph`` (as a name or an attribute), not
only defined; a function that only tests call belongs with the tests.
Every name the package exports must resolve.  A module reads no other
module's underscore names: what crosses a module boundary is public.  numpy
is the one runtime dependency: the package imports nothing else outside the
standard library.  Every per-layer metric that ``BENCHMARK.json`` declares
for a function names a public function of the package.
"""

import ast
import importlib
import inspect
import json
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


# Functions that have left src while the benchmark still declares metrics for
# them (each reads 0).  The benchmark's next version retires them; the subset
# check holds before and after.
_RETIRED_LAYERS = {
    "srvf.warp_action",
    "srvf.rotation_align_srvf",
    "curvetools.arclength_reparameterise",
    "basis.smooth",
    "basis.evaluate",
}


def test_every_traced_layer_names_a_public_function():
    """A metric ``<module>.<function>.<field>`` reads 0 for good once its function is renamed or made private."""
    declared = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["per_layer"]
    layers = {".".join(metric["name"].split(".")[:2]) for metric in declared if metric["name"].count(".") >= 2}
    missing = set()
    for layer in layers:
        module_name, _, function = layer.partition(".")
        module = importlib.import_module(f"curvemorph.{module_name}") if module_name in MODULES else None
        obj = getattr(module, function, None)
        if function.startswith("_") or not (inspect.isfunction(obj) and obj.__module__ == module.__name__):
            missing.add(layer)
    assert "srvf.estimate_warp" in layers and "fpca.mfpca_project" in layers
    assert missing <= _RETIRED_LAYERS


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

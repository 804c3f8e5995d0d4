"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public module-level function of the
traced curvemorph modules with a timing wrapper, in every curvemorph
namespace that holds a reference to it (``from x import f`` copies the
name, so each importing module is patched too).  The program's own files
are left untouched.  A wrapper records one span per call on an in-memory
stack: its inclusive time, and its self time, which is the inclusive time
minus the time covered by the child spans opened inside it.  Spans are
aggregated per function (and per caller/callee edge) as they close.

The stack is a single list, so traced code must run on one thread; the
benchmark runs the CLI with its default ``--threads 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "pipelines", "curvetools", "landmarks", "basis", "srvf", "fpca", "pca", "classify")

# ``cli.fmt`` formats one CSV cell; its cost is part of ``cli.write_csv``
# and a span per cell would cost more than the formatting itself.
_UNTRACED = {"cli.fmt"}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[list] = []  # [name, child seconds]
        self._hooks: dict[str, list] = defaultdict(list)
        self._call_hooks: dict[str, list] = defaultdict(list)
        self._restore: list[tuple[object, str, object]] = []

    def on_return(self, name: str, hook) -> None:
        """Call ``hook(args, kwargs, result, seconds)`` after each traced call of ``name``.

        Hooks run after the span has closed, so their cost is not charged to
        the traced function (it does count toward the caller's span).
        """
        self._hooks[name].append(hook)

    def on_call(self, name: str, hook) -> None:
        """Call ``hook(args, kwargs)`` before each traced call of ``name``, outside its span."""
        self._call_hooks[name].append(hook)

    def _wrap(self, name: str, fn):
        stack, hooks, call_hooks = self._stack, self._hooks[name], self._call_hooks[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for hook in call_hooks:
                hook(args, kwargs)
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
                self.calls[name] += 1
                self.total_s[name] += seconds
                self.self_s[name] += seconds - frame[1]
                self.edges[(parent, name)] += 1
            for hook in hooks:
                hook(args, kwargs, result, seconds)
            return result

        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"curvemorph.{layer}") for layer in LAYERS}
        replacements = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in _UNTRACED:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replacements[id(obj)] = (obj, self._wrap(name, obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "curvemorph" and not mod_name.startswith("curvemorph."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def summary(self) -> dict:
        """Aggregated spans, for the trace file."""
        return {
            "functions": {
                name: {"calls": self.calls[name], "total_s": self.total_s[name], "self_s": self.self_s[name]}
                for name in sorted(self.calls)
            },
            "edges": [
                {"caller": caller, "callee": callee, "calls": n}
                for (caller, callee), n in sorted(self.edges.items(), key=lambda e: (str(e[0][0]), e[0][1]))
            ],
        }

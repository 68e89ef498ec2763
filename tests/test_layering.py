"""Layering of the package: every import is at module level, and no module
imports, directly or through others, a module that imports it back.

An import inside a function or a class is how a layering cycle gets hidden,
so both rules are checked on the source with ``ast``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "didbracket"
MODULES = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}


def _tree(name):
    return ast.parse(MODULES[name].read_text(encoding="utf-8"), filename=str(MODULES[name]))


def _nested_imports(tree):
    """(line, scope) of every import inside a function or class body."""
    found = []
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for node in ast.walk(scope):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append((node.lineno, scope.name))
    return sorted(set(found))


def _package_imports(tree):
    """The package modules one module imports (``__init__`` for the package itself)."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "didbracket":
                    imported.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "didbracket":
                continue
            parts = (node.module or "").split(".")
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                imported.add(parts[0])
            else:  # "from . import x": x is a module, or a name of the package
                for alias in node.names:
                    imported.add(alias.name if alias.name in MODULES else "__init__")
    return imported


def _cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}

    def visit(name, trail):
        state[name] = "open"
        for dep in sorted(graph.get(name, ())):
            if state.get(dep) == "open":
                return trail[trail.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep, trail + [dep])
                if cycle:
                    return cycle
        state[name] = "done"
        return None

    for name in sorted(graph):
        if name not in state:
            cycle = visit(name, [name])
            if cycle:
                return cycle
    return None


def test_no_import_inside_a_function_or_class():
    nested = {name: _nested_imports(_tree(name)) for name in MODULES}
    assert {name: found for name, found in nested.items() if found} == {}


def test_no_import_cycle_among_the_modules():
    graph = {name: _package_imports(_tree(name)) - {name} for name in MODULES}
    assert graph["cli"] >= {"io", "bracketing", "simulation"}  # the parser sees imports
    assert _cycle(graph) is None


def test_the_cycle_finder_finds_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set()}) is None


def test_importing_the_package_loads_no_numpy():
    # ``import didbracket`` loads model and the estimation layers, which hold
    # no numpy (model's docstring): numpy loaded before ``.simulation``
    # leaves more memory resident (see ``io``'s import). The child process
    # imports the package from this process's path.
    result = subprocess.run(
        [sys.executable, "-c", "import sys, didbracket; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "False\n"

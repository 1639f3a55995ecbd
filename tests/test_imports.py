"""No module-level import in the package goes unused, and the scan kernel
and the scaled-integer format stay behind `lattice`.

No linter ships with the project, so these AST scans stand in for one.  A
name counts as used when it appears anywhere in the module (string
annotations included).  Names listed in a module's __all__ and the
re-exports of __init__.py are exempt."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "diophlab"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every module-level import."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree) | _exported(tree)
    return sorted(f"{path.name}:{line} {name}" for name, line in _imported(tree).items() if name not in used)


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_scanner_flags_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from fractions import Fraction\n"
        "from typing import Optional\n"
        "__all__ = ['Fraction']\n"
        "def f(x: 'Optional[int]'):\n"
        "    return os.sep\n",
        encoding="utf-8",
    )
    assert unused_imports(mod) == ["mod.py:2 system"]


# the scaled-integer format of `fastpath`, which only `lattice` may use
SCALED = {"scale_fraction", "threshold_bounds"}


def kernel_leaks(path: Path) -> list[str]:
    """Calls of iter_shell outside lattice.scan, and imports of the
    scaled-integer helpers outside lattice, anywhere in the module."""
    found = []

    def visit(node: ast.AST, func: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "iter_shell" and (path.name, func) != ("lattice.py", "scan"):
                    found.append(f"{path.name}:{child.lineno} iter_shell")
            elif isinstance(child, ast.ImportFrom) and path.name != "lattice.py":
                found.extend(f"{path.name}:{child.lineno} {a.name}" for a in child.names if a.name in SCALED)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scan_kernel_and_scaled_format_stay_in_lattice(path):
    assert kernel_leaks(path) == []


def test_scanner_flags_a_kernel_leak(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def f(n):\n"
        "    from .fastpath import Line1D, threshold_bounds\n"
        "    return [q for s in range(n) for q in lattice.iter_shell(n, s)]\n"
        "def scan(n):\n"
        "    return iter_shell(n, 0)\n",
        encoding="utf-8",
    )
    assert kernel_leaks(mod) == ["mod.py:2 threshold_bounds", "mod.py:3 iter_shell", "mod.py:5 iter_shell"]

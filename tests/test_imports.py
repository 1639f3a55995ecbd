"""No module-level import in the package goes unused.

No linter ships with the project, so this AST scan stands in for one.  A
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

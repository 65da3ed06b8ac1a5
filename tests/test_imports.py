"""Every name a module imports is used: a guard against dead imports left
behind by deletions, since no linter runs on the tree."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "gcskernel").glob("*.py"),
                             *(ROOT / "scripts").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's imports that it never reads, with
    their lines.  A ``from __future__`` import binds nothing; a quoted
    annotation is read as code."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for quoted in ast.walk(note) if note else ():
                if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(quoted.value, mode="eval"))
                                if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_the_guard_sees_an_unused_import():
    source = ("import os\nfrom typing import Any, Sequence\n\n"
              "def f(x: 'Sequence[int]'):\n    return os.sep, 'Any'\n")
    assert unused_imports(source) == ["Any (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

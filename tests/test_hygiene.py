"""Source hygiene: no module-level import goes unused.

A stdlib ``ast`` scan standing in for a linter.  Package ``__init__.py``
files are skipped, since their imports are re-exports; instead the package's
``__all__`` must list exactly the names it imports.
"""

import ast
from pathlib import Path

import pytest

import loadcast

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [p for p in (ROOT / "src" / "loadcast").glob("*.py")
     if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "demos").glob("*.py")))


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_package_exports_exactly_its_imports():
    init = ROOT / "src" / "loadcast" / "__init__.py"
    tree = ast.parse(init.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(loadcast.__all__) == sorted(imported)
    assert len(loadcast.__all__) == len(set(loadcast.__all__))

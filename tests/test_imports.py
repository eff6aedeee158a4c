"""Every module-level import in the package is used (the package's lint step)."""

from __future__ import annotations

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "donorsim"
# __init__.py imports only to re-export.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_checker_flags_an_unused_import():
    source = "from __future__ import annotations\nimport cmath\nimport math\nmath.pi\n"
    assert unused_imports(source) == ["line 2: cmath"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

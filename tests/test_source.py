"""Checks on the package's source text that need no linter: stdlib ``ast`` only."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "jacprop").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, except on lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1] + lines[node.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom math import (\n    pi,\n    tau,\n)\nprint(pi)\n"
    assert unused_imports(source) == ["line 1: os", "line 5: tau"]


# __init__.py imports to re-export
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

"""Every name a package module imports is read by that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ccorb"


def _unread_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order.

    ``from __future__`` imports are not names, and an import statement
    marked ``# noqa: F401`` on any of its lines is exempt.
    """
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unread.append(name)
    return unread


def test_the_check_finds_an_unread_import():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "from json import dumps, loads as load_text\n"
              "from re import (  # noqa: F401\n"
              "    compile,\n"
              ")\n"
              "x = os.sep + dumps(1)\n")
    assert _unread_imports(source) == ["math", "load_text"]


@pytest.mark.parametrize("module", sorted(
    path.name for path in SRC.glob("*.py") if path.name != "__init__.py"))
def test_a_module_reads_every_name_it_imports(module):
    assert _unread_imports((SRC / module).read_text(encoding="utf-8")) == []

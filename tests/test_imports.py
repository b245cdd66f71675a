"""Every name a package module imports is read by that module, no module
calls BLAS, and ``import ccorb`` loads OpenBLAS with one thread."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ccorb"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
#: numpy names whose calls go to BLAS or LAPACK; ``linalg`` is the module
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "einsum", "tensordot",
              "linalg"}


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


def _blas_calls(source: str) -> list[str]:
    """The BLAS- or LAPACK-backed numpy names and ``@`` operators that
    ``source`` uses, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            found.append((node.lineno, node.col_offset, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.col_offset, node.attr))
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "numpy"):
            found += [(node.lineno, node.col_offset, alias.name)
                      for alias in node.names
                      if node.module == "numpy.linalg"
                      or alias.name in BLAS_NAMES]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, node.col_offset, alias.name)
                      for alias in node.names
                      if alias.name.startswith("numpy.linalg")]
    return [name for _, _, name in sorted(found)]


def test_the_check_finds_a_blas_call():
    source = ("import numpy as np\n"
              "import numpy.linalg\n"
              "from numpy import einsum, multiply\n"
              "from numpy.linalg import norm\n"
              "a = np.ones(3)\n"
              "b = a @ a + np.multiply(a, a).sum()\n"
              "a @= a\n"
              "c = np.dot(a, a) + a.dot(a) + np.linalg.det(a)\n")
    assert _blas_calls(source) == ["numpy.linalg", "einsum", "norm", "@",
                                   "@", "dot", "dot", "linalg"]


@pytest.mark.parametrize("module", sorted(
    path.name for path in SRC.glob("*.py")))
def test_a_module_calls_no_blas(module):
    """ccorb imports numpy with one OpenBLAS thread (see ``__init__``); a
    BLAS call here would have to revisit that choice."""
    assert _blas_calls((SRC / module).read_text(encoding="utf-8")) == []


CHILD = """\
import json, os
before = dict(os.environ)
import ccorb
with open("/proc/self/status", encoding="ascii") as status:
    threads = next(int(line.split()[1]) for line in status
                   if line.startswith("Threads:"))
print(json.dumps({"threads": threads, "before": before,
                  "after": dict(os.environ)}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs /proc/self/status")
@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}],
                         ids=["unset", "openblas-2"])
def test_import_leaves_one_thread_and_the_environment_as_found(preset):
    """With no thread variable set, a fresh ``import ccorb`` starts no
    OpenBLAS worker; a variable the user set wins; the environment is
    left as found either way."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env.update(preset)
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    seen = json.loads(proc.stdout)
    assert seen["after"] == seen["before"]
    assert {k: seen["after"].get(k) for k in THREAD_VARS} == {
        k: preset.get(k) for k in THREAD_VARS}
    if not preset:
        assert seen["threads"] == 1

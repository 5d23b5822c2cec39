"""Every module of the package uses each name it imports, and every
private top-level name is read somewhere else in the package.

Stdlib-only scans over the syntax tree. A name bound by ``import`` or
``from ... import`` must be read somewhere in the module; ``__init__.py``
is skipped there, since it imports names to re-export them. A private
function, class or constant must be read, or imported, by another
top-level statement of ``src/``, so a helper kept only for tests fails.
The test oracles in ``tests/oracles.py`` import no ``crossfree`` module
but ``crossfree.families``, so they share no code with the layers they
check. The package holds no ``assert`` statement, which ``python -O``
would strip: its self-checks raise ``AssertionError`` explicitly. A fresh
``import crossfree.cli`` loads neither ``dataclasses`` nor ``inspect``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crossfree"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names imported by the module source and never read in it, in line order."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name for name in imported if name not in read), key=imported.get)


def test_scan_finds_unused_imports():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "from collections import deque as dq, Counter\n"
        "from __future__ import annotations\n"
        "def f(x: Counter) -> None:\n"
        "    return osp.join(x)\n"
    )
    assert unused_imports(source) == ["os", "dq"]


def test_package_modules_found():
    assert {"families.py", "crossing.py", "kernel.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each private top-level name of the module sources
    that no other top-level statement reads or imports, in line order."""
    defined, reads = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            read = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.name)
            reads.append(read)
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((module, name, len(reads) - 1))
    return [
        f"{module}:{name}"
        for module, name, own in defined
        if not any(name in read for at, read in enumerate(reads) if at != own)
    ]


def test_scan_finds_unread_private_names():
    sources = {
        "a.py": "_LIMIT = 3\ndef _walk(n):\n    return _walk(n - 1)\nclass _Kept: pass\n",
        "b.py": "from .a import _Kept\ndef _used():\n    return 1\nx = _used()\n",
    }
    assert unread_private_names(sources) == ["a.py:_LIMIT", "a.py:_walk"]


def test_no_private_name_unread_in_package():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def crossfree_imports(source: str) -> list[str]:
    """The ``crossfree`` modules the module source imports; ``from crossfree
    import x`` counts as the package itself, which imports every module."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] == "crossfree"]


def test_scan_finds_crossfree_imports():
    source = (
        "import itertools\n"
        "import crossfree.kernel as k\n"
        "from crossfree import search, families\n"
        "from crossfree.families import crosses\n"
    )
    assert crossfree_imports(source) == ["crossfree.kernel", "crossfree", "crossfree.families"]


def test_oracles_import_only_families():
    assert set(crossfree_imports(ORACLES.read_text())) == {"crossfree.families"}


def test_no_assert_statement_in_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


START_UP = "import sys, crossfree.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"


def test_cli_start_up_loads_no_dataclasses_or_inspect():
    """Each CLI call is a fresh process, and these two modules (with the
    ones only they pull in) were the largest part of the package's import.
    The check runs in a fresh interpreter, since pytest and hypothesis
    import both."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", START_UP], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")

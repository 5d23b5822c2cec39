"""Every module of the package uses each name it imports.

A stdlib-only scan over the syntax tree: a name bound by ``import`` or
``from ... import`` must be read somewhere in the module. ``__init__.py``
is skipped, since it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crossfree"
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

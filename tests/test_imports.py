"""A fence against unused imports in the package's modules."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "kshrink").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names source imports but never reads, lists in __all__ or marks `# noqa: F401`.

    A name counts as read where it is loaded anywhere in the module,
    annotations included; `from __future__` imports are compiler switches,
    not names.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name in read or name in exported or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            found.append(f"{alias.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_fence_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from .model import (\n"
        "    A,\n"
        "    B,\n"
        "    C,  # noqa: F401\n"
        ")\n"
        "from .risk import D\n"
        "__all__ = ['D']\n"
        "def f(x: A) -> None:\n"
        "    sys.exit(x)\n"
    )
    assert unused_imports(source) == ["2: os", "5: B"]

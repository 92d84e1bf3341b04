"""No module under ``src/repro`` imports a name it never uses.

A module's imports are the names its ``import`` and ``from ... import``
statements bind, ``__future__`` aside.  A name counts as used when the
module reads it anywhere, a quoted forward reference included, or lists
it in ``__all__``.  A package ``__init__.py`` imports to re-export, so
it is exempt.  alloclint does not check this, so this test keeps the
tree clean.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


def _imported(tree: ast.Module):
    """``(name, line)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree: ast.Module) -> set:
    """Names the module reads, in code or in a quoted forward reference
    (any string that parses as an expression), and the names its
    ``__all__`` lists."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):
                continue
            used.update(
                name.id for name in ast.walk(quoted)
                if isinstance(name, ast.Name)
            )
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path):
    """``(name, line)`` for each name ``path`` imports and never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return sorted(
        {(name, line) for name, line in _imported(tree) if name not in used},
        key=lambda item: item[1],
    )


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: str(path.relative_to(SRC))
)
def test_module_uses_every_import(path):
    assert unused_imports(path) == []


def test_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys\n"
        "from typing import TYPE_CHECKING, Dict, Optional, Union\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "__all__ = ['Dict']\n"
        "Path = Union['os.PathLike[str]', str]\n"
        "def f(x: 'Optional[OrderedDict]') -> None:\n"
        "    return None\n"
    )
    assert unused_imports(module) == [("sys", 3)]


def test_scans_the_source_tree():
    # A wrong root would leave the parametrized test with no cases.
    assert len(MODULES) > 90

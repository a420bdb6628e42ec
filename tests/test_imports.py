"""No module of the package imports a name it never uses.

No linter is part of the test environment, so this is a small stand-in for
pyflakes' F401 check, built on :mod:`ast`.  A name counts as used when the
module reads it anywhere (attribute chains count by their first name) or
lists it in ``__all__``.  An import whose statement carries ``# noqa: F401``
is kept on purpose, e.g. a name other code looks up in the module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sltr"


def unused_imports(source: str):
    """``(line, name)`` of each import binding in ``source`` that nothing uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in ln for ln in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import scipy.linalg\n"
        "from a import b, c\n"
        "from d import (\n"
        "    e,  # noqa: F401\n"
        ")\n"
        "from f import g\n"
        "__all__ = ['g']\n"
        "x: c = scipy.linalg.norm(1)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (5, "b")]

"""No module of the package imports a name it never uses, or exports one it lacks.

No linter is part of the test environment, so this is a small stand-in for
pyflakes' F401 and F822 checks, built on :mod:`ast`.  A name counts as used
when the module reads it anywhere (attribute chains count by their first
name) or lists it in ``__all__``.  An import whose statement carries
``# noqa: F401`` is kept on purpose, e.g. a name other code looks up in the
module.  Every name in a module's ``__all__`` must be defined at its top
level, and the package's ``__all__`` must be exactly the names its
``__init__`` imports, so a deleted name cannot linger as an export.  Only
``tensor.py`` imports :mod:`numbers` or calls ``.is_integer``: the size rule
lives there alone, and every other module checks sizes through it.  The
copy-or-keep rule of ``Tensor`` and ``Dataset`` is written once too: the
package defines ``_own`` and ``__setattr__`` once each, on the base class
the two share in ``tensor.py``.  The package is layered:
``data.py`` imports only ``tensor`` from the package, so the data container
holds no estimator code: the solver keeps its per-epsilon backbones in a
private dict of each dataset, but ``data.py`` never makes one.  No module
imports ``cli``.  A fresh ``import sltr`` or ``import sltr.cli`` loads numpy and
no scipy module: each scipy user imports it at its call (the SVD's last
fallback :mod:`scipy.linalg` and the normal draws' :mod:`scipy.special`), and
the AUC ranks with numpy alone.  So ``sltr fit``, ``predict``, ``cv`` and
``eval --metric auc`` on files never load :mod:`scipy.special` or
:mod:`scipy.stats`, and ``sltr simulate``, which draws normals, loads
:mod:`scipy.special` alone.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sltr import io as sio
from sltr.simulate import SimSpec, generate
from sltr.tensor import Tensor

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


def exported(tree) -> list:
    """The names listed in the module's ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def stale_exports(source: str):
    """Names in ``__all__`` that no top-level def, class or assignment of ``source`` defines."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in exported(tree) if name not in defined]


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


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    assert stale_exports(path.read_text()) == []


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    names = exported(tree)
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(imported)


def test_export_checker_finds_stale_names():
    source = (
        "from a import b\n"
        "__all__ = ['b', 'c', 'd', 'e', 'f', 'gone']\n"
        "c = 1\n"
        "d: int = 2\n"
        "def e(): pass\n"
        "class f: pass\n"
    )
    assert stale_exports(source) == ["b", "gone"]


def imported_modules(source: str) -> set:
    """Top-level names of the modules that ``source`` imports, relative imports left out."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "tensor.py"),
                         ids=lambda p: p.name)
def test_only_tensor_holds_the_size_rule(path):
    assert "numbers" not in imported_modules(path.read_text())


def called_methods(source: str) -> set:
    """Names of the attributes that ``source`` calls, as in ``x.name(...)``."""
    return {node.func.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "tensor.py"),
                         ids=lambda p: p.name)
def test_only_tensor_decides_whole_numbers(path):
    assert "is_integer" not in called_methods(path.read_text())


def test_method_checker_finds_every_form():
    source = "float(v).is_integer()\nx.y.is_finite(1)\nf(a.b)\n"
    assert called_methods(source) == {"is_integer", "is_finite"}


def test_copy_or_keep_rule_is_written_once():
    names = [node.name for path in PACKAGE.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert (names.count("_own"), names.count("__setattr__")) == (1, 1)


def test_import_checker_finds_every_form():
    for line in ("import numbers", "import numbers as nb", "from numbers import Integral",
                 "import os, numbers", "def f():\n    import numbers.abc"):
        assert "numbers" in imported_modules(line), line
    assert "numbers" not in imported_modules("from .numbers import x\nimport numberslike")


def package_imports(source: str) -> set:
    """Names of the package's modules that ``source`` imports, relatively or as ``sltr.*``."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[1] for alias in node.names
                           if alias.name.startswith("sltr."))
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "sltr":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                modules.add(parts[0])
            else:  # from . import io
                modules.update(alias.name for alias in node.names)
    return modules


def test_data_imports_only_tensor_from_the_package():
    assert package_imports((PACKAGE / "data.py").read_text()) <= {"tensor"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_the_cli(path):
    assert "cli" not in package_imports(path.read_text())


def test_package_import_checker_finds_every_form():
    source = (
        "from . import io as sio, cli\n"
        "from .linalg import _gram\n"
        "from .tensor.sub import x\n"
        "from sltr.solver import fit\n"
        "from sltr import rng\n"
        "import sltr.prox\n"
        "import numpy, sltrlike\n"
        "from numpy import linalg\n"
        "def f():\n    from .simulate import generate\n"
    )
    assert package_imports(source) == {
        "io", "cli", "linalg", "tensor", "solver", "rng", "prox", "simulate"}


def last_line_of_fresh_run(code: str, cwd=None) -> str:
    """The last line ``code`` prints in a fresh interpreter that imports the package from source."""
    path = filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True,
                         text=True, check=True)
    return out.stdout.splitlines()[-1]


def test_importing_the_package_and_its_cli_loads_no_scipy_module():
    code = ("import sys, sltr, sltr.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert last_line_of_fresh_run(code) == "[]"


def test_only_simulate_loads_scipy_special(tmp_path):
    ds = generate(SimSpec((3, 2), n=8, seed=0))[0]
    sio.write_dataset(tmp_path / "d.ds", ds)
    sio.write_tensor(tmp_path / "w.tn", Tensor.zeros(ds.dims))
    (tmp_path / "grid.tsv").write_text("1.0\t1.0\t1.0\n")
    (tmp_path / "labels.txt").write_text("label\n" + "".join(f"{i % 2}\n" for i in range(ds.n)))
    commands = [
        ["fit", "--data", "d.ds", "--lambda", "1", "--tau", "1", "--out", "fit.tn"],
        ["predict", "--model", "w.tn", "--data", "d.ds", "--out", "pred.txt"],
        ["cv", "--data", "d.ds", "--grid-file", "grid.tsv", "--folds", "2"],
        ["eval", "--pred", "pred.txt", "--truth", "labels.txt", "--metric", "auc"],
        ["simulate", "--dims", "3x2", "--n", "8", "--out", "sim"],
    ]
    code = ("import sys\n"
            "from sltr import cli\n"
            "loaded = {}\n"
            f"for argv in {json.dumps(commands)}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    loaded[argv[0]] = [m for m in ('scipy.special', 'scipy.stats')\n"
            "                       if m in sys.modules]\n"
            "print(loaded)")
    assert last_line_of_fresh_run(code, cwd=tmp_path) == str(
        {"fit": [], "predict": [], "cv": [], "eval": [], "simulate": ["scipy.special"]})

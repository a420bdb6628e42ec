"""The names the benchmark in ``perfbench/`` relies on still exist and still work.

``perfbench/spans.py`` traces the layers by replacing module attributes, and
``perfbench/run.py`` and ``perfbench/workloads.py`` call the solver directly.
A refactor that renames one of them should fail here, not in a benchmark run.
The benchmark's files are only read.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from sltr import solver
from sltr.simulate import SimSpec, generate
from sltr.solver import SolverConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


def test_every_traced_attribute_exists(spans):
    # Tracer.installed() looks each name up in the owner's own namespace.
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in spans.TARGETS
               if attr not in vars(owner) or not callable(vars(owner)[attr])]
    assert missing == []


def test_default_thread_count_needs_no_arguments(monkeypatch):
    monkeypatch.delenv("SLTR_THREADS", raising=False)
    assert solver.default_thread_count() == 1
    monkeypatch.setenv("SLTR_THREADS", "3")
    assert solver.default_thread_count() == 3


def test_one_thread_fit_runs():
    ds, _ = generate(SimSpec(dims=(4, 3, 2), n=12, seed=0))
    result = solver.fit(ds, SolverConfig(lam=1.0, tau=1.0, epsilon=1.0, max_iter=20), threads=1)
    assert result.w_hat.dims == ds.dims and np.isfinite(result.w_hat.data).all()


def test_workload_module_imports():
    # Its imports name the functions and the SolverConfig fields the workloads use.
    assert set(_load("workloads").WORKLOADS) == {"fit_30x30x10", "cv_10x10x5", "data_30x30x10"}

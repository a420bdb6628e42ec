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

from sltr import evaluation, solver
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
    # perfbench/run.py records it after clearing SLTR_THREADS, which no longer selects anything.
    monkeypatch.delenv("SLTR_THREADS", raising=False)
    assert solver.default_thread_count() == 1
    monkeypatch.setenv("SLTR_THREADS", "3")
    assert solver.default_thread_count() == 1


def test_one_thread_fit_runs():
    ds, _ = generate(SimSpec(dims=(4, 3, 2), n=12, seed=0))
    result = solver.fit(ds, SolverConfig(lam=1.0, tau=1.0, epsilon=1.0, max_iter=20), threads=1)
    assert result.w_hat.dims == ds.dims and np.isfinite(result.w_hat.data).all()


def test_l1_and_linf_spans_count_one_call_per_sweep(monkeypatch):
    # The sweep looks each operator up as a module global at every call, so
    # perfbench's prox.*_calls each count the sweeps, and each certificate
    # built calls nuclear_norm four times: once for each of its two candidate
    # points, twice for the dual value.  An operator bound before the loop
    # would escape the tracer.
    sweep_ops = ("prox_l1", "project_linf_ball", "prox_nuclear", "project_spectral_ball")
    calls = dict.fromkeys(sweep_ops + ("nuclear_norm", "_certificate"), 0)

    def counting(name):
        original = getattr(solver, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name))
    center = np.random.default_rng(2).normal(size=(5, 8))
    _, trace = solver.solve_subproblem(1, center, (5, 8), SolverConfig(lam=0.3, tau=1.0, tol=1e-6))
    assert len(trace) > 0 and trace.certificate.exit == "converged" and calls["_certificate"] > 1
    assert calls == {**dict.fromkeys(sweep_ops, len(trace)), "nuclear_norm": 4 * calls["_certificate"],
                     "_certificate": calls["_certificate"]}


def test_traced_runs_match_plain_runs_and_count_every_sweep(spans):
    # The hooks read the arguments and results of the calls they wrap: each
    # traced name must be called the way they expect, and a traced fit or
    # cross-validation must give the plain run's answers, bit for bit.
    ds, _ = generate(SimSpec(dims=(6, 5, 4), n=30, seed=0))
    cfg = SolverConfig(lam=1.0, tau=1.0)
    grid = [(0.1, 1.0, 1.0), (1.0, 1.0, 0.1), (1.0, 10.0, 1.0)]
    plain_fit = solver.fit(ds, cfg, threads=2)
    plain_cv = evaluation.kfold_cv(ds, grid, cfg, k=3)
    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.op(0):
            traced_fit = solver.fit(ds, cfg, threads=2)
        with tracer.op(1):
            traced_cv = evaluation.kfold_cv(ds, grid, cfg, k=3)

    for a, b in zip((traced_fit.w_hat, *traced_fit.per_mode),
                    (plain_fit.w_hat, *plain_fit.per_mode)):
        np.testing.assert_array_equal(a.data.view(np.uint64), b.data.view(np.uint64))
    assert traced_fit.trace == plain_fit.trace
    assert traced_cv == plain_cv

    fit_metrics = spans.layer_metrics(tracer.spans, [0])
    sweeps = sum(plain_fit.iterations_used)
    assert sweeps > 0
    assert fit_metrics["solver.sweeps"][0] == sweeps == fit_metrics["prox.nuclear_calls"][0]
    cv_metrics = spans.layer_metrics(tracer.spans, [1])
    assert cv_metrics["solver.sweeps"][0] == cv_metrics["prox.nuclear_calls"][0] > 0
    assert cv_metrics["evaluation.fits"][0] == 3 * len(grid)


def test_workload_module_imports():
    # Its imports name the functions and the SolverConfig fields the workloads use.
    assert set(_load("workloads").WORKLOADS) == {"fit_30x30x10", "cv_10x10x5", "data_30x30x10"}

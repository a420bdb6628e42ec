"""The benchmark's workloads: inputs built from a seed, one timed operation, output checks.

Each workload has the same steps, which ``run.py`` drives:

* ``build(seed, workdir)`` makes the inputs (timed as set-up);
* ``reference(state)``, where the workload fits, runs the untimed first
  operation that fixes the expected output, checks the sequential/parallel
  contract and returns the answer-quality numbers;
* ``op(state, k)`` is one timed operation of the closed loop on input ``k``;
* ``check(state, k, out)`` returns the reasons the output is wrong (empty if
  it is right);
* ``report(state)`` gives the workload's own end-to-end numbers.

``op_label`` is the name the operation's wall time goes by in the report
(``fit_s`` is one fit).

Calls go through module attributes (``solver.fit``, not a name imported from
it) so that a traced run sees them.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from sltr import evaluation, solver
from sltr import io as sio
from sltr import simulate
from sltr.linalg import backbone
from sltr.prox import ConstraintCenter
from sltr.simulate import SimSpec
from sltr.solver import SolverConfig
from sltr.tensor import unfold


def same_bits(a, b) -> bool:
    """Arrays equal bit for bit (so -0.0 differs from 0.0 and NaN equals itself)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def same_fit(a, b) -> bool:
    return same_bits(a.w_hat.data, b.w_hat.data) and all(
        same_bits(p.data, q.data) for p, q in zip(a.per_mode, b.per_mode)
    )


def seq_par_check(ds, cfg):
    """Fit at the default thread count and at ``threads=1``; the results must be bit-identical.

    Returns ``(default_fit, one_thread_seconds, failures)``.
    """
    par = solver.fit(ds, cfg)
    t = time.perf_counter()
    seq = solver.fit(ds, cfg, threads=1)
    one_thread_s = time.perf_counter() - t
    failures = []
    if not np.all(np.isfinite(par.w_hat.data)):
        failures.append("first fit has non-finite coefficients")
    if not same_fit(par, seq):
        failures.append("threads=1 fit is not bit-identical to the default-thread fit")
    return par, one_thread_s, failures


@dataclass
class FitState:
    ds: object
    w_star: object
    expected: object = None


@dataclass(frozen=True)
class FitWorkload:
    """Repeated fits of one 30x30x10 dataset: LAPACK-bound, the slowest mode sets the time."""

    name: str = "fit_30x30x10"
    op_label: str = "fit_s"
    dims: tuple = (30, 30, 10)
    n: int = 720
    cfg: SolverConfig = SolverConfig(lam=1.0, tau=1.0, epsilon=1.0)

    def build(self, seed, workdir):
        ds, w_star = simulate.generate(SimSpec(dims=self.dims, n=self.n, seed=seed))
        return FitState(ds, w_star)

    def reference(self, st):
        st.expected, one_thread_s, failures = seq_par_check(st.ds, self.cfg)
        bb = backbone(st.ds.x, st.ds.y, self.cfg.epsilon, st.ds.dims)
        gap = 0.0
        for m, part in enumerate(st.expected.per_mode, start=1):
            ctr = ConstraintCenter(unfold(bb.tensor, m), self.cfg.lam, self.cfg.tau)
            _, _, linf_gap, spec_gap = solver.objective_and_gaps(unfold(part, m), ctr)
            gap = max(gap, linf_gap, spec_gap)
        quality = {
            "coef_err": (evaluation.coefficient_error(st.expected.w_hat, st.w_star), "ratio"),
            "constraint_gap": (gap, "abs"),
            "solver.fit_1thread_s": (one_thread_s, "s"),
        }
        return quality, failures

    def op(self, st, k):
        return solver.fit(st.ds, self.cfg)

    def check(self, st, k, out):
        if not same_fit(out, st.expected):
            return ["fit differs from the first fit of the run"]
        return []

    def report(self, st):
        return {}


@dataclass
class CvState:
    data: list
    grid: list
    expected: dict = field(default_factory=dict)


def cv_grid():
    """Nine cells of ``default_grid()``: lambda and tau in {0.1, 1, 10}, epsilon cycling.

    Every lambda/tau pair appears once and each epsilon three times, so the
    grid keeps the cells whose modes run to ``max_iter`` (tau = 1, lambda >= 1)
    and the cells whose spectral clips all exit early (tau = 10).
    """
    radii = (0.1, 1.0, 10.0)
    cells = [(lam, tau, radii[(i + j) % 3])
             for i, lam in enumerate(radii) for j, tau in enumerate(radii)]
    missing = set(cells) - set(evaluation.default_grid())
    if missing:
        raise ValueError(f"cells not in default_grid(): {sorted(missing)}")
    return cells


@dataclass(frozen=True)
class CvWorkload:
    """One 5-fold cross-validation over nine cells at 10x10x5: many tiny fits.

    How many sweeps a call takes depends on the dataset (31,000 to 42,000
    over ten seeds), so set-up builds ``datasets`` of them, with seeds
    ``datasets * seed + j``, and operation ``k`` runs on dataset
    ``k % datasets``: a run's median is over several inputs, not one.
    """

    name: str = "cv_10x10x5"
    op_label: str = "cv_s"
    dims: tuple = (10, 10, 5)
    n: int = 40
    folds: int = 5
    datasets: int = 3
    cfg: SolverConfig = SolverConfig(lam=1.0, tau=1.0)

    def build(self, seed, workdir):
        seeds = [self.datasets * seed + j for j in range(self.datasets)]
        data = [(s, simulate.generate(SimSpec(dims=self.dims, n=self.n, seed=s))[0])
                for s in seeds]
        return CvState(data, cv_grid())

    def reference(self, st):
        _, one_thread_s, failures = seq_par_check(st.data[0][1], self.cfg)
        return {"solver.fit_1thread_s": (one_thread_s, "s")}, failures

    def op(self, st, k):
        seed, ds = st.data[k % self.datasets]
        return evaluation.kfold_cv(ds, st.grid, self.cfg, k=self.folds, fold_seed=seed)

    def check(self, st, k, out):
        failures = []
        if not all(math.isfinite(v) for v in out.per_cell):
            failures.append("non-finite validation MSE in some cell")
        if out.selected not in out.grid:
            failures.append(f"selected cell {out.selected} is not in the grid")
        first = st.expected.setdefault(k % self.datasets, out)
        if (out.per_cell, out.selected) != (first.per_cell, first.selected):
            failures.append("cross-validation report differs from the first one on its dataset")
        return failures

    def report(self, st):
        if 0 not in st.expected:
            return {}
        return {"cv_best_mse": (min(st.expected[0].per_cell), "mse")}


@dataclass
class DataState:
    seed: int
    path: str
    phases: list = field(default_factory=list)


@dataclass(frozen=True)
class DataWorkload:
    """simulate -> write -> read -> predict at 30x30x10 with zero noise; no solver."""

    name: str = "data_30x30x10"
    op_label: str = "pipeline_s"
    dims: tuple = (30, 30, 10)
    n: int = 720

    def build(self, seed, workdir):
        return DataState(seed, os.path.join(workdir, "dataset.bin"))

    def op(self, st, k):
        t0 = time.perf_counter()
        ds, w_star = simulate.generate(
            SimSpec(dims=self.dims, n=self.n, noise_alpha=0.0, seed=st.seed + k))
        t1 = time.perf_counter()
        sio.write_dataset(st.path, ds)
        back = sio.read_dataset(st.path)
        t2 = time.perf_counter()
        y_hat = solver.predict(w_star, ds.samples())
        t3 = time.perf_counter()
        os.remove(st.path)
        st.phases.append((t1 - t0, t2 - t1, t3 - t2))
        return ds, back, y_hat

    def check(self, st, k, out):
        ds, back, y_hat = out
        failures = []
        if not same_bits(y_hat, ds.y):
            failures.append("predict(w_star) differs from the noiseless responses")
        if back.dims != ds.dims or not (same_bits(back.x, ds.x) and same_bits(back.y, ds.y)):
            failures.append("read-back dataset differs from the written one")
        return failures

    def report(self, st):
        if not st.phases:
            return {}
        sim, io_rt, pred = (statistics.median(p) for p in zip(*st.phases))
        return {
            "simulate_s": (sim, "s"),
            "io_roundtrip_s": (io_rt, "s"),
            "predict_rows_per_s": (self.n / pred, "rows/s"),
        }


WORKLOADS = {wl.name: wl for wl in (FitWorkload(), CvWorkload(), DataWorkload())}

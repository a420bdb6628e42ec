"""Print one SHA-256 over the estimator's outputs on the benchmark's inputs.

A change that claims to keep results bit for bit prints the same digest as
its parent.  Run from the repository root (or anywhere) with

    python3 tools/bit_digest.py

BLAS is pinned to one thread before numpy loads, so the digest does not
depend on the thread count.  The digest covers, in this order:

* for seeds 0, 1, 2: the fit of ``SimSpec((30, 30, 10), 720, seed=s)`` at
  lambda = tau = epsilon = 1, as ``w_hat``'s bytes and then ``repr`` of its
  per-mode traces;
* for seeds 0-8: ``repr`` of the nine-cell ``kfold_cv`` report of the
  benchmark's ``cv_10x10x5`` workload on the dataset of that seed, folded by
  that seed.

It imports ``perfbench.workloads`` for the CV workload's settings and grid,
and changes nothing there.
"""

import os

# BLAS reads these when numpy loads, so they are set before the imports below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads
from sltr import evaluation, simulate, solver
from sltr.simulate import SimSpec
from sltr.solver import SolverConfig


def digest() -> str:
    h = hashlib.sha256()
    for s in range(3):
        ds = simulate.generate(SimSpec((30, 30, 10), 720, seed=s))[0]
        r = solver.fit(ds, SolverConfig(lam=1.0, tau=1.0, epsilon=1.0))
        h.update(r.w_hat.data.tobytes())
        h.update(repr(r.trace).encode())
    wl = workloads.CvWorkload()
    for s in range(9):
        ds = simulate.generate(SimSpec(dims=wl.dims, n=wl.n, seed=s))[0]
        report = evaluation.kfold_cv(ds, workloads.cv_grid(), wl.cfg, k=wl.folds, fold_seed=s)
        h.update(repr(report).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())

"""Print how far the mode solves of the benchmark's inputs stop from their optima.

A change to the solve loop (its stop, step or extrapolation) is compared at
equal accuracy with this.  Run from the repository root (or anywhere) with

    python3 tools/accuracy_audit.py

BLAS is pinned to one thread before numpy loads.  Two sets of mode solves
are recorded at the default ``SolverConfig`` settings:

* ``cv``: every solve with at least one sweep in the nine-cell ``kfold_cv``
  of the benchmark's ``cv_10x10x5`` workload on datasets 0-2, each folded
  by its seed;
* ``fit``: the three modes of the ``SimSpec((30, 30, 10), 720, seed=s)``
  fit for s = 0, 1 at (lambda, tau) = (1, 1), (0.1, 1), (1, 0.1) and
  (0.3, 3), epsilon 1.

Each solve is solved again from the same centre at ``tol`` 1e-10, and its
distance is ``||w - w_ref||_F / ||w_ref||_F``.  For each set one line gives
the solve count, the sweeps, the solves more than 1% off, the worst and the
median distance, the reference solves that did not converge, and the
converged exits whose gap is outside ``[0, tol * objective]`` or whose
violations exceed 1e-12 of the radii.  It imports ``perfbench.workloads``
for the CV workload's settings and grid, and changes nothing there.
"""

import os

# BLAS reads these when numpy loads, so they are set before the imports below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np

from perfbench import workloads
from sltr import evaluation, simulate, solver
from sltr.simulate import SimSpec
from sltr.solver import SolverConfig

REFERENCE_TOL = 1e-10
REFERENCE_MAX_ITER = 200_000
FIT_RADII = ((1.0, 1.0), (0.1, 1.0), (1.0, 0.1), (0.3, 3.0))


def recorded(run):
    """The ``(m, center, dims, cfg, w, trace)`` of every mode solve with a sweep that ``run()`` makes."""
    solves, solve = [], solver.solve_subproblem

    def recording(m, center, dims, cfg):
        w, trace = solve(m, center, dims, cfg)
        if len(trace):
            solves.append((m, center, dims, cfg, w, trace))
        return w, trace

    solver.solve_subproblem = recording
    try:
        run()
    finally:
        solver.solve_subproblem = solve
    return solves


def cv_solves():
    wl = workloads.CvWorkload()

    def run():
        for s in range(3):
            ds = simulate.generate(SimSpec(dims=wl.dims, n=wl.n, seed=s))[0]
            evaluation.kfold_cv(ds, workloads.cv_grid(), wl.cfg, k=wl.folds, fold_seed=s)
    return recorded(run)


def fit_solves():
    def run():
        for s in range(2):
            ds = simulate.generate(SimSpec((30, 30, 10), 720, seed=s))[0]
            for lam, tau in FIT_RADII:
                solver.fit(ds, SolverConfig(lam=lam, tau=tau, epsilon=1.0))
    return recorded(run)


def audit(name, solves):
    distances, unconverged, uncertified = [], 0, 0
    for m, center, dims, cfg, w, trace in solves:
        tight = dataclasses.replace(cfg, tol=REFERENCE_TOL, max_iter=REFERENCE_MAX_ITER)
        ref, ref_trace = solver.solve_subproblem(m, center, dims, tight)
        unconverged += ref_trace.certificate.exit != "converged"
        distances.append(float(np.linalg.norm(w - ref)) / float(np.linalg.norm(ref)))
        c = trace.certificate
        if c.exit == "converged" and not (
                0.0 <= c.gap <= cfg.tol * c.objective
                and c.linf_violation <= 1e-12 * cfg.lam and c.spectral_violation <= 1e-12 * cfg.tau):
            uncertified += 1
    d = np.array(distances)
    print(f"{name}: {len(solves)} solves, {sum(len(s[5]) for s in solves)} sweeps, "
          f"{int(np.count_nonzero(d > 1e-2))} more than 1% off, worst {d.max():.3g}, "
          f"median {np.median(d):.3g}; {unconverged} references unconverged, "
          f"{uncertified} converged exits outside their certificate")


if __name__ == "__main__":
    audit("cv", cv_solves())
    audit("fit", fit_solves())

"""Sparse + low-rank tensor regression estimator.

The fit pipeline: compute the ridge plug-in backbone once, then solve one
constrained norm-minimization subproblem per mode around the backbone's
unfolding, and average the folded per-mode solutions into the final
coefficient tensor.

Each mode subproblem

    min ||w||_1 + ||w||_*   s.t.  ||w - c||_inf <= lambda,
                                  ||w - c||_spec <= tau

is solved by parallel proximal splitting: four copies of the iterate, one
per term, are advanced by their prox/projection operators, combined by an
equal-weight average, and relaxed by ``rho``.  The trace objective of each
sweep is computed for a block of sweeps at once, by one stacked
:func:`~sltr.linalg.nuclear_norm` call.

The mode subproblems are independent, so they may run on mode threads.
These are opt-in (``fit(..., threads=k)``, the CLI's ``--threads k`` or the
``SLTR_THREADS`` environment variable) and the default is one, because a
sweep of a small mode is mostly short numpy calls that hold the interpreter
lock: two mode threads take turns and cost more CPU for little or no wall
time.  They pay on large modes.  Measured on 2 cores with BLAS at one
thread (wall time, median of 5 fits, lambda = tau = epsilon = 1):

    =================  ==========  ===========
    shape, samples     one thread  two threads
    =================  ==========  ===========
    30x30x10, n=720    0.27 s      0.27 s
    40x40x10, n=300    0.68 s      0.68 s
    60x60x20, n=300    0.99 s      0.73 s
    =================  ==========  ===========

With mode threads, pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1``):
each mode thread's BLAS calls otherwise start one BLAS thread per core, and
the cores are oversubscribed.  Results are bit-identical at every thread
count, because each subproblem runs the same operations in the same order
and the modes are averaged in a fixed order.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .exceptions import DivergenceError
from .linalg import backbone, nuclear_norm, spectral_norm
from .prox import ConstraintCenter, project_linf_ball, project_spectral_ball, prox_l1, prox_nuclear
from .tensor import Tensor, block_rows, dot_rows, fold, unfold
from .tensor import inner  # noqa: F401  perfbench/spans.py traces sltr.solver.inner

__all__ = [
    "SolverConfig",
    "FitResult",
    "Timings",
    "solve_subproblem",
    "fit",
    "predict",
    "objective_and_gaps",
    "default_thread_count",
]

_DIVERGENCE_FACTOR = 1e6
# Memory for the iterates whose trace objective waits for the next stacked
# nuclear_norm call: many sweeps of a small mode, one sweep of a large one.
_TRACE_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class SolverConfig:
    """Tuning parameters of one fit.

    ``lam`` and ``tau`` are the l-infinity and spectral constraint radii,
    ``epsilon`` the backbone ridge parameter, ``rho`` the relaxation factor
    in (0, 2), and ``gamma`` the prox step size for the two norm terms
    (projections ignore it).  ``paper_faithful_steps`` switches the prox
    step size to ``4 * lam`` for both norm terms instead of ``gamma``.  The
    thread count is not part of the configuration: it changes no result, and
    is given to :func:`fit` instead.
    """

    lam: float
    tau: float
    epsilon: float = 1.0
    rho: float = 1.0
    gamma: float = 1.0
    max_iter: int = 1000
    tol: float = 1e-3
    paper_faithful_steps: bool = False

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 < self.rho < 2:
            raise ValueError(f"rho must lie in (0, 2), got {self.rho}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class Timings:
    backbone_s: float
    mode_s: tuple[float, ...]
    total_s: float


@dataclass(frozen=True)
class FitResult:
    """Estimate plus per-mode solutions, iteration traces, and timings.

    ``trace[m-1]`` is the mode-m list of ``(iteration, relative_change,
    objective)`` tuples where the objective is the l1 norm plus the nuclear
    norm of the consensus iterate.
    """

    w_hat: Tensor
    per_mode: tuple[Tensor, ...]
    trace: tuple[tuple[tuple[int, float, float], ...], ...]
    iterations_used: tuple[int, ...]
    converged: tuple[bool, ...]
    timings: Timings = field(repr=False)


def default_thread_count() -> int:
    """Mode threads of a fit: the SLTR_THREADS environment variable, else 1.

    Mode threads are opt-in: they pay only on large modes, and need BLAS
    pinned to one thread (see the module notes).
    """
    env = os.environ.get("SLTR_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def solve_subproblem(m: int, center: np.ndarray, dims, cfg: SolverConfig):
    """Solve the mode-m subproblem around ``center`` by proximal splitting.

    ``center`` must be the mode-m unfolding of the backbone tensor.  Returns
    ``(w, trace)`` where ``w`` is the consensus iterate at termination and
    ``trace`` lists ``(iteration, relative_change, objective)`` per sweep.
    Terminates when the relative Frobenius change of the consensus iterate
    drops to ``cfg.tol`` (absolute change if the iterate is zero) or at
    ``cfg.max_iter``; raises :class:`DivergenceError` if the change is not
    finite or grows a millionfold over its initial value.  The error's trace
    holds every sweep before that, and the sweep itself when it grew.
    """
    dims = tuple(int(p) for p in dims)
    if not 1 <= m <= len(dims):
        raise ValueError(f"mode {m} out of range for dims {dims}")
    center = np.asarray(center, dtype=np.float64)
    expected = (dims[m - 1], math.prod(dims) // dims[m - 1])
    if center.shape != expected:
        raise ValueError(f"center must be the {expected} mode-{m} unfolding, got {center.shape}")
    return _ppxa(center, cfg)


def _ppxa(center, cfg):
    ctr = ConstraintCenter(center, cfg.lam, cfg.tau)
    step = 4.0 * cfg.lam if cfg.paper_faithful_steps else cfg.gamma
    ops = (
        lambda w: prox_l1(w, step),
        lambda w: prox_nuclear(w, step),
        lambda w: project_linf_ball(w, ctr),
        lambda w: project_spectral_ball(w, ctr),
    )
    copies = [center.copy() for _ in range(4)]
    x = center.copy()
    trace = []
    # The consensus iterates of the sweeps whose trace objective is not yet computed.
    sweeps = max(1, _TRACE_BLOCK_BYTES // max(1, x.nbytes))
    block = np.empty((min(cfg.max_iter, sweeps),) + x.shape)
    pending = []

    def flush():
        if not pending:
            return
        xs = block[: len(pending)]
        nuclear = nuclear_norm(xs)
        # The block is free again once its norms are taken: the l1 terms reuse it.
        objective = np.abs(xs, out=xs).reshape(len(xs), -1).sum(axis=1) + nuclear
        trace.extend((t, rel, float(obj)) for (t, rel), obj in zip(pending, objective))
        pending.clear()

    initial_change = None
    for t in range(1, cfg.max_iter + 1):
        a = [op(w) for op, w in zip(ops, copies)]
        abar = (a[0] + a[1] + a[2] + a[3]) / 4.0
        correction = 2.0 * abar - x
        for i in range(4):
            copies[i] += cfg.rho * (correction - a[i])
        x_new = x + cfg.rho * (abar - x)
        change = float(np.linalg.norm(x_new - x))
        denom = float(np.linalg.norm(x))
        rel = change / denom if denom > 0 else change
        if not math.isfinite(rel):
            flush()
            raise DivergenceError(f"non-finite iterate change at iteration {t}", trace)
        x = x_new
        block[len(pending)] = x
        pending.append((t, rel))
        if len(pending) == len(block):
            flush()
        if initial_change is None:
            initial_change = rel
        elif initial_change > 0 and rel > _DIVERGENCE_FACTOR * initial_change:
            flush()
            raise DivergenceError(
                f"relative change grew {rel / initial_change:.1e}-fold by iteration {t}", trace
            )
        if rel <= cfg.tol:
            break
    flush()
    return x, trace


def fit(ds: Dataset, cfg: SolverConfig, threads: int | None = None) -> FitResult:
    """Fit the estimator on a dataset.

    Computes the backbone once, solves the M mode subproblems, and averages
    the folded per-mode solutions.  ``threads`` mode subproblems run at a
    time, each on its own thread; the default is
    :func:`default_thread_count`, which is one unless ``SLTR_THREADS`` is
    set.  More than one pays only on large modes (see the module notes) and
    wants BLAS pinned to one thread.  Output, traces included, is identical
    for identical ``(ds, cfg)`` at every thread count.
    """
    t_start = time.perf_counter()
    t0 = time.perf_counter()
    bb = backbone(ds.x, ds.y, cfg.epsilon, ds.dims)
    backbone_s = time.perf_counter() - t0
    dims = ds.dims
    order = len(dims)
    centers = [unfold(bb.tensor, m) for m in range(1, order + 1)]

    def task(m):
        t1 = time.perf_counter()
        try:
            w, trace = solve_subproblem(m, centers[m - 1], dims, cfg)
        except DivergenceError as exc:
            raise DivergenceError(f"mode {m}: {exc}", exc.trace) from exc
        return w, trace, time.perf_counter() - t1

    workers = default_thread_count() if threads is None else max(1, int(threads))
    if order > 1 and workers > 1:
        with ThreadPoolExecutor(max_workers=min(order, workers)) as ex:
            results = list(ex.map(task, range(1, order + 1)))
    else:
        results = [task(m) for m in range(1, order + 1)]

    per_mode = tuple(fold(w, m, dims) for m, (w, _, _) in enumerate(results, start=1))
    acc = per_mode[0].data.copy()
    for t in per_mode[1:]:
        acc += t.data
    acc /= order
    w_hat = Tensor(dims, acc)
    traces = tuple(tuple(trace) for _, trace, _ in results)
    return FitResult(
        w_hat=w_hat,
        per_mode=per_mode,
        trace=traces,
        iterations_used=tuple(len(tr) for tr in traces),
        converged=tuple(tr[-1][1] <= cfg.tol for tr in traces),
        timings=Timings(
            backbone_s=backbone_s,
            mode_s=tuple(sec for _, _, sec in results),
            total_s=time.perf_counter() - t_start,
        ),
    )


def predict(w: Tensor, xs) -> np.ndarray:
    """Predicted responses ``<w, x_i>`` for an iterable of sample tensors.

    Each value equals :func:`sltr.tensor.inner` of ``w`` and the sample, bit
    for bit.  The iterable is read once, one block of samples at a time, and
    a sample whose dims differ from ``w``'s raises :class:`ValueError`.
    """
    rows = block_rows(w.size)
    buf = np.empty((rows, w.size))
    parts = []
    k = 0
    for x in xs:
        if x.dims != w.dims:
            # Samples before the bad one are summed first, so an error in one
            # of them is raised ahead of the mismatch, as a row-by-row loop would.
            dot_rows(buf[:k], w.data)
            raise ValueError(f"dims mismatch: {w.dims} vs {x.dims}")
        buf[k] = x.data
        k += 1
        if k == rows:
            parts.append(dot_rows(buf, w.data))
            k = 0
    parts.append(dot_rows(buf[:k], w.data))
    return np.concatenate(parts)


def objective_and_gaps(w: np.ndarray, ctr: ConstraintCenter):
    """Subproblem objective terms and constraint gaps at ``w``.

    Returns ``(l1, nuclear, linf_gap, spec_gap)``; a gap <= 0 means the
    corresponding constraint is satisfied.
    """
    ctr.check_shape(np.asarray(w))
    d = w - ctr.c
    return (
        float(np.sum(np.abs(w))),
        nuclear_norm(w),
        float(np.max(np.abs(d))) - ctr.lam,
        spectral_norm(d) - ctr.tau,
    )

"""Sparse + low-rank tensor regression estimator.

The fit pipeline: compute the ridge plug-in backbone once, then solve one
constrained norm-minimization subproblem per mode around the backbone's
unfolding, and average the folded per-mode solutions into the final
coefficient tensor.

Each mode subproblem

    min ||w||_1 + ||w||_*   s.t.  ||w - c||_inf <= lambda,
                                  ||w - c||_spec <= tau

is solved by parallel proximal splitting (PPXA, Combettes & Pesquet, Inverse
Problems 24, 2008) on three terms: the l1 norm on the l-infinity ball, whose
prox is soft thresholding then the clamp into the ball (both act entry by
entry; Yu, NeurIPS 2013), the nuclear norm, and the spectral ball.  Three
copies ``y_i`` of the iterate, one per term, are advanced by their
prox/projection operators ``p_i = prox(y_i)``, combined by an equal-weight
average, and relaxed by ``rho``.  PPXA is Douglas-Rachford splitting on the
product of the copies, so the change of the whole state ``y`` in one sweep
(its fixed-point residual) never increases, and it is zero exactly at a
fixed point, whose consensus iterate is a minimiser.  A sweep whose residual
is at most ``tol`` times ``||y||`` (Frobenius norms over all three copies)
ends the solve.  Watching the consensus iterate alone is not enough: it can
stand still while the copies are far from a fixed point.  A centre for which
0 lies in both balls is answered with 0, the unique minimiser, without a
sweep.  The prox step of the norm terms is ``gamma`` times the centre's rms
entry ``||c||_F / sqrt(mn)``, so the solver has no units: scaling ``(c,
lambda, tau)`` by a power of two scales every iterate by it exactly.

Each solve ends with a :class:`Certificate`: the objective and the two
constraint violations of the returned iterate, and a duality gap from the
dual point ``z_i = (y_i - p_i) / step`` of the last sweep.  It costs a few
small spectral computations per mode, once, not per sweep.

``rho`` defaults to 1.5: over-relaxation (``rho`` in (1, 2)) leaves the fixed
points unchanged and cuts the sweeps, up to a point.  Measured at ``tol``
1e-3, lambda = tau = gamma = 1, on the seed-0 30x30x10 fit and a 5-fold CV
over nine cells of 10x10x5 datasets 0/1/2 (violations relative to the radius):

    ===============================  ==============  ==============  ==============
                                     rho = 1.0       rho = 1.5       rho = 1.8
    ===============================  ==============  ==============  ==============
    fit sweeps, modes 1/2/3          26/26/29        28/29/34        41/42/62
    CV sweeps, dataset 0             4,285           4,318           7,636
    worst CV violation, by dataset   .012/.009/.014  .003/.003/.016  .014/.005/.019
    CV solves, |gap| > 1e-2 obj.     24 of 279       13 of 279       21 of 279
    ===============================  ==============  ==============  ==============

The mode subproblems are independent, so they may run on mode threads.
These are opt-in (``fit(..., threads=k)`` or the CLI's ``--threads k``) and
the default is one, because a sweep of a small mode is mostly short numpy
calls that hold the interpreter lock: two mode threads take turns and cost
more CPU for little or no wall time.  They pay on large modes.  Measured
on 2 cores with BLAS at one thread (wall time, median of 5 fits, lambda =
tau = epsilon = 1):

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
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .exceptions import DivergenceError, NumericalError
from .linalg import backbone, nuclear_norm, spectral_norm
from .prox import ConstraintCenter, project_linf_ball, project_spectral_ball, prox_l1, prox_nuclear
from .tensor import Tensor, block_rows, dot_rows, fold, unfold
from .tensor import inner  # noqa: F401  perfbench/spans.py traces sltr.solver.inner

__all__ = [
    "SolverConfig",
    "Certificate",
    "ModeTrace",
    "FitResult",
    "Timings",
    "solve_subproblem",
    "fit",
    "predict",
    "objective_and_gaps",
    "default_thread_count",
]

_DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class SolverConfig:
    """Tuning parameters of one fit.

    ``lam`` and ``tau`` are the l-infinity and spectral constraint radii,
    ``epsilon`` the backbone ridge parameter, ``rho`` the relaxation factor
    in (0, 2) (1.5 by default: over-relaxation takes fewer sweeps to the
    same fixed points, see the module notes), and ``gamma`` the prox step of
    the two norm terms as a dimensionless multiple of the centre's rms entry
    (projections ignore it).  The radii may be infinite.  A mode subproblem
    stops after the first sweep whose whole-state residual is at most
    ``tol`` times ``||y||``, or after ``max_iter`` sweeps.  The thread count
    is not part of the configuration: it changes no result, and is given to
    :func:`fit` instead.
    """

    lam: float
    tau: float
    epsilon: float = 1.0
    rho: float = 1.5
    gamma: float = 1.0
    max_iter: int = 1000
    tol: float = 1e-3

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 < self.rho < 2:
            raise ValueError(f"rho must lie in (0, 2), got {self.rho}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class Timings:
    backbone_s: float
    mode_s: tuple[float, ...]
    total_s: float


@dataclass(frozen=True)
class Certificate:
    """How one mode subproblem ended, and how far from optimal its answer is.

    ``objective`` is ``||x||_1 + ||x||_*`` at the returned iterate ``x``.
    ``linf_violation`` and ``spectral_violation`` are the distances by which
    ``||x - c||_inf`` and ``||x - c||_spec`` exceed their radii (0 inside).
    ``gap`` is ``objective`` minus the value of a dual feasible point made
    from ``z_i = (y_i - p_i) / step`` of the last sweep, one per term
    (``z1`` for the l1 norm on the l-infinity ball, whose conjugate is exact
    and elementwise): ``z2`` scaled into the spectral unit ball, and the
    residual of ``z1 + z2 + z3 = 0`` absorbed into ``z1`` or ``z3``.
    When both violations are 0, ``gap`` bounds how far ``objective`` lies
    above the optimum; an infeasible ``x`` can have an objective below the
    optimum, and so a negative gap.  The dual point carries a rounding error
    of about ``1e-16 * ||y|| / step``, so a small ``gamma`` leaves a gap made
    of rounding.  ``exit`` is ``"zero"`` (0 is feasible and returned with no
    sweep), ``"converged"`` (the residual rule fired) or ``"max_iter"``.
    """

    objective: float
    linf_violation: float
    spectral_violation: float
    gap: float
    exit: str


@dataclass(frozen=True)
class ModeTrace:
    """What one mode subproblem did: its residual per sweep and its exit certificate.

    ``residuals[t - 1]`` is the relative whole-state residual of sweep ``t``
    (see :func:`solve_subproblem`); ``len()`` is the number of sweeps run.
    """

    residuals: tuple[float, ...]
    certificate: Certificate

    def __len__(self) -> int:
        return len(self.residuals)


@dataclass(frozen=True)
class FitResult:
    """Estimate plus per-mode solutions, traces and certificates, and timings.

    ``trace[m-1]`` is the mode-m :class:`ModeTrace`.
    """

    w_hat: Tensor
    per_mode: tuple[Tensor, ...]
    trace: tuple[ModeTrace, ...]
    timings: Timings = field(repr=False)

    @property
    def certificates(self) -> tuple[Certificate, ...]:
        return tuple(tr.certificate for tr in self.trace)

    @property
    def iterations_used(self) -> tuple[int, ...]:
        return tuple(len(tr) for tr in self.trace)

    @property
    def converged(self) -> tuple[bool, ...]:
        """Per mode, whether it stopped before ``max_iter``: by the residual rule or at zero."""
        return tuple(c.exit != "max_iter" for c in self.certificates)


def default_thread_count() -> int:
    """Mode threads of a fit when none are given: 1.

    Mode threads are opt-in: they pay only on large modes, and need BLAS
    pinned to one thread (see the module notes).
    """
    return 1


def solve_subproblem(m: int, center: np.ndarray, dims, cfg: SolverConfig):
    """Solve the mode-m subproblem around ``center`` by proximal splitting.

    ``center`` must be the mode-m unfolding of the backbone tensor.  Returns
    ``(w, trace)`` where ``w`` is the consensus iterate at termination and
    ``trace`` is a :class:`ModeTrace`: the relative residual
    ``||y+ - y|| / ||y||`` of each sweep, over all three copies, and the exit
    :class:`Certificate`.  Raises :class:`NumericalError` for a non-finite
    centre.  Returns exact zeros after no sweep when
    ``||center||_inf <= lam`` and ``||center||_spec <= tau``.  Otherwise
    terminates after the first sweep whose residual is at most ``cfg.tol``,
    or at ``cfg.max_iter``; raises :class:`DivergenceError` if the residual
    is not finite or grows a millionfold over that of the first sweep.  The
    error's trace holds the residuals of every sweep before that, and of the
    sweep itself when it grew.  A centre whose largest entry is below 1 is
    solved scaled by the power of two that brings that entry into [1, 2),
    radii with it, and ``w`` and the certificate are scaled back: the answer
    is exactly the unit-scale answer scaled, and no norm underflows.
    """
    dims = tuple(int(p) for p in dims)
    if not 1 <= m <= len(dims):
        raise ValueError(f"mode {m} out of range for dims {dims}")
    center = np.asarray(center, dtype=np.float64)
    expected = (dims[m - 1], math.prod(dims) // dims[m - 1])
    if center.shape != expected:
        raise ValueError(f"center must be the {expected} mode-{m} unfolding, got {center.shape}")
    if not np.isfinite(center).all():
        raise NumericalError("center has a non-finite entry")
    top = float(np.max(np.abs(center)))
    if not 0.0 < top < 1.0:
        return _ppxa(center, cfg)
    # Norms that square tiny entries underflow, and the solve is exact under
    # powers of two: run it with the largest entry in [1, 2) and scale back.
    k = 1 - math.frexp(top)[1]
    w, trace = _ppxa(np.ldexp(center, k),
                     replace(cfg, lam=math.ldexp(cfg.lam, k), tau=math.ldexp(cfg.tau, k)))
    c = trace.certificate
    certificate = Certificate(
        *(math.ldexp(v, -k) for v in (c.objective, c.linf_violation, c.spectral_violation, c.gap)),
        c.exit,
    )
    return np.ldexp(w, -k), ModeTrace(trace.residuals, certificate)


def _ppxa(center, cfg):
    ctr = ConstraintCenter(center, cfg.lam, cfg.tau)
    if np.max(np.abs(center)) <= cfg.lam and spectral_norm(center) <= cfg.tau:
        # 0 lies in both balls, and it is the unique minimiser of ||w||_1 + ||w||_*.
        return np.zeros_like(center), ModeTrace((), Certificate(0.0, 0.0, 0.0, 0.0, "zero"))
    step = cfg.gamma * float(np.linalg.norm(center)) / math.sqrt(center.size)
    ops = (
        lambda w: project_linf_ball(prox_l1(w, step), ctr),
        lambda w: prox_nuclear(w, step),
        lambda w: project_spectral_ball(w, ctr),
    )
    y = np.stack([center] * len(ops))
    x = center.copy()
    residuals = []
    for t in range(1, cfg.max_iter + 1):
        p = np.stack([op(v) for op, v in zip(ops, y)])
        pbar = p.sum(axis=0) / len(ops)
        d = 2.0 * pbar - x - p  # y moves by rho * d
        rel = cfg.rho * float(np.linalg.norm(d)) / float(np.linalg.norm(y))
        if not math.isfinite(rel):
            raise DivergenceError(f"non-finite residual at iteration {t}", residuals)
        residuals.append(rel)
        if rel > _DIVERGENCE_FACTOR * residuals[0]:
            raise DivergenceError(
                f"residual grew {rel / residuals[0]:.1e}-fold by iteration {t}", residuals
            )
        converged = rel <= cfg.tol
        if converged or t == cfg.max_iter:
            # z_i lies in the subdifferential of term i at p_i.
            z = (y - p) / step
        y += cfg.rho * d
        x += cfg.rho * (pbar - x)
        if converged:
            break
    l1, nuclear, linf_gap, spec_gap = objective_and_gaps(x, ctr)
    objective = l1 + nuclear
    certificate = Certificate(
        objective=objective,
        linf_violation=float(max(linf_gap, 0.0)),
        spectral_violation=float(max(spec_gap, 0.0)),
        gap=float(objective - _dual_value(z, ctr)),
        exit="converged" if converged else "max_iter",
    )
    return x, ModeTrace(tuple(residuals), certificate)


def _dual_value(z, ctr):
    """Value of the dual problem at the point made feasible from ``z``, one matrix per term.

    The dual of the subproblem is: maximise ``-h(z1) - <c, z3> - tau ||z3||_*``
    over ``||z2||_spec <= 1`` and ``z1 + z2 + z3 = 0``, where ``h`` is the
    conjugate of ``||w||_1`` on the l-infinity ball (:func:`_l1_box_conjugate`).
    ``z2`` is scaled into its ball (and ``z1`` clamped into ``[-1, 1]`` if
    ``lam`` is infinite), and the residual of the sum is absorbed whole into
    ``z1`` or into ``z3``, whichever gives the larger value.  Any point so
    made is dual feasible, so the value is below the objective of every
    feasible ``w``.
    """
    z1 = np.clip(z[0], -1.0, 1.0) if math.isinf(ctr.lam) else z[0]
    z2 = z[1] / max(1.0, spectral_norm(z[1]))
    r = z1 + z2 + z[2]
    # tau ||z3||_* with z3 kept, and with z3 - r = -(z1 + z2); 0 for a zero z3, whatever tau.
    support = [ctr.tau * n if n else 0.0 for n in (nuclear_norm(z[2]), nuclear_norm(z[2] - r))]
    into_z1 = -_l1_box_conjugate(z1 - r, ctr) - float(np.sum(ctr.c * z[2])) - support[0]
    into_z3 = -_l1_box_conjugate(z1, ctr) + float(np.sum(ctr.c * (z1 + z2))) - support[1]
    return max(into_z1, into_z3)


def _l1_box_conjugate(z, ctr):
    """``sup z u - |u|`` over ``u`` in ``[c - lam, c + lam]``, summed over the entries.

    Each entry's supremum is reached at an end of its interval or at the
    interval's point nearest 0.  For an infinite ``lam`` it is the indicator
    of ``|z| <= 1``.
    """
    if math.isinf(ctr.lam):
        return 0.0 if np.max(np.abs(z)) <= 1.0 else math.inf
    a, b = ctr.c - ctr.lam, ctr.c + ctr.lam
    return float(np.sum(np.max([z * u - np.abs(u) for u in (a, b, np.clip(0.0, a, b))], axis=0)))


def fit(ds: Dataset, cfg: SolverConfig, threads: int | None = None) -> FitResult:
    """Fit the estimator on a dataset.

    Computes the backbone once, solves the M mode subproblems, and averages
    the folded per-mode solutions.  ``threads`` mode subproblems run at a
    time, each on its own thread; the default is
    :func:`default_thread_count`, one.  More than one pays only on large
    modes (see the module notes) and wants BLAS pinned to one thread.
    Output, traces included, is identical for identical ``(ds, cfg)`` at
    every thread count.
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
    return FitResult(
        w_hat=w_hat,
        per_mode=per_mode,
        trace=tuple(trace for _, trace, _ in results),
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

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
average, and relaxed by ``rho``.  The sweeps carry the copies alone: the
consensus iterate is their mean, formed once, when the solve ends.  PPXA is
Douglas-Rachford splitting on the product of the copies, so the change of
the whole state ``y`` in one sweep (its fixed-point residual) never
increases, and it is zero exactly at a fixed point, whose consensus iterate
is a minimiser.  A sweep whose residual is at most ``tol`` times ``||y||``
(Frobenius norms over all three copies) ends the solve.  Watching the
consensus iterate alone is not enough: it can stand still while the copies
are far from a fixed point.  A centre for which 0 lies in both balls is
answered with 0, the unique minimiser, without a sweep.  Every centre is
solved at unit scale, its largest entry brought into [1, 2) by a power of
two, radii with it, and the answer scaled back, so no norm of a huge or
tiny centre overflows or underflows.

The prox step of the norm terms changes how fast the iterates reach a fixed
point, not which one, so it is not a setting: it is taken from the problem,

    step = max(min(rms(c), max(lambda, tau / sqrt(max(m, n)))), 2**-52),

the centre's rms entry ``||c||_F / sqrt(mn)``, capped by the larger radius
as an entry size (an m x n matrix whose singular values all equal tau has
rms entry ``tau / sqrt(max(m, n))``), and floored at one ulp of the
unit-scale centre's largest entry, below which a radius moves nothing.  So
the solver has no units: scaling ``(c, lambda, tau)`` by a power of two
scales every iterate by it exactly.  The cap binds only where both radii are
below the centre's entry size.  On a 6 x 8 normal centre (seed 21) with
lambda = tau = 1e-6 at ``tol`` 1e-8, the step ``rms(c)`` runs 20,000 sweeps
to ``max_iter`` and stops 1.7 tau outside the spectral ball; the capped step
converges in 29 sweeps, 0.029 tau outside.

Each solve ends with a :class:`Certificate`: the objective and the two
constraint violations of the returned iterate, and a duality gap from the
dual point ``z_i = (y_i - p_i) / step`` of the last sweep.  It costs a few
small spectral computations per mode, once, not per sweep.

``rho`` is fixed at 1.5: over-relaxation (``rho`` in (1, 2)) leaves the fixed
points unchanged and cuts the sweeps, up to a point.  Measured at ``tol``
1e-3, lambda = tau = 1 and the step ``rms(c)`` (the radius cap leaves the
fit as it is and the CV sweeps within 0.7%), on the seed-0 30x30x10 fit and
a 5-fold CV over nine cells of 10x10x5 datasets 0/1/2 (violations relative
to the radius):

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
more CPU for little or no wall time.  They pay only where two modes are
each large and a second core is free: below, only 60x60x20 gains (its modes
take 0.32/0.25/0.09 s alone), and not in every set.  Wall time on a shared
2-core host, BLAS at one thread, seed 0, lambda = tau = epsilon = 1, the
medians of three sets of 5 alternating fits:

    =================  ==================  ==================
    shape, samples     one thread          two threads
    =================  ==================  ==================
    30x30x10, n=720    0.21 / 0.24 / 0.21  0.22 / 0.25 / 0.22
    40x40x10, n=300    0.17 / 0.18 / 0.18  0.18 / 0.17 / 0.18
    60x60x20, n=300    0.88 / 0.85 / 0.86  0.66 / 0.90 / 0.89
    100x100x20, n=100  1.40 / 1.54 / 1.34  1.33 / 1.41 / 1.23
    =================  ==================  ==================

With mode threads, pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1``):
each mode thread's BLAS calls otherwise start one BLAS thread per core, and
the cores are oversubscribed.  Results are bit-identical at every thread
count, because each subproblem runs the same operations in the same order
and the modes are averaged in a fixed order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .exceptions import DivergenceError, NumericalError
from .linalg import backbone, nuclear_norm, spectral_norm
from .prox import ConstraintCenter, project_linf_ball, project_spectral_ball, prox_l1, prox_nuclear
from .tensor import Tensor, _dims, _integer, _unfolding_shape, dot_rows, fold, unfold
from .tensor import inner  # noqa: F401  perfbench/spans.py traces sltr.solver.inner

__all__ = [
    "SolverConfig",
    "Certificate",
    "ModeTrace",
    "FitResult",
    "solve_subproblem",
    "fit",
    "predict",
    "objective_and_gaps",
    "default_thread_count",
]

_DIVERGENCE_FACTOR = 1e6
_RHO = 1.5  # the relaxation factor; see the module notes


@dataclass(frozen=True)
class SolverConfig:
    """Tuning parameters of one fit.

    ``lam`` and ``tau`` are the l-infinity and spectral constraint radii,
    and ``epsilon`` the backbone ridge parameter.  The radii may be
    infinite.  A mode subproblem stops after the first sweep whose
    whole-state residual is at most ``tol`` times ``||y||``, or after
    ``max_iter`` sweeps.  The prox step and the relaxation factor are not
    settings: each mode takes its step from its centre and the radii (see
    the module notes).  The thread count is not part of the configuration:
    it changes no result, and is given to :func:`fit` instead.  ``max_iter``
    follows the size rule of :mod:`sltr.tensor`.
    """

    lam: float
    tau: float
    epsilon: float = 1.0
    max_iter: int = 1000
    tol: float = 1e-3

    def __post_init__(self):
        for name, value in zip(("lambda", "tau", "epsilon", "tol"),
                               (self.lam, self.tau, self.epsilon, self.tol)):
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        _integer("max_iter", self.max_iter, 1)


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
    of about ``1e-16 * ||y|| / step``, largest at the step's floor.  ``exit``
    is ``"zero"`` (0 is feasible and returned with no sweep), ``"converged"``
    (the residual rule fired) or ``"max_iter"``.
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
    """Estimate plus per-mode solutions, traces and certificates.

    ``trace[m-1]`` is the mode-m :class:`ModeTrace`.
    """

    w_hat: Tensor
    per_mode: tuple[Tensor, ...]
    trace: tuple[ModeTrace, ...]

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
    """Mode threads of a fit when none are given: 1; they are opt-in (see the module notes)."""
    return 1


def solve_subproblem(m: int, center: np.ndarray, dims, cfg: SolverConfig):
    """Solve the mode-m subproblem around ``center`` by proximal splitting.

    ``center`` must be the mode-m unfolding of the backbone tensor.  Returns
    ``(w, trace)`` where ``w`` is the consensus iterate, the mean of the
    three copies after the last sweep, and ``trace`` is a :class:`ModeTrace`:
    the relative residual ``||y+ - y|| / ||y||`` of each sweep, over all
    three copies, and the exit :class:`Certificate`.  Raises
    :class:`NumericalError` for a non-finite centre.  Returns exact zeros
    after no sweep when ``||center||_inf <= lam`` and
    ``||center||_spec <= tau``.  Otherwise
    terminates after the first sweep whose residual is at most ``cfg.tol``,
    or at ``cfg.max_iter``; raises :class:`DivergenceError` if the residual
    is not finite or grows a millionfold over that of the first sweep.  The
    error's trace holds the residuals of every sweep before that, and of the
    sweep itself when it grew.  Every centre is solved scaled by the power
    of two that brings its largest entry into [1, 2), radii with it, and
    ``w`` and the certificate are scaled back: the answer is exactly the
    unit-scale answer scaled, and no norm overflows or underflows.  A
    certificate field too large for a double on the way back is ``inf``.
    """
    shape = _unfolding_shape(_dims(dims), m)
    center = np.asarray(center, dtype=np.float64)
    if center.shape != shape:
        raise ValueError(f"center must be the {shape} mode-{m} unfolding, got {center.shape}")
    if not np.isfinite(center).all():
        raise NumericalError("center has a non-finite entry")
    # Norms square the entries, and the solve is exact under powers of two:
    # run it with the largest entry in [1, 2) and scale back.  A radius that
    # underflows there pins w to c, as the smallest positive double does, and
    # a radius or certificate field past the largest double reads inf.
    k = 1 - math.frexp(float(np.max(np.abs(center))))[1]
    with np.errstate(over="ignore"):
        lam, tau = np.maximum(np.ldexp([cfg.lam, cfg.tau], k), math.ulp(0.0)).tolist()
    ctr = ConstraintCenter(np.ldexp(center, k), lam, tau)
    if np.max(np.abs(ctr.c)) <= lam and spectral_norm(ctr.c) <= tau:
        # 0 lies in both balls, and it is the unique minimiser of ||w||_1 + ||w||_*.
        return np.zeros_like(center), ModeTrace((), Certificate(0.0, 0.0, 0.0, 0.0, "zero"))
    # The centre's rms entry, capped by the radii and floored; see the module notes.
    rms = float(np.linalg.norm(ctr.c)) / math.sqrt(ctr.c.size)
    step = max(min(rms, max(lam, tau / math.sqrt(max(ctr.c.shape)))), 2.0**-52)
    ops = (
        lambda w: project_linf_ball(prox_l1(w, step), ctr),
        lambda w: prox_nuclear(w, step),
        lambda w: project_spectral_ball(w, ctr),
    )
    y = np.stack([ctr.c] * 3)
    residuals = []
    for t in range(1, cfg.max_iter + 1):
        p = np.stack([op(v) for op, v in zip(ops, y)])
        d = (2.0 * p.sum(axis=0) - y.sum(axis=0)) / 3 - p  # y moves by rho * d
        rel = _RHO * float(np.linalg.norm(d)) / float(np.linalg.norm(y))
        if not math.isfinite(rel):
            raise DivergenceError(f"non-finite residual at iteration {t}", residuals)
        residuals.append(rel)
        if rel > _DIVERGENCE_FACTOR * residuals[0]:
            raise DivergenceError(
                f"residual grew {rel / residuals[0]:.1e}-fold by iteration {t}", residuals
            )
        if rel <= cfg.tol or t == cfg.max_iter:
            break
        y += _RHO * d
    z = (y - p) / step  # z_i lies in the subdifferential of term i at p_i
    y += _RHO * d
    x = y.sum(axis=0) / 3  # the consensus iterate: the mean of the copies
    l1, nuclear, linf_gap, spec_gap = objective_and_gaps(x, ctr)
    objective = l1 + nuclear
    gap = objective - _dual_value(z, ctr)
    with np.errstate(over="ignore"):
        fields = np.ldexp([objective, max(linf_gap, 0.0), max(spec_gap, 0.0), gap], -k).tolist()
    certificate = Certificate(*fields, "converged" if rel <= cfg.tol else "max_iter")
    return np.ldexp(x, -k), ModeTrace(tuple(residuals), certificate)


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
    time, one thread each (default :func:`default_thread_count`, one); more
    pay only where two modes are each large (see the module notes).  Output,
    traces included, is identical for identical ``(ds, cfg)`` at every
    thread count.  ``threads`` follows the size rule of :mod:`sltr.tensor`.
    """
    workers = default_thread_count() if threads is None else _integer("threads", threads, 1)
    bb = backbone(ds.x, ds.y, cfg.epsilon, ds.dims)
    dims = ds.dims
    order = len(dims)
    centers = [unfold(bb.tensor, m) for m in range(1, order + 1)]

    def task(m):
        try:
            return solve_subproblem(m, centers[m - 1], dims, cfg)
        except DivergenceError as exc:
            raise DivergenceError(f"mode {m}: {exc}", exc.trace) from exc

    if order > 1 and workers > 1:
        with ThreadPoolExecutor(max_workers=min(order, workers)) as ex:
            results = list(ex.map(task, range(1, order + 1)))
    else:
        results = [task(m) for m in range(1, order + 1)]

    per_mode = tuple(fold(w, m, dims) for m, (w, _) in enumerate(results, start=1))
    acc = per_mode[0].data.copy()
    for t in per_mode[1:]:
        acc += t.data
    acc /= order
    return FitResult(
        w_hat=Tensor._own(dims, acc),
        per_mode=per_mode,
        trace=tuple(trace for _, trace in results),
    )


def predict(w: Tensor, x) -> np.ndarray:
    """Predicted responses ``<w, x_i>``, one per row of an ``N x P`` design matrix.

    Each is the correctly rounded sum of :func:`sltr.tensor.dot_rows`, equal to
    :func:`sltr.tensor.inner` of ``w`` and the row's sample bit for bit.  A
    width other than ``w.size`` raises :class:`ValueError`; callers check dims.
    """
    return dot_rows(x, w.data)


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

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
are far from a fixed point.

The solve has three parts.  ``_unit_problem`` brings the centre's largest
entry into [1, 2) by a power of two, radii with it, so no norm of a huge or
tiny centre overflows or underflows, tests for the answer 0 and takes the
step; ``_sweep`` runs one sweep; ``_certificate`` certifies and scales back.
Other solve loops keep the sweep and replace one thing: the stopping rule
(certify in mid-run), the step (adapt it), the first ``y`` (warm start) or
the loop (batch, extrapolate).

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
more CPU for little or no wall time.  They pay where two modes are each
large and a second core is free, as at 60x60x20, where two threads won 12
of 12 alternating fits.  Wall time on a shared 2-core host, BLAS at one
thread, seed 0, lambda = tau = epsilon = 1, medians of those 12 or of three
sets of 5 alternating fits:

    =================  ==================  ==================
    shape, samples     one thread          two threads
    =================  ==================  ==================
    30x30x10, n=720    0.21 / 0.24 / 0.21  0.22 / 0.25 / 0.22
    40x40x10, n=300    0.17 / 0.18 / 0.18  0.18 / 0.17 / 0.18
    60x60x20, n=300    1.06                0.67
    100x100x20, n=100  1.40 / 1.54 / 1.34  1.33 / 1.41 / 1.23
    60x60x20 pinned    0.63-0.79           0.40-0.56
    60x60x20 unpinned  0.65-1.14           1.16-1.66
    =================  ==================  ==================

The last two rows are ranges over later sets of alternating fits at n = 300
with the backbone kept, BLAS pinned (``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``)
or at OpenBLAS's default.  A 3-fold CV over three cells there took 9.5-10.0 s
on one thread and 6.2-6.9 s on two, pinned, so threaded CV pays at that shape
too.  One thread runs the solves in a plain loop, not on a pool, because a fit
run on a worker thread costs CPU at CV sizes (a nine-cell 5-fold CV at
10x10x5: 0.75 s median, 0.97 s on a one-worker pool).  With mode threads, pin
BLAS to one thread: each mode thread's BLAS calls otherwise start one BLAS
thread per core, the cores are oversubscribed, and two mode threads run about
twice as slow as one pinned thread.  Unpinned, even one mode thread burns
about twice its wall time in CPU.
Results are bit-identical at every thread count, because each subproblem
runs the same operations in the same order and the modes are averaged in a
fixed order.
"""

from __future__ import annotations

import functools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .exceptions import DivergenceError
from .linalg import _max_abs, backbone, nuclear_norm, spectral_norm
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

    ``trace[m-1]`` is the mode-m :class:`ModeTrace`.  ``seconds`` holds wall
    times: ``seconds[0]`` for the backbone, a dict lookup when the dataset
    already keeps it at this epsilon, and ``seconds[m]`` for mode m's solve,
    unfolding and folding included.  They differ from run to run, so
    they take no part in ``==`` or ``repr``.
    """

    w_hat: Tensor
    per_mode: tuple[Tensor, ...]
    trace: tuple[ModeTrace, ...]
    seconds: tuple[float, ...] = field(compare=False, repr=False)

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
    """1, the default of :func:`fit`'s ``threads``: kept for the benchmark, which reports it."""
    return 1


@dataclass(frozen=True)
class _UnitProblem:
    """A mode subproblem at unit scale: the centre and radii times ``2**k``, and the step."""

    ctr: ConstraintCenter
    k: int
    step: float


def solve_subproblem(m: int, center: np.ndarray, dims, cfg: SolverConfig):
    """Solve the mode-m subproblem around ``center`` by proximal splitting.

    ``center`` must be the mode-m unfolding of the backbone tensor.  Returns
    ``(w, trace)`` where ``w`` is the consensus iterate, the mean of the
    three copies after the last sweep, and ``trace`` is a :class:`ModeTrace`:
    the relative residual ``||y+ - y|| / ||y||`` of each sweep, over all
    three copies, and the exit :class:`Certificate`.  Raises
    :class:`NumericalError` for a non-finite centre.  Returns exact zeros
    after no sweep when ``||center||_inf <= lam`` and ``||center||_spec <= tau``.
    Otherwise terminates after the first sweep whose residual is at most
    ``cfg.tol``, or at ``cfg.max_iter``; raises :class:`DivergenceError`, its
    message starting ``mode m:``, if the residual is not finite or grows a
    millionfold over that of the first sweep.  The error's trace holds the
    residuals of every sweep before that, and of the sweep itself when it
    grew.  Every centre is solved scaled by the power of two that brings its
    largest entry into [1, 2), radii with it, and ``w`` and the certificate
    are scaled back: the answer is exactly the unit-scale answer scaled, and
    a certificate field too large for a double is ``inf``.  Its parts are ``_unit_problem``,
    ``_sweep`` and ``_certificate``; the module notes say which one each other solve loop replaces.
    """
    problem = _unit_problem(m, center, dims, cfg)
    if problem is None:
        return np.zeros_like(center, float), ModeTrace((), Certificate(0.0, 0.0, 0.0, 0.0, "zero"))
    y = np.stack([problem.ctr.c] * 3)
    residuals = []
    for t in range(1, cfg.max_iter + 1):
        p, d = _sweep(problem, y)  # y moves by rho * d
        rel = _RHO * float(np.linalg.norm(d)) / float(np.linalg.norm(y))
        if not math.isfinite(rel):
            raise DivergenceError(f"mode {m}: non-finite residual at iteration {t}", residuals)
        residuals.append(rel)
        if rel > _DIVERGENCE_FACTOR * residuals[0]:
            raise DivergenceError(f"mode {m}: residual grew {rel / residuals[0]:.1e}-fold by "
                                  f"iteration {t}", residuals)
        if rel <= cfg.tol or t == cfg.max_iter:
            break
        y += _RHO * d
    w, certificate = _certificate(problem, y, p, d, "converged" if rel <= cfg.tol else "max_iter")
    return w, ModeTrace(tuple(residuals), certificate)


def _unit_problem(m, center, dims, cfg) -> _UnitProblem | None:
    """The checked centre at unit scale, ``k`` and the step; ``None`` if 0 lies in both balls."""
    shape = _unfolding_shape(_dims(dims), m)
    center = np.asarray(center, dtype=np.float64)
    if center.shape != shape:
        raise ValueError(f"center must be the {shape} mode-{m} unfolding, got {center.shape}")
    scale = _max_abs(center, "center has a non-finite entry")
    # A radius that underflows at unit scale pins w to c; one past the largest double is inf.
    k = 1 - math.frexp(scale)[1]
    with np.errstate(over="ignore"):
        lam, tau = np.maximum(np.ldexp([cfg.lam, cfg.tau], k), math.ulp(0.0)).tolist()
    ctr = ConstraintCenter(np.ldexp(center, k), lam, tau)
    if math.ldexp(scale, k) <= lam and spectral_norm(ctr.c) <= tau:
        return None
    rms = float(np.linalg.norm(ctr.c)) / math.sqrt(ctr.c.size)
    return _UnitProblem(ctr, k, max(min(rms, max(lam, tau / math.sqrt(max(shape)))), 2.0**-52))


def _sweep(problem: _UnitProblem, y: np.ndarray):
    """One sweep from the copies ``y``: the prox points ``p`` and the move ``d`` of ``y``."""
    # The operators are module globals, looked up per call: a tracer replaces them there.
    p = np.stack([project_linf_ball(prox_l1(y[0], problem.step), problem.ctr),
                  prox_nuclear(y[1], problem.step), project_spectral_ball(y[2], problem.ctr)])
    return p, (2.0 * p.sum(axis=0) - y.sum(axis=0)) / 3 - p


def _certificate(problem: _UnitProblem, y, p, d, exit: str):
    """``(x, certificate)`` after the last sweep ``(p, d)``: ``y`` moves, ``x`` is scaled back."""
    # x keeps the memory order of y: np.sum's last bit depends on the order it reads x in.
    ctr, k = problem.ctr, problem.k
    z = (y - p) / problem.step  # z_i lies in the subdifferential of term i at p_i
    y += _RHO * d
    x = y.sum(axis=0) / 3  # the consensus iterate: the mean of the copies
    l1, nuclear, linf_gap, spec_gap = objective_and_gaps(x, ctr)
    objective = l1 + nuclear
    gap = objective - _dual_value(z, ctr)
    with np.errstate(over="ignore"):
        fields = np.ldexp([objective, max(linf_gap, 0.0), max(spec_gap, 0.0), gap], -k).tolist()
    return np.ldexp(x, -k), Certificate(*fields, exit)


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


def fit(ds: Dataset, cfg: SolverConfig, threads: int = 1) -> FitResult:
    """Fit the estimator on a dataset.

    Computes the backbone, solves the M mode subproblems, and averages the
    folded per-mode solutions.  The backbone depends on ``ds`` and
    ``cfg.epsilon`` alone, so ``ds`` keeps it per epsilon, and a later fit
    at a kept epsilon solves no ridge system.  The trade: a CV fold makes
    one Gram product per distinct epsilon of its grid (three for the 243
    cells of :func:`~sltr.evaluation.default_grid`), where keeping the Gram
    would make one, and ``ds`` holds one P-entry tensor per epsilon, never
    the ``min(N, P)**2`` Gram.  A backbone that raises is not kept, so it
    raises on every fit; two threads that fit ``ds`` first at once may both
    solve it, to the same bits.  ``threads`` mode subproblems run at a time,
    one thread each (default one); more pay only where two modes are each
    large (see the module notes).  Output, traces included, is identical for
    identical ``(ds, cfg)`` at every thread count, on a first fit or a later
    one.  ``threads`` follows the size rule of :mod:`sltr.tensor`.  The
    result's ``seconds`` are the backbone's and each mode's wall times.
    """
    workers = _integer("threads", threads, 1)
    t0 = time.perf_counter()
    bb = ds._backbones.get(cfg.epsilon)
    if bb is None:
        bb = ds._backbones.setdefault(cfg.epsilon, backbone(ds.x, ds.y, cfg.epsilon, ds.dims))
    backbone_s = time.perf_counter() - t0
    order = len(ds.dims)

    def solve(m):
        t0 = time.perf_counter()
        w, trace = solve_subproblem(m, unfold(bb.tensor, m), ds.dims, cfg)
        return fold(w, m, ds.dims), trace, time.perf_counter() - t0

    if order > 1 and workers > 1:
        with ThreadPoolExecutor(max_workers=min(order, workers)) as ex:
            results = list(ex.map(solve, range(1, order + 1)))
    else:
        results = [solve(m) for m in range(1, order + 1)]
    per_mode, trace, seconds = zip(*results)
    # Summed left to right, ((p1 + p2) + p3) / 3; sum()'s 0 + p1 would turn -0.0 into 0.0.
    w_hat = functools.reduce(np.add, (t.data for t in per_mode)) / order
    return FitResult(w_hat=Tensor._own(ds.dims, w_hat), per_mode=per_mode, trace=trace,
                     seconds=(backbone_s, *seconds))


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

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
average, and relaxed by ``rho``.  The sweeps carry the copies alone.  PPXA is
Douglas-Rachford splitting on the product of the copies, so the plain step
``y -> y + rho d(y)`` is an averaged map: the change ``rho ||d||`` of the
whole state in one step (its fixed-point residual) never increases, and it
is zero exactly at a fixed point, where every ``p_i`` is a minimiser.

The solve has three parts.  ``_unit_problem`` brings the centre's largest
entry into [1, 2) by a power of two, radii with it, so no norm of a huge or
tiny centre overflows or underflows, tests for the answer 0 and takes the
step; ``_sweep`` runs one sweep; ``_certificate`` picks a feasible answer
and certifies it, and the loop scales it back.  Other solve loops keep the
sweep and replace one thing: the step (adapt it), the first ``y`` (warm
start) or the loop (batch).

**The step.**  The prox step of the norm terms changes how fast the iterates
reach a fixed point, not which one, so it is not a setting: it is taken from
the problem,

    step = 2**-2 * max(min(rms(c), max(lambda, tau / sqrt(max(m, n)))), 2**-52),

the centre's rms entry ``||c||_F / sqrt(mn)``, capped by the larger radius
as an entry size (an m x n matrix whose singular values all equal tau has
rms entry ``tau / sqrt(max(m, n))``), floored at one ulp of the unit-scale
centre's largest entry, below which a radius moves nothing, and scaled by a
power of two.  So the solver has no units: scaling ``(c, lambda, tau)`` by a
power of two scales every iterate by it exactly.  The cap binds only where
both radii are below the centre's entry size: on a 6 x 8 normal centre
(seed 21) with lambda = tau = 1e-6, the uncapped step ran 20,000 sweeps to
``max_iter`` and stopped 1.7 tau outside the spectral ball.  The factor is
the power of two that stops soonest at equal certified accuracy.  The tables
below were measured under the loop below, at the default ``tol``, by
``python3 tools/accuracy_audit.py`` on two sets of mode solves.  "CV" is every swept solve of a 5-fold CV over the
nine cells of the benchmark's 10x10x5 datasets 0-2 (279 solves at the
factor that ships); "fit" is modes 1-3 of the 30x30x10, n = 720 fits of
seeds 0-1 at (lambda, tau) = (1, 1), (0.1, 1), (1, 0.1) and (0.3, 3), 24
solves; "seed 0" gives the sweeps of modes 1/2/3 of the seed-0 fit at
(1, 1), the benchmark's fit.  "Off" counts the solves more than 1% (relative
Frobenius norm) from the same solve at ``tol`` 1e-10, and "worst" is the
largest such distance:

    ======  =========  ======  =====  ========  ==========  =======  =====
    factor  CV sweeps  CV off  worst  seed 0    fit sweeps  fit off  worst
    ======  =========  ======  =====  ========  ==========  =======  =====
    1       9,820      11      3.38%  13/13/14  425         4        1.05%
    2**-1   7,929      5       1.35%  16/19/12  452         2        1.08%
    2**-2   7,105      0       0.90%  21/21/11  542         0        0.47%
    2**-3   8,844      1       1.15%  32/33/17  744         0        0.45%
    ======  =========  ======  =====  ========  ==========  =======  =====

A factor of 2**-1 makes the seed-0 fit 6 sweeps shorter, but leaves five CV
and two fit solves more than 1% off; 2**-2 is the larger factor that keeps
them all within 1%.  (At factor 1, one of the 279 CV solves at ``tol``
1e-10 had not converged by 200,000 sweeps.)

**The stop and the answer.**  A solve ends when it can prove its answer is
good: ``tol`` is a relative duality gap.  The residual only says when to
look (Boyd et al., Found. Trends ML 3, 2011, section 3.3).  The first
:class:`Certificate` is built when the relative residual ``rho ||d|| /
||y||`` (Frobenius norms over all three copies) reaches ``_FIRST_CHECK``.
A check that fails with gap ``G`` is made again when the residual reaches
its own times ``_NEXT_CHECK * tol * objective / G`` (the ratio taken within
[0.02, 1]), because the gap falls about as fast as the residual; or,
whatever the residual, at ``_RECHECK`` times its sweep, because a residual
can stall above its threshold while the gap would pass (without the
recheck, the 6 x 8 centre of ``default_rng(0)`` at lambda = tau = 1e-6 and
``tol`` 1e-8 fails its first check at sweep 1, and its residual, falling 13%
a sweep, reaches the next threshold only at sweep 23; the recheck stops it at
sweep 9).  A
certificate costs about eight small spectral computations, a
few sweeps' worth, so it is not built every sweep.  The answer is feasible:
of the prox points of the two constrained terms, ``p1`` (in the l-infinity
ball) and ``p3`` (in the spectral ball), each is drawn along its segment to
the centre into both balls, to ``c + theta (p_i - c)`` with ``theta = min(1,
lambda / ||p_i - c||_inf, tau / ||p_i - c||_spec)``, and the one with the
smaller objective is returned.  Its violations are rounding, and its gap is
a true bound on how far its objective lies above the optimum.  The dual
point is ``z_i = (y_i - p_i) / step`` of the same sweep, made feasible;
where the radii are too small for it to resolve, the centre's own bound
``||c||_1 - mn lambda + ||c||_* - min(m, n) tau`` certifies instead.  The
mean of the copies, PPXA's consensus iterate, would be a worse answer:
drawn into both balls, its objective exceeded the better ``p_i``'s by up to
27% at the first check of the seed-0 fit at (lambda, tau) = (0.3, 3).
Measured as above.  The first row is the older loop that the certified
stop replaced (stop at a relative residual of 1e-3, return the mean of the
copies, step factor 1), as measured on that loop, not again since; "next
check at rel/10" sets the threshold after a failed check to a tenth of its
residual, whatever its gap:

    =====================  =========  ======  =====  ========  ==========  =======  =====
    stop                   CV sweeps  CV off  worst  seed 0    fit sweeps  fit off  worst
    =====================  =========  ======  =====  ========  ==========  =======  =====
    residual 1e-3          12,510     38      18.8%  28/29/34  847         0        0.15%
    ``tol`` 1e-2           6,810      2       1.04%  18/18/11  475         0        0.96%
    ``tol`` 5e-3, shipped  7,105      0       0.90%  21/21/11  542         0        0.47%
    ``tol`` 2e-3           8,078      0       0.71%  26/26/22  638         0        0.25%
    first check at 1e-1    5,845      133     2.12%  21/21/15  465         0        0.74%
    first check at 1e-2    8,960      1       1.94%  20/23/16  625         0        0.46%
    first check at 3e-3    10,871     2       1.60%  21/22/22  732         0        0.45%
    next check at rel/10   7,541      0       0.97%  22/22/11  628         0        0.44%
    no recheck             7,385      0       0.71%  21/21/11  542         0        0.47%
    recheck at 1.5x        6,971      2       3.09%  23/23/11  542         0        0.53%
    answer ``p1`` alone    8,801      0       0.85%  24/25/19  689         0        0.41%
    answer ``p3`` alone    9,264      0       0.90%  21/21/11  716         0        0.47%
    =====================  =========  ======  =====  ========  ==========  =======  =====

The default ``tol`` is 5e-3, the largest here that leaves no solve more than
1% off: at 1e-2, two CV solves stop up to 1.04% from their optimum.

**No extrapolation.**  Each sweep takes the plain step ``y -> y + rho d``.
An earlier loop extrapolated once a solve's first check had failed, by
safeguarded type-II Anderson acceleration of that step (Zhang, O'Donoghue &
Boyd, SIAM J. Optim. 30, 2020) over its last ``memory`` points.  It saved
few sweeps, 3% at the default ``tol`` and 6-9% at ``tol`` 1e-4, because
most solves stop at their first or second check, before a history can pay:
the first check comes where the gap is usually within ``tol`` already, and
a failed check aims the next at its own gap.  Of the 279 CV solves, 225
stop at their first check and 46 at their second; of the 24 fit solves, 12
and 9.  Measured as above; memory 1 is this loop, and the other rows were
measured on that loop, not again since:

    ======  =========  ==========  =================  ==================
    memory  CV sweeps  fit sweeps  CV sweeps at 1e-4  fit sweeps at 1e-4
    ======  =========  ==========  =================  ==================
    1       7,105      542         15,164             980
    2       7,171      541
    3       6,905      523         14,252             889
    5       6,853      518         13,819             869
    ======  =========  ==========  =================  ==================

Its bookkeeping cost more CPU than its sweeps saved: without it, three
nine-cell 5-fold CV calls (datasets 0-2) take 14% less CPU, 1.073 s against
1.251 s, and 20 seed-0 fits at (1, 1) 9% less, 1.061 s against 1.171 s
(medians of five alternating pairs, BLAS at one thread, a shared 2-core
host).

``rho`` is fixed at 1.5: over-relaxation (``rho`` in (1, 2)) leaves the fixed
points unchanged.  Measured as above:

    ===  =========  ======  =====  ========  ==========  =======  =====
    rho  CV sweeps  CV off  worst  seed 0    fit sweeps  fit off  worst
    ===  =========  ======  =====  ========  ==========  =======  =====
    1.0  7,994      56      2.09%  25/25/12  627         0        0.69%
    1.5  7,105      0       0.90%  21/21/11  542         0        0.47%
    1.8  9,878      0       0.76%  22/23/16  701         2        1.17%
    ===  =========  ======  =====  ========  ==========  =======  =====

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
from .linalg import _max_abs, backbone, nuclear_norm, singular_values, spectral_norm
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
_STEP_FACTOR = 0.25  # times the step rule of the module notes; a power of two
_FIRST_CHECK = 3e-2  # the residual at which a solve first builds its certificate
_NEXT_CHECK = 0.5  # a failed check's share of its gap to aim the next at; see the module notes
_RECHECK = 3  # a failed check is made again, whatever the residual, at this multiple of its sweep


@dataclass(frozen=True)
class SolverConfig:
    """Tuning parameters of one fit.

    ``lam`` and ``tau`` are the l-infinity and spectral constraint radii,
    and ``epsilon`` the backbone ridge parameter.  The radii may be
    infinite.  ``tol`` is a relative duality gap: a mode subproblem stops
    at the first certificate whose gap is at most ``tol`` times its
    objective, or after ``max_iter`` sweeps.  The prox step, the relaxation
    factor and the points at which certificates are built are not settings
    (see the module notes).  The thread count is not part of the configuration:
    it changes no result, and is given to :func:`fit` instead.  ``max_iter``
    follows the size rule of :mod:`sltr.tensor`.
    """

    lam: float
    tau: float
    epsilon: float = 1.0
    max_iter: int = 1000
    tol: float = 5e-3

    def __post_init__(self):
        for name, value in zip(("lambda", "tau", "epsilon", "tol"),
                               (self.lam, self.tau, self.epsilon, self.tol)):
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        _integer("max_iter", self.max_iter, 1)


@dataclass(frozen=True)
class Certificate:
    """How one mode subproblem ended, and how far from optimal its answer is.

    ``objective`` is ``||x||_1 + ||x||_*`` at the returned answer ``x``.
    ``linf_violation`` and ``spectral_violation`` are the distances by which
    ``||x - c||_inf`` and ``||x - c||_spec`` exceed their radii (0 inside);
    ``x`` is drawn into both balls, so they are rounding.  ``gap`` is
    ``objective`` minus a lower bound on the optimum: the value of a dual
    feasible point made from ``z_i = (y_i - p_i) / step`` of the last sweep,
    one per term (``z1`` for the l1 norm on the l-infinity ball, whose
    conjugate is exact and elementwise): ``z2`` scaled into the spectral
    unit ball, and the residual of ``z1 + z2 + z3 = 0`` absorbed into ``z1``
    or ``z3``; or, where that is too low, the centre's own bound
    ``||c||_1 - mn lam + ||c||_* - min(m, n) tau``.  So ``gap`` bounds how
    far ``objective`` lies above the optimum.  ``exit`` is ``"zero"`` (0 is
    feasible and returned with no sweep), ``"converged"`` (certified: ``0 <=
    gap <= tol * objective``, or a gap within rounding of an objective near
    0) or ``"max_iter"`` (not certified by the last sweep).
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
        """Per mode, whether its answer is certified within ``tol``, or is the exact zero."""
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

    @functools.cached_property
    def bound(self) -> float:
        """``||c||_1 - mn lam + ||c||_* - min(m, n) tau``, below every feasible objective.

        By the triangle inequality; it certifies the centre itself where the
        radii are too small for the dual point of a sweep to resolve.
        """
        c = self.ctr.c
        return ((_total(np.abs(c)) - c.size * self.ctr.lam)
                + (float(np.sum(singular_values(c))) - min(c.shape) * self.ctr.tau))


def solve_subproblem(m: int, center: np.ndarray, dims, cfg: SolverConfig):
    """Solve the mode-m subproblem around ``center`` by proximal splitting.

    ``center`` must be the mode-m unfolding of the backbone tensor.  Returns
    ``(w, trace)`` where ``w`` is the feasible answer of the last certificate
    built (see the module notes) and ``trace`` is a :class:`ModeTrace`: the
    relative residual ``||y+ - y|| / ||y||`` of each sweep's plain step, over
    all three copies, and the exit :class:`Certificate`.  Raises
    :class:`NumericalError` for a non-finite centre.  Returns exact zeros
    after no sweep when ``||center||_inf <= lam`` and ``||center||_spec <= tau``.
    Otherwise terminates at the first certificate with ``0 <= gap <= cfg.tol
    * objective``, or at ``cfg.max_iter``, certified or not; raises
    :class:`DivergenceError`, its message starting ``mode m:``, if the
    residual is not finite or grows a millionfold over that of the first
    sweep.  The error's trace holds the residuals of every sweep before that,
    and of the sweep itself when it grew.  Every centre is solved scaled by
    the power of two that brings its largest entry into [1, 2), radii with
    it, and ``w`` and the certificate are scaled back: the answer is exactly
    the unit-scale answer scaled, and a certificate field too large for a
    double is ``inf``.  Its parts are ``_unit_problem``, ``_sweep`` and
    ``_certificate``.
    """
    problem = _unit_problem(m, center, dims, cfg)
    if problem is None:
        return np.zeros_like(center, float), ModeTrace((), Certificate(0.0, 0.0, 0.0, 0.0, "zero"))
    y = np.stack([problem.ctr.c] * 3)
    residuals = []
    threshold, checked = _FIRST_CHECK, 0  # checked: the sweep of the last failed check
    for t in range(1, cfg.max_iter + 1):
        p, d = _sweep(problem, y)
        d *= _RHO  # the plain step's move, rho d
        flat, move = y.reshape(-1), d.reshape(-1)
        rel = math.sqrt(move @ move) / math.sqrt(flat @ flat)
        if not math.isfinite(rel):
            raise DivergenceError(f"mode {m}: non-finite residual at iteration {t}", residuals)
        residuals.append(rel)
        if rel > _DIVERGENCE_FACTOR * residuals[0]:
            raise DivergenceError(f"mode {m}: residual grew {rel / residuals[0]:.1e}-fold by "
                                  f"iteration {t}", residuals)
        if rel <= threshold or (checked and t >= _RECHECK * checked) or t == cfg.max_iter:
            w, certificate = _certificate(problem, y, p, cfg.tol)
            if certificate.exit == "converged" or t == cfg.max_iter:
                break
            # The gap falls about as fast as the residual: aim at _NEXT_CHECK of tol.
            share = cfg.tol * certificate.objective / certificate.gap if certificate.gap > 0.0 else 0.0
            threshold, checked = rel * _NEXT_CHECK * min(1.0, max(0.02, share)), t
        y += d
    with np.errstate(over="ignore"):
        fields = np.ldexp([certificate.objective, certificate.linf_violation,
                           certificate.spectral_violation, certificate.gap], -problem.k).tolist()
    return np.ldexp(w, -problem.k), ModeTrace(tuple(residuals), Certificate(*fields, certificate.exit))


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
    step = max(min(rms, max(lam, tau / math.sqrt(max(shape)))), 2.0**-52)
    return _UnitProblem(ctr, k, _STEP_FACTOR * step)


def _sweep(problem: _UnitProblem, y: np.ndarray):
    """One sweep from the copies ``y``: the prox points ``p`` and the move ``d`` of ``y``."""
    # The operators are module globals, looked up per call: a tracer replaces them there.
    p = np.stack([project_linf_ball(prox_l1(y[0], problem.step), problem.ctr),
                  prox_nuclear(y[1], problem.step), project_spectral_ball(y[2], problem.ctr)])
    return p, (2.0 * p.sum(axis=0) - y.sum(axis=0)) / 3 - p


def _certificate(problem: _UnitProblem, y, p, tol: float):
    """``(x, certificate)`` at unit scale after the sweep ``(y, p)``.

    ``x`` is feasible: of the prox points of the two constrained terms,
    ``p1`` in the l-infinity ball and ``p3`` in the spectral ball, each is
    drawn towards the centre into both balls, to ``c + theta (p_i - c)``
    with the largest ``theta`` in [0, 1] that reaches them, and ``x`` is the
    one with the smaller objective.  The exit is ``"converged"`` when ``0 <=
    gap <= tol * objective`` (or the gap is within ``c.size`` ulps of 2, the
    rounding of an objective near 0), and ``"max_iter"`` otherwise.
    """
    ctr = problem.ctr
    z = (y - p) / problem.step  # z_i lies in the subdifferential of term i at p_i
    best = None
    for x in (p[0], p[2]):
        d = x - ctr.c
        norms = float(np.max(np.abs(d))), spectral_norm(d)
        theta = min([1.0] + [r / n for r, n in zip((ctr.lam, ctr.tau), norms) if n > r])
        if theta < 1.0:
            x, norms = ctr.c + theta * d, None
        objective = _total(np.abs(x)) + nuclear_norm(x)
        if best is None or objective < best[0]:
            best = objective, x, norms
    objective, x, norms = best
    if norms is None:  # drawn in: the distances to the centre, to rounding
        d = x - ctr.c
        norms = float(np.max(np.abs(d))), spectral_norm(d)
    lower = _dual_value(z, ctr)
    if objective - lower > tol * objective:
        lower = max(lower, problem.bound)
    gap = objective - lower
    exit = "converged" if 0.0 <= gap <= max(tol * objective, math.ldexp(ctr.c.size, -50)) else "max_iter"
    return x, Certificate(objective, max(norms[0] - ctr.lam, 0.0), max(norms[1] - ctr.tau, 0.0), gap, exit)


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
    into_z1 = -_l1_box_conjugate(z1 - r, ctr) - _total(ctr.c * z[2]) - support[0]
    into_z3 = -_l1_box_conjugate(z1, ctr) + _total(ctr.c * (z1 + z2)) - support[1]
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
    return _total(np.max([z * u - np.abs(u) for u in (a, b, np.clip(0.0, a, b))], axis=0))


def _total(a) -> float:
    """The sum of the entries of ``a``, read in C order whatever its layout, so its bits are too."""
    return float(np.sum(np.ravel(a, order="C")))


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
        _total(np.abs(w)),
        nuclear_norm(w),
        float(np.max(np.abs(d))) - ctr.lam,
        spectral_norm(d) - ctr.tau,
    )

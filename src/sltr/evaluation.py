"""Metrics, cross-validation, and recovery-error bound calculators."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .data import Dataset
from .exceptions import DivergenceError
from .linalg import singular_values
from .solver import SolverConfig, fit, predict
from .tensor import Tensor, _dims, _integer, unfold

__all__ = [
    "CvReport",
    "mse",
    "coefficient_error",
    "auc",
    "fold_indices",
    "kfold_cv",
    "theorem_bound",
    "three_mode_bound",
    "unfolding_ranks",
    "default_grid",
]


@dataclass(frozen=True)
class CvReport:
    """Grid search result: one mean validation MSE per (lambda, tau, epsilon) cell.

    A cell whose fit diverged on some fold has ``nan`` in ``per_cell`` and a
    ``(cell, reason)`` pair in ``failures``; selection skips it.
    """

    grid: tuple
    per_cell: tuple
    selected: tuple
    fold_seed: int
    failures: tuple = ()


def mse(y, yhat) -> float:
    """Mean squared residual; empty input raises :class:`ValueError`, having no mean."""
    y = np.asarray(y, dtype=np.float64).ravel()
    yhat = np.asarray(yhat, dtype=np.float64).ravel()
    if y.size != yhat.size:
        raise ValueError(f"length mismatch: {y.size} vs {yhat.size}")
    if not y.size:
        raise ValueError("mse of no values")
    return float(np.mean((y - yhat) ** 2))


def coefficient_error(w_hat: Tensor, w_star: Tensor) -> float:
    """Relative Frobenius error ``||w_hat - w_star||_F / ||w_star||_F``."""
    if w_hat.dims != w_star.dims:
        raise ValueError(f"dims mismatch: {w_hat.dims} vs {w_star.dims}")
    denom = float(np.linalg.norm(w_star.data))
    if denom == 0.0:
        raise ValueError("coefficient error undefined for a zero reference tensor")
    return float(np.linalg.norm(w_hat.data - w_star.data)) / denom


def auc(scores, labels) -> float:
    """Area under the ROC curve (rank statistic, ties counted half); ``nan`` if a score is."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.size != labels.size:
        raise ValueError(f"length mismatch: {scores.size} vs {labels.size}")
    uniq = np.unique(labels)
    if not np.isin(uniq, (0, 1)).all():
        raise ValueError(f"labels must be binary 0/1, got values {uniq}")
    if uniq.size != 2:
        raise ValueError("both classes must be present")
    pos = labels == 1
    n_pos = int(np.count_nonzero(pos))
    n_neg = scores.size - n_pos
    if np.isnan(scores).any():
        return math.nan
    # Tied scores share the mean of the ranks they span.
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    u_stat = float(np.sum(ranks[pos])) - n_pos * (n_pos + 1) / 2.0
    return u_stat / (n_pos * n_neg)


def fold_indices(n: int, k: int, fold_seed: int):
    """Seeded shuffle into ``2 <= k <= n`` contiguous folds (first ``n % k`` get the extra).

    ``fold_seed`` is any integer, by the integer rule of :mod:`sltr.tensor`.
    """
    if _integer("k", k, 2) > n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    order = rng.shuffled_indices(n, n, _integer("fold_seed", fold_seed, None), rng.STREAM_FOLDS)
    return np.array_split(order, k)


def kfold_cv(ds: Dataset, grid, cfg_template: SolverConfig, k: int = 5, fold_seed: int = 0,
             threads: int = 1) -> CvReport:
    """Grid search by k-fold cross-validation on mean validation MSE.

    Each grid cell is a ``(lambda, tau, epsilon)`` triple; the remaining
    solver parameters come from ``cfg_template``.  Selection takes the cell
    with the smallest mean MSE, breaking ties by the lexicographically
    smallest triple, so the winner does not depend on grid order.  A cell
    whose fit raises :class:`DivergenceError` on any fold is recorded as a
    failure (MSE ``nan``) and not selected, and its later folds are not
    fitted; if every cell fails, the ``DivergenceError`` is raised with all
    their reasons.  The loop is fold-major: each fold's (train, validation)
    pair is built, used by every cell and freed before the next one, so a
    call holds one split beside ``ds``.  ``threads`` (default 1) goes to
    :func:`~sltr.solver.fit`; it and ``k`` follow the size rule of :mod:`sltr.tensor`,
    and ``fold_seed`` is any integer, recorded in the report as an ``int``.
    """
    fold_seed = _integer("fold_seed", fold_seed, None)
    cells = [(float(l), float(t), float(e)) for l, t, e in grid]
    if not cells:
        raise ValueError("empty parameter grid")
    cfgs = [replace(cfg_template, lam=lam, tau=tau, epsilon=eps) for lam, tau, eps in cells]
    scores = [[] for _ in cells]
    reasons = [None] * len(cells)  # why each cell diverged, on its first diverging fold
    all_idx = np.arange(ds.n)
    for f in fold_indices(ds.n, k, fold_seed):
        train = ds.subset(np.setdiff1d(all_idx, f))
        val = ds.subset(f)
        for i, cfg in enumerate(cfgs):
            if reasons[i] is not None:
                continue
            try:
                w = fit(train, cfg, threads=threads).w_hat
            except DivergenceError as exc:
                reasons[i] = str(exc)
                continue
            scores[i].append(mse(val.y, predict(w, val.x)))
        # One split at a time: the next fold's pair is built after this one is freed.
        del train, val
    per_cell = [math.nan if r is not None else float(np.mean(sc))
                for sc, r in zip(scores, reasons)]
    failures = [(c, r) for c, r in zip(cells, reasons) if r is not None]
    finite = [(v, c) for v, c in zip(per_cell, cells) if not math.isnan(v)]
    if not finite:
        raise DivergenceError(
            "every grid cell diverged: " + "; ".join(f"{c}: {r}" for c, r in failures))
    return CvReport(grid=tuple(cells), per_cell=tuple(per_cell), selected=min(finite)[1],
                    fold_seed=fold_seed, failures=tuple(failures))


def theorem_bound(lam: float, tau: float, dims, orth_rank: int) -> float:
    """General recovery bound ``4 sqrt(2) (lam sqrt(prod dims) + tau sqrt(R))``.

    ``R = orth_rank`` bounds the orthogonal rank of the true coefficient; it
    and ``dims`` follow the size rule of :mod:`sltr.tensor`.
    """
    if not (lam >= 0 and tau >= 0):
        raise ValueError("lambda and tau must be non-negative")
    dims, orth_rank = _dims(dims), _integer("orth_rank", orth_rank, 1)
    return 4.0 * math.sqrt(2.0) * (lam * math.sqrt(math.prod(dims)) + tau * math.sqrt(orth_rank))


def three_mode_bound(lam: float, tau: float, dims, mode_ranks) -> float:
    """Sharper three-mode bound using the per-mode unfolding ranks ``mode_ranks``.

    ``4 sqrt(2) (lam sqrt(prod dims) + tau R')`` with
    ``R' = max_m sqrt(r_m * min of the other two ranks)``.  ``dims`` and the
    ranks follow the size rule of :mod:`sltr.tensor`, each ``r_m`` in
    ``[0, min(p_m, P / p_m)]``.
    """
    if not (lam >= 0 and tau >= 0):
        raise ValueError("lambda and tau must be non-negative")
    dims, ranks = _dims(dims), tuple(mode_ranks)
    if len(ranks) != len(dims):
        raise ValueError("need one rank per mode")
    p_total = math.prod(dims)
    ranks = [_integer(f"mode_ranks[{i}]", r, 0, min(p, p_total // p))
             for i, (r, p) in enumerate(zip(ranks, dims))]
    if len(dims) != 3:
        raise ValueError(f"three-mode bound needs a 3-mode shape, got {len(dims)} modes")
    r1, r2, r3 = ranks
    r_prime = math.sqrt(max(r1 * min(r2, r3), r2 * min(r1, r3), r3 * min(r1, r2)))
    return 4.0 * math.sqrt(2.0) * (lam * math.sqrt(p_total) + tau * r_prime)


def unfolding_ranks(t: Tensor, rtol: float = 1e-8):
    """Numerical rank of every mode unfolding (threshold ``rtol * s_max``)."""
    ranks = []
    for m in range(1, t.order + 1):
        s = singular_values(unfold(t, m))
        ranks.append(int(np.count_nonzero(s > rtol * s[0])) if s[0] > 0 else 0)
    return tuple(ranks)


def default_grid():
    """Default (lambda, tau, epsilon) grid: 9x9 log-spaced radii, 3 ridge values."""
    radii = np.logspace(-3, 1, 9)
    eps = (0.1, 1.0, 10.0)
    return [(float(l), float(t), float(e)) for l in radii for t in radii for e in eps]

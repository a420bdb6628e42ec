"""Lasso and Elastic Net on vectorized samples.

Both minimize ``0.5 * ||y - X w||^2 + penalty`` by accelerated proximal
gradient with backtracking line search.  Acceleration restarts whenever the
momentum step would increase the objective, so the objective sequence is
non-increasing; iteration stops by the same relative-change rule as the
tensor solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DivergenceError

__all__ = ["BaselineConfig", "fit_lasso", "fit_elastic_net"]


@dataclass(frozen=True)
class BaselineConfig:
    """Penalty weight, l1/l2 trade-off, and iteration limits."""

    lam: float
    l1_ratio: float = 0.5
    max_iter: int = 1000
    tol: float = 1e-3

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not 0.0 <= self.l1_ratio <= 1.0:
            raise ValueError(f"l1_ratio must lie in [0, 1], got {self.l1_ratio}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


def fit_lasso(x: np.ndarray, y: np.ndarray, cfg: BaselineConfig) -> np.ndarray:
    """Minimize ``0.5 ||y - Xw||^2 + lam ||w||_1``."""
    w, _ = _apg(x, y, cfg.lam, 0.0, cfg.max_iter, cfg.tol)
    return w


def fit_elastic_net(x: np.ndarray, y: np.ndarray, cfg: BaselineConfig) -> np.ndarray:
    """Minimize ``0.5 ||y - Xw||^2 + lam (r ||w||_1 + (1 - r)/2 ||w||^2)``.

    With ``r = 1`` the l2 term vanishes and the solve is identical to
    :func:`fit_lasso` bit for bit.
    """
    w, _ = _apg(x, y, cfg.lam * cfg.l1_ratio, cfg.lam * (1.0 - cfg.l1_ratio), cfg.max_iter, cfg.tol)
    return w


def _soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _apg(x, y, l1_pen, l2_pen, max_iter, tol):
    """Accelerated proximal gradient engine.

    Smooth part ``0.5||y - Xw||^2 + 0.5 l2 ||w||^2``, non-smooth part
    ``l1 ||w||_1``.  Returns ``(w, objective_history)``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[0] != y.size:
        raise ValueError(f"design {x.shape} inconsistent with {y.size} responses")

    def smooth(w):
        r = x @ w - y
        val = 0.5 * float(r @ r) + 0.5 * l2_pen * float(w @ w)
        return val, r

    def objective(w, sval):
        return sval + l1_pen * float(np.sum(np.abs(w)))

    p_dim = x.shape[1]
    w = np.zeros(p_dim)
    f_w, r_w = smooth(w)
    obj_w = objective(w, f_w)
    z, f_z, r_z = w, f_w, r_w
    t_mom = 1.0
    lip = 1.0
    history = [obj_w]
    initial_change = None
    for _ in range(max_iter):
        grad = x.T @ r_z + l2_pen * z
        p, f_p, lip = _backtrack(smooth, z, f_z, grad, l1_pen, lip)
        if objective(p, f_p) > obj_w:
            # momentum overshot: restart from the best point
            z, f_z = w, f_w
            t_mom = 1.0
            grad = x.T @ r_w + l2_pen * z
            p, f_p, lip = _backtrack(smooth, z, f_z, grad, l1_pen, lip)
        change = float(np.linalg.norm(p - w))
        denom = float(np.linalg.norm(w))
        rel = change / denom if denom > 0 else change
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_mom * t_mom))
        z = p + ((t_mom - 1.0) / t_next) * (p - w)
        w, t_mom = p, t_next
        f_w, r_w = smooth(w)
        obj_w = objective(w, f_w)
        history.append(obj_w)
        f_z, r_z = smooth(z)
        if not math.isfinite(rel):
            raise DivergenceError("non-finite iterate change", [])
        if initial_change is None:
            initial_change = rel
        elif initial_change > 0 and rel > 1e6 * initial_change:
            raise DivergenceError("iterates diverged", [])
        if rel <= tol:
            break
    return w, history


def _backtrack(smooth, z, f_z, grad, l1_pen, lip):
    """Largest step passing the quadratic upper-bound test; lip only grows."""
    while True:
        p = _soft(z - grad / lip, l1_pen / lip)
        d = p - z
        f_p, _ = smooth(p)
        bound = f_z + float(grad @ d) + 0.5 * lip * float(d @ d)
        if f_p <= bound + 1e-12 * max(1.0, abs(bound)):
            return p, f_p, lip
        lip *= 2.0

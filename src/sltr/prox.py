"""Closed-form proximal and projection operators for the mode subproblems.

The four operators act on the mode-m unfolding: the proxes of the elementwise
l1 norm and of the matrix nuclear norm, and the projections onto the
l-infinity and spectral balls centered on the backbone unfolding.  They make
the three terms of the split objective: soft thresholding then the
l-infinity clamp is the prox of the l1 norm restricted to the l-infinity
ball, because both act entry by entry.  The two spectral operators change only
the singular triplets above their threshold, so they call the thresholded
:func:`~sltr.linalg.svd` kernel, which computes just those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import svd

__all__ = [
    "ConstraintCenter",
    "prox_l1",
    "prox_nuclear",
    "project_linf_ball",
    "project_spectral_ball",
]


@dataclass(frozen=True)
class ConstraintCenter:
    """Center and radii of the two constraint balls for one mode.

    ``c`` is the mode-m unfolding of the backbone tensor; ``lam`` is the
    entrywise (l-infinity) radius and ``tau`` the spectral radius.
    """

    c: np.ndarray
    lam: float
    tau: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")

    def check_shape(self, v: np.ndarray) -> None:
        if v.shape != self.c.shape:
            raise ValueError(f"operand shape {v.shape} does not match center {self.c.shape}")


def prox_l1(v: np.ndarray, gamma: float) -> np.ndarray:
    """Soft thresholding: the prox of ``gamma * ||.||_1`` at ``v``."""
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return np.sign(v) * np.maximum(np.abs(v) - gamma, 0.0)


def prox_nuclear(v: np.ndarray, gamma: float) -> np.ndarray:
    """Singular-value soft thresholding: the prox of ``gamma * ||.||_*`` at ``v``.

    Only the triplets with ``s > gamma`` survive; each is shrunk by ``gamma``.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    f = svd(v, above=gamma)
    return (f.u * (f.s - gamma)) @ f.v.T


def project_linf_ball(v: np.ndarray, ctr: ConstraintCenter) -> np.ndarray:
    """Euclidean projection onto ``{w : ||w - c||_inf <= lambda}`` (entrywise clamp)."""
    ctr.check_shape(v)
    return np.clip(v, ctr.c - ctr.lam, ctr.c + ctr.lam)


def project_spectral_ball(v: np.ndarray, ctr: ConstraintCenter) -> np.ndarray:
    """Euclidean projection onto ``{w : ||w - c||_spec <= tau}``.

    Clips the singular values of ``v - c`` at ``tau`` by subtracting the
    excess of the triplets with ``s > tau``.  Returns ``v`` itself (not a
    copy) when it is already in the ball.
    """
    ctr.check_shape(v)
    f = svd(v - ctr.c, above=ctr.tau)
    if not f.s.size:
        return v
    return v - (f.u * (f.s - ctr.tau)) @ f.v.T

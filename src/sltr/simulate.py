"""Synthetic sparse (optionally low-rank) regression data.

Generation recipe for a given seed, in stream order (see :mod:`sltr.rng`):

1. coefficient entries: ``prod(dims)`` standard normals from the coefficient
   stream, canonical layout — or, when ``low_rank`` is set, ``R`` rank-1
   outer-product terms whose factor vectors are drawn term-major then
   mode-major from the same stream, summed;
2. sparsity: exactly ``floor(s * P / 100 + 0.5)`` entries zeroed, chosen by
   a partial Fisher-Yates pass on the mask stream;
3. samples: ``n * P`` normals from the sample stream, sample-major,
   canonical layout within each sample;
4. responses: ``y_i = <W, X_i> + alpha * eps_i`` with noise from the noise
   stream.  The inner products come from :func:`sltr.tensor.dot_rows`: each
   is exactly ``math.fsum`` of the products ``X_i * W``, the correctly
   rounded sum, so the emitted dataset is identical across platforms.  Rows
   whose rounding the vectorized sum cannot certify (and all-zero or
   non-finite rows) are summed by ``math.fsum`` itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import rng
from .data import Dataset
from .tensor import Tensor, dot_rows

__all__ = ["SimSpec", "generate"]


@dataclass(frozen=True)
class SimSpec:
    """Shape, sample count, sparsity %, noise level, seed, optional rank."""

    dims: tuple
    n: int
    sparsity_pct: float = 80.0
    noise_alpha: float = 0.1
    seed: int = 0
    low_rank: int | None = None

    def __post_init__(self):
        dims = tuple(self.dims)
        if not dims or not all(isinstance(p, numbers.Integral) and p > 0 for p in dims):
            raise ValueError(f"dims must be one or more positive integers, got {self.dims!r}")
        object.__setattr__(self, "dims", tuple(int(p) for p in dims))
        if not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not 0.0 <= self.sparsity_pct <= 100.0:
            raise ValueError(f"sparsity_pct must lie in [0, 100], got {self.sparsity_pct}")
        if not self.noise_alpha >= 0:
            raise ValueError(f"noise_alpha must be >= 0, got {self.noise_alpha}")
        if math.isinf(self.noise_alpha):
            raise ValueError(f"noise_alpha must be finite, got {self.noise_alpha}")
        if self.low_rank is not None and (
                not isinstance(self.low_rank, numbers.Integral) or self.low_rank < 1):
            raise ValueError(f"low_rank must be an integer >= 1, got {self.low_rank!r}")


def generate(spec: SimSpec):
    """Generate ``(dataset, true_coefficient)`` for a simulation spec."""
    dims = spec.dims
    p_total = math.prod(dims)
    if spec.low_rank is None:
        w = rng.normals(spec.seed, rng.STREAM_COEF, p_total)
    else:
        w = _low_rank_coefficient(dims, spec.low_rank, spec.seed)
    n_zero = int(math.floor(spec.sparsity_pct * p_total / 100.0 + 0.5))
    if n_zero:
        w[rng.shuffled_indices(p_total, n_zero, spec.seed, rng.STREAM_MASK)] = 0.0
    w_star = Tensor._own(dims, w)

    x = rng.normals(spec.seed, rng.STREAM_SAMPLES, spec.n * p_total).reshape(spec.n, p_total)
    noise = rng.normals(spec.seed, rng.STREAM_NOISE, spec.n)
    y = dot_rows(x, w_star.data)
    y += spec.noise_alpha * noise
    return Dataset._own(dims, x, y), w_star


def _low_rank_coefficient(dims, rank, seed):
    vals = rng.normals(seed, rng.STREAM_COEF, rank * sum(dims))
    acc = np.zeros(dims)
    pos = 0
    for _ in range(rank):
        factors = []
        for p in dims:
            factors.append(vals[pos : pos + p])
            pos += p
        acc += reduce(np.multiply.outer, factors)
    return acc.ravel(order="F")

"""Dataset container: N tensor samples with scalar responses."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor

__all__ = ["Dataset"]


class Dataset:
    """N tensor samples plus N scalar responses.

    Samples are stored stacked as an ``N x P`` design matrix whose row ``i``
    is the canonical vectorization of sample ``i``; individual samples are
    materialized on demand.

    Parameters
    ----------
    dims : sequence of int
        Mode sizes shared by every sample.
    x : array_like, shape (N, prod(dims))
        Vectorized samples, canonical layout per row.
    y : array_like, shape (N,)
        Responses.
    """

    __slots__ = ("dims", "x", "y")

    def __init__(self, dims, x, y):
        dims = tuple(int(p) for p in dims)
        if any(p <= 0 for p in dims):
            raise ValueError(f"dims must be strictly positive, got {dims}")
        x = np.array(x, dtype=np.float64, copy=True)
        y = np.array(y, dtype=np.float64, copy=True).ravel()
        if x.ndim != 2 or x.shape[1] != math.prod(dims):
            raise ValueError(f"x must be N x {math.prod(dims)}, got {x.shape}")
        if y.size != x.shape[0]:
            raise ValueError(f"{x.shape[0]} samples but {y.size} responses")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def sample(self, i: int) -> Tensor:
        """Sample ``i`` as a new tensor (a copy of row ``i`` of ``x``)."""
        return Tensor(self.dims, self.x[i])

    def samples(self):
        """Iterate over all samples as tensors."""
        return (self.sample(i) for i in range(self.n))

    def subset(self, indices) -> "Dataset":
        """New dataset restricted to the given sample indices (in order)."""
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.dims, self.x[idx], self.y[idx])

    def __repr__(self):
        return f"Dataset(n={self.n}, dims={self.dims})"

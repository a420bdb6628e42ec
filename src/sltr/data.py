"""Dataset container: N tensor samples with scalar responses."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, _dims

__all__ = ["Dataset"]


class Dataset:
    """N tensor samples plus N scalar responses.

    Samples are stored stacked as an ``N x P`` design matrix whose row ``i``
    is the canonical vectorization of sample ``i``; :meth:`sample` views one
    row as a tensor.

    There are two ways in, as for :class:`~sltr.tensor.Tensor`.  The public
    constructor copies ``x`` and ``y``, so the caller's arrays stay its own.
    The package's own producers (:func:`sltr.simulate.generate`,
    :func:`sltr.io.read_dataset`, :meth:`subset`) build fresh arrays and hand
    them over through the private ``_own`` instead, so the design matrix is
    held once.

    Each dataset also has a private dict, in which :func:`sltr.solver.fit`
    keeps the dataset's backbone per epsilon.  A new dataset, from either way
    in or from :meth:`subset`, starts with it empty.

    Parameters
    ----------
    dims : sequence of int
        Mode sizes shared by every sample, by the size rule of :mod:`sltr.tensor`.
    x : array_like, shape (N, prod(dims))
        Vectorized samples, canonical layout per row.
    y : array_like, shape (N,)
        Responses.
    """

    __slots__ = ("dims", "x", "y", "_backbones")

    def __init__(self, dims, x, y):
        self._adopt(dims, x, y, copy=True)

    @classmethod
    def _own(cls, dims, x, y) -> "Dataset":
        """A dataset that keeps ``x`` and ``y`` themselves (made read-only), not copies.

        For fresh float64 arrays that nothing else holds; the checks are those
        of the public constructor.
        """
        ds = cls.__new__(cls)
        ds._adopt(dims, x, y, copy=False)
        return ds

    def _adopt(self, dims, x, y, copy):
        dims = _dims(dims)
        x = np.array(x, dtype=np.float64, copy=copy)
        y = np.array(y, dtype=np.float64, copy=copy).ravel()
        if x.ndim != 2 or x.shape[1] != math.prod(dims):
            raise ValueError(f"x must be N x {math.prod(dims)}, got {x.shape}")
        if y.size != x.shape[0]:
            raise ValueError(f"{x.shape[0]} samples but {y.size} responses")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_backbones", {})

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def sample(self, i: int) -> Tensor:
        """Sample ``i`` as a tensor over a read-only view of row ``i`` of ``x``.

        Nothing is copied; the view keeps all of ``x`` alive while the tensor lives.
        """
        return Tensor._own(self.dims, self.x[i])

    def samples(self) -> np.ndarray:
        """The design matrix ``x``, one sample per row.

        Kept for the benchmark's data workload, which calls
        ``predict(w, ds.samples())``, until that workload passes ``ds.x``.
        """
        return self.x

    def subset(self, indices) -> "Dataset":
        """New dataset restricted to the given sample indices (in order).

        The indices must be a 1-D sequence of integers: a scalar, a nested
        list or a boolean or float array raises :class:`ValueError` rather
        than being cast to row numbers.  They must lie in ``[0, n)``: a
        negative index raises :class:`IndexError`, as an index of ``n`` does,
        rather than counting from the end.
        """
        idx = np.asarray(indices)
        if idx.ndim != 1:
            raise ValueError(f"indices must be a 1-D sequence, got {indices!r}")
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.intp, copy=False)
        if idx.size and idx.min() < 0:
            raise IndexError(f"index {idx.min()} is out of bounds for {self.n} samples")
        return Dataset._own(self.dims, self.x[idx], self.y[idx])

    def __repr__(self):
        return f"Dataset(n={self.n}, dims={self.dims})"

"""Dense M-order tensors and the unfold/fold algebra.

Conventions used throughout the package:

* A *tensor* is an immutable :class:`Tensor`: a dimension vector
  ``(p_1, ..., p_M)`` plus a flat float64 array in the canonical layout.
* The canonical flat layout is generalized column-major (mode-1 fastest):
  the zero-based element ``(i_1, ..., i_M)`` is stored at offset
  ``sum_m i_m * prod_{l<m} p_l``.  This makes the mode-1 unfolding a plain
  reshape.
* A *matrix* is a 2-D float64 ``numpy.ndarray``.
* Mode indices are 1-based: ``m`` ranges over ``1..M``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "unfold",
    "fold",
    "inner",
    "dot_rows",
]


class Tensor:
    """Immutable dense tensor of 64-bit reals.

    There are two ways in.  The constructor copies ``data``, so the caller's
    array stays its own.  The package's own producers build a fresh array,
    or hold a read-only one (a row of a dataset's design matrix), and hand it
    over through the private ``_own``, which runs the same checks and keeps
    it (made read-only), so each tensor's entries are held once.

    Parameters
    ----------
    dims : sequence of int
        Strictly positive mode sizes ``(p_1, ..., p_M)``, M >= 1.
    data : array_like, 1-D
        ``prod(dims)`` reals in the canonical (mode-1-fastest) layout.  An
        M-dimensional array goes through :meth:`from_array` instead.
    """

    __slots__ = ("dims", "data")

    def __init__(self, dims, data):
        self._adopt(dims, data, copy=True)

    @classmethod
    def _own(cls, dims, data) -> "Tensor":
        """A tensor that keeps ``data`` itself (made read-only), not a copy.

        For fresh float64 arrays, or read-only ones the package holds; the
        checks are those of the public constructor.
        """
        t = cls.__new__(cls)
        t._adopt(dims, data, copy=False)
        return t

    def _adopt(self, dims, data, copy):
        dims = tuple(int(p) for p in dims)
        if len(dims) < 1:
            raise ValueError("tensor order must be at least 1")
        if any(p <= 0 for p in dims):
            raise ValueError(f"dims must be strictly positive, got {dims}")
        arr = np.array(data, dtype=np.float64, copy=copy)
        if arr.ndim != 1:
            raise ValueError(f"data must be 1-D, got {arr.ndim}-D; use Tensor.from_array")
        if arr.size != math.prod(dims):
            raise ValueError(
                f"data length {arr.size} does not match prod(dims) = {math.prod(dims)}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def order(self) -> int:
        """Number of modes M."""
        return len(self.dims)

    @property
    def size(self) -> int:
        """Total element count prod(p_m)."""
        return self.data.size

    @classmethod
    def from_array(cls, arr) -> "Tensor":
        """Build a tensor from an M-dimensional array (any memory order), copying it once."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim < 1:
            arr = arr.reshape(1)
        return cls._own(arr.shape, arr.flatten(order="F"))

    @classmethod
    def zeros(cls, dims) -> "Tensor":
        return cls._own(dims, np.zeros(math.prod(tuple(dims))))

    def to_array(self) -> np.ndarray:
        """View as an M-dimensional numpy array (read-only)."""
        return self.data.reshape(self.dims, order="F")

    def __repr__(self):
        return f"Tensor(dims={self.dims})"


def _check_mode(m: int, order: int) -> None:
    if not 1 <= m <= order:
        raise ValueError(f"mode {m} out of range for order-{order} tensor")


def unfold(t: Tensor, m: int) -> np.ndarray:
    """Mode-m unfolding (matricization) of ``t``.

    Returns the ``p_m x prod_{m' != m} p_m'`` matrix whose columns are the
    mode-m fibers.  Element ``(i_1, ..., i_M)`` lands in row ``i_m`` and
    column ``j = sum_{k != m} i_k * J_k`` with ``J_k = prod_{l<k, l != m} p_l``.
    """
    _check_mode(m, t.order)
    arr = t.to_array()
    return np.moveaxis(arr, m - 1, 0).reshape(t.dims[m - 1], -1, order="F")


def fold(a: np.ndarray, m: int, dims) -> Tensor:
    """Inverse of :func:`unfold`: rebuild the tensor from its mode-m unfolding.

    The result holds the one copy of ``a`` that reorders it into the canonical layout.
    """
    dims = tuple(int(p) for p in dims)
    _check_mode(m, len(dims))
    a = np.asarray(a, dtype=np.float64)
    rest = dims[: m - 1] + dims[m:]
    expected = (dims[m - 1], math.prod(rest))
    if a.ndim != 2 or a.shape != expected:
        raise ValueError(f"expected a {expected} matrix for mode {m} of {dims}, got {a.shape}")
    arr = np.moveaxis(a.reshape((dims[m - 1],) + rest, order="F"), 0, m - 1)
    return Tensor.from_array(arr)


def inner(a: Tensor, b: Tensor) -> float:
    """Inner product ``sum_i a_i * b_i``, correctly rounded.

    Returns exactly ``math.fsum(np.multiply(a.data, b.data))``, bit for bit,
    so the value does not depend on platform or BLAS reduction order.  It is
    :func:`dot_rows` on a single row: the same fallback rule applies, and a
    non-finite or overflowing sum gives ``fsum``'s value or exception.
    """
    if a.dims != b.dims:
        raise ValueError(f"dims mismatch: {a.dims} vs {b.dims}")
    return float(dot_rows(a.data[np.newaxis, :], b.data)[0])


# Rows per block of dot_rows: about 512 KB of products, so a block's two
# temporaries stay in cache and add little to peak memory.
_BLOCK_ELEMENTS = 1 << 16
_U2 = 2.0**-106  # squared unit roundoff of float64


def _block_rows(p: int) -> int:
    """Rows per block for :func:`dot_rows` on rows of ``p`` elements."""
    return max(1, _BLOCK_ELEMENTS // max(1, p))


def dot_rows(x, w) -> np.ndarray:
    """Correctly rounded dot product of every row of ``x`` with ``w``.

    Entry ``i`` is exactly ``math.fsum(np.multiply(x[i], w))``, bit for bit:
    the same value, or the same exception type (``ValueError`` for ``inf -
    inf``, ``OverflowError`` for an overflowing partial sum), raised for the
    first such row.

    Rows go in blocks of ``_block_rows(P)`` rows.  A row of products ``p``
    (``P`` entries, largest magnitude ``M < 2**k``) is split against
    ``sigma = 2**(k + L)``, ``2**L >= P + 2``, into ``q = (p + sigma) - sigma``
    and ``p - q`` (error-free extraction, Rump, Ogita & Oishi, SIAM J. Sci.
    Comput. 31(1), 2008).  Every ``q`` is a multiple of ``u * sigma`` no
    larger than ``2**k``, so ``t1 = sum(q)`` is exact in any order, and
    ``t2 = sum(p - q)`` is within ``2 P**2 u**2 sigma`` of its exact value.
    With ``r = fl(t1 + t2)`` and ``err`` its TwoSum error, the row keeps ``r``
    only if ``|err| + 2 P**2 u**2 sigma < (|r| - nextafter(|r|, 0)) / 2``,
    which proves that ``r`` is the exact sum rounded to nearest.

    Fallback rule: every row that fails this test is summed by ``math.fsum``.
    These are the all-zero rows (``r = 0`` leaves no gap), rows with an
    infinite or NaN product or so large that ``sigma`` overflows (``r`` is
    NaN), and rows whose sum lies within the bound of a rounding boundary.
    Gradual underflow keeps each step exact or within the bound, so tiny
    rows need no special case.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[1] != w.size:
        raise ValueError(f"x must be N x {w.size}, got {x.shape}")
    n, p = x.shape
    if p == 0:
        return np.zeros(n)
    out = np.empty(n)
    big_l = (p + 1).bit_length()  # 2**L >= P + 2
    bound_factor = 2.0 * p * p * _U2
    step = _block_rows(p)
    for start in range(0, n, step):
        blk = x[start : start + step]
        prod = blk * w
        with np.errstate(all="ignore"):
            m = np.maximum(prod.max(axis=1), -prod.min(axis=1))
            sigma = np.ldexp(1.0, np.frexp(m)[1] + big_l)[:, np.newaxis]
            q = prod + sigma
            q -= sigma
            t1 = q.sum(axis=1)
            prod -= q
            t2 = prod.sum(axis=1)
            r = t1 + t2
            z = r - t1
            err = (t1 - (r - z)) + (t2 - z)
            mag = np.abs(r)
            ok = np.abs(err) + bound_factor * sigma[:, 0] < 0.5 * (mag - np.nextafter(mag, 0.0))
        out[start : start + blk.shape[0]] = r
        for i in np.flatnonzero(~ok):
            out[start + i] = _fsum_row(blk[i], w)
    return out


def _fsum_row(row, w) -> float:
    return math.fsum(np.multiply(row, w))


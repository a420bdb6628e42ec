"""Dense linear-algebra primitives and the ridge plug-in backbone.

The solver's per-sweep spectral work goes through the thresholded
:func:`svd` kernel, which computes only the singular triplets above a
threshold from ``eigh`` of ``b b'``, ``b`` the wide one of ``a`` and ``a'``.
Wherever that Gram path cannot answer to its stated accuracy, the kernel
truncates the LAPACK SVD instead: that is its one way out.  Everything
evaluated once per solve (:func:`singular_values`, :func:`spectral_norm`,
:func:`nuclear_norm`) uses the LAPACK SVD of one matrix.

The ridge :func:`backbone` solves a system whose matrix is the design's
smaller Gram product plus the ridge.  That product is most of its cost
(about half of a first fit's CPU time at 30x30x10, n = 720), and the
answer depends on the design, the responses and epsilon alone, so
:func:`sltr.solver.fit` keeps each dataset's backbone per epsilon and a
later fit at that epsilon solves nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .tensor import Tensor, _dims

__all__ = [
    "SvdFactors",
    "Backbone",
    "svd",
    "singular_values",
    "spectral_norm",
    "nuclear_norm",
    "backbone",
]

# eigh resolves a Gram eigenvalue only to a few ulps of the largest, so a
# singular value taken from eigenvalue lam is off by about
# eps * sqrt(lam_max / lam) * ||a||_2.  The thresholded kernel uses the
# eigenvalues only while every one it keeps is above this fraction of the
# largest (singular values above 1e-4 * ||a||_2), which bounds that error by
# about 2e-12 * ||a||_2; otherwise it uses LAPACK.
_GRAM_RTOL = 1e-8


@dataclass(frozen=True)
class SvdFactors:
    """The leading singular triplets of a matrix, ``s`` non-increasing and > 0.

    :func:`svd` keeps those with ``s`` above its threshold, so ``(u * s) @ v.T``
    is that part of the thin SVD ``a = u @ diag(s) @ v.T``.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class Backbone:
    """Ridge plug-in estimate around which the constraint balls are centered."""

    tensor: Tensor


def svd(a: np.ndarray, above: float) -> SvdFactors:
    """The singular triplets of a matrix with ``s > above``.

    This is the thresholded spectral kernel: with ``above = t``, ``eigh`` of the
    smaller Gram matrix, whose eigenvectors with eigenvalue above ``t**2`` are
    the kept singular vectors on that side.  Each kept singular value is
    recomputed as the norm of ``a`` projected on its vector, which also gives
    the vector on the other side and keeps small singular values accurate.
    This costs one Gram product, a small symmetric eigensolve and one product
    with the kept vectors instead of a full SVD.  Where it answers, a non-square
    ``a`` has ``svd(a.T, t)`` equal to ``svd(a, t)`` with ``u`` and ``v``
    swapped, bit for bit; where it cannot (see :func:`_gram_svd`), the kernel
    truncates the LAPACK SVD.  Either way the soft-thresholded spectrum
    ``max(s - t, 0)`` and the matrices built from it agree with the full SVD's
    to ``2e-12 * ||a||_2``.
    """
    a = _as_matrix(a)
    scale = _max_abs(a, "SVD requires finite entries")
    if not above >= 0:
        raise ValueError(f"threshold must be non-negative, got {above}")
    f = _gram_svd(a, above, scale)
    if f is None:
        u, s, vh = _lapack_svd(a, compute_uv=True)
        k = int(np.count_nonzero(s > above))
        f = SvdFactors(u=u[:, :k], s=s[:k], v=vh[:k].T)
    return f


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values only (non-increasing), skipping the factor computation."""
    a = _as_matrix(a)
    _max_abs(a, "SVD requires finite entries")
    return _lapack_svd(a, compute_uv=False)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(singular_values(a)[0])


def nuclear_norm(a: np.ndarray) -> float:
    """Sum of the LAPACK singular values of a matrix."""
    return float(np.sum(singular_values(a)))


def backbone(x: np.ndarray, y: np.ndarray, epsilon: float, dims) -> Backbone:
    """Ridge plug-in point: the tensor whose canonical vector is ``(X'X + eps I)^-1 X'y``.

    Solves the P x P primal system when P <= N and the mathematically
    identical N x N dual (Woodbury) system ``X'(XX' + eps I)^-1 y`` when
    P > N, which is the cheap direction in the high-dimensional regime.
    Either way it allocates one ``min(N, P)`` square, the Gram product
    ``x.T @ x`` or ``x @ x.T`` with the ridge added, beside ``w``.
    """
    x = _as_matrix(x)
    y = np.asarray(y, dtype=np.float64).ravel()
    dims = _dims(dims)
    n, p = x.shape
    if y.size != n:
        raise ValueError(f"design has {n} rows but y has {y.size} entries")
    if p != math.prod(dims):
        raise ValueError(f"design has {p} columns but prod(dims) = {math.prod(dims)}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    for a in (x, y):
        _max_abs(a, "backbone requires finite design and responses")
    primal = p <= n
    with np.errstate(over="ignore", invalid="ignore"):  # finite x can overflow; w is checked
        g = x.T @ x if primal else x @ x.T
        g.flat[:: len(g) + 1] += epsilon  # the ridge, added in place
        try:
            w = np.linalg.solve(g, x.T @ y) if primal else x.T @ np.linalg.solve(g, y)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"ridge system singular despite epsilon={epsilon}: {exc}") from exc
    _max_abs(w, "ridge system overflowed: its solution has a non-finite entry")
    return Backbone(tensor=Tensor._own(dims, w))


def _max_abs(a: np.ndarray, message: str) -> float:
    """The largest ``|a_ij|`` (0 for no entries) from a max and a min; ``message`` if not finite."""
    hi, lo = float(a.max(initial=0.0)), float(a.min(initial=0.0))
    if not (math.isfinite(hi) and math.isfinite(lo)):  # a NaN carries through both
        raise NumericalError(message)
    return max(hi, -lo)


def _gram_svd(a: np.ndarray, above: float, scale: float) -> SvdFactors | None:
    """The triplets of ``a`` with ``s > above``, from ``eigh`` of its smaller Gram matrix.

    A tall ``a`` is handled as its wide transpose ``b = a.T``, and ``u`` and
    ``v`` swap at the return.  ``None``, for the caller's LAPACK fallback,
    wherever this path cannot answer: ``scale``, the largest ``|a_ij|``, is
    nonzero and outside ``[2**-400, 2**400]``, where its square underflows or
    overflows; ``eigh`` fails; a kept eigenvalue is at most ``_GRAM_RTOL``
    times the largest; or rounding puts a recomputed value out of order or
    onto the threshold.
    """
    if not (scale == 0 or 2.0**-400 <= scale <= 2.0**400):
        return None
    b = a if a.shape[0] <= a.shape[1] else a.T
    try:
        lam, q = np.linalg.eigh(b @ b.T)
    except np.linalg.LinAlgError:
        return None
    k = int(np.count_nonzero(lam > above * above))
    if k == 0:
        return SvdFactors(u=np.zeros((a.shape[0], 0)), s=np.zeros(0), v=np.zeros((a.shape[1], 0)))
    if lam[-k] <= _GRAM_RTOL * lam[-1]:
        return None
    q = q[:, -k:][:, ::-1]  # kept eigenvectors, largest eigenvalue first
    w = q.T @ b  # row i is s_i v_i' of b
    s = np.sqrt((w * w).sum(axis=1))
    if s[-1] <= above or (s[1:] > s[:-1]).any():
        return None
    v = (w / s[:, None]).T
    return SvdFactors(u=q, s=s, v=v) if b is a else SvdFactors(u=v, s=s, v=q)


def _lapack_svd(a: np.ndarray, compute_uv: bool):
    """LAPACK divide-and-conquer SVD, or the slower QR-based driver if that fails to converge.

    Both drivers are deterministic for a fixed input.
    """
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        import scipy.linalg  # only here: importing sltr does not load it

        try:
            return scipy.linalg.svd(a, full_matrices=False, compute_uv=compute_uv,
                                    lapack_driver="gesvd")
        except np.linalg.LinAlgError as exc:  # pragma: no cover - needs a pathological input
            raise NumericalError(f"SVD failed to converge on {a.shape} matrix: {exc}") from exc


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a

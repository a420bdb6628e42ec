"""Dense linear-algebra primitives and the ridge plug-in backbone.

The solver's per-sweep spectral work goes through the thresholded
:func:`svd` kernel, which computes only the singular triplets above a
threshold from ``eigh`` of the smaller Gram matrix (``a a'`` or ``a' a``),
and falls back to the LAPACK SVD when the eigenvalues it relies on sit too
far below the largest one for the squared spectrum to resolve them.  That
kernel is the only Gram path of the spectral operators.  Everything
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
import scipy.linalg

from .exceptions import NumericalError
from .tensor import Tensor, _dims, unfold

__all__ = [
    "SvdFactors",
    "Backbone",
    "svd",
    "singular_values",
    "spectral_norm",
    "nuclear_norm",
    "tensor_nuclear_norm",
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
    smaller Gram matrix (``a a'`` or ``a' a``), whose eigenvectors with
    eigenvalue above ``t**2`` are the kept singular vectors on that side.
    Each kept singular value is recomputed as the norm of ``a`` projected on
    its vector, which also gives the vector on the other side and keeps small
    singular values accurate.  This costs one Gram product, a small symmetric
    eigensolve and one product with the kept vectors instead of a full SVD.
    The Gram matrix squares the spectrum: when some kept eigenvalue is at
    most ``1e-8`` times the largest (a kept singular value at most
    ``1e-4 * ||a||_2``), or when a nonzero largest ``|a_ij|`` is outside
    ``[2**-400, 2**400]``, where its square underflows or overflows, the
    kernel truncates the LAPACK SVD instead.  Either way the soft-thresholded
    spectrum ``max(s - t, 0)`` and the matrices built from it agree with the
    full SVD's to about ``2e-12 * ||a||_2``.
    """
    a, scale = _finite_matrix(a)
    if not above >= 0:
        raise ValueError(f"threshold must be non-negative, got {above}")
    f = _gram_svd(a, above) if scale == 0 or 2.0**-400 <= scale <= 2.0**400 else None
    if f is None:
        u, s, vh = _lapack_svd(a, compute_uv=True)
        k = int(np.count_nonzero(s > above))
        f = SvdFactors(u=u[:, :k], s=s[:k], v=vh[:k].T)
    return f


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values only (non-increasing), skipping the factor computation."""
    return _lapack_svd(_finite_matrix(a)[0], compute_uv=False)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(singular_values(a)[0])


def nuclear_norm(a: np.ndarray) -> float:
    """Sum of the LAPACK singular values of a matrix."""
    return float(np.sum(singular_values(a)))


def tensor_nuclear_norm(t: Tensor) -> float:
    """Average of the nuclear norms of all mode unfoldings.

    Requires order >= 2; for a 1-D tensor the single unfolding is a row
    vector whose nuclear norm silently degenerates to the Euclidean norm,
    so that case is rejected.
    """
    if t.order < 2:
        raise ValueError("tensor nuclear norm requires an order >= 2 tensor")
    return math.fsum(nuclear_norm(unfold(t, m)) for m in range(1, t.order + 1)) / t.order


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
    # Reductions, not an N x P mask: a NaN carries through max and min.
    if not all(np.isfinite(a.max(initial=0.0)) and np.isfinite(a.min(initial=0.0)) for a in (x, y)):
        raise NumericalError("backbone requires finite design and responses")
    primal = p <= n
    with np.errstate(over="ignore", invalid="ignore"):  # finite x can overflow; w is checked
        g = x.T @ x if primal else x @ x.T
        g.flat[:: len(g) + 1] += epsilon  # the ridge, added in place
        try:
            w = np.linalg.solve(g, x.T @ y) if primal else x.T @ np.linalg.solve(g, y)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"ridge system singular despite epsilon={epsilon}: {exc}") from exc
    if not (np.isfinite(w.max()) and np.isfinite(w.min())):
        raise NumericalError("ridge system overflowed: its solution has a non-finite entry")
    return Backbone(tensor=Tensor._own(dims, w))


def _finite_matrix(a):
    a = _as_matrix(a)
    scale = float(np.abs(a).max(initial=0.0))  # the largest |a_ij|; a NaN carries through
    if not math.isfinite(scale):
        raise NumericalError("SVD requires finite entries")
    return a, scale


def _gram_svd(a: np.ndarray, above: float) -> SvdFactors | None:
    """The triplets of ``a`` with ``s > above``, from ``eigh`` of its smaller Gram matrix.

    ``None`` when some kept eigenvalue is at most ``_GRAM_RTOL`` times the
    largest, or when ``eigh`` fails: the caller then truncates the LAPACK SVD.
    """
    m, n = a.shape
    wide = m <= n
    try:
        lam, q = np.linalg.eigh(a @ a.T if wide else a.T @ a)
    except np.linalg.LinAlgError:
        return None
    k = int(np.count_nonzero(lam > above * above))
    if k == 0:
        return SvdFactors(u=np.zeros((m, 0)), s=np.zeros(0), v=np.zeros((n, 0)))
    if lam[-k] <= _GRAM_RTOL * lam[-1]:
        return None
    q = q[:, -k:][:, ::-1]  # kept eigenvectors, largest eigenvalue first
    if wide:
        w = q.T @ a  # row i is s_i v_i'
        s = np.sqrt((w * w).sum(axis=1))
        u, v = q, (w / s[:, None]).T
    else:
        w = a @ q  # column i is s_i u_i
        s = np.sqrt((w * w).sum(axis=0))
        u, v = w / s, q
    if s[-1] <= above or (s[1:] > s[:-1]).any():
        # Rounding moved a recomputed value of a cluster out of order or onto the threshold.
        order = np.argsort(-s, kind="stable")
        order = order[s[order] > above]
        u, s, v = u[:, order], s[order], v[:, order]
    return SvdFactors(u=u, s=s, v=v)


def _lapack_svd(a: np.ndarray, compute_uv: bool):
    """LAPACK divide-and-conquer SVD, or the slower QR-based driver if that fails to converge.

    Both drivers are deterministic for a fixed input.
    """
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
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

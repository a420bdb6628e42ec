"""Dense linear-algebra primitives and the ridge plug-in backbone.

The spectral work of the solver goes through two Gram-matrix paths: the
thresholded :func:`svd` kernel, which computes only the singular triplets
above a threshold, and :func:`nuclear_norm`, which also takes a stack of
matrices at once.  Both use ``eigh`` of the smaller Gram matrix (``a a'``
or ``a' a``) and fall back to the LAPACK SVD when the eigenvalues they rely
on sit too far below the largest one for the squared spectrum to resolve
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import NumericalError
from .tensor import Tensor, tensorize, unfold

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
# eps * sqrt(lam_max / lam) * ||a||_2.  The Gram paths use the eigenvalues
# only while every one they rely on is above this fraction of the largest
# (singular values above 1e-4 * ||a||_2), which bounds that error by about
# 2e-12 * ||a||_2; otherwise they use LAPACK.
_GRAM_RTOL = 1e-8


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``a = u @ diag(s) @ v.T`` with ``s`` non-increasing, >= 0.

    A thresholded :func:`svd` holds only the leading triplets, those with
    ``s`` above the threshold, so ``reconstruct`` then gives that part of ``a``.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T


@dataclass(frozen=True)
class Backbone:
    """Ridge plug-in estimate around which the constraint balls are centered."""

    tensor: Tensor
    epsilon: float


def svd(a: np.ndarray, above: float | None = None) -> SvdFactors:
    """Thin SVD of a matrix, or only its triplets with ``s > above``.

    Without a threshold this is the LAPACK SVD.

    With ``above = t`` it is the thresholded spectral kernel: ``eigh`` of the
    smaller Gram matrix (``a a'`` or ``a' a``), whose eigenvectors with
    eigenvalue above ``t**2`` are the kept singular vectors on that side.
    Each kept singular value is recomputed as the norm of ``a`` projected on
    its vector, which also gives the vector on the other side and keeps small
    singular values accurate.  This costs one Gram product, a small symmetric
    eigensolve and one product with the kept vectors instead of a full SVD.
    The Gram matrix squares the spectrum: when some kept eigenvalue is at
    most ``1e-8`` times the largest (a kept singular value at most
    ``1e-4 * ||a||_2``), the kernel truncates the LAPACK SVD instead.  Either
    way the soft-thresholded spectrum ``max(s - t, 0)`` and the matrices
    built from it agree with the full SVD's to about ``2e-12 * ||a||_2``.
    """
    a = _finite_matrix(a)
    if above is None:
        u, s, vh = _lapack_svd(a, compute_uv=True)
        return SvdFactors(u=u, s=s, v=vh.T)
    if not above >= 0:
        raise ValueError(f"threshold must be non-negative, got {above}")
    f = _gram_svd(a, above)
    if f is None:
        u, s, vh = _lapack_svd(a, compute_uv=True)
        k = int(np.count_nonzero(s > above))
        f = SvdFactors(u=u[:, :k], s=s[:k], v=vh[:k].T)
    return f


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values only (non-increasing), skipping the factor computation."""
    return _lapack_svd(_finite_matrix(a), compute_uv=False)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(singular_values(a)[0])


def nuclear_norm(a: np.ndarray) -> float | np.ndarray:
    """Sum of singular values of a matrix, or of each matrix in a ``(B, m, n)`` stack.

    Sums the square roots of the eigenvalues of the smaller Gram matrix,
    each within about ``2e-12 * ||a||_2`` of its singular value.  When the
    smallest eigenvalue is at most ``1e-8`` times the largest (so also for a
    rank-deficient or zero matrix), or if ``eigvalsh`` fails or gives NaN
    (a Gram matrix that overflows), it sums the LAPACK singular values
    instead.  A stack takes one Gram product and one
    ``eigvalsh`` for all its matrices, and falls back per matrix; each of its
    norms equals the norm of that matrix alone, bit for bit.  A matrix gives a
    ``float``, a stack an array of ``B`` of them.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in (2, 3):
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NumericalError("SVD requires finite entries")
    if a.ndim == 2:
        return float(_nuclear_norms(a[None])[0])
    return _nuclear_norms(a)


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
    """Ridge plug-in point ``tensorize((X'X + eps I)^-1 X'y)``.

    Solves the P x P primal system when P <= N and the mathematically
    identical N x N dual (Woodbury) system ``X'(XX' + eps I)^-1 y`` when
    P > N, which is the cheap direction in the high-dimensional regime.
    """
    x = _as_matrix(x)
    y = np.asarray(y, dtype=np.float64).ravel()
    dims = tuple(int(p) for p in dims)
    n, p = x.shape
    if y.size != n:
        raise ValueError(f"design has {n} rows but y has {y.size} entries")
    if p != math.prod(dims):
        raise ValueError(f"design has {p} columns but prod(dims) = {math.prod(dims)}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise NumericalError("backbone requires finite design and responses")
    try:
        if p <= n:
            w = np.linalg.solve(x.T @ x + epsilon * np.eye(p), x.T @ y)
        else:
            w = x.T @ np.linalg.solve(x @ x.T + epsilon * np.eye(n), y)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"ridge system singular despite epsilon={epsilon}: {exc}") from exc
    return Backbone(tensor=tensorize(w, dims), epsilon=float(epsilon))


def _finite_matrix(a) -> np.ndarray:
    a = _as_matrix(a)
    if not np.isfinite(a).all():
        raise NumericalError("SVD requires finite entries")
    return a


def _nuclear_norms(a: np.ndarray) -> np.ndarray:
    """Nuclear norms of the matrices of a finite ``(B, m, n)`` stack."""
    at = np.swapaxes(a, 1, 2)
    try:
        lam = np.linalg.eigvalsh(a @ at if a.shape[1] <= a.shape[2] else at @ a)
    except np.linalg.LinAlgError:
        if len(a) > 1:
            # One failing matrix fails the whole stack: redo each on its own.
            return np.concatenate([_nuclear_norms(a[i : i + 1]) for i in range(len(a))])
        lam = np.zeros((1, 0))
    out = np.empty(len(a))
    gram = lam[:, 0] > _GRAM_RTOL * lam[:, -1] if lam.shape[1] else np.zeros(len(a), dtype=bool)
    out[gram] = np.sqrt(lam[gram]).sum(axis=1)
    for i in np.flatnonzero(~gram):
        out[i] = np.sum(singular_values(a[i]))
    return out


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

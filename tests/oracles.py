"""Independent oracles used by the test suite.

Everything here is implemented from first principles (index walking, scalar
minimization, pair counting, one PPXA copy at a time) so that it shares no code
path with the package implementation it checks.
"""

import math

import numpy as np


def same_bits(a, b):
    """Equal shapes and equal float64 bits, so -0.0 differs from 0.0 and a NaN equals itself."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def layout_offset(dims, idx):
    """Canonical flat offset of a zero-based multi-index (mode-1 fastest)."""
    off = 0
    stride = 1
    for i, p in zip(idx, dims):
        off += i * stride
        stride *= p
    return off


def iter_multi_indices(dims):
    idx = [0] * len(dims)
    while True:
        yield tuple(idx)
        for m in range(len(dims)):
            idx[m] += 1
            if idx[m] < dims[m]:
                break
            idx[m] = 0
        else:
            return


def unfold_oracle(flat, dims, m):
    """Brute-force mode-m unfolding by walking every multi-index."""
    dims = tuple(dims)
    rows = dims[m - 1]
    cols = 1
    for mm, p in enumerate(dims, start=1):
        if mm != m:
            cols *= p
    out = np.zeros((rows, cols))
    for idx in iter_multi_indices(dims):
        col = 0
        stride = 1
        for k, p in enumerate(dims, start=1):
            if k == m - 1 + 1:
                continue
            col += idx[k - 1] * stride
            stride *= p
        out[idx[m - 1], col] = flat[layout_offset(dims, idx)]
    return out


def scalar_prox_min(v, gamma, iters=200):
    """Numeric per-entry minimizer of gamma*|w| + 0.5*(w - v)^2 by ternary search.

    Vectorized over an array of entries; the objective is strictly convex in
    each coordinate, so ternary search converges to the unique minimizer.
    """
    v = np.asarray(v, dtype=np.float64)
    lo = -np.abs(v) - gamma - 1.0
    hi = np.abs(v) + gamma + 1.0

    def f(w):
        return gamma * np.abs(w) + 0.5 * (w - v) ** 2

    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        shrink_hi = f(m1) < f(m2)
        hi = np.where(shrink_hi, m2, hi)
        lo = np.where(shrink_hi, lo, m1)
    return 0.5 * (lo + hi)


def nuclear_subgradient_residual(v, p, gamma):
    """Optimality residual for p = prox of gamma*||.||_* at v.

    p is optimal iff g = (v - p) / gamma lies in the subdifferential of the
    nuclear norm at p, i.e. ||g||_spec <= 1 and <g, p> = ||p||_*.  Returns
    max(spectral excess, duality mismatch) scaled to the problem size.
    """
    g = (v - p) / gamma
    spec = np.linalg.svd(g, compute_uv=False)
    excess = max(0.0, float(spec[0]) - 1.0)
    nuc_p = float(np.sum(np.linalg.svd(p, compute_uv=False)))
    mismatch = abs(float(np.sum(g * p)) - nuc_p) / max(1.0, nuc_p)
    return max(excess, mismatch)


def auc_paircount(scores, labels):
    """O(n^2) Mann-Whitney statistic: ties counted half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for s in pos:
        for t in neg:
            if s > t:
                wins += 1.0
            elif s == t:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def _reference_sweep(copies, ops):
    """One PPXA sweep, one copy at a time: the operator outputs and the step of each copy."""
    n = len(ops)
    a = [op(w) for op, w in zip(ops, copies)]
    # The consensus iterate is the mean of the copies, so it is not carried.
    reflected = (2.0 * np.sum(a, axis=0) - np.sum(copies, axis=0)) / n
    return a, [reflected - a[i] for i in range(n)]


def ppxa_reference(center, ops, rho, tol, max_iter):
    """PPXA sweeps, one copy at a time, stopped by the residual of the whole state.

    ``ops`` are the prox/projection operators, one per term, each applied to
    its own copy.  Each sweep records the relative residual
    ``||y+ - y|| / ||y||``, the Frobenius norms taken over all the
    copies ``y``; the run stops once it is at most ``tol`` or after
    ``max_iter`` sweeps.  Returns ``(x, residuals, y, p)``: the consensus
    iterate (the mean of the copies after the last update), the residual of
    each sweep, and the copies and operator outputs of the last sweep, as
    they were before its update.
    """
    n = len(ops)
    copies = [np.array(center, dtype=float) for _ in range(n)]
    residuals = []
    for _ in range(max_iter):
        a, steps = _reference_sweep(copies, ops)
        size = float(np.linalg.norm(np.stack(copies)))
        residuals.append(rho * float(np.linalg.norm(np.stack(steps))) / size)
        last = [w.copy() for w in copies]
        for i in range(n):
            copies[i] += rho * steps[i]
        if residuals[-1] <= tol:
            break
    return np.sum(copies, axis=0) / n, residuals, last, a


def certified_ppxa_reference(center, ops, rho, max_iter, certify, constants, carry=False):
    """The certified PPXA loop of ``sltr.solver``, one copy at a time.

    Each sweep's copies ``y`` move to the plain step ``y + rho * step``.
    ``certify(y, p)`` returns, for the certificate of the sweep with copies
    ``y`` and operator outputs ``p``, whether it converges and the ratio
    ``tol * objective / gap`` (0 for a gap <= 0).  It is asked when the
    relative residual reaches the threshold, when the sweep count reaches
    ``recheck`` times that of the last failed check, and at the last sweep.
    The threshold is ``first_check``; after a failed check it is that
    check's residual times ``next_check`` times the ratio, the ratio taken
    within ``[0.02, 1]``.  ``constants`` is ``(first_check, next_check,
    recheck)``.

    The residual's inner products are taken over the stacked copies, as the
    package takes them, so the run agrees bit for bit.  With ``carry``, the
    consensus iterate is carried as the paper writes PPXA, moved by ``rho
    (mean(p) - x)`` each sweep.  Returns ``(residuals, y, p, x)``: the
    residual of each sweep, the copies and operator outputs of the last
    sweep, and the carried consensus iterate after its step (``None``
    without ``carry``).
    """
    first_check, next_check, recheck = constants
    n = len(ops)
    copies = [np.array(center, dtype=float) for _ in range(n)]
    x = np.array(center, dtype=float) if carry else None
    residuals, threshold, checked = [], first_check, 0
    for t in range(1, max_iter + 1):
        a, steps = _reference_sweep(copies, ops)
        moves = [rho * s for s in steps]
        g, flat = np.stack(moves).reshape(-1), np.stack(copies).reshape(-1)
        residuals.append(math.sqrt(g @ g) / math.sqrt(flat @ flat))
        if carry:
            x = x + rho * (np.sum(a, axis=0) / n - x)
        if residuals[-1] <= threshold or (checked and t >= recheck * checked) or t == max_iter:
            converged, ratio = certify(copies, a)
            if converged or t == max_iter:
                return residuals, copies, a, x
            ratio = min(1.0, ratio) if ratio > 0.02 else 0.02
            threshold, checked = residuals[-1] * next_check * ratio, t
        copies = [w + s for w, s in zip(copies, moves)]
    raise AssertionError("unreachable: the last sweep returns")

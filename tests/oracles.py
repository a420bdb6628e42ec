"""Independent oracles used by the test suite.

Everything here is implemented from first principles (index walking, scalar
minimization, pair counting, coordinate descent) so that it shares no code
path with the package implementation it checks.
"""

import math

import numpy as np


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


def cd_lasso(x, y, lam, l1_ratio=1.0, sweeps=2000, tol=1e-14):
    """Cyclic coordinate descent for 0.5||y-Xw||^2 + lam(r||w||_1 + (1-r)/2 ||w||^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x.shape
    w = np.zeros(p)
    col_sq = np.sum(x * x, axis=0)
    r = y.copy()  # residual y - Xw
    l1 = lam * l1_ratio
    l2 = lam * (1.0 - l1_ratio)
    for _ in range(sweeps):
        max_delta = 0.0
        for j in range(p):
            if col_sq[j] == 0.0:
                continue
            rho = x[:, j] @ r + col_sq[j] * w[j]
            wj = math.copysign(max(abs(rho) - l1, 0.0), rho) / (col_sq[j] + l2)
            if wj != w[j]:
                r += x[:, j] * (w[j] - wj)
                max_delta = max(max_delta, abs(wj - w[j]))
                w[j] = wj
        if max_delta <= tol:
            break
    return w


def elastic_objective(x, y, w, lam, l1_ratio):
    r = y - x @ w
    return (
        0.5 * float(r @ r)
        + lam * l1_ratio * float(np.sum(np.abs(w)))
        + 0.5 * lam * (1.0 - l1_ratio) * float(w @ w)
    )


def ppxa_reference(center, ops, rho, tol, max_iter, objective):
    """PPXA sweeps with the trace objective computed at every sweep, on its own.

    ``ops`` are the four prox/projection operators, applied to the four
    copies in order; ``objective(x)`` gives the traced objective of the
    consensus iterate.  Stops once the relative change of the consensus
    iterate is at most ``tol`` (the absolute change while it is zero) or
    after ``max_iter`` sweeps.  Returns ``(x, trace)`` with one
    ``(iteration, relative_change, objective)`` per sweep.
    """
    copies = [np.array(center, dtype=float) for _ in range(4)]
    x = np.array(center, dtype=float)
    trace = []
    for t in range(1, max_iter + 1):
        a = [op(w) for op, w in zip(ops, copies)]
        abar = (a[0] + a[1] + a[2] + a[3]) / 4.0
        correction = 2.0 * abar - x
        for i in range(4):
            copies[i] += rho * (correction - a[i])
        x_new = x + rho * (abar - x)
        change = float(np.linalg.norm(x_new - x))
        denom = float(np.linalg.norm(x))
        rel = change / denom if denom > 0 else change
        x = x_new
        trace.append((t, rel, objective(x)))
        if rel <= tol:
            break
    return x, trace

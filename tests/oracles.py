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


def _reference_gamma(a, b):
    """The solution of the 1 x 1 or 2 x 2 system ``a gamma = b``, by elimination of the first unknown."""
    if len(b) == 1:
        return [b[0] / a[0][0]]
    r = a[1][0] / a[0][0]
    second = (b[1] - r * b[0]) / (a[1][1] - r * a[0][1])
    return [(b[0] - a[0][1] * second) / a[0][0], second]


def certified_ppxa_reference(center, ops, rho, max_iter, certify, constants, carry=False):
    """The certified, accelerated PPXA loop of ``sltr.solver``, one copy at a time.

    A sweep's copies ``y`` move to the plain step ``f = y + rho * step``.
    ``certify(y, p)`` returns, for the certificate of the sweep with copies
    ``y`` and operator outputs ``p``, whether it converges and the ratio
    ``tol * objective / gap`` (0 for a gap <= 0).  It is asked when the
    relative residual reaches the threshold, when the sweep count reaches
    ``recheck`` times that of the last failed check, and at the last sweep.
    The threshold is ``first_check``; after a failed check it is that
    check's residual times ``next_check`` times the ratio, the ratio taken
    within ``[0.02, 1]``.  Until the first failed check every sweep takes its plain step.  After
    it, each point's ``g = rho * step`` and ``f`` join a ring of ``memory``
    slots, and the next point is the combination ``sum_j alpha_j f_j`` with
    ``sum_j alpha_j = 1`` that minimises ``||sum_j alpha_j g_j||``, the
    normal matrix of its differences regularized, unless the coefficients'
    l1 norm exceeds ``coefficient_cap`` or the move is longer than
    ``step_cap`` plain steps: then the plain step, and the ring restarts.
    An extrapolated point whose ``||g||`` exceeds that of the point it came
    from is rejected: the next point is that point's plain step, and the
    ring restarts.  ``constants`` is ``(first_check, next_check, recheck,
    memory, regularization, coefficient_cap, step_cap)``, ``memory`` at most
    3.

    The inner products and combinations are taken over the stacked copies,
    in ring order, as the package takes them, so the run agrees bit for bit.
    With ``carry``, the consensus iterate is carried as the paper writes
    PPXA, moved by ``rho (mean(p) - x)`` on a plain step, and combined like
    the copies.  Returns ``(residuals, y, p, x)``: the residual of each
    sweep, the copies and operator outputs of the last sweep, and the
    carried consensus iterate of its plain step (``None`` without ``carry``).
    """
    first_check, next_check, recheck, memory, regularization, coefficient_cap, step_cap = constants
    assert memory <= 3
    n = len(ops)
    copies = [np.array(center, dtype=float) for _ in range(n)]
    x = np.array(center, dtype=float) if carry else None
    ring = [None] * memory  # (g, f, x of f, ||g||) per slot
    gram = [[0.0] * memory for _ in range(memory)]
    held = 0  # points in the ring since its last restart
    residuals, threshold, checked, origin = [], first_check, 0, None
    for t in range(1, max_iter + 1):
        a, steps = _reference_sweep(copies, ops)
        g = np.stack([rho * s for s in steps])
        f = np.stack([w + gi for w, gi in zip(copies, g)])
        fx = x + rho * (np.sum(a, axis=0) / n - x) if carry else None
        slot = held % memory
        ring[slot] = (g, f, fx, None)
        rows = np.stack([ring[j][0] for j in range(min(held + 1, memory))])
        row = (rows.reshape(len(rows), -1) @ g.reshape(-1)).tolist()
        size = math.sqrt(row[slot])
        flat = np.stack(copies).reshape(-1)
        residuals.append(size / math.sqrt(flat @ flat))
        rejected = origin is not None and size > ring[origin][3]
        due = residuals[-1] <= threshold or (checked and t >= recheck * checked)
        if (due and not rejected) or t == max_iter:
            converged, ratio = certify(copies, a)
            if converged or t == max_iter:
                return residuals, copies, a, fx
            ratio = min(1.0, ratio) if ratio > 0.02 else 0.02
            threshold, checked = residuals[-1] * next_check * ratio, t
        if rejected:
            _, f_origin, x_origin, _ = ring[origin]
            copies, x, held, origin = list(f_origin.copy()), x_origin, 0, None
            continue
        ring[slot] = (g, f, fx, size)
        for j, v in enumerate(row):
            gram[slot][j] = gram[j][slot] = v
        held += 1
        count = min(held, memory)
        origin = None
        if count > 1:
            others = [j for j in range(count) if j != slot]
            m = [[gram[i][j] - gram[i][slot] - gram[j][slot] + gram[slot][slot] for j in others]
                 for i in others]
            b = [gram[slot][slot] - gram[i][slot] for i in others]
            trace = sum(m[i][i] for i in range(len(others)))
            alpha = None
            if trace > 0.0:
                for i in range(len(others)):
                    m[i][i] += regularization * trace
                gamma = _reference_gamma(m, b)
                alpha = [0.0] * count
                for j, v in zip(others, gamma):
                    alpha[j] = v
                alpha[slot] = 1.0 - sum(gamma)
                if not sum(abs(v) for v in alpha) <= coefficient_cap:
                    alpha = None
            if alpha is not None:
                fs = np.stack([ring[j][1] for j in range(count)]).reshape(count, -1)
                nxt = np.dot(np.array(alpha), fs).reshape(f.shape)
                move = (nxt - np.stack(copies)).reshape(-1)
                if math.sqrt(move @ move) <= step_cap * size:
                    copies, origin = list(nxt), slot
                    if carry:
                        x = sum(alpha[j] * ring[j][2] for j in range(count))
                    continue
            held = 0
        copies, x = list(f), fx
        if not checked:
            held = 0
    raise AssertionError("unreachable: the last sweep returns")

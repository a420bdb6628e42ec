"""End to end: the cross-validated fit beats its own ridge backbone on a sparse low-rank truth.

The optimizer's tests check that each mode solve is optimal; this one checks
that the estimator they make is worth having.  A fit that returned its
backbone unchanged, or zeros, passes every certificate test but fails here.
The truth is built here, not through ``SimSpec``, so the simulator's streams
and every digest of them stay as they are.
"""

import numpy as np
import pytest

from sltr import Dataset, SolverConfig, Tensor, backbone, coefficient_error, fit, kfold_cv

DIMS = (10, 10, 5)
RADII = (0.1, 1.0, 10.0)
GRID = [(lam, tau, 1.0) for lam in RADII for tau in RADII]
# Measured on seeds 0/1/2: the CV-selected fit's coefficient error is 0.387 /
# 0.305 / 0.357, against 0.520 / 0.429 / 0.479 for the best ridge backbone over
# epsilon in {0.1, 1, 10}: ratios 0.743 / 0.710 / 0.745.  The bound leaves a
# margin of 0.10 over the worst of them.  Two to five folds select the same
# cell, (1, 1, 1), on every seed; two keep the test near 1.5 s.  At n = 100 the
# ratios are 0.98, which a fit returning its backbone would also meet, so that
# regime is not pinned.
RATIO = 0.85


def _sparse_rank_one(seed, n, noise=0.5, norm=10.0):
    """A dataset whose truth is a rank-1 outer product of factors half of whose entries are 0."""
    r = np.random.default_rng(seed)
    factors = []
    for d in DIMS:
        f = r.normal(size=d)
        f[r.permutation(d)[: d // 2]] = 0.0
        factors.append(f)
    w = np.einsum("i,j,k->ijk", *factors)
    w_star = Tensor.from_array(w * (norm / np.linalg.norm(w)))
    x = r.normal(size=(n, w_star.size))
    return Dataset(DIMS, x, x @ w_star.data + noise * r.normal(size=n)), w_star


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cv_selected_fit_beats_the_best_ridge_backbone(seed):
    ds, w_star = _sparse_rank_one(seed, n=400)
    report = kfold_cv(ds, GRID, SolverConfig(lam=1.0, tau=1.0), k=2, fold_seed=seed)
    lam, tau, eps = report.selected
    err = coefficient_error(fit(ds, SolverConfig(lam=lam, tau=tau, epsilon=eps)).w_hat, w_star)
    ridge = min(coefficient_error(backbone(ds.x, ds.y, e, DIMS).tensor, w_star)
                for e in (0.1, 1.0, 10.0))
    assert err <= RATIO * ridge

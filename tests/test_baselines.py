import math

import numpy as np
import pytest

from sltr.baselines import BaselineConfig, _apg, fit_elastic_net, fit_lasso

from oracles import cd_lasso, elastic_objective


def _instance(seed=0, n=10, p=6):
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, p))
    w_true = np.zeros(p)
    w_true[: p // 2] = r.normal(size=p // 2)
    y = x @ w_true + 0.05 * r.normal(size=n)
    return x, y


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BaselineConfig(lam=0.0)
        with pytest.raises(ValueError):
            BaselineConfig(lam=1.0, l1_ratio=1.5)
        with pytest.raises(ValueError):
            BaselineConfig(lam=1.0, tol=0.0)
        with pytest.raises(ValueError):
            BaselineConfig(lam=math.nan)
        with pytest.raises(ValueError):
            BaselineConfig(lam=1.0, tol=math.nan)


class TestLasso:
    def test_above_zero_threshold(self):
        x, y = _instance(1)
        lam = float(np.max(np.abs(x.T @ y))) + 1e-9
        w = fit_lasso(x, y, BaselineConfig(lam=lam))
        np.testing.assert_array_equal(w, np.zeros(6))

    def test_orthonormal_design_small_lambda(self):
        r = np.random.default_rng(2)
        q, _ = np.linalg.qr(r.normal(size=(12, 5)))
        y = r.normal(size=12)
        w = fit_lasso(q, y, BaselineConfig(lam=1e-10, tol=1e-12, max_iter=5000))
        np.testing.assert_allclose(w, q.T @ y, atol=1e-8)

    def test_matches_coordinate_descent_oracle(self):
        x, y = _instance(3)
        lam = 0.8
        w = fit_lasso(x, y, BaselineConfig(lam=lam, tol=1e-12, max_iter=20000))
        w_cd = cd_lasso(x, y, lam, l1_ratio=1.0)
        ours = elastic_objective(x, y, w, lam, 1.0)
        oracle = elastic_objective(x, y, w_cd, lam, 1.0)
        assert ours <= oracle + 1e-6
        assert abs(ours - oracle) <= 1e-6

    def test_kkt_residual(self):
        x, y = _instance(4)
        lam = 0.5
        w = fit_lasso(x, y, BaselineConfig(lam=lam, tol=1e-13, max_iter=50000))
        g = x.T @ (x @ w - y)
        nz = w != 0
        residual = 0.0
        if nz.any():
            residual = np.max(np.abs(g[nz] + lam * np.sign(w[nz])))
        if (~nz).any():
            residual = max(residual, float(np.max(np.maximum(np.abs(g[~nz]) - lam, 0.0))))
        assert residual <= 1e-6

    def test_objective_monotone(self):
        x, y = _instance(5, n=20, p=15)
        _, history = _apg(x, y, 0.3, 0.0, 2000, 1e-12)
        hist = np.array(history)
        assert np.all(np.diff(hist) <= 1e-10 * np.maximum(1.0, hist[:-1]))


class TestElasticNet:
    def test_ratio_one_is_lasso_bit_identical(self):
        x, y = _instance(6)
        cfg = BaselineConfig(lam=0.4, l1_ratio=1.0, tol=1e-10, max_iter=5000)
        np.testing.assert_array_equal(fit_elastic_net(x, y, cfg), fit_lasso(x, y, cfg))

    def test_huge_lambda_zeroes(self):
        x, y = _instance(7)
        lam = 2.0 * float(np.max(np.abs(x.T @ y))) / 0.5
        w = fit_elastic_net(x, y, BaselineConfig(lam=lam, l1_ratio=0.5))
        np.testing.assert_array_equal(w, np.zeros(6))

    def test_matches_coordinate_descent_oracle(self):
        x, y = _instance(8)
        lam, ratio = 0.9, 0.5
        cfg = BaselineConfig(lam=lam, l1_ratio=ratio, tol=1e-12, max_iter=20000)
        w = fit_elastic_net(x, y, cfg)
        w_cd = cd_lasso(x, y, lam, l1_ratio=ratio)
        ours = elastic_objective(x, y, w, lam, ratio)
        oracle = elastic_objective(x, y, w_cd, lam, ratio)
        assert ours <= oracle + 1e-6
        assert abs(ours - oracle) <= 1e-6

    def test_kkt_residual(self):
        x, y = _instance(9)
        lam, ratio = 0.6, 0.5
        w = fit_elastic_net(x, y, BaselineConfig(lam=lam, l1_ratio=ratio, tol=1e-13, max_iter=50000))
        g = x.T @ (x @ w - y) + lam * (1 - ratio) * w
        l1 = lam * ratio
        nz = w != 0
        residual = 0.0
        if nz.any():
            residual = np.max(np.abs(g[nz] + l1 * np.sign(w[nz])))
        if (~nz).any():
            residual = max(residual, float(np.max(np.maximum(np.abs(g[~nz]) - l1, 0.0))))
        assert residual <= 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_lasso(np.zeros((3, 2)), np.zeros(4), BaselineConfig(lam=1.0))

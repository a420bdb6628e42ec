import math
from dataclasses import replace

import numpy as np
import pytest

import sltr.linalg
from sltr import solver
from sltr.data import Dataset
from sltr.exceptions import DivergenceError, NumericalError
from sltr.linalg import backbone, nuclear_norm
from sltr.prox import (
    ConstraintCenter,
    project_linf_ball,
    project_spectral_ball,
    prox_l1,
    prox_nuclear,
)
from sltr.simulate import SimSpec, generate
from sltr.solver import (
    SolverConfig,
    fit,
    objective_and_gaps,
    predict,
    solve_subproblem,
)
from sltr.tensor import Tensor, block_rows, l1_norm, unfold

from oracles import ppxa_reference


def base_cfg(**kw):
    defaults = dict(lam=0.5, tau=1.0)
    defaults.update(kw)
    return SolverConfig(**defaults)


class TestConfig:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("lam", 0.0),
            ("tau", -1.0),
            ("epsilon", 0.0),
            ("rho", 0.0),
            ("rho", 2.0),
            ("gamma", 0.0),
            ("max_iter", 0),
            ("tol", 0.0),
            ("lam", math.nan),
            ("tau", math.nan),
            ("epsilon", math.nan),
            ("rho", math.nan),
            ("gamma", math.nan),
            ("tol", math.nan),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            replace(base_cfg(), **{field: value})

    def test_infinite_radii_accepted(self):
        cfg = base_cfg(lam=math.inf, tau=math.inf)
        assert cfg.lam == cfg.tau == math.inf


class TestSubproblem:
    def test_inactive_constraints_descend(self):
        r = np.random.default_rng(0)
        center = r.normal(size=(4, 6))
        scale = float(np.max(np.abs(center)))
        cfg = base_cfg(lam=50 * scale, tau=50 * scale * 5, gamma=1e-3, tol=1e-9, max_iter=5000)
        w, trace = solve_subproblem(1, center, (4, 6), cfg)
        ctr = ConstraintCenter(center, cfg.lam, cfg.tau)
        _, _, g_inf, g_spec = objective_and_gaps(w, ctr)
        assert g_inf <= 0 and g_spec <= 0
        assert np.sum(np.abs(w)) <= np.sum(np.abs(center))

    def test_zero_center_is_immediate(self):
        w, trace = solve_subproblem(2, np.zeros((3, 8)), (4, 3, 2), base_cfg())
        assert len(trace) == 1
        np.testing.assert_array_equal(w, np.zeros((3, 8)))

    def test_matches_convex_solver_on_fixed_instance(self):
        cp = pytest.importorskip("cvxpy")
        r = np.random.default_rng(7)
        center = r.normal(size=(4, 3))
        lam, tau = 0.4, 0.8
        cfg = base_cfg(lam=lam, tau=tau, gamma=0.2, tol=1e-10, max_iter=20000)
        w, _ = solve_subproblem(1, center, (4, 3), cfg)
        var = cp.Variable((4, 3))
        problem = cp.Problem(
            cp.Minimize(cp.norm1(cp.vec(var, order="F")) + cp.normNuc(var)),
            [cp.max(cp.abs(var - center)) <= lam, cp.sigma_max(var - center) <= tau],
        )
        problem.solve(solver=cp.CLARABEL)
        assert problem.status == "optimal"
        ours = np.sum(np.abs(w)) + np.sum(np.linalg.svd(w, compute_uv=False))
        assert ours <= problem.value + 1e-3
        assert abs(ours - problem.value) <= 1e-3
        assert np.linalg.norm(w - var.value) <= 1e-4
        _, _, g_inf, g_spec = objective_and_gaps(w, ConstraintCenter(center, lam, tau))
        assert g_inf <= 1e-6 and g_spec <= 1e-6

    def test_center_shape_checked(self):
        with pytest.raises(ValueError):
            solve_subproblem(1, np.zeros((3, 8)), (4, 3, 2), base_cfg())
        with pytest.raises(ValueError):
            solve_subproblem(4, np.zeros((2, 12)), (4, 3, 2), base_cfg())

    def test_non_finite_center_raises(self):
        center = np.zeros((2, 2))
        center[0, 0] = np.nan
        with pytest.raises(NumericalError):
            solve_subproblem(1, center, (2, 2), base_cfg())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_iterate_raises_divergence(self):
        # The four copies sum past the largest double on the first sweep.
        center = np.full((3, 4), 1.5e308)
        center[1] *= -1.0
        with pytest.raises(DivergenceError, match="non-finite iterate change at iteration 1"):
            solve_subproblem(1, center, (3, 4), base_cfg())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_trace_holds_the_finite_sweeps(self, monkeypatch):
        calls = []

        def prox_l1_failing_on_sweep_5(v, gamma):
            calls.append(1)
            out = prox_l1(v, gamma)
            if len(calls) == 5:
                out[0, 0] = np.inf
            return out

        center = np.random.default_rng(1).normal(size=(4, 6))
        cfg = base_cfg(tol=1e-12)
        _, expected = solve_subproblem(1, center, (4, 6), replace(cfg, max_iter=4))
        monkeypatch.setattr(solver, "prox_l1", prox_l1_failing_on_sweep_5)
        with pytest.raises(DivergenceError, match="at iteration 5") as err:
            solve_subproblem(1, center, (4, 6), cfg)
        assert err.value.trace == expected

    def test_growing_change_raises_with_the_trace_through_that_sweep(self, monkeypatch):
        calls = []

        def prox_l1_jumping_on_sweep_5(v, gamma):
            calls.append(1)
            out = prox_l1(v, gamma)
            return out * 1e12 if len(calls) == 5 else out

        center = np.random.default_rng(1).normal(size=(4, 6))
        cfg = base_cfg(tol=1e-12)
        _, expected = solve_subproblem(1, center, (4, 6), replace(cfg, max_iter=4))
        monkeypatch.setattr(solver, "prox_l1", prox_l1_jumping_on_sweep_5)
        with pytest.raises(DivergenceError, match="by iteration 5") as err:
            solve_subproblem(1, center, (4, 6), cfg)
        trace = err.value.trace
        assert len(trace) == 5 and trace[:4] == expected and trace[4][0] == 5
        assert trace[4][1] > 1e6 * trace[0][1]

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_smoothed_change_is_non_increasing(self, seed):
        r = np.random.default_rng(seed)
        center = r.normal(size=(6, 8))
        cfg = base_cfg(lam=0.3, tau=1.0, gamma=0.3, tol=1e-12, max_iter=2000)
        _, trace = solve_subproblem(1, center, (6, 8), cfg)
        rels = np.array([rel for _, rel, _ in trace])
        n_win = len(rels) // 10
        windows = rels[: n_win * 10].reshape(n_win, 10).mean(axis=1)
        assert np.all(np.diff(windows) <= 1e-10)

    def test_paper_faithful_steps_reach_same_optimum(self):
        r = np.random.default_rng(11)
        center = r.normal(size=(5, 4))
        tight = dict(tol=1e-11, max_iter=50000)
        w_default, _ = solve_subproblem(1, center, (5, 4), base_cfg(gamma=0.3, **tight))
        w_faithful, _ = solve_subproblem(
            1, center, (5, 4), base_cfg(paper_faithful_steps=True, **tight)
        )
        assert np.linalg.norm(w_default - w_faithful) <= 1e-5


class TestTraceObjective:
    """Traced objectives, computed a block of sweeps at a time, against one sweep at a time."""

    def _reference(self, center, cfg):
        ctr = ConstraintCenter(center, cfg.lam, cfg.tau)
        ops = (
            lambda w: prox_l1(w, cfg.gamma),
            lambda w: prox_nuclear(w, cfg.gamma),
            lambda w: project_linf_ball(w, ctr),
            lambda w: project_spectral_ball(w, ctr),
        )
        return ppxa_reference(center, ops, cfg.rho, cfg.tol, cfg.max_iter,
                              lambda x: float(np.sum(np.abs(x))) + nuclear_norm(x))

    @pytest.mark.parametrize("block_sweeps", [None, 7])
    @pytest.mark.parametrize("kind", ["full_rank", "rank_two"])
    def test_matches_per_sweep_computation(self, kind, block_sweeps, monkeypatch):
        r = np.random.default_rng(5)
        if kind == "full_rank":
            center = r.normal(size=(10, 50))
        else:
            # Its iterates are rank-deficient on about half the sweeps, which
            # takes nuclear_norm's LAPACK fallback.
            center = r.normal(size=(10, 2)) @ r.normal(size=(2, 50))
        if block_sweeps is not None:
            monkeypatch.setattr(solver, "_TRACE_BLOCK_BYTES", block_sweeps * center.nbytes)
        block = solver._TRACE_BLOCK_BYTES // center.nbytes
        cfg = base_cfg(lam=0.1, tau=0.1, tol=1e-12, max_iter=block + 150)
        fallbacks = []
        singular_values = sltr.linalg.singular_values
        monkeypatch.setattr(sltr.linalg, "singular_values",
                            lambda a: fallbacks.append(1) or singular_values(a))

        w, trace = solve_subproblem(1, center, (10, 50), cfg)
        batched_fallbacks = len(fallbacks)
        x, expected = self._reference(center, cfg)

        assert len(trace) > block
        assert trace == expected
        np.testing.assert_array_equal(w.view(np.uint64), x.view(np.uint64))
        if kind == "rank_two":
            assert 0 < batched_fallbacks < len(trace)
        else:
            assert batched_fallbacks == 0

    def test_converged_run_is_flushed(self):
        center = np.random.default_rng(6).normal(size=(6, 8))
        cfg = base_cfg(lam=0.3, tau=1.0, gamma=0.3)
        _, trace = solve_subproblem(1, center, (6, 8), cfg)
        _, expected = self._reference(center, cfg)
        assert 1 < len(trace) < cfg.max_iter and trace == expected


class TestFit:
    def _dataset(self, seed=1, dims=(6, 5, 4), n=40):
        ds, _ = generate(SimSpec(dims=dims, n=n, sparsity_pct=80.0, noise_alpha=0.1, seed=seed))
        return ds

    def test_tiny_radii_pin_to_backbone(self):
        ds = self._dataset()
        cfg = base_cfg(lam=1e-12, tau=1e-12, gamma=1e-9, epsilon=1.0)
        result = fit(ds, cfg, threads=1)
        bb = backbone(ds.x, ds.y, cfg.epsilon, ds.dims)
        assert np.max(np.abs(result.w_hat.data - bb.tensor.data)) <= 1e-8

    def test_zero_coefficient_noiseless(self):
        ds, w_star = generate(SimSpec(dims=(3, 4), n=10, sparsity_pct=100.0, noise_alpha=0.0, seed=2))
        assert not w_star.data.any()
        result = fit(ds, base_cfg())
        np.testing.assert_array_equal(result.w_hat.data, np.zeros(12))
        assert result.iterations_used == (1, 1)

    def test_parallel_and_sequential_bit_identical(self):
        ds = self._dataset(seed=3)
        cfg = base_cfg(lam=0.2, tau=0.6)
        seq = fit(ds, cfg, threads=1)
        par = fit(ds, cfg, threads=4)
        assert np.array_equal(seq.w_hat.data, par.w_hat.data)
        for a, b in zip(seq.per_mode, par.per_mode):
            assert np.array_equal(a.data, b.data)
        assert seq.trace == par.trace

    def test_averaging_identity(self):
        ds = self._dataset(seed=4)
        result = fit(ds, base_cfg(lam=0.3, tau=0.9))
        mean = np.mean([t.data for t in result.per_mode], axis=0)
        np.testing.assert_allclose(result.w_hat.data, mean, rtol=0, atol=1e-15)

    def test_feasibility_at_convergence(self):
        ds = self._dataset(seed=5)
        cfg = base_cfg(lam=0.25, tau=0.8, gamma=0.25, tol=1e-9, max_iter=20000)
        result = fit(ds, cfg)
        bb = backbone(ds.x, ds.y, cfg.epsilon, ds.dims)
        for m, w_m in enumerate(result.per_mode, start=1):
            ctr = ConstraintCenter(unfold(bb.tensor, m), cfg.lam, cfg.tau)
            _, _, g_inf, g_spec = objective_and_gaps(unfold(w_m, m), ctr)
            assert g_inf <= 1e-6 and g_spec <= 1e-6

    def test_trace_and_convergence_metadata(self):
        ds = self._dataset(seed=6)
        cfg = base_cfg(lam=0.3, tau=0.9, tol=1e-3, max_iter=1000)
        result = fit(ds, cfg)
        assert all(result.converged)
        for mode_trace, used in zip(result.trace, result.iterations_used):
            assert len(mode_trace) == used
            assert mode_trace[-1][1] <= cfg.tol
        assert result.timings.total_s > 0
        assert len(result.timings.mode_s) == 3

    def test_max_iter_exit_reports_not_converged(self):
        ds = self._dataset(seed=7)
        result = fit(ds, base_cfg(lam=0.2, tau=0.5, tol=1e-14, max_iter=3))
        assert result.iterations_used == (3, 3, 3)
        assert not any(result.converged)


class TestPredict:
    def test_zero_model(self):
        ds, _ = generate(SimSpec(dims=(3, 3), n=4, seed=8))
        w = Tensor.zeros((3, 3))
        np.testing.assert_array_equal(predict(w, ds.samples()), np.zeros(4))

    def test_self_normalized_sample(self):
        r = np.random.default_rng(9)
        w = Tensor((2, 3), r.normal(size=6))
        x = Tensor((2, 3), w.data / float(w.data @ w.data))
        assert predict(w, [x])[0] == pytest.approx(1.0, rel=1e-12)

    def test_matches_vectorized_dot_oracle(self):
        r = np.random.default_rng(10)
        w = Tensor((3, 2, 2), r.normal(size=12))
        xs = [Tensor((3, 2, 2), r.normal(size=12)) for _ in range(5)]
        got = predict(w, xs)
        expected = [float(w.data @ x.data) for x in xs]
        np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_dims_mismatch(self):
        w = Tensor.zeros((2, 2))
        with pytest.raises(ValueError):
            predict(w, [Tensor.zeros((4,))])

    def test_empty_iterable(self):
        out = predict(Tensor.zeros((2, 3)), [])
        assert out.dtype == np.float64 and out.shape == (0,)

    def _blocks(self, seed=13):
        # Big enough samples that a few of them fill a block.
        dims = (100, 200)
        r = np.random.default_rng(seed)
        w = Tensor(dims, r.normal(size=20000))
        rows = block_rows(w.size)
        xs = [Tensor(dims, r.normal(size=20000)) for _ in range(2 * rows + 1)]
        return w, rows, xs

    def test_single_pass_generator_across_blocks(self):
        w, _, xs = self._blocks()
        got = predict(w, (x for x in xs))
        expected = np.array([math.fsum(np.multiply(w.data, x.data)) for x in xs])
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_dims_mismatch_after_first_block(self):
        w, rows, xs = self._blocks()
        seen = []

        def gen():
            for x in xs[: rows + 1]:
                seen.append(1)
                yield x
            yield Tensor.zeros((200, 100))
            seen.append("past the bad sample")

        with pytest.raises(ValueError, match="dims mismatch"):
            predict(w, gen())
        assert len(seen) == rows + 1

    def test_error_in_earlier_sample_wins_over_mismatch(self):
        # As in a row-by-row loop, fsum's OverflowError on sample 0 comes first.
        w = Tensor((2,), [1e308, 1e308])
        with pytest.raises(OverflowError):
            predict(w, [Tensor((2,), [1.0, 1.0]), Tensor((3,), [1.0, 1.0, 1.0])])


class TestObjectiveAndGaps:
    def test_at_center(self):
        ctr = ConstraintCenter(np.ones((2, 3)), 0.5, 1.5)
        l1, nuc, g_inf, g_spec = objective_and_gaps(ctr.c, ctr)
        assert (g_inf, g_spec) == (-0.5, -1.5)
        assert l1 == 6.0

    def test_on_linf_boundary(self):
        ctr = ConstraintCenter(np.zeros((2, 2)), 0.5, 1.5)
        w = ctr.c + 0.5
        _, _, g_inf, _ = objective_and_gaps(w, ctr)
        assert g_inf == 0.0

    def test_matches_norm_oracles(self):
        r = np.random.default_rng(12)
        ctr = ConstraintCenter(r.normal(size=(3, 4)), 0.4, 0.9)
        w = r.normal(size=(3, 4))
        l1, nuc, g_inf, g_spec = objective_and_gaps(w, ctr)
        assert l1 == pytest.approx(np.sum(np.abs(w)), rel=1e-14)
        assert nuc == pytest.approx(np.sum(np.linalg.svd(w, compute_uv=False)), rel=1e-12)
        assert g_inf == pytest.approx(np.max(np.abs(w - ctr.c)) - 0.4, rel=1e-12)
        assert g_spec == pytest.approx(
            np.linalg.svd(w - ctr.c, compute_uv=False)[0] - 0.9, rel=1e-12
        )

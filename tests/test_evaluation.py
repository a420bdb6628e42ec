import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sltr import evaluation
from sltr.evaluation import (
    auc,
    coefficient_error,
    fold_indices,
    mse,
    theorem_bound,
    three_mode_bound,
    unfolding_ranks,
)
from sltr.exceptions import DivergenceError
from sltr.simulate import SimSpec, generate
from sltr.solver import SolverConfig
from sltr.tensor import Tensor

from oracles import auc_paircount

# Few distinct score values, so most drawn samples have ties within and across classes.
_scores = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                    st.floats(-1e6, 1e6, allow_nan=False))


class TestAuc:
    @settings(deadline=None, max_examples=100)
    @given(pairs=st.lists(st.tuples(_scores, st.integers(0, 1)), min_size=2, max_size=40)
           .filter(lambda ps: 0 < sum(lab for _, lab in ps) < len(ps)))
    def test_matches_pair_count_oracle(self, pairs):
        scores, labels = (list(c) for c in zip(*pairs))
        # ranks and pair counts are half-integers, so both sides are exact
        assert auc(scores, labels) == auc_paircount(scores, labels)

    def test_all_tied_is_one_half(self):
        assert auc([3.0] * 5, [0, 1, 1, 0, 1]) == 0.5

    def test_a_nan_score_gives_nan(self):
        assert math.isnan(auc([1.0, math.nan, 2.0, 0.5], [0, 1, 1, 0]))

    @pytest.mark.parametrize("scores,labels,message", [
        ([1.0, 2.0], [0, 1, 1], "length mismatch: 2 vs 3"),
        ([1.0, 2.0, 3.0], [0, 1, 2], r"labels must be binary 0/1, got values \[0 1 2\]"),
        ([1.0, 2.0], [1, 1], "both classes must be present"),
    ], ids=["length", "non-binary", "one class"])
    def test_bad_input_raises(self, scores, labels, message):
        with pytest.raises(ValueError, match=message):
            auc(scores, labels)


class TestMse:
    def test_mean_of_squared_residuals(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 0.0, 6.0]) == 13.0 / 3

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length mismatch: 2 vs 3"):
            mse([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("y", [[], np.zeros(0), np.zeros((0, 3))], ids=["list", "1-D", "2-D"])
    def test_empty_input_raises(self, y):
        # A mean of nothing is no number: not a nan with numpy's "Mean of empty slice" warning.
        with pytest.raises(ValueError, match="mse of no values"):
            mse(y, y)


class TestCoefficientError:
    def test_relative_frobenius_error(self):
        assert coefficient_error(Tensor((2,), [3.0, 4.0]), Tensor((2,), [0.0, 4.0])) == 0.75

    @pytest.mark.parametrize("w_hat,w_star,message", [
        (Tensor.zeros((2, 3)), Tensor.zeros((3, 2)), r"dims mismatch: \(2, 3\) vs \(3, 2\)"),
        (Tensor.zeros((2,)), Tensor.zeros((2,)), "undefined for a zero reference tensor"),
    ], ids=["dims", "zero reference"])
    def test_bad_input_raises(self, w_hat, w_star, message):
        with pytest.raises(ValueError, match=message):
            coefficient_error(w_hat, w_star)


class TestFoldIndices:
    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(2, 120), seed=st.integers(0, 2 ** 64 - 1), data=st.data())
    def test_partition(self, n, seed, data):
        k = data.draw(st.integers(2, n))
        folds = fold_indices(n, k, seed)
        assert len(folds) == k
        # disjoint and covering: together the folds hold each index exactly once
        np.testing.assert_array_equal(np.sort(np.concatenate(folds)), np.arange(n))
        sizes = [f.size for f in folds]
        assert max(sizes) - min(sizes) <= 1
        again = fold_indices(n, k, seed)
        assert all(np.array_equal(a, b) for a, b in zip(folds, again))

    @pytest.mark.parametrize("n,k", [(5, 1), (5, 6), (1, 2)])
    def test_fold_count_out_of_range(self, n, k):
        with pytest.raises(ValueError):
            fold_indices(n, k, 0)


class TestKfoldCvDivergence:
    def _setup(self, monkeypatch, failing):
        ds, _ = generate(SimSpec(dims=(3, 3, 2), n=12, seed=4))
        real_fit = evaluation.fit

        def fit(train, cfg, threads=None):
            if cfg.lam in failing:
                raise DivergenceError(f"mode 2: diverged at lam={cfg.lam}")
            return real_fit(train, cfg, threads=threads)

        monkeypatch.setattr(evaluation, "fit", fit)
        grid = [(0.1, 1.0, 1.0), (0.5, 1.0, 1.0), (2.0, 1.0, 1.0)]
        return ds, grid, SolverConfig(lam=1.0, tau=1.0, max_iter=20)

    def test_diverging_cell_is_recorded_not_raised(self, monkeypatch):
        ds, grid, cfg = self._setup(monkeypatch, failing={0.1})
        report = evaluation.kfold_cv(ds, grid, cfg, k=3)
        assert math.isnan(report.per_cell[0])
        assert all(math.isfinite(v) for v in report.per_cell[1:])
        assert report.failures == (((0.1, 1.0, 1.0), "mode 2: diverged at lam=0.1"),)
        finite = {c: v for c, v in zip(report.grid, report.per_cell) if math.isfinite(v)}
        assert report.selected == min(finite, key=lambda c: (finite[c], c))

    def test_no_failures_on_a_clean_grid(self, monkeypatch):
        ds, grid, cfg = self._setup(monkeypatch, failing=set())
        report = evaluation.kfold_cv(ds, grid, cfg, k=3)
        assert report.failures == () and all(math.isfinite(v) for v in report.per_cell)

    def test_every_cell_diverging_raises(self, monkeypatch):
        ds, grid, cfg = self._setup(monkeypatch, failing={0.1, 0.5, 2.0})
        with pytest.raises(DivergenceError, match="every grid cell diverged"):
            evaluation.kfold_cv(ds, grid, cfg, k=3)

    def test_an_empty_grid_raises(self, monkeypatch):
        ds, _, cfg = self._setup(monkeypatch, failing=set())
        with pytest.raises(ValueError, match="empty parameter grid"):
            evaluation.kfold_cv(ds, [], cfg, k=3)


class TestKfoldCvSelection:
    # Benchmark cv_10x10x5 datasets, each with its fold seed.  With tol 1e-7
    # the second cell wins.  On dataset 2 a mode that stopped early used to
    # hand it to the first; on dataset 4 so did the slow convergence of the
    # four-copy splitting where the l-inf ball binds.
    @pytest.mark.parametrize("seed,grid", [
        (2, [(1.0, 1.0, 10.0), (1.0, 10.0, 0.1)]),
        (4, [(0.1, 10.0, 10.0), (0.1, 1.0, 1.0)]),
    ], ids=["dataset2", "dataset4"])
    def test_near_tied_cells_select_the_tight_tolerance_answer(self, seed, grid):
        ds, _ = generate(SimSpec(dims=(10, 10, 5), n=40, seed=seed))
        report = evaluation.kfold_cv(ds, grid, SolverConfig(lam=1.0, tau=1.0), k=5, fold_seed=seed)
        assert report.selected == grid[1]


def _outer(*vectors):
    """The rank-1 tensor of the given factor vectors, in the canonical layout."""
    return np.einsum(",".join("abcd"[: len(vectors)]), *vectors)


class TestBounds:
    def test_theorem_bound_closed_form(self):
        # sqrt(prod dims) = sqrt(36) = 6 and sqrt(R) = 2: 4 sqrt(2) (0.5 * 6 + 2 * 2)
        b = theorem_bound(0.5, 2.0, (4, 9), 4)
        assert b == pytest.approx(28.0 * math.sqrt(2.0), rel=1e-15)

    def test_theorem_bound_is_zero_at_zero_radii(self):
        assert theorem_bound(0.0, 0.0, (3, 3), 2) == 0.0

    def test_three_mode_bound_closed_form(self):
        # R' = max(sqrt(1 * 2), sqrt(2 * 1), sqrt(4 * 1)) = 2 and sqrt(2 * 2 * 4) = 4
        b = three_mode_bound(0.25, 1.5, (2, 2, 4), (1, 2, 4))
        assert b == pytest.approx(4.0 * math.sqrt(2.0) * 4.0, rel=1e-15)

    def test_three_mode_bound_takes_the_largest_product(self):
        # R' = max(sqrt(3 * 1), sqrt(1 * 2), sqrt(2 * 1)) = sqrt(3)
        b = three_mode_bound(0.0, 1.0, (3, 3, 2), (3, 1, 2))
        assert b == pytest.approx(4.0 * math.sqrt(2.0) * math.sqrt(3.0), rel=1e-15)

    def test_bounds_need_their_inputs(self):
        with pytest.raises(TypeError):
            theorem_bound(1.0, 1.0, (2, 2))
        with pytest.raises(TypeError):
            three_mode_bound(1.0, 1.0, (2, 2, 2))
        with pytest.raises(ValueError, match="3-mode"):
            three_mode_bound(1.0, 1.0, (2, 2), (1, 1))

    @pytest.mark.parametrize("kw", [
        dict(lam=-1.0),
        dict(tau=-0.5),
        dict(orth_rank=0),
        dict(mode_ranks=(1, 1)),
        dict(mode_ranks=(1, 1, 1, 1)),
        dict(mode_ranks=(3, 1, 1)),  # a 2 x 3 x 4 tensor's mode-1 unfolding has rank <= 2
        dict(mode_ranks=(2, 3, -1)),
        dict(lam=math.nan),
        dict(tau=math.nan),
        dict(dims=(4.5, 3, 2)),  # not truncated to (4, 3, 2)
        dict(mode_ranks=(2.9, 1.5, 1.2)),  # not truncated to the possible (2, 1, 1)
        dict(dims=(2, 3, True)),  # not the dims (2, 3, 1)
        dict(orth_rank=True),
        dict(orth_rank=2.5),  # not an orthogonal rank of 2
        dict(orth_rank=math.inf),
        dict(mode_ranks=(1, 1, True)),
        dict(dims=(2, 2, True), mode_ranks=(1, 1, True)),
        dict(dims=(2, 3, np.True_)),
    ])
    def test_bound_inputs_validation(self, kw):
        # Each bound that takes the bad input rejects it; radii go to both.
        args = dict(lam=1.0, tau=1.0, dims=(2, 3, 4), orth_rank=1, mode_ranks=(1, 1, 1))
        args.update(kw)
        general = {k: args[k] for k in ("lam", "tau", "dims", "orth_rank")}
        three_mode = {k: args[k] for k in ("lam", "tau", "dims", "mode_ranks")}
        if "mode_ranks" not in kw:
            with pytest.raises(ValueError):
                theorem_bound(**general)
        if "orth_rank" not in kw:
            with pytest.raises(ValueError):
                three_mode_bound(**three_mode)

    def test_bound_inputs_normalise_to_int_tuples(self):
        # The size rule of sltr.tensor: numpy integers count as the ints they
        # equal, and an integral float raises, as it does in Tensor((2.0,), ...).
        i64 = np.int64
        assert three_mode_bound(1.0, 1.0, [i64(2), 3, 4], [i64(2), 3, i64(4)]) == three_mode_bound(
            1.0, 1.0, (2, 3, 4), (2, 3, 4))
        assert theorem_bound(1.0, 1.0, [i64(2), 3, 4], i64(2)) == theorem_bound(
            1.0, 1.0, (2, 3, 4), 2)
        with pytest.raises(ValueError, match=r"^dims\[0\] must be an integer >= 1, got 2\.0$"):
            theorem_bound(1, 1, (2.0, 3), 1)
        with pytest.raises(ValueError, match=r"^dims\[0\] must be an integer >= 1, got 2\.0$"):
            three_mode_bound(1.0, 1.0, (2.0, 3, 4), (1, 1, 1))
        with pytest.raises(ValueError, match=r"^orth_rank must be an integer >= 1, got 2\.0$"):
            theorem_bound(1.0, 1.0, (2, 3, 4), 2.0)
        # A mode-1 rank of 2 is possible for 2 x 3 x 4, and 3 is not; 2.0 is no rank.
        for rank in (2.0, 3):
            with pytest.raises(ValueError, match=rf"^mode_ranks\[0\] must be an integer >= 0 and "
                                                 rf"<= 2, got {rank!r}$"):
                three_mode_bound(1.0, 1.0, (2, 3, 4), (rank, 1, 1))

    def test_unfolding_ranks(self):
        r = np.random.default_rng(0)
        rank_one = _outer(*(r.normal(size=p) for p in (2, 3, 4)))
        rank_two = rank_one + _outer(*(r.normal(size=p) for p in (2, 3, 4)))
        assert unfolding_ranks(Tensor.from_array(rank_one)) == (1, 1, 1)
        assert unfolding_ranks(Tensor.from_array(rank_two)) == (2, 2, 2)
        assert unfolding_ranks(Tensor.from_array(r.normal(size=(2, 3, 4)))) == (2, 3, 4)
        assert unfolding_ranks(Tensor.zeros((2, 3, 4))) == (0, 0, 0)

    def test_unfolding_ranks_threshold(self):
        # singular values 1 and 1e-6 on every unfolding of a 2 x 2 x 1 tensor
        t = Tensor.from_array(np.diag([1.0, 1e-6])[:, :, None])
        assert unfolding_ranks(t) == (2, 2, 1)
        assert unfolding_ranks(t, rtol=1e-5) == (1, 1, 1)

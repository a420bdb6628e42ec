import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sltr import evaluation
from sltr.evaluation import auc, fold_indices
from sltr.exceptions import DivergenceError
from sltr.simulate import SimSpec, generate
from sltr.solver import SolverConfig

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
        return ds, grid, SolverConfig(lam=1.0, tau=1.0, max_iter=20, parallel_modes=False)

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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sltr.evaluation import auc, fold_indices

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

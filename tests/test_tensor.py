import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sltr.tensor import Tensor, fold, inner, unfold

from oracles import layout_offset, unfold_oracle


def random_tensor(dims, seed=0):
    r = np.random.default_rng(seed)
    return Tensor(dims, r.normal(size=math.prod(dims)))


dims_strategy = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4).map(tuple)


class TestConstruction:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Tensor((2, 0), [0.0] * 0)
        with pytest.raises(ValueError):
            Tensor((), [])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Tensor((2, 3), np.zeros(5))

    def test_rejects_data_that_is_not_1d(self):
        # A 2-D array would be flattened in C order, not the canonical layout
        # from_array uses, so it is refused rather than read the other way.
        with pytest.raises(ValueError, match="1-D"):
            Tensor((2, 2), [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="1-D"):
            Tensor((1,), 5.0)
        assert Tensor.from_array([[1.0, 2.0], [3.0, 4.0]]).data.tolist() == [1.0, 3.0, 2.0, 4.0]

    def test_data_is_read_only(self):
        t = Tensor((2, 2), [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            t.data[0] = 9.0
        for name in ("dims", "data", "other"):
            with pytest.raises(AttributeError, match="Tensor is immutable"):
                setattr(t, name, (4,))
        assert t.dims == (2, 2)

    @pytest.mark.parametrize("make", [
        lambda a: Tensor((a.size,), a.reshape(-1)),
        Tensor.from_array,
        lambda a: fold(a, 1, (3, 2, 2)),
        lambda a: fold(a, 2, (2, 3, 2)),
    ], ids=["constructor", "from_array", "fold_mode1", "fold_mode2"])
    def test_never_aliases_the_callers_array(self, make):
        a = np.arange(12.0).reshape(3, 4)
        t = make(a)
        before = t.data.copy()
        assert not np.shares_memory(t.data, a)
        a[...] = -1.0
        np.testing.assert_array_equal(t.data, before)

    def test_canonical_layout_offsets(self):
        dims = (2, 3, 2)
        t = Tensor(dims, np.arange(1.0, 13.0))
        arr = t.to_array()
        for i1 in range(2):
            for i2 in range(3):
                for i3 in range(2):
                    assert arr[i1, i2, i3] == t.data[layout_offset(dims, (i1, i2, i3))]


class TestUnfoldFold:
    def test_matrix_mode1_is_identity(self):
        t = Tensor.from_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(unfold(t, 1), [[1.0, 2.0], [3.0, 4.0]])

    def test_unfold_2x3x2_against_index_oracle(self):
        dims = (2, 3, 2)
        t = Tensor(dims, np.arange(1.0, 13.0))
        # frozen expected values, confirmed by the index-walking oracle
        np.testing.assert_array_equal(
            unfold(t, 1),
            [[1, 3, 5, 7, 9, 11], [2, 4, 6, 8, 10, 12]],
        )
        for m in (1, 2, 3):
            np.testing.assert_array_equal(unfold(t, m), unfold_oracle(t.data, dims, m))

    def test_fold_2x6_matrix_recovers_counting_tensor(self):
        dims = (2, 3, 2)
        a = np.array([[1, 3, 5, 7, 9, 11], [2, 4, 6, 8, 10, 12]], dtype=float)
        np.testing.assert_array_equal(fold(a, 1, dims).data, np.arange(1.0, 13.0))

    def test_fold_zero_matrix(self):
        z = fold(np.zeros((3, 8)), 2, (4, 3, 2))
        assert not z.data.any()

    @settings(deadline=None)
    @given(dims=dims_strategy, seed=st.integers(0, 2 ** 31))
    def test_round_trip_all_modes(self, dims, seed):
        t = random_tensor(dims, seed)
        for m in range(1, len(dims) + 1):
            back = fold(unfold(t, m), m, dims)
            np.testing.assert_array_equal(back.data, t.data)

    def test_mode_out_of_range(self):
        t = random_tensor((2, 3), 1)
        for m in (0, 3, -1):
            with pytest.raises(ValueError):
                unfold(t, m)
        with pytest.raises(ValueError):
            fold(np.zeros((2, 3)), 3, (2, 3))

    def test_fold_shape_mismatch(self):
        with pytest.raises(ValueError):
            fold(np.zeros((3, 2)), 1, (2, 3))


class TestVectorize:
    def test_2x2_canonical_order(self):
        t = Tensor.from_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(t.data, [1.0, 3.0, 2.0, 4.0])

    def test_one_dim_identity(self):
        t = Tensor((4,), [5.0, 6.0, 7.0, 8.0])
        np.testing.assert_array_equal(t.data, [5.0, 6.0, 7.0, 8.0])


class TestInnerAndNorms:
    def test_inner_with_zeros(self):
        t = random_tensor((3, 2, 2), 3)
        assert inner(t, Tensor.zeros(t.dims)) == 0.0

    def test_inner_dims_mismatch(self):
        with pytest.raises(ValueError):
            inner(random_tensor((2, 3), 0), random_tensor((3, 2), 0))

    def test_inner_matches_vectorized_dot(self):
        a = random_tensor((3, 4, 2), 5)
        b = random_tensor((3, 4, 2), 6)
        assert inner(a, b) == pytest.approx(float(a.data @ b.data), rel=1e-14)

    @settings(deadline=None)
    @given(dims=dims_strategy, seed=st.integers(0, 2 ** 31))
    def test_norms_invariant_under_unfolding(self, dims, seed):
        t = random_tensor(dims, seed)
        for m in range(1, len(dims) + 1):
            a = unfold(t, m)
            assert np.sum(np.abs(a)) == pytest.approx(np.sum(np.abs(t.data)), rel=1e-12)
            assert np.max(np.abs(a)) == np.max(np.abs(t.data))
            assert np.linalg.norm(a) == pytest.approx(np.linalg.norm(t.data), rel=1e-12)

"""The Dataset container: its copying constructor, sample views and row subsets."""

import numpy as np
import pytest

from sltr.data import Dataset


def small_dataset():
    return Dataset((2, 2), np.arange(12.0).reshape(3, 4), [1.0, 2.0, 3.0])


class TestConstruction:
    def test_constructor_copies_the_callers_arrays(self):
        x, y = np.arange(12.0).reshape(3, 4), np.arange(3.0)
        ds = Dataset((2, 2), x, y)
        assert not np.shares_memory(ds.x, x) and not np.shares_memory(ds.y, y)
        x[...] = -1.0
        np.testing.assert_array_equal(ds.x, np.arange(12.0).reshape(3, 4))


class TestSample:
    def test_sample_is_a_read_only_view_of_its_row(self):
        ds = small_dataset()
        for i in range(ds.n):
            t = ds.sample(i)
            assert t.dims == ds.dims
            assert np.shares_memory(t.data, ds.x)
            assert not t.data.flags.writeable
            np.testing.assert_array_equal(t.data, ds.x[i])
            with pytest.raises(ValueError):
                t.data[0] = 9.0


class TestSubset:
    def test_integer_rows_in_the_given_order(self):
        sub = small_dataset().subset([2, 0])
        np.testing.assert_array_equal(sub.x, [[8.0, 9.0, 10.0, 11.0], [0.0, 1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(sub.y, [3.0, 1.0])

    def test_empty_indices_give_an_empty_dataset(self):
        sub = small_dataset().subset([])
        assert sub.n == 0 and sub.x.shape == (0, 4) and sub.y.shape == (0,)

    def test_booleans_are_not_row_numbers(self):
        with pytest.raises(ValueError, match="integers"):
            small_dataset().subset([True, False, True])

    def test_floats_are_not_row_numbers(self):
        with pytest.raises(ValueError, match="integers"):
            small_dataset().subset([0.7, 2.2])

    @pytest.mark.parametrize("indices", [[3], [-1], [0, -3]])
    def test_rows_outside_the_dataset_raise(self, indices):
        # A negative row does not count from the end: it is out of range, as row n is.
        with pytest.raises(IndexError):
            small_dataset().subset(indices)

    @pytest.mark.parametrize("indices", [1, np.int64(2), [[0, 1]]], ids=["int", "int64", "2-D"])
    def test_indices_that_are_not_a_1d_sequence_raise(self, indices):
        with pytest.raises(ValueError, match="1-D sequence, got") as err:
            small_dataset().subset(indices)
        assert repr(indices) in str(err.value)


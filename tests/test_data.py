"""The Dataset container: its copying constructor, sample views, row subsets and kept Gram."""

import sys
import threading

import numpy as np
import pytest

from sltr import io as sio
from sltr.data import Dataset

from oracles import same_bits


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


class TestGram:
    @pytest.mark.parametrize("n,p", [(7, 4), (4, 4), (3, 8)], ids=["primal", "square", "dual"])
    def test_the_smaller_product_of_the_design(self, n, p):
        x = np.random.default_rng(n * p).normal(size=(n, p))
        ds = Dataset((p,), x, np.zeros(n))
        # P <= N takes x'x, as the backbone's primal system does; P > N takes xx'.
        assert same_bits(ds.gram, x.T @ x if p <= n else x @ x.T)

    def test_read_only_and_kept(self):
        ds = small_dataset()
        g = ds.gram
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0, 0] = 1.0
        assert ds.gram is g

    def test_held_gram_is_never_larger_than_the_design(self):
        for n, p in [(7, 4), (3, 8), (5, 5)]:
            ds = Dataset((p,), np.ones((n, p)), np.zeros(n))
            assert ds.gram.nbytes == min(n, p) ** 2 * 8 <= ds.x.nbytes

    def test_new_datasets_have_none_yet(self, tmp_path, monkeypatch):
        ds = small_dataset()
        ds.gram  # kept by ds alone: nothing made from ds takes it
        sio.write_dataset(tmp_path / "d.ds", ds)
        made = [ds.subset([0, 1]), Dataset(ds.dims, ds.x, ds.y), sio.read_dataset(tmp_path / "d.ds")]
        computed = []
        monkeypatch.setattr("sltr.data._gram", lambda x: computed.append(x) or x @ x.T)
        for other in made:
            other.gram
        assert len(computed) == len(made)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
    def test_no_warning_from_a_non_finite_product(self, entry):
        # RuntimeWarnings are errors in this suite: the backbone reports such a design.
        x = np.random.default_rng(0).normal(size=(3, 4))
        x[1, 2] = entry
        g = Dataset((4,), x, np.zeros(3)).gram
        assert not np.isfinite(g).all()

    def test_threads_reading_it_first_all_get_the_same_bits(self):
        # Threads that race to fill the slot each compute the product; the race is harmless
        # because every one of them gets the same bits and one array is kept.
        x = np.random.default_rng(3).normal(size=(60, 80))
        ds = Dataset((80,), x, np.zeros(60))
        start, seen = threading.Barrier(8), [None] * 8

        def read(i):
            start.wait(timeout=30)
            seen[i] = ds.gram

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(same_bits(g, x @ x.T) for g in seen)
        assert any(g is ds.gram for g in seen) and ds.gram is ds.gram

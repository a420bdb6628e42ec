"""dot_rows against its reference, math.fsum of each row's products, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sltr.tensor
from sltr.tensor import Tensor, dot_rows, inner


def fsum_rows(x, w):
    return np.array([math.fsum(np.multiply(row, w)) for row in x], dtype=np.float64)


def outcome(f):
    """Bits of the result, or the exception type raised."""
    try:
        return "value", np.asarray(f(), dtype=np.float64).view(np.uint64).tolist()
    except (ValueError, OverflowError) as exc:
        return "raises", type(exc)


def assert_matches_fsum(x, w):
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    with np.errstate(all="ignore"):
        assert outcome(lambda: dot_rows(x, w)) == outcome(lambda: fsum_rows(x, w))


@st.composite
def spread_rows(draw):
    """Rows of mantissas in [-1, 1] times 2**k, k from subnormal to about 1e300.

    Each row has its own top exponent and spread, so some rows hold values of
    one scale and others span hundreds of binades.
    """
    n = draw(st.integers(0, 6))
    p = draw(st.integers(1, 60))
    mant = draw(arrays(np.float64, (n, p), elements=st.floats(-1.0, 1.0)))
    top = draw(arrays(np.int64, (n, 1), elements=st.integers(-1074, 996)))
    spread = draw(arrays(np.int64, (n, 1), elements=st.integers(0, 200)))
    frac = draw(arrays(np.float64, (n, p), elements=st.floats(0.0, 1.0)))
    exps = top - np.rint(frac * spread).astype(np.int64)
    return np.ldexp(mant, np.maximum(exps, -1074).astype(np.int32))


class TestAgainstFsum:
    @settings(max_examples=300, deadline=None)
    @given(spread_rows())
    def test_spread_rows_unit_weights(self, x):
        assert_matches_fsum(x, np.ones(x.shape[1]))

    @settings(max_examples=200, deadline=None)
    @given(spread_rows(), st.integers(0, 2**32 - 1))
    def test_spread_rows_random_weights(self, x, seed):
        w = np.random.default_rng(seed).normal(size=x.shape[1]) * 2.0 ** -30
        assert_matches_fsum(x, w)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3000), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_gaussian_rows(self, p, n, seed):
        r = np.random.default_rng(seed)
        assert_matches_fsum(r.normal(size=(n, p)), r.normal(size=p))

    def test_gaussian_rows_are_certified(self, monkeypatch):
        # The vectorized path, not the fallback, must give almost every value.
        calls = []
        fallback = sltr.tensor._fsum_row

        def counting(row, w):
            calls.append(1)
            return fallback(row, w)

        monkeypatch.setattr(sltr.tensor, "_fsum_row", counting)
        r = np.random.default_rng(0)
        x, w = r.normal(size=(500, 2000)), r.normal(size=2000)
        np.testing.assert_array_equal(dot_rows(x, w), fsum_rows(x, w))
        assert len(calls) <= 2

    def test_rows_across_blocks(self):
        p = 3000
        n = 3 * sltr.tensor._block_rows(p) + 1
        r = np.random.default_rng(1)
        assert_matches_fsum(r.normal(size=(n, p)) * np.logspace(-30, 30, p), r.normal(size=p))


class TestHardRows:
    @pytest.mark.parametrize(
        "row, expected",
        [
            ([1.0, -1.0, 2.5, -2.5], 0.0),  # exact cancellation
            ([1e300, 1.0, -1e300], 1.0),
            ([1.0, 2.0**-53], 1.0),  # half-way: ties to even
            ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),
            ([2.0**53, 1.0], 2.0**53),
            ([1.0, 2.0**-54, 2.0**-54], 1.0),  # half-way from several parts
            ([1.0, 2.0**-54, 2.0**-54, 2.0**-100], 1.0 + 2.0**-52),  # just above
            ([1.0, 2.0**-54, 2.0**-54, -(2.0**-100)], 1.0),  # just below
            ([2.0**53, 1.0, 2.0**-60], 2.0**53 + 2.0),
            ([5e-324, 5e-324, 5e-324], 1.5e-323),  # subnormal
            # Just above a tie, but the small parts summed in order land below
            # it: only the error bound on t2 keeps the kernel from 1.5.
            ([1.5, 2.0**-53 - 2.0**-106] + [2.0**-108 + 2.0**-115] * 4, 1.5 + 2.0**-52),
            # The same below a power of two, where the gap under r is the smaller one.
            ([1.0, -(2.0**-54 - 2.0**-107)] + [-(2.0**-109 + 2.0**-116)] * 4, 1.0 - 2.0**-53),
        ],
    )
    def test_constructed_rows(self, row, expected):
        x = np.array([row])
        got = dot_rows(x, np.ones(len(row)))
        assert got[0] == expected
        assert_matches_fsum(x, np.ones(len(row)))

    @pytest.mark.parametrize(
        "row",
        [
            [0.0, -0.0],
            [-0.0, -0.0],
            [0.0],
            [math.nan, 1.0],
            [math.inf, 1.0],
            [-math.inf, -1.0],
            [math.inf, -math.inf],  # ValueError in fsum
            [math.inf, math.nan],
            [1e308, 1e308, -1e308],  # intermediate overflow: OverflowError
            [1.7e308, 1.7e308],
            [1.7e308, -1.7e308, 1.0],
        ],
    )
    def test_special_rows_match_fsum(self, row):
        assert_matches_fsum([row], np.ones(len(row)))
        # The same row among ordinary ones, before and after them.
        r = np.random.default_rng(2)
        x = np.vstack([r.normal(size=(2, len(row))), [row], r.normal(size=(2, len(row)))])
        assert_matches_fsum(x, np.ones(len(row)))

    def test_product_overflow_and_underflow(self):
        x = np.array([[1e200, 1.0], [1e-200, 1.0], [-1e-200, 0.0]])
        assert_matches_fsum(x, np.array([1e200, 2.0]))
        assert_matches_fsum(x, np.array([1e-200, 2.0]))

    def test_first_raising_row_wins(self):
        # fsum raises ValueError on row 1 before OverflowError on row 2.
        x = np.array([[1.0, 2.0], [math.inf, -math.inf], [1e308, 1e308]])
        with pytest.raises(ValueError):
            dot_rows(x, np.ones(2))


class TestShapes:
    def test_zero_rows(self):
        out = dot_rows(np.empty((0, 5)), np.ones(5))
        assert out.dtype == np.float64 and out.shape == (0,)

    def test_one_column(self):
        x = np.random.default_rng(3).normal(size=(7, 1))
        assert_matches_fsum(x, np.array([0.3]))
        np.testing.assert_array_equal(dot_rows(x, np.array([0.3])), x[:, 0] * 0.3)

    def test_non_contiguous_input(self):
        x = np.random.default_rng(4).normal(size=(9, 12))
        w = np.arange(1.0, 7.0)
        assert_matches_fsum(x[::2, ::2], w)

    @pytest.mark.parametrize("x, w", [(np.ones(3), np.ones(3)), (np.ones((2, 3)), np.ones(4))])
    def test_shape_mismatch(self, x, w):
        with pytest.raises(ValueError):
            dot_rows(x, w)


@settings(max_examples=100, deadline=None)
@given(spread_rows().filter(lambda x: x.shape[0] >= 2))
def test_inner_is_fsum(x):
    a, b = Tensor((x.shape[1],), x[0]), Tensor((x.shape[1],), x[1])
    with np.errstate(all="ignore"):
        assert outcome(lambda: inner(a, b)) == outcome(
            lambda: math.fsum(np.multiply(a.data, b.data)))

import numpy as np
import pytest
from scipy.special import ndtri

from sltr import rng

B = rng._BLOCK
U_MAX = 1 - 2.0**-53  # the largest double below 1


def oracle_uniforms(seed, stream, n):
    """The documented recipe in one draw: ``min(((w >> 11) + 0.5) * 2^-53, 1 - 2^-53)``."""
    key = np.array([seed % 2**64, stream], dtype=np.uint64)
    w = np.random.Philox(key=key).random_raw(n)
    return np.minimum(((w >> np.uint64(11)) + 0.5) * 2.0**-53, U_MAX)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 5])
def test_blocked_streams_equal_the_recipe(n):
    u = oracle_uniforms(7, rng.STREAM_SAMPLES, n)
    assert same_bits(rng.uniforms(7, rng.STREAM_SAMPLES, n), u)
    assert same_bits(rng.normals(7, rng.STREAM_SAMPLES, n), ndtri(u))


class EdgeWords:
    """Stands in for Philox: its raw words cycle through the top two and the bottom one."""

    WORDS = np.array([2**64 - 1, 2**64 - 2**11, 0], dtype=np.uint64)

    def __init__(self, key):
        pass

    def random_raw(self, size):
        return np.resize(self.WORDS, size)


def test_the_top_words_stay_inside_the_open_interval(monkeypatch):
    # Both top words have w >> 11 == 2^53 - 1, whose sum with 0.5 rounds to 2^53.
    monkeypatch.setattr(np.random, "Philox", EdgeWords)
    u = rng.uniforms(0, 0, 3)
    assert u.tolist() == [U_MAX, U_MAX, 2.0**-54]
    z = rng.normals(0, 0, 3)
    assert np.isfinite(z).all() and same_bits(z, ndtri(u))
    assert rng.shuffled_indices(5, 3, 0, 0).tolist() == [4, 0, 2]


def test_more_indices_than_items_raise():
    with pytest.raises(ValueError, match="need k <= n, got k=4, n=3"):
        rng.shuffled_indices(3, 4, 0, rng.STREAM_MASK)

import numpy as np
import pytest
from scipy.special import ndtri

from sltr import rng

B = rng._BLOCK


def oracle_uniforms(seed, stream, n):
    """The documented recipe in one draw: ``((w >> 11) + 0.5) * 2^-53``."""
    key = np.array([seed % 2**64, stream], dtype=np.uint64)
    w = np.random.Philox(key=key).random_raw(n)
    return ((w >> np.uint64(11)) + 0.5) * 2.0**-53


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 5])
def test_blocked_streams_equal_the_recipe(n):
    u = oracle_uniforms(7, rng.STREAM_SAMPLES, n)
    assert same_bits(rng.uniforms(7, rng.STREAM_SAMPLES, n), u)
    assert same_bits(rng.normals(7, rng.STREAM_SAMPLES, n), ndtri(u))

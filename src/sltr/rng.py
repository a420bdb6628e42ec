"""Pinned deterministic random streams.

Every consumer of randomness in this package draws from a named stream of a
counter-based Philox4x64 generator, so that a fixed seed reproduces the same
bits on every platform, and so that other implementations of the file formats
can regenerate identical datasets.  The recipe:

* stream words: Philox4x64 keyed with the two 64-bit words
  ``(seed mod 2^64, stream_id)``, consumed in raw 64-bit draws ``w``;
* uniforms on the open interval (0, 1): ``u = ((w >> 11) + 0.5) * 2^-53``;
* standard normals: inverse normal CDF applied to the uniform stream;
* index selection: partial Fisher-Yates driven by the uniform stream
  (``j = i + floor(u_i * (n - i))``).

The words are drawn in blocks of ``_BLOCK`` into the one output array, where
the shift, the scale and the inverse CDF run in place.  Philox keeps its
position between draws, so the blocks are one stream: ``n`` values are the
same bits whatever the block size, and the first ``k`` of them are the ``k``
values of a shorter draw.

Stream ids: 0 = coefficient entries, 1 = sparsity mask, 2 = sample entries,
3 = noise, 4 = cross-validation fold shuffle.  Seeds, stream ids and counts
follow the size rule of :mod:`sltr.tensor`; a seed may be negative.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .tensor import _integer

__all__ = [
    "STREAM_COEF",
    "STREAM_MASK",
    "STREAM_SAMPLES",
    "STREAM_NOISE",
    "STREAM_FOLDS",
    "uniforms",
    "normals",
    "shuffled_indices",
]

STREAM_COEF = 0
STREAM_MASK = 1
STREAM_SAMPLES = 2
STREAM_NOISE = 3
STREAM_FOLDS = 4

_INV_2_53 = 2.0 ** -53
# Words per block: 512 KB of raw words, so a block stays in cache between its
# conversion and the inverse CDF, and adds little to peak memory.
_BLOCK = 1 << 16


def _draw(seed: int, stream: int, n: int, normal: bool) -> np.ndarray:
    key = [_integer("seed", seed, None) % 2 ** 64, _integer("stream", stream, 0)]
    bitgen = np.random.Philox(key=np.array(key, dtype=np.uint64))
    n = _integer("n", n, 0)
    out = np.empty(n)
    for start in range(0, n, _BLOCK):
        w = bitgen.random_raw(min(_BLOCK, n - start))
        w >>= np.uint64(11)
        blk = out[start : start + w.size]
        np.add(w, 0.5, out=blk)  # w < 2^53 converts exactly
        blk *= _INV_2_53
        if normal:
            ndtri(blk, out=blk)
    return out


def uniforms(seed: int, stream: int, n: int) -> np.ndarray:
    """n doubles uniform on the open interval (0, 1)."""
    return _draw(seed, stream, n, normal=False)


def normals(seed: int, stream: int, n: int) -> np.ndarray:
    """n standard normals via the inverse CDF on the pinned uniform stream."""
    return _draw(seed, stream, n, normal=True)


def shuffled_indices(n: int, k: int, seed: int, stream: int) -> np.ndarray:
    """First ``k`` indices of a seeded Fisher-Yates shuffle of ``range(n)``.

    With ``k == n`` this is a full shuffle.  The swap targets come from the
    pinned uniform stream, so the selection is reproducible bit-for-bit.
    """
    n, k = _integer("n", n, 0), _integer("k", k, 0)
    if k > n:
        raise ValueError(f"need k <= n, got k={k}, n={n}")
    u = uniforms(seed, stream, k)
    idx = np.arange(n)
    for i in range(k):
        j = i + int(u[i] * (n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:k]

"""Binary dataset/tensor file formats.

Both formats are little-endian throughout and bit-exact across platforms.

Tensor file::

    bytes 0..7   magic "SLTRTN1\\n"
    u32          M (tensor order)
    M x u64      dims
    P x f64      payload in canonical (mode-1-fastest) layout, P = prod(dims)

Dataset file::

    bytes 0..7   magic "SLTRDS1\\n"
    u32          version (currently 1)
    u32          M
    M x u64      dims
    u64          N (sample count, at least 1: an empty dataset has no file)
    N*P x f64    samples, sample-major, canonical layout within each sample
    N x f64      responses y

One reader parses each format from every source.  It works over a file
object of known length and checks each field, the payload and the end of
the file included, against that length before it reads or allocates the
field; then it reads the payload straight into the arrays it returns
(``readinto``; byteswapped in place on a big-endian host).  A header that
claims more samples or entries than the file holds is rejected before
anything of that size is allocated.  :func:`read_dataset`,
:func:`read_responses` and :func:`read_tensor` read a regular file where it
lies; a pipe, which has no length to check against, is read whole and parsed
from memory, as are the buffers given to :func:`decode_dataset` and
:func:`decode_tensor`.  A malformed file therefore raises the same
:class:`FormatError`, message and offset, from every source, and nothing
returned shares memory with the caller's buffer.
"""

from __future__ import annotations

import math
import os
import sys
from io import BytesIO

import numpy as np

from .data import Dataset
from .exceptions import FormatError
from .tensor import Tensor

__all__ = [
    "DATASET_MAGIC",
    "TENSOR_MAGIC",
    "read_dataset",
    "read_responses",
    "write_dataset",
    "read_tensor",
    "write_tensor",
    "encode_dataset",
    "decode_dataset",
    "encode_tensor",
    "decode_tensor",
]

DATASET_MAGIC = b"SLTRDS1\n"
TENSOR_MAGIC = b"SLTRTN1\n"
DATASET_VERSION = 1

_U32 = np.dtype("<u4")
_U64 = np.dtype("<u8")
_F64 = np.dtype("<f8")


class _Reader:
    """Sequential reader of a file object of known length that reports byte offsets on failure.

    Every field is checked against the length before it is read or allocated.
    """

    def __init__(self, fh):
        self.fh = fh
        self.size = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        self.offset = 0

    def skip(self, n: int, what: str) -> int:
        """Claim the next ``n`` bytes, a field named ``what``; return where it starts."""
        if self.offset + n > self.size:
            raise FormatError(
                f"truncated file: expected {n} more bytes for {what}", offset=self.offset
            )
        self.offset += n
        return self.offset - n

    def take(self, n: int, what: str) -> bytes:
        buf = bytearray(n)
        self._fill(buf, self.skip(n, what), what)
        return bytes(buf)

    def u32(self, what: str) -> int:
        return int.from_bytes(self.take(4, what), "little")

    def u64(self, what: str) -> int:
        return int.from_bytes(self.take(8, what), "little")

    def f64s(self, *fields) -> list:
        """Arrays of the f64 ``(shape, what)`` fields that end the file, read straight into them.

        All of them, and the end of the file, are checked before any is allocated.
        """
        starts = [self.skip(8 * math.prod(shape), what) for shape, what in fields]
        self.done()
        arrays = []
        for (shape, what), at in zip(fields, starts):
            a = np.empty(shape)
            self._fill(a, at, what)
            if sys.byteorder == "big":
                a.byteswap(inplace=True)
            arrays.append(a)
        return arrays

    def done(self) -> None:
        if self.offset != self.size:
            raise FormatError(
                f"trailing data: {self.size - self.offset} unexpected bytes",
                offset=self.offset,
            )

    def _fill(self, buf, at: int, what: str) -> None:
        view = memoryview(buf).cast("B")
        got = self.fh.readinto(view)
        if got != len(view):  # the file shrank after its length was taken
            raise FormatError(
                f"truncated file: expected {len(view) - got} more bytes for {what}",
                offset=at + got,
            )


def _file_reader(fh) -> _Reader:
    """A reader of ``fh``, or of all its bytes in memory when it cannot seek (a pipe)."""
    return _Reader(fh if fh.seekable() else BytesIO(fh.read()))


def _read_magic(r: _Reader, magic: bytes) -> None:
    got = r.take(len(magic), "magic")
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}", offset=0)


def _read_dims(r: _Reader):
    m = r.u32("tensor order")
    if m < 1:
        raise FormatError(f"tensor order must be >= 1, got {m}", offset=r.offset - 4)
    dims = []
    for i in range(m):
        at = r.offset
        p = r.u64(f"dimension {i + 1}")
        if p < 1:
            raise FormatError(f"dimension {i + 1} must be >= 1, got {p}", offset=at)
        dims.append(p)
    return tuple(dims)


def _f64_payload(a) -> memoryview:
    """Bytes of ``a`` as little-endian f64, without a copy where ``a`` already is."""
    return memoryview(np.ascontiguousarray(a, dtype=_F64)).cast("B")


def _tensor_parts(t: Tensor):
    header = (
        TENSOR_MAGIC
        + np.asarray([t.order], _U32).tobytes()
        + np.asarray(t.dims, _U64).tobytes()
    )
    return [header, _f64_payload(t.data)]


def encode_tensor(t: Tensor) -> bytes:
    return b"".join(_tensor_parts(t))


def _parse_tensor(r: _Reader) -> Tensor:
    _read_magic(r, TENSOR_MAGIC)
    dims = _read_dims(r)
    (data,) = r.f64s(((math.prod(dims),), "tensor payload"))
    return Tensor._own(dims, data)


def decode_tensor(buf: bytes) -> Tensor:
    return _parse_tensor(_Reader(BytesIO(buf)))


def _dataset_parts(ds: Dataset):
    if ds.n == 0:
        raise ValueError("the dataset format holds at least one sample, got an empty dataset")
    header = (
        DATASET_MAGIC
        + np.asarray([DATASET_VERSION, len(ds.dims)], _U32).tobytes()
        + np.asarray(ds.dims, _U64).tobytes()
        + np.asarray([ds.n], _U64).tobytes()
    )
    return [header, _f64_payload(ds.x), _f64_payload(ds.y)]


def encode_dataset(ds: Dataset) -> bytes:
    return b"".join(_dataset_parts(ds))


def _dataset_header(r: _Reader):
    """``(dims, n)`` from the header of a dataset file."""
    _read_magic(r, DATASET_MAGIC)
    at = r.offset
    version = r.u32("version")
    if version != DATASET_VERSION:
        raise FormatError(f"unsupported dataset version {version}", offset=at)
    dims = _read_dims(r)
    at = r.offset
    n = r.u64("sample count")
    if n < 1:
        raise FormatError(f"sample count must be >= 1, got {n}", offset=at)
    return dims, n


def _parse_dataset(r: _Reader) -> Dataset:
    dims, n = _dataset_header(r)
    x, y = r.f64s(((n, math.prod(dims)), "sample payload"), ((n,), "responses"))
    return Dataset._own(dims, x, y)


def decode_dataset(buf: bytes) -> Dataset:
    return _parse_dataset(_Reader(BytesIO(buf)))


def _write_parts(path, parts) -> None:
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part)


def write_tensor(path, t: Tensor) -> None:
    _write_parts(path, _tensor_parts(t))


def read_tensor(path) -> Tensor:
    with open(path, "rb") as fh:
        return _parse_tensor(_file_reader(fh))


def write_dataset(path, ds: Dataset) -> None:
    _write_parts(path, _dataset_parts(ds))


def read_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        return _parse_dataset(_file_reader(fh))


def read_responses(path) -> np.ndarray:
    """The responses ``y`` of a dataset file, bit for bit those of :func:`read_dataset`.

    The samples are checked against the file's length and skipped, never read,
    so a malformed file raises the same :class:`FormatError` as :func:`read_dataset`.
    """
    with open(path, "rb") as fh:
        r = _file_reader(fh)
        dims, n = _dataset_header(r)
        size = 8 * n * math.prod(dims)
        r.fh.seek(r.skip(size, "sample payload") + size)
        (y,) = r.f64s(((n,), "responses"))
        return y

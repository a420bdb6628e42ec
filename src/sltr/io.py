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
    u64          N (sample count)
    N*P x f64    samples, sample-major, canonical layout within each sample
    N x f64      responses y

:func:`read_dataset` reads the header alone, checks that the file holds
exactly the payload the header describes, and only then allocates the
design matrix and the responses and reads the payload straight into them
(``readinto``; byteswapped in place on a big-endian host).  A file whose
header claims more samples than it holds is rejected before anything of
that size is allocated, and every malformed file raises the same
:class:`FormatError`, message and offset, as :func:`decode_dataset` of its
bytes.  :func:`decode_dataset` copies the payload out of its buffer, which
the caller may go on to change.
"""

from __future__ import annotations

import os
import stat
import sys

import numpy as np

from .data import Dataset
from .exceptions import FormatError
from .tensor import Tensor

__all__ = [
    "DATASET_MAGIC",
    "TENSOR_MAGIC",
    "read_dataset",
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
    """Sequential reader of a file's first bytes that reports byte offsets on failure.

    ``buf`` holds the file's first bytes and ``size`` is the length of the
    whole file (``len(buf)`` when it is all in ``buf``).
    """

    def __init__(self, buf: bytes, size: int | None = None):
        self.buf = memoryview(buf).cast("B")  # slices of a memoryview are not copies
        self.size = len(self.buf) if size is None else size
        self.offset = 0

    def skip(self, n: int, what: str) -> int:
        """Step over the next ``n`` bytes, a field named ``what``; return where it starts."""
        if self.offset + n > self.size:
            raise FormatError(
                f"truncated file: expected {n} more bytes for {what}", offset=self.offset
            )
        self.offset += n
        return self.offset - n

    def take(self, n: int, what: str) -> memoryview:
        at = self.skip(n, what)
        return self.buf[at : at + n]

    def u32(self, what: str) -> int:
        return int(np.frombuffer(self.take(4, what), _U32)[0])

    def u64(self, what: str) -> int:
        return int(np.frombuffer(self.take(8, what), _U64)[0])

    def f64s(self, n: int, what: str) -> np.ndarray:
        # A read-only view of the buffer: Dataset and Tensor copy what they keep.
        return np.frombuffer(self.take(8 * n, what), _F64)

    def done(self) -> None:
        if self.offset != self.size:
            raise FormatError(
                f"trailing data: {self.size - self.offset} unexpected bytes",
                offset=self.offset,
            )


def _read_magic(r: _Reader, magic: bytes) -> None:
    got = bytes(r.take(len(magic), "magic"))
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


def decode_tensor(buf: bytes) -> Tensor:
    r = _Reader(buf)
    _read_magic(r, TENSOR_MAGIC)
    dims = _read_dims(r)
    p_total = 1
    for p in dims:
        p_total *= p
    data = r.f64s(p_total, "tensor payload")
    r.done()
    return Tensor(dims, data)


def _dataset_parts(ds: Dataset):
    header = (
        DATASET_MAGIC
        + np.asarray([DATASET_VERSION, len(ds.dims)], _U32).tobytes()
        + np.asarray(ds.dims, _U64).tobytes()
        + np.asarray([ds.n], _U64).tobytes()
    )
    return [header, _f64_payload(ds.x), _f64_payload(ds.y)]


def encode_dataset(ds: Dataset) -> bytes:
    return b"".join(_dataset_parts(ds))


def _read_dataset_header(r: _Reader):
    """``(dims, n, p_total)`` from the header of a dataset file."""
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
    p_total = 1
    for p in dims:
        p_total *= p
    return dims, n, p_total


def decode_dataset(buf: bytes) -> Dataset:
    r = _Reader(buf)
    dims, n, p_total = _read_dataset_header(r)
    x = r.f64s(n * p_total, "sample payload").reshape(n, p_total)
    y = r.f64s(n, "responses")
    r.done()
    return Dataset(dims, x, y)


def _write_parts(path, parts) -> None:
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part)


def write_tensor(path, t: Tensor) -> None:
    _write_parts(path, _tensor_parts(t))


def read_tensor(path) -> Tensor:
    with open(path, "rb") as fh:
        return decode_tensor(fh.read())


def write_dataset(path, ds: Dataset) -> None:
    _write_parts(path, _dataset_parts(ds))


def read_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):  # a pipe has no size to check against
            return decode_dataset(fh.read())
        # Magic, version and order, then the dims and the sample count; read()
        # stops at the end of the file, so a short file is read whole.
        head = fh.read(16)
        if len(head) == 16:
            order = int(np.frombuffer(head, _U32, offset=12)[0])
            head += fh.read(min(8 * order + 8, info.st_size))
        r = _Reader(head, info.st_size)
        dims, n, p_total = _read_dataset_header(r)
        x_at = r.skip(8 * n * p_total, "sample payload")
        y_at = r.skip(8 * n, "responses")
        r.done()
        x = np.empty((n, p_total))
        y = np.empty(n)
        _read_f64s_into(fh, x, x_at, "sample payload")
        _read_f64s_into(fh, y, y_at, "responses")
    return Dataset._own(dims, x, y)


def _read_f64s_into(fh, a: np.ndarray, at: int, what: str) -> None:
    """Fill ``a`` with the little-endian f64s at the file's position ``at``."""
    view = memoryview(a).cast("B")
    got = fh.readinto(view)
    if got != len(view):  # the file shrank after its size was checked
        raise FormatError(f"truncated file: expected {len(view) - got} more bytes for {what}",
                          offset=at + got)
    if sys.byteorder == "big":
        a.byteswap(inplace=True)

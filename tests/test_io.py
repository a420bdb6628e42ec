import math
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sltr import io as sio
from sltr.data import Dataset
from sltr.exceptions import FormatError
from sltr.tensor import Tensor

from oracles import same_bits

# -0.0, a quiet NaN with a payload, a negative NaN, the smallest subnormal, inf.
_SPECIAL_BITS = [0x8000000000000000, 0x7FF8000000000001, 0xFFF8000000000ABC, 1, 0x7FF0000000000000]


def f64_from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def special_dataset():
    dims = (2, 3)
    x = np.random.default_rng(0).normal(size=(4, 6))
    x[0, :5] = f64_from_bits(_SPECIAL_BITS)
    y = f64_from_bits(_SPECIAL_BITS[:4])
    return Dataset(dims, x, y)


def responses_dataset():
    """Special responses beside samples that share none of their bits."""
    return Dataset((2, 3), np.arange(24.0).reshape(4, 6), f64_from_bits(_SPECIAL_BITS[:4]))


def dataset_fields(dims, n):
    """(start, length) of each field of a dataset file, in file order."""
    p = math.prod(dims)
    fields = [(0, 8), (8, 4), (12, 4)]
    fields += [(16 + 8 * i, 8) for i in range(len(dims))]
    at = 16 + 8 * len(dims)
    fields += [(at, 8), (at + 8, 8 * n * p), (at + 8 + 8 * n * p, 8 * n)]
    return fields


def tensor_fields(dims):
    fields = [(0, 8), (8, 4)] + [(12 + 8 * i, 8) for i in range(len(dims))]
    return fields + [(12 + 8 * len(dims), 8 * math.prod(dims))]


def field_at(fields, byte):
    return next(start for start, length in fields if start <= byte < start + length)


class TestRoundTrip:
    def test_dataset_bit_exact(self, tmp_path):
        ds = special_dataset()
        path = tmp_path / "d.ds"
        sio.write_dataset(path, ds)
        back = sio.read_dataset(path)
        assert back.dims == ds.dims
        assert same_bits(back.x, ds.x) and same_bits(back.y, ds.y)

    def test_tensor_bit_exact(self, tmp_path):
        t = Tensor((5,), f64_from_bits(_SPECIAL_BITS))
        path = tmp_path / "t.tn"
        sio.write_tensor(path, t)
        back = sio.read_tensor(path)
        assert back.dims == t.dims and same_bits(back.data, t.data)

    def test_written_bytes_equal_encoding(self, tmp_path):
        ds = special_dataset()
        sio.write_dataset(tmp_path / "d.ds", ds)
        assert (tmp_path / "d.ds").read_bytes() == sio.encode_dataset(ds)
        t = Tensor((3, 2), np.arange(6.0) - 2.5)
        sio.write_tensor(tmp_path / "t.tn", t)
        assert (tmp_path / "t.tn").read_bytes() == sio.encode_tensor(t)

    def test_layout(self):
        # The documented little-endian layout, assembled independently.
        ds = Dataset((2, 1), [[1.0, -2.0]], [0.5])
        expected = (b"SLTRDS1\n" + struct.pack("<II", 1, 2) + struct.pack("<QQ", 2, 1)
                    + struct.pack("<Q", 1) + struct.pack("<ddd", 1.0, -2.0, 0.5))
        assert sio.encode_dataset(ds) == expected
        t = Tensor((2,), [3.0, -0.0])
        assert sio.encode_tensor(t) == (b"SLTRTN1\n" + struct.pack("<I", 1)
                                        + struct.pack("<Q", 2) + struct.pack("<dd", 3.0, -0.0))

    def test_empty_dataset_is_not_written(self, tmp_path):
        # The format needs a sample, as the reader's "sample count" check says.
        ds = Dataset((2, 2), np.empty((0, 4)), [])
        with pytest.raises(ValueError, match="at least one sample"):
            sio.encode_dataset(ds)
        with pytest.raises(ValueError, match="at least one sample"):
            sio.write_dataset(tmp_path / "d.ds", ds)
        assert not (tmp_path / "d.ds").exists()

    def test_non_contiguous_source(self):
        x = np.random.default_rng(1).normal(size=(3, 8))[:, ::2]
        ds = Dataset((4,), np.asfortranarray(x), [1.0, 2.0, 3.0])
        back = sio.decode_dataset(sio.encode_dataset(ds))
        assert same_bits(back.x, x)


class TestMalformed:
    def test_every_dataset_truncation(self):
        ds = special_dataset()
        buf = sio.encode_dataset(ds)
        fields = dataset_fields(ds.dims, ds.n)
        assert sum(length for _, length in fields) == len(buf)
        for cut in range(len(buf)):
            with pytest.raises(FormatError, match="truncated") as info:
                sio.decode_dataset(buf[:cut])
            assert info.value.offset == field_at(fields, cut), cut

    def test_every_tensor_truncation(self):
        t = Tensor((2, 3), np.arange(6.0))
        buf = sio.encode_tensor(t)
        fields = tensor_fields(t.dims)
        for cut in range(len(buf)):
            with pytest.raises(FormatError, match="truncated") as info:
                sio.decode_tensor(buf[:cut])
            assert info.value.offset == field_at(fields, cut), cut

    def test_trailing_bytes(self):
        buf = sio.encode_dataset(special_dataset())
        with pytest.raises(FormatError, match="trailing") as info:
            sio.decode_dataset(buf + b"\0")
        assert info.value.offset == len(buf)
        tbuf = sio.encode_tensor(Tensor((2,), [1.0, 2.0]))
        with pytest.raises(FormatError, match="trailing") as info:
            sio.decode_tensor(tbuf + b"xyz")
        assert info.value.offset == len(tbuf)

    def test_bad_magic(self):
        buf = bytearray(sio.encode_dataset(special_dataset()))
        buf[3] ^= 0xFF
        with pytest.raises(FormatError, match="magic") as info:
            sio.decode_dataset(bytes(buf))
        assert info.value.offset == 0
        # A tensor file is not a dataset file, and the other way round.
        with pytest.raises(FormatError, match="magic"):
            sio.decode_tensor(sio.encode_dataset(special_dataset()))
        with pytest.raises(FormatError, match="magic"):
            sio.decode_dataset(sio.encode_tensor(Tensor((1,), [1.0])))

    def test_bad_version(self):
        buf = bytearray(sio.encode_dataset(special_dataset()))
        buf[8:12] = struct.pack("<I", 2)
        with pytest.raises(FormatError, match="version") as info:
            sio.decode_dataset(bytes(buf))
        assert info.value.offset == 8

    def test_zero_order(self):
        buf = b"SLTRDS1\n" + struct.pack("<II", 1, 0) + struct.pack("<Q", 1)
        with pytest.raises(FormatError, match="order") as info:
            sio.decode_dataset(buf)
        assert info.value.offset == 12
        with pytest.raises(FormatError, match="order") as info:
            sio.decode_tensor(b"SLTRTN1\n" + struct.pack("<I", 0))
        assert info.value.offset == 8

    def test_zero_dimension(self):
        buf = b"SLTRDS1\n" + struct.pack("<II", 1, 2) + struct.pack("<QQQ", 3, 0, 1)
        with pytest.raises(FormatError, match="dimension 2") as info:
            sio.decode_dataset(buf)
        assert info.value.offset == 24
        with pytest.raises(FormatError, match="dimension 1") as info:
            sio.decode_tensor(b"SLTRTN1\n" + struct.pack("<IQ", 1, 0))
        assert info.value.offset == 12

    def test_zero_samples(self):
        buf = b"SLTRDS1\n" + struct.pack("<II", 1, 1) + struct.pack("<QQ", 2, 0)
        with pytest.raises(FormatError, match="sample count") as info:
            sio.decode_dataset(buf)
        assert info.value.offset == 24


def malformed_datasets():
    """Byte strings that :func:`decode_dataset` rejects, one per failure it names."""
    buf = sio.encode_dataset(special_dataset())
    cases = [buf[:cut] for cut in range(len(buf))] + [buf + b"\0", buf + b"xyz"]
    bad_magic = bytearray(buf)
    bad_magic[3] ^= 0xFF
    bad_version = bytearray(buf)
    bad_version[8:12] = struct.pack("<I", 2)
    return cases + [
        bytes(bad_magic),
        bytes(bad_version),
        sio.encode_tensor(Tensor((1,), [1.0])),
        b"SLTRDS1\n" + struct.pack("<II", 1, 0) + struct.pack("<Q", 1),
        b"SLTRDS1\n" + struct.pack("<II", 1, 2) + struct.pack("<QQQ", 3, 0, 1),
        b"SLTRDS1\n" + struct.pack("<II", 1, 1) + struct.pack("<QQ", 2, 0),
    ]


def malformed_tensors():
    """Byte strings that :func:`decode_tensor` rejects, one per failure it names."""
    buf = sio.encode_tensor(Tensor((5,), f64_from_bits(_SPECIAL_BITS)))
    cases = [buf[:cut] for cut in range(len(buf))] + [buf + b"\0", buf + b"xyz"]
    bad_magic = bytearray(buf)
    bad_magic[3] ^= 0xFF
    return cases + [
        bytes(bad_magic),
        sio.encode_dataset(special_dataset()),
        b"SLTRTN1\n" + struct.pack("<I", 0),
        b"SLTRTN1\n" + struct.pack("<IQQ", 2, 3, 0) + bytes(24),
    ]


def format_error(read, arg):
    with pytest.raises(FormatError) as info:
        read(arg)
    return str(info.value), info.value.offset


class TestFileRead:
    def test_file_errors_equal_buffer_errors(self, tmp_path):
        path = tmp_path / "bad.ds"
        for buf in malformed_datasets():
            path.write_bytes(buf)
            assert format_error(sio.read_dataset, path) == format_error(sio.decode_dataset, buf)

    def test_tensor_file_errors_equal_buffer_errors(self, tmp_path):
        path = tmp_path / "bad.tn"
        for buf in malformed_tensors():
            path.write_bytes(buf)
            assert format_error(sio.read_tensor, path) == format_error(sio.decode_tensor, buf)

    def test_response_errors_equal_dataset_errors(self, tmp_path):
        # Every truncation, trailing bytes and every header fault.
        path = tmp_path / "bad.ds"
        for buf in malformed_datasets():
            path.write_bytes(buf)
            assert format_error(sio.read_responses, path) == format_error(sio.read_dataset, path)

    def test_responses_are_the_datasets_y(self, tmp_path):
        path = tmp_path / "d.ds"
        sio.write_dataset(path, responses_dataset())
        assert same_bits(sio.read_responses(path), sio.read_dataset(path).y)

    def test_a_file_that_shrinks_while_read_raises_at_its_new_end(self, tmp_path):
        # The length is taken when the reader opens; a read that then comes up
        # short reports the first byte it could not get.
        path = tmp_path / "d.ds"
        buf = sio.encode_dataset(special_dataset())
        for cut in range(len(buf)):
            path.write_bytes(buf)
            with open(path, "rb") as fh:
                reader = sio._Reader(fh)
                os.truncate(path, cut)
                with pytest.raises(FormatError, match="truncated") as info:
                    sio._parse_dataset(reader)
            assert info.value.offset == cut, cut

    def test_oversized_sample_count_allocates_nothing(self, tmp_path):
        # A header claiming 2**40 samples of 2 x 3 in a file of a few bytes.
        header = b"SLTRDS1\n" + struct.pack("<II", 1, 2) + struct.pack("<QQQ", 2, 3, 2**40)
        message, offset, peak = traced_format_error(sio.read_dataset, header, tmp_path)
        assert "truncated" in message and "sample payload" in message and offset == 40
        assert peak < 2**20

    def test_oversized_tensor_allocates_nothing(self, tmp_path):
        # A header claiming 2**20 x 2**20 = 2**40 entries.
        header = b"SLTRTN1\n" + struct.pack("<IQQ", 2, 2**20, 2**20)
        message, offset, peak = traced_format_error(sio.read_tensor, header, tmp_path)
        assert "truncated" in message and "tensor payload" in message and offset == 28
        assert peak < 2**20

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_read_from_a_pipe(self, tmp_path):
        # A pipe has no size to check the header against; it is read whole.
        ds = special_dataset()
        back = read_through_a_pipe(sio.read_dataset, sio.encode_dataset(ds), tmp_path)
        assert back.dims == ds.dims and same_bits(back.x, ds.x) and same_bits(back.y, ds.y)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_responses_read_from_a_pipe(self, tmp_path):
        ds = responses_dataset()
        back = read_through_a_pipe(sio.read_responses, sio.encode_dataset(ds), tmp_path)
        assert same_bits(back, ds.y)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_tensor_read_from_a_pipe(self, tmp_path):
        t = Tensor((5,), f64_from_bits(_SPECIAL_BITS))
        back = read_through_a_pipe(sio.read_tensor, sio.encode_tensor(t), tmp_path)
        assert back.dims == t.dims and same_bits(back.data, t.data)


def traced_format_error(read, header, tmp_path):
    """``(message, offset, tracemalloc peak)`` of reading ``header`` and 64 more bytes."""
    path = tmp_path / "huge"
    path.write_bytes(header + bytes(64))
    tracemalloc.start()
    try:
        message, offset = format_error(read, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return message, offset, peak


def read_through_a_pipe(read, buf, tmp_path):
    path = tmp_path / "fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(buf,), daemon=True)
    writer.start()
    back = read(path)
    writer.join(timeout=10)
    assert not writer.is_alive()
    return back


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
           n=st.integers(1, 4), data=st.data())
    def test_dataset_round_trip(self, dims, n, data):
        p = math.prod(dims)
        bits = data.draw(arrays(np.uint64, n * p + n, elements=st.integers(0, 2**64 - 1)))
        vals = bits.view(np.float64)
        ds = Dataset(dims, vals[: n * p].reshape(n, p), vals[n * p:])
        buf = sio.encode_dataset(ds)
        assert len(buf) == 24 + 8 * len(dims) + 8 * (n * p + n)
        back = sio.decode_dataset(buf)
        assert back.dims == dims and same_bits(back.x, ds.x) and same_bits(back.y, ds.y)

    @settings(max_examples=150, deadline=None)
    @given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple), data=st.data())
    def test_tensor_round_trip(self, dims, data):
        bits = data.draw(arrays(np.uint64, math.prod(dims), elements=st.integers(0, 2**64 - 1)))
        t = Tensor(dims, bits.view(np.float64))
        back = sio.decode_tensor(sio.encode_tensor(t))
        assert back.dims == dims and same_bits(back.data, t.data)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_corrupted_bytes_decode_or_raise_format_error(self, data):
        ds = Dataset((2, 2), np.arange(8.0).reshape(2, 4), [1.0, -1.0])
        buf = bytearray(sio.encode_dataset(ds))
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(buf) - 1))
            buf[at] = data.draw(st.integers(0, 255))
        cut = data.draw(st.integers(0, len(buf) + 3))
        mutated = bytes(buf[:cut]) + bytes(max(0, cut - len(buf)))
        try:
            back = sio.decode_dataset(mutated)
        except FormatError:
            return
        assert sio.encode_dataset(back) == mutated

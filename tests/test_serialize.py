import io
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from muown.serialize import MAGIC, atomic_open, read_record, write_record


def test_round_trip(tmp_path, rng):
    arrays = [rng.standard_normal((3, 4)), rng.standard_normal((1, 1)),
              rng.standard_normal((5, 2))]
    path = tmp_path / "m.mwn1"
    with open(path, "wb") as fh:
        for a in arrays:
            write_record(fh, a)
    with open(path, "rb") as fh:
        back = [read_record(fh) for _ in arrays]
        assert fh.read() == b""
    for a, b in zip(arrays, back):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_wire_format_layout():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    buf = io.BytesIO()
    write_record(buf, a)
    raw = buf.getvalue()
    assert raw[:4] == MAGIC == b"MWN1"
    assert struct.unpack("<QQ", raw[4:20]) == (2, 2)
    assert struct.unpack("<4d", raw[20:]) == (1.0, 2.0, 3.0, 4.0)  # row-major


def test_vector_written_as_column():
    v = np.array([1.0, -2.0, 3.0])
    buf = io.BytesIO()
    write_record(buf, v)
    buf.seek(0)
    back = read_record(buf)
    assert back.shape == (3, 1)
    assert np.array_equal(back.ravel(), v)


def test_bad_magic():
    with pytest.raises(ValueError, match="magic"):
        read_record(io.BytesIO(b"XXXX" + b"\0" * 16))


def test_truncated_record():
    buf = io.BytesIO()
    write_record(buf, np.ones((2, 2)))
    with pytest.raises(ValueError, match="truncated"):
        read_record(io.BytesIO(buf.getvalue()[:-8]))


def test_record_count_check(rng):
    # reading one record more than the file holds is a ValueError, not an empty matrix
    buf = io.BytesIO()
    write_record(buf, rng.standard_normal((2, 2)))
    buf.seek(0)
    read_record(buf)
    with pytest.raises(ValueError, match="magic"):
        read_record(buf)


def test_truncated_header():
    with pytest.raises(ValueError, match="truncated"):
        read_record(io.BytesIO(MAGIC + struct.pack("<QQ", 2, 2)[:10]))


def test_oversized_header_is_a_value_error():
    raw = MAGIC + struct.pack("<QQ", 2**62, 1) + b"\0" * 8
    with pytest.raises(ValueError, match="truncated"):
        read_record(io.BytesIO(raw))


@pytest.mark.parametrize("rows, cols", [(2**62, 2**62), (2**64 - 1, 0), (2**62, 0)])
def test_oversized_header_from_file(tmp_path, rows, cols):
    path = tmp_path / "big.mwn1"
    path.write_bytes(MAGIC + struct.pack("<QQ", rows, cols))
    with open(path, "rb") as fh, pytest.raises(ValueError):
        read_record(fh)


def _record_bytes(a) -> bytes:
    buf = io.BytesIO()
    write_record(buf, a)
    return buf.getvalue()


_records = arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4))).map(
    _record_bytes)
_sizes = st.integers(0, 2**64 - 1) | st.sampled_from(
    [0, 1, 2, 2**31, 2**32, 2**61, 2**62, 2**63 - 1, 2**63, 2**64 - 1])


@st.composite
def _truncated(draw):
    raw = draw(_records)
    return raw[:draw(st.integers(0, len(raw)))]


@st.composite
def _flipped(draw):
    raw = bytearray(draw(_records))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(raw) - 1))
        raw[i] ^= draw(st.integers(1, 255))
    return bytes(raw)


@settings(max_examples=500, deadline=None)
@given(raw=st.binary(max_size=64)
       | st.binary(max_size=48).map(MAGIC.__add__)
       | st.tuples(_sizes, _sizes, st.binary(max_size=64)).map(
           lambda t: MAGIC + struct.pack("<QQ", t[0], t[1]) + t[2])
       | _truncated() | _flipped())
def test_read_record_on_any_bytes_is_an_array_or_a_value_error(raw):
    # random bytes, any header, truncations and byte flips of valid records
    try:
        out = read_record(io.BytesIO(raw))
    except ValueError:
        return
    assert out.dtype == np.float64 and out.ndim == 2
    assert 20 + 8 * out.size <= len(raw)


def test_atomic_open_keeps_the_old_bytes_when_the_block_raises(tmp_path):
    path = tmp_path / "target.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_open(path) as fh:
            fh.write(b"new, cut short")
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["target.bin"]  # no .tmp<pid> file left

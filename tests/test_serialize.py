import io
import struct

import numpy as np
import pytest

from muown.serialize import MAGIC, read_record, write_record


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

import io
import struct

import numpy as np
import pytest

from muown.serialize import MAGIC, load_matrices, read_record, save_matrices, write_record


def test_round_trip(tmp_path, rng):
    arrays = [rng.standard_normal((3, 4)), rng.standard_normal((1, 1)),
              rng.standard_normal((5, 2))]
    path = tmp_path / "m.mwn1"
    save_matrices(path, arrays)
    back = load_matrices(path)
    assert len(back) == 3
    for a, b in zip(arrays, back):
        assert a.tobytes() == b.tobytes()


def test_wire_format_layout():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    buf = io.BytesIO()
    write_record(buf, a)
    raw = buf.getvalue()
    assert raw[:4] == MAGIC == b"MWN1"
    assert struct.unpack("<QQ", raw[4:20]) == (2, 2)
    assert struct.unpack("<4d", raw[20:]) == (1.0, 2.0, 3.0, 4.0)  # row-major


def test_vector_written_as_column(tmp_path):
    v = np.array([1.0, -2.0, 3.0])
    path = tmp_path / "v.mwn1"
    save_matrices(path, [v])
    (back,) = load_matrices(path)
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


def test_record_count_check(tmp_path, rng):
    path = tmp_path / "m.mwn1"
    save_matrices(path, [rng.standard_normal((2, 2))])
    with pytest.raises(ValueError, match="expected 3"):
        load_matrices(path, count=3)


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
    with pytest.raises(ValueError):
        load_matrices(path)

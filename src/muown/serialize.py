"""MWN1 flat binary matrix format.

One record is: magic b"MWN1", then rows and cols as 64-bit little-endian
unsigned integers, then rows*cols IEEE-754 doubles, little-endian, row-major.
Files may hold several consecutive records; vectors are stored as len x 1
records and reshaped back by whoever owns the metadata (a checkpoint's
manifest records each tensor's ndim).
"""

from __future__ import annotations

import contextlib
import os
import struct
from typing import BinaryIO

import numpy as np

MAGIC = b"MWN1"
_HEADER = struct.Struct("<QQ")
_READ_CHUNK = 1 << 24


def write_record(fh: BinaryIO, a: np.ndarray) -> int:
    """Append one matrix record (1-D input as len x 1); return its size in bytes."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError(f"MWN1 stores 2-D matrices, got shape {a.shape}")
    fh.write(MAGIC)
    fh.write(_HEADER.pack(a.shape[0], a.shape[1]))
    payload = np.ascontiguousarray(a, dtype="<f8").tobytes()
    fh.write(payload)
    return len(MAGIC) + _HEADER.size + len(payload)


@contextlib.contextmanager
def atomic_open(path, mode: str = "wb"):
    """Write ``path`` through a temporary file beside it.

    The temporary file replaces ``path`` in one ``os.replace`` when the block
    exits cleanly and is removed when it raises, so ``path`` holds either its
    old content or the complete new one, never a partial file.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _read_exact(fh: BinaryIO, size: int) -> bytes:
    """Read ``size`` bytes or raise ValueError, in bounded reads.

    A header may claim far more bytes than the file holds, so the read never
    asks for more than ``_READ_CHUNK`` at a time.
    """
    parts = []
    while size > 0:
        part = fh.read(min(size, _READ_CHUNK))
        if not part:
            raise ValueError("truncated MWN1 record")
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def read_record(fh: BinaryIO) -> np.ndarray:
    """Read one record; any malformed or truncated record raises ValueError."""
    magic = fh.read(4)
    if magic != MAGIC:
        raise ValueError(f"bad MWN1 magic: {magic!r}")
    m, n = _HEADER.unpack(_read_exact(fh, _HEADER.size))
    count = m * n
    raw = _read_exact(fh, 8 * count)
    return np.frombuffer(raw, dtype="<f8", count=count).astype(np.float64).reshape(m, n)


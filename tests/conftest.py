import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def orthonormal_rows(rng, m: int, n: int) -> np.ndarray:
    """m <= n matrix with exactly orthonormal rows (QR of a gaussian)."""
    assert m <= n
    q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    return q.T.copy()


def matrix_with_condition(rng, m: int, n: int, cond: float) -> np.ndarray:
    """Random matrix with prescribed condition number and log-spread spectrum."""
    k = min(m, n)
    sig = np.sort(10.0 ** rng.uniform(-np.log10(cond), 0.0, size=k))[::-1]
    sig[0] = 1.0
    if k > 1:
        sig[-1] = 1.0 / cond
    u, _ = np.linalg.qr(rng.standard_normal((m, k)))
    v, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return (u * sig) @ v.T


def write_record_failing_after(real, n: int):
    """A ``write_record`` that writes ``n`` records, then fails part way through the next."""
    calls = []

    def write(fh, a):
        calls.append(1)
        if len(calls) > n:
            fh.write(b"MWN1")
            raise OSError("disk full")
        return real(fh, a)

    return write

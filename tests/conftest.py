from dataclasses import replace
from typing import Optional

import numpy as np
import pytest

from muown.linalg import as_matrix
from muown.models import Batch, ModelSpec, ParamSet, loss_and_grad


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


# Reference helpers the package itself does not need: tests check the package
# against them.


def proj_radial(a, x) -> np.ndarray:
    """Remove from each row of ``a`` its component along the matching row of ``x``.

    Returns a - Diag(diag(a x^T)) x. When the rows of ``x`` are unit norm this
    is the per-row orthogonal projection, and the output rows are orthogonal
    to the corresponding rows of ``x``.
    """
    a = as_matrix(a)
    x = as_matrix(x)
    if a.shape != x.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {x.shape}")
    inner = (a * x).sum(axis=1)
    return a - inner[:, None] * x


def frobenius_norm(a) -> float:
    a = as_matrix(a)
    return float(np.sqrt((a * a).sum()))


def with_value(params: ParamSet, name: str, value: np.ndarray) -> ParamSet:
    out = []
    hit = False
    for p in params:
        if p.name == name:
            if value.shape != p.value.shape:
                raise ValueError(
                    f"shape {value.shape} != {p.value.shape} for param {name!r}"
                )
            out.append(replace(p, value=value))
            hit = True
        else:
            out.append(p)
    if not hit:
        raise KeyError(name)
    return ParamSet(out)


def finite_difference_grad(spec: ModelSpec, params: ParamSet, batch: Optional[Batch],
                           h: float):
    """Central differences for every coordinate; O(h^2) accurate."""
    if h <= 0:
        raise ValueError("h must be positive")
    grads = []
    for p in params:
        flat = p.value.ravel().copy()
        out = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_and_grad(spec, with_value(params, p.name, flat.reshape(p.value.shape)), batch)
            flat[i] = orig - h
            lm, _ = loss_and_grad(spec, with_value(params, p.name, flat.reshape(p.value.shape)), batch)
            flat[i] = orig
            out[i] = (lp - lm) / (2.0 * h)
        grads.append(out.reshape(p.value.shape))
    return grads

"""Dense float64 linear algebra: row norms, SVD, nuclear and l1 norms.

Matrices are 2-D float64 ndarrays, vectors 1-D; every function here is pure
and never mutates its arguments. Reductions use numpy's (deterministic)
pairwise order, which is what makes the replicated-vs-sharded bitwise
equivalence checks elsewhere in the package meaningful.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def as_vector(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {a.shape}")
    return a


def check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{what} contains NaN/Inf")
    return arr


def row_norms(a) -> np.ndarray:
    """Euclidean norm of each row; zero rows yield 0."""
    a = as_matrix(a)
    return row_norms_into(a, np.empty_like(a))


def row_norms_into(a, scratch) -> np.ndarray:
    """``row_norms(a)`` with the squares written into ``scratch``, an array
    shaped and laid out like ``a`` (the row sums' order depends on it)."""
    return np.sqrt(np.multiply(a, a, out=scratch).sum(axis=1))


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD: returns (U, sigma, V) with a = U @ Diag(sigma) @ V.T."""
    a = as_matrix(a)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    return u, s, vt.T


def singular_values(a) -> np.ndarray:
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def nuclear_norm(a) -> float:
    return float(np.sum(singular_values(a)))


def vec_l1(v) -> float:
    return float(np.sum(np.abs(as_vector(v))))

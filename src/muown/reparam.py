"""Row-wise weight-normalization reparameterization and its gradient transforms.

An effective weight ``W`` with nonzero rows factors as
``W = Diag(g / ||R||_row) @ R``: ``g`` carries the (signed) row magnitudes,
``R`` the direction, and ``D = Diag(1/||R||_row) @ R`` the row-normalized
direction. The transforms below turn a raw gradient ``dW`` into the exact
gradients with respect to ``g`` and ``R`` under this parameterization:

    grad_g = diag(dW @ D^T)                (per-row radial component)
    grad_R = Diag(g/r) @ Proj_D(dW)        (per-row tangential component)

``grad_R`` rows are orthogonal to the matching rows of ``D`` by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ZeroRowError
from .linalg import as_matrix, as_vector, check_finite, row_norms

# Rows at or below this norm are rejected outright: the decomposition is
# undefined for zero rows and silent regularization would mask caller bugs.
EPS_ROW = 1e-30


def check_rows_nonzero(norms: np.ndarray) -> np.ndarray:
    """Return ``norms`` unchanged, or raise ZeroRowError naming the first row
    whose magnitude is at or below ``EPS_ROW``."""
    bad = np.abs(norms) <= EPS_ROW
    if bad.any():
        i = int(np.argmax(bad))
        raise ZeroRowError(i, float(norms[i]))
    return norms


@dataclass(frozen=True)
class ReparamView:
    """One layer's decomposition: magnitudes g, row norms r, carrier R, unit-row D.

    Built by ``init_view`` or ``view_from_state``, which both reject zero g and
    r entries, so neither ``D`` nor ``split`` checks them again."""

    g: np.ndarray
    r: np.ndarray
    R: np.ndarray

    @cached_property
    def D(self) -> np.ndarray:
        """Diag(1/r) @ R, made on first use: a fresh optimizer state needs none."""
        return self.R / self.r[:, None]

    def split(self, grad_w) -> tuple[np.ndarray, np.ndarray]:
        """A raw gradient as ``(grad_g, grad_R)``, from one row-sum pass."""
        grad_w = as_matrix(grad_w)
        gg = grad_g(grad_w, self.D)
        return gg, _tangent(grad_w, gg, self.g, self.r, self.D)


def init_view(w) -> ReparamView:
    """Decompose an effective weight, starting from exactly that weight.

    Sets R = W and g = r = ||W||_row, which makes g/r an exact 1.0 per row,
    so ``recompose`` reproduces W bitwise at initialization.
    """
    w = as_matrix(w)
    r = check_rows_nonzero(row_norms(w))
    return ReparamView(g=r.copy(), r=r, R=w.copy())


def view_from_state(w, g, r) -> ReparamView:
    """Rebuild the (R, D) view from stored state: R = Diag(r/g) @ W, D = Diag(1/r) @ R.

    ``r`` is the cached row-norm vector of the carrier (optimizer state), not
    recomputed from W: the carrier's scale is independent state. By the layer
    invariant ||W||_row = |g|, the reconstructed R has row norms r again.
    """
    w = as_matrix(w)
    g = as_vector(g)
    r = as_vector(r)
    check_rows_nonzero(g)
    check_rows_nonzero(r)
    return ReparamView(g=g, r=r, R=(r / g)[:, None] * w)


def recompose(g, big_r) -> tuple[np.ndarray, np.ndarray]:
    """(W, r): W = Diag(g / r) @ R with r = ||R||_row. NonFiniteError if an r is
    not finite (its row's squared norm overflows), then ZeroRowError."""
    g = as_vector(g)
    big_r = as_matrix(big_r)
    if g.shape[0] != big_r.shape[0]:
        raise ValueError(f"g length {g.shape[0]} != R rows {big_r.shape[0]}")
    r = check_rows_nonzero(check_finite(row_norms(big_r), "carrier row norms"))
    return (g / r)[:, None] * big_r, r


def grad_g(grad_w, d) -> np.ndarray:
    """Per-row inner product of the raw gradient with the unit directions."""
    grad_w = as_matrix(grad_w)
    d = as_matrix(d)
    if grad_w.shape != d.shape:
        raise ValueError(f"shape mismatch {grad_w.shape} vs {d.shape}")
    return (grad_w * d).sum(axis=1)


def grad_R(grad_w, g, r, d) -> np.ndarray:
    """Direction gradient Diag(g/r) @ Proj_D(grad_w); rows orthogonal to D rows."""
    g = as_vector(g)
    r = as_vector(r)
    check_rows_nonzero(r)
    if g.shape != r.shape:
        raise ValueError("g and r must have equal length")
    grad_w, d = as_matrix(grad_w), as_matrix(d)
    return _tangent(grad_w, grad_g(grad_w, d), g, r, d)


def _tangent(grad_w, gg, g, r, d) -> np.ndarray:
    """Diag(g/r) @ (grad_w - Diag(gg) @ d): grad_R, given gg = grad_g(grad_w, d)."""
    return (g / r)[:, None] * (grad_w - gg[:, None] * d)

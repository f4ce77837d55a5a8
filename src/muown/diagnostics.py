"""Measurement machinery: spectral-norm decomposition, effective rank,
mixed dual norm, norm-equivalence constants, and gradient-noise estimators.

The central identity: for a matrix with nonzero rows, writing g for the row
norms, D for the row-normalized matrix, C = D D^T, p = |g| / ||g||_inf and
P = Diag(p),

    ||W||_S_inf^2 = ||g||_inf^2 * lambda_max(P C P).

The left factor is pure row scale; the right factor ("coherence") measures
weighted alignment of the unit rows, is always >= 1, and equals 1 exactly
when the non-negligible rows are orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    as_matrix,
    as_vector,
    nuclear_norm,
    row_norms,
    singular_values,
    vec_l1,
)
from .reparam import ReparamView, check_rows_nonzero


@dataclass(frozen=True)
class DecompReport:
    rowscale_sq: float        # ||g||_inf^2
    coherence: float          # lambda_max(P C P)
    spectral_sq_direct: float # ||W||^2 straight from the SVD
    residual: float           # relative gap between the two sides


@dataclass(frozen=True)
class NoiseReport:
    sigma_W: float
    sigma_g: float
    sigma_R: float
    zeta_W: float
    zeta_g: float
    zeta_R: float
    muon_coeff: float   # zeta_W * sigma_W
    muown_coeff: float  # zeta_g * sigma_g + zeta_R * sigma_R


def spectral_decomposition(w, g=None, sigma=None) -> DecompReport:
    """Split ||W||^2 into the row-scale and coherence factors.

    ``g`` defaults to the row norms of ``w``; the (possibly signed) magnitude
    vector of an optimizer state gives the same factors. ``sigma``, the
    singular values of ``w`` (descending) when the caller already has them,
    saves the SVD of ``w``.
    """
    w = as_matrix(w)
    if g is None:
        g = row_norms(w)
    else:
        g = as_vector(g)
        if g.shape[0] != w.shape[0]:
            raise ValueError(f"g length {g.shape[0]} != row count {w.shape[0]}")
    check_rows_nonzero(g)
    d = w / g[:, None]
    absg = np.abs(g)
    ginf = float(np.max(absg))
    p = absg / ginf
    # lambda_max(P C P) computed as the squared top singular value of P D:
    # better conditioned than forming the Gram product, identical in value.
    coherence = float(singular_values(p[:, None] * d)[0] ** 2)
    if sigma is None:
        sigma = singular_values(w)
    direct = float(sigma[0] ** 2)
    rowscale_sq = ginf * ginf
    residual = abs(rowscale_sq * coherence - direct) / direct
    return DecompReport(
        rowscale_sq=rowscale_sq,
        coherence=coherence,
        spectral_sq_direct=direct,
        residual=residual,
    )


def effective_rank(sigma) -> tuple[float, float]:
    """Exponential of the entropy of the normalized spectrum.

    Returns (erank, erank / len(sigma)); the convention 0*log(0) = 0 makes
    rank-1 spectra give exactly 1. Raises on an all-zero spectrum.
    """
    sigma = as_vector(sigma)
    if np.any(sigma < 0):
        raise ValueError("singular values must be nonnegative")
    total = float(np.sum(sigma))
    if total == 0.0:
        raise ValueError("effective rank is undefined for an all-zero spectrum")
    p = sigma / total
    nz = p[p > 0]
    erank = float(np.exp(-np.sum(nz * np.log(nz))))
    return erank, erank / sigma.shape[0]


def dual_norm(gg, gr) -> float:
    """||g||_1 + nuclear(R): the dual of max(||g||_inf, ||R||_S_inf)."""
    return vec_l1(gg) + nuclear_norm(gr)


def zeta_constants(m: int, n: int) -> tuple[float, float, float]:
    """Norm-equivalence constants (zeta_W, zeta_g, zeta_R) for an m x n layer.

    zeta_W = zeta_R = sqrt(min(m, n)) bound nuclear/Frobenius; zeta_g =
    sqrt(m) bounds l1/l2 on the magnitude vector.
    """
    if m < 1 or n < 1:
        raise ValueError("dimensions must be >= 1")
    zmin = float(np.sqrt(min(m, n)))
    return zmin, float(np.sqrt(m)), zmin


def noise_coefficients(true_grad_w, sample_grad_ws, view: ReparamView) -> NoiseReport:
    """Gradient-noise magnitudes in the raw and reparameterized geometries.

    sigma_W^2 is the population mean of squared *nuclear-norm* deviations of
    the raw sample gradients from the true gradient; sigma_g and sigma_R
    apply the same recipe to the magnitude (l1) and direction (nuclear)
    transforms of the identical samples. The report also carries the
    zeta-weighted noise coefficients for the two optimizer families.
    """
    true_grad_w = as_matrix(true_grad_w)
    samples = [as_matrix(s) for s in sample_grad_ws]
    if len(samples) < 2:
        raise ValueError(f"need at least 2 sample gradients, got {len(samples)}")
    for s in samples:
        if s.shape != true_grad_w.shape:
            raise ValueError(f"sample shape {s.shape} != true shape {true_grad_w.shape}")
    m, n = true_grad_w.shape

    true_g, true_R = view.split(true_grad_w)

    sq_w = sq_g = sq_r = 0.0
    for s in samples:
        s_g, s_R = view.split(s)
        sq_w += nuclear_norm(true_grad_w - s) ** 2
        sq_g += vec_l1(true_g - s_g) ** 2
        sq_r += nuclear_norm(true_R - s_R) ** 2
    k = len(samples)
    sigma_w = float(np.sqrt(sq_w / k))
    sigma_g = float(np.sqrt(sq_g / k))
    sigma_r = float(np.sqrt(sq_r / k))
    zeta_w, zeta_g, zeta_r = zeta_constants(m, n)
    return NoiseReport(
        sigma_W=sigma_w,
        sigma_g=sigma_g,
        sigma_R=sigma_r,
        zeta_W=zeta_w,
        zeta_g=zeta_g,
        zeta_R=zeta_r,
        muon_coeff=zeta_w * sigma_w,
        muown_coeff=zeta_g * sigma_g + zeta_r * sigma_r,
    )

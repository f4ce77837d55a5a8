"""Spectral-ball steepest-descent directions: Newton-Schulz and exact polar.

The linear minimization min <G, O> over the spectral-norm unit ball is solved
exactly by -U V^T (thin SVD factors of G). ``polar_exact`` returns the
positive factor U V^T and callers negate. ``newton_schulz`` approximates the
same factor with a quintic matrix iteration that never touches an SVD:

    X <- a X + b X (X^T X) + c X (X^T X)^2

applied to G prenormalized by its Frobenius norm, with the Gram product
always formed on the smaller side.

Two coefficient presets are provided. CLASSIC_COEFFS (15/8, -10/8, 3/8) is
the degree-5 Newton-Schulz polynomial for the matrix sign/polar problem: on
(0, 1] the scalar map is monotone with fixed point 1, so with enough steps
every singular value of the output is driven to 1 from below. It is the
default because its output is a genuine polar approximation at any condition
number (the acceptance suite checks singular values stay in a fixed band and
the dual pairing stays within 5% of exact, down to condition number 1e4).
AGGRESSIVE_COEFFS (3.4445, -4.7750, 2.0315) is the widely used 5-step tuning
that maximizes slope at zero; it is much cheaper but intentionally
non-convergent, and is exposed for experiments that want that behavior.

The iteration maps each singular value of G / ||G||_F through the same scalar
polynomial, so the aggressive band depends on the smallest one. Five steps
lift a value by at most a^5 ~ 483, and they leave every output singular
value in [0.68, 1.16] whenever sigma_min(G) >= 5e-3 ||G||_F ([0.682,
1.135] from 1e-2 up). Since ||G||_F <= sqrt(min(m, n)) sigma_max(G), a
condition number kappa with kappa * sqrt(min(m, n)) <= 200 is enough: a 6x8
matrix up to kappa = 80, or a 64x256 gaussian (kappa ~ 3). Below that floor
small singular values can stay far below the band: a square gaussian has
sigma_min(G) / ||G||_F ~ n^-1.5, and five steps gave output sigma in
[0.016, 1.20] at 256x256 and [3.4e-3, 1.20] at 1024x1024
(``np.random.default_rng(0)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError
from .linalg import as_matrix, svd

CLASSIC_COEFFS = (1.875, -1.25, 0.375)
AGGRESSIVE_COEFFS = (3.4445, -4.7750, 2.0315)

# 2**-511, the smallest norm whose square is a normal float: below it, or at
# inf, the sum of squares has underflowed or overflowed.
_NORM_MIN = float(np.sqrt(np.finfo(np.float64).tiny))


@dataclass(frozen=True)
class NSConfig:
    steps: int = 30
    coeffs: tuple[float, float, float] = CLASSIC_COEFFS

    def __post_init__(self):
        if not (isinstance(self.steps, (int, np.integer)) and self.steps >= 1):
            raise ValueError(f"steps must be an integer >= 1, got {self.steps!r}")
        if len(self.coeffs) != 3 or not all(np.isfinite(c) for c in self.coeffs):
            raise ValueError(f"coeffs must be a finite (a, b, c) triple, got {self.coeffs}")


DEFAULT_NS = NSConfig()


def newton_schulz(g, cfg: NSConfig = DEFAULT_NS, *, overwrite: bool = False) -> np.ndarray:
    """Approximate the polar factor of a nonzero matrix.

    Prenormalizes by the Frobenius norm (so the iteration starts with all
    singular values in (0, 1]) and iterates on the transposed problem when
    that keeps the Gram matrix on the smaller side. Raises NonFiniteError if
    the input is zero/non-finite or the iteration degenerates. The input is
    never written to unless the caller lends it with ``overwrite=True``: a
    writeable C- or F-contiguous float64 input is then prenormalized in
    place, becomes ``x`` and may hold the result (it does after an even
    number of steps); any other input is copied as without the permission.
    Either way the bits are the same.

    The iteration allocates nothing per step: it works on two m x n arrays,
    the prenormalized input ``x`` and ``y``, and two k x k work arrays
    (``gram``, ``poly``), all made once per call. A step writes ``poly @ x``
    into ``y``, scales ``x`` by ``a`` in place and adds it, and the two m x n
    arrays swap roles. It forms ``c * gram @ gram + b * gram`` and
    ``poly @ x + x * a``, whose sums equal the textbook order bit for bit
    (IEEE addition commutes). At desk sizes numpy's per-call overhead, not
    flops, sets the cost, so the loop trims it three ways without changing a
    bit. Each product is the ``ndarray.dot`` method with ``out=``, which skips
    the ``__array_function__`` dispatch of ``np.dot``. The transposed views
    ``x.T`` and ``y.T`` are made once per call, not once per product, and
    numpy still takes syrk for ``x x^T`` because the view shares ``x``'s
    buffer (gemm otherwise, as ``@`` does). The coefficients are 0-d float64
    arrays, so no scalar product converts a Python float. On a 2-CPU Xeon
    (OpenBLAS 0.3.31, numpy 2.4) a 6x6 ``p.dot(p, out=)`` took 0.55 us
    against 0.83 us for ``np.dot``, ``x.dot(xt, out=)`` 0.91 us against
    1.13 us with a fresh ``x.T``, and ``np.multiply(p, c, out=)`` 0.73 us
    against 1.18 us with a Python-float ``c``. The first step reads the
    prenormalized input in the layout the division gives it (F-ordered for a
    tall C-ordered input), as the textbook loop does, because BLAS may round
    ``poly @ x`` differently for the two layouts (it does at 100x37); from
    the second step on its array is reused through a C-ordered view, as
    ``out=`` needs.

    A finite input whose squared entries overflow or underflow (Frobenius
    norm inf, or below 2**-511) is first scaled by the power of two that
    brings its largest entry into [0.5, 1). That scaling is exact, so
    ``g * 2.0**k`` gives the bits of ``g`` for any ``k`` that keeps the
    entries normal, and every input whose squared norm is a normal float
    takes the unscaled path.
    """
    g = as_matrix(g)
    with np.errstate(over="ignore"):
        fro = float(np.sqrt((g * g).sum()))
        if not _NORM_MIN <= fro < np.inf:
            # exact unless entries fall below the normal range; a zero or
            # non-finite g stays as it is (frexp gives 0 for its exponent)
            g = np.ldexp(g, -np.frexp(np.abs(g).max(initial=0.0))[1])
            fro = float(np.sqrt((g * g).sum()))
    if not 0.0 < fro < np.inf:
        raise NonFiniteError("newton_schulz needs a nonzero finite matrix")
    transposed = g.shape[0] > g.shape[1]
    src = g.T if transposed else g
    # the same view either way, so the first step reads the layout it reads
    # without the permission
    flags = src.flags
    lent = overwrite and flags.writeable and flags.forc  # C- or F-contiguous
    x = np.divide(src, fro, out=src if lent else None)
    a, b, c = (np.array(v, dtype=np.float64) for v in cfg.coeffs)
    k = x.shape[0]
    gram = np.empty((k, k))
    poly = np.empty((k, k))
    y = np.empty(x.shape)
    # x's own buffer in C order: the first step's output goes to y, and from
    # then on the two buffers take turns
    spare = x if x.flags.c_contiguous else x.T.reshape(x.shape)
    x_t, y_t, spare_t = x.T, y.T, spare.T
    for _ in range(cfg.steps):
        x.dot(x_t, out=gram)
        gram.dot(gram, out=poly)
        poly *= c
        gram *= b
        poly += gram
        poly.dot(x, out=y)
        x *= a
        y += x
        x, x_t, y, y_t = y, y_t, spare, spare_t
        spare, spare_t = x, x_t
    if transposed:
        x = x.T
    if not np.isfinite(x).all():
        raise NonFiniteError("newton_schulz iteration produced NaN/Inf")
    return x


def polar_exact(g) -> np.ndarray:
    """U V^T from the thin SVD; <G, polar_exact(G)> equals the nuclear norm.

    Directions with zero singular value keep whatever completion the SVD
    returns (any choice is a valid subgradient selection).
    """
    u, _, v = svd(g)
    return u @ v.T


def descent_direction(g, backend: str = "polar", ns: NSConfig = DEFAULT_NS, *,
                      overwrite: bool = False) -> np.ndarray:
    """Unit spectral-ball minimizer of <g, .>, i.e. the negated (approximate) polar.

    An exactly zero input maps to the zero matrix in both backends: the
    minimizer set is the whole ball and zero is the fixpoint-preserving pick.
    The result is the backend's own array, negated in place. The input is
    never written to unless lent with ``overwrite=True``, which ``ns`` passes
    on to ``newton_schulz``: the result may then live in the input's buffer.
    """
    g = as_matrix(g)
    if not g.any():
        return np.zeros_like(g)
    if backend == "polar":
        x = polar_exact(g)
    elif backend == "ns":
        x = newton_schulz(g, ns, overwrite=overwrite)
    else:
        raise ValueError(f"unknown orthogonalization backend {backend!r}")
    return np.negative(x, out=x)

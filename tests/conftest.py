from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import pytest

from muown import optimizers
from muown.errors import NonFiniteError
from muown.linalg import as_matrix, as_vector, check_finite, row_norms, svd
from muown.models import Batch, ModelSpec, ParamSet, loss_and_grad
from muown.optimizers import (
    HyperParams,
    MuonState,
    MuownFixedState,
    MuownSignumState,
    MuownState,
    _grad_for,
    rms_match_scale,
)
from muown.orthogonalize import _NORM_MIN, DEFAULT_NS, NSConfig
from muown.reparam import check_rows_nonzero


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


@pytest.fixture
def pool_calls(monkeypatch) -> list:
    """The helpers submitted to the real step pool, counted per ``_pool()`` call."""
    calls, real = [], optimizers._pool

    class Counting:
        def submit(self, *job):
            calls[-1] += 1
            return real().submit(*job)

    def spy():
        calls.append(0)
        return Counting()

    monkeypatch.setattr(optimizers, "_pool", spy)
    return calls


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
    if value.shape != params[name].shape:
        raise ValueError(f"shape {value.shape} != {params[name].shape} for param {name!r}")
    return ParamSet({**params, name: value}.items())


def finite_difference_grad(spec: ModelSpec, params: ParamSet, batch: Optional[Batch],
                           h: float):
    """Central differences for every coordinate; O(h^2) accurate."""
    if h <= 0:
        raise ValueError("h must be positive")
    grads = []
    for name, value in params.items():
        flat = value.ravel().copy()
        out = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_and_grad(spec, with_value(params, name, flat.reshape(value.shape)), batch)
            flat[i] = orig - h
            lm, _ = loss_and_grad(spec, with_value(params, name, flat.reshape(value.shape)), batch)
            flat[i] = orig
            out[i] = (lp - lm) / (2.0 * h)
        grads.append(out.reshape(value.shape))
    return grads


# The step path as it was before the steps wrote into per-call buffers: one
# fresh array per operation. The in-place steps must give these states bit for
# bit. The step functions, ``_nesterov``, ``_adam`` and ``_recompose`` are
# verbatim, and so are the helpers below them, which bind them to this copy.


def _nesterov(M_prev, grad, shape, hp: HyperParams):
    """Muon's direction rule: (new momentum, RMS-scaled orthogonalized Nesterov step)."""
    M = hp.beta1 * M_prev + grad
    O = descent_direction(hp.beta1 * M + grad, hp.backend, hp.ns)
    scale = rms_match_scale(shape) if hp.rms_scale_on else 1.0
    return M, (scale * hp.eta) * O


def _adam(m, v, grad, t: int, hp: HyperParams):
    """Bias-corrected Adam moments at step ``t`` and the step they give."""
    m = hp.adam_beta1 * m + (1.0 - hp.adam_beta1) * grad
    v = hp.adam_beta2 * v + (1.0 - hp.adam_beta2) * (grad * grad)
    mhat = m / (1.0 - hp.adam_beta1 ** t)
    vhat = v / (1.0 - hp.adam_beta2 ** t)
    return m, v, hp.eta * mhat / (np.sqrt(vhat) + hp.adam_eps)


def _recompose(state, g, R, hp: HyperParams):
    """(W, g, r): ``recompose(g, R)`` minus the decoupled decay of the old W.

    With decay, g is refreshed to the new row norms so the |g| = ||W||_row
    invariant survives.
    """
    w_new, r = recompose(g, R)
    if hp.weight_decay != 0.0:
        w_new = w_new - (hp.eta * hp.weight_decay) * state.param
        g = check_rows_nonzero(check_finite(row_norms(w_new), "updated row norms"))
    return check_finite(w_new, "updated param"), g, r


def muown_step(state: MuownState, grad_w, hp: HyperParams) -> MuownState:
    """One step: orthogonalized momentum on the direction, Adam on the magnitudes.

    Order of operations: reconstruct the carrier, split the gradient, update
    the direction momentum and take the spectral-ball step (optionally scaled
    by 0.2*sqrt(max(m, n))), run bias-corrected Adam on g, recompute the
    carrier row norms, and recompose the effective weight.
    """
    grad_w = _grad_for(state, grad_w)
    view = view_from_state(state.param, state.g, state.r)
    gg, gR = view.split(grad_w)
    M, step = _nesterov(state.M, gR, state.param.shape, hp)
    t = state.t + 1
    m_g, v_g, delta = _adam(state.m_g, state.v_g, gg, t, hp)
    w_new, g, r = _recompose(state, state.g - delta, view.R + step, hp)
    return MuownState(param=w_new, g=g, r=r, M=M, m_g=m_g, v_g=v_g, t=t)


def muown_fixed_step(state: MuownFixedState, grad_w, hp: HyperParams) -> MuownFixedState:
    """Muown with row magnitudes frozen at initialization (g never changes)."""
    if hp.weight_decay != 0.0:
        raise ValueError("weight decay would unfreeze the row magnitudes; "
                         "muown_fixed requires weight_decay == 0")
    grad_w = _grad_for(state, grad_w)
    view = view_from_state(state.param, state.g, state.r)
    _, gR = view.split(grad_w)
    M, step = _nesterov(state.M, gR, state.param.shape, hp)
    w_new, g, r = _recompose(state, state.g, view.R + step, hp)
    return MuownFixedState(param=w_new, g=g, r=r, M=M, t=state.t + 1)


def muown_signum_step(state: MuownSignumState, grad_w, hp: HyperParams) -> MuownSignumState:
    """The sign-descent variant used by the convergence analysis.

    The first step (t = 0) takes both momentum buffers from its gradient, not
    from their zero initial values; the direction step has no Nesterov mixing
    and no RMS-matching factor; the magnitude step is g <- g - gamma * sgn(m)
    with sgn(0) = 0.
    """
    grad_w = _grad_for(state, grad_w)
    view = view_from_state(state.param, state.g, state.r)
    gg, gR = view.split(grad_w)
    M = hp.beta1 * (gR if state.t == 0 else state.M) + gR
    m = hp.beta1 * (gg if state.t == 0 else state.m) + gg
    R = view.R + hp.eta * descent_direction(M, hp.backend, hp.ns)
    gamma = hp.eta if hp.gamma is None else hp.gamma
    w_new, g, r = _recompose(state, state.g - gamma * np.sign(m), R, hp)
    return MuownSignumState(param=w_new, g=g, r=r, M=M, m=m, t=state.t + 1)


def muon_step(state: MuonState, grad_w, hp: HyperParams) -> MuonState:
    """Spectral steepest descent with simplified Nesterov momentum."""
    grad_w = _grad_for(state, grad_w)
    M, step = _nesterov(state.M, grad_w, state.param.shape, hp)
    w_new = state.param + step - (hp.eta * hp.weight_decay) * state.param
    return MuonState(param=check_finite(w_new, "updated param"), M=M, t=state.t + 1)


REFERENCE_STEPS = {"muown": muown_step, "muown_fixed": muown_fixed_step,
                   "muown_signum": muown_signum_step, "muon": muon_step}


@dataclass(frozen=True)
class ReparamView:
    g: np.ndarray
    r: np.ndarray
    R: np.ndarray

    @cached_property
    def D(self) -> np.ndarray:
        return self.R / self.r[:, None]

    def split(self, grad_w) -> tuple[np.ndarray, np.ndarray]:
        grad_w = as_matrix(grad_w)
        gg = grad_g(grad_w, self.D)
        return gg, _tangent(grad_w, gg, self.g, self.r, self.D)


def view_from_state(w, g, r) -> ReparamView:
    w = as_matrix(w)
    g = as_vector(g)
    r = as_vector(r)
    check_rows_nonzero(g)
    check_rows_nonzero(r)
    return ReparamView(g=g, r=r, R=(r / g)[:, None] * w)


def recompose(g, big_r) -> tuple[np.ndarray, np.ndarray]:
    g = as_vector(g)
    big_r = as_matrix(big_r)
    if g.shape[0] != big_r.shape[0]:
        raise ValueError(f"g length {g.shape[0]} != R rows {big_r.shape[0]}")
    r = check_rows_nonzero(check_finite(row_norms(big_r), "carrier row norms"))
    return (g / r)[:, None] * big_r, r


def grad_g(grad_w, d) -> np.ndarray:
    grad_w = as_matrix(grad_w)
    d = as_matrix(d)
    if grad_w.shape != d.shape:
        raise ValueError(f"shape mismatch {grad_w.shape} vs {d.shape}")
    return (grad_w * d).sum(axis=1)


def _tangent(grad_w, gg, g, r, d) -> np.ndarray:
    return (g / r)[:, None] * (grad_w - gg[:, None] * d)


def newton_schulz(g, cfg: NSConfig = DEFAULT_NS) -> np.ndarray:
    g = as_matrix(g)
    with np.errstate(over="ignore"):
        fro = float(np.sqrt((g * g).sum()))
        if not _NORM_MIN <= fro < np.inf:
            g = np.ldexp(g, -np.frexp(np.abs(g).max(initial=0.0))[1])
            fro = float(np.sqrt((g * g).sum()))
    if not 0.0 < fro < np.inf:
        raise NonFiniteError("newton_schulz needs a nonzero finite matrix")
    transposed = g.shape[0] > g.shape[1]
    src = np.divide(g.T if transposed else g, fro)
    x = src if src.flags.c_contiguous else np.empty(src.shape)
    a, b, c = (np.array(v, dtype=np.float64) for v in cfg.coeffs)
    k = x.shape[0]
    gram = np.empty((k, k))
    poly = np.empty((k, k))
    y = np.empty_like(x)
    src_t, x_t = src.T, x.T
    for _ in range(cfg.steps):
        src.dot(src_t, out=gram)
        gram.dot(gram, out=poly)
        poly *= c
        gram *= b
        poly += gram
        poly.dot(src, out=y)
        np.multiply(src, a, out=x)
        x += y
        src, src_t = x, x_t
    if transposed:
        x = x.T
    if not np.isfinite(x).all():
        raise NonFiniteError("newton_schulz iteration produced NaN/Inf")
    return x


def descent_direction(g, backend: str = "polar", ns: NSConfig = DEFAULT_NS) -> np.ndarray:
    g = as_matrix(g)
    if not g.any():
        return np.zeros_like(g)
    if backend == "polar":
        u, _, v = svd(g)
        return -(u @ v.T)
    if backend == "ns":
        return -newton_schulz(g, ns)
    raise ValueError(f"unknown orthogonalization backend {backend!r}")

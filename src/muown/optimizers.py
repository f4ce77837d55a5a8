"""Single-layer optimizer state machines and the multi-layer driver.

Six step kinds are provided:

* ``muown``        - direction momentum orthogonalized on the spectral ball
                     (simplified Nesterov mixing) plus a bias-corrected Adam
                     update on the row-magnitude vector; the effective weight
                     is recomposed every step.
* ``muown_fixed``  - same direction update, row magnitudes frozen at their
                     initial values (no magnitude states at all).
* ``muown_signum`` - the analysis-friendly variant: no Nesterov mixing, no
                     RMS-matching step scale, sign descent on the magnitudes
                     with its own stepsize ``gamma``, momenta taken from the
                     first gradient.
* ``muon``         - spectral steepest descent on the raw weight with
                     simplified Nesterov momentum and decoupled weight decay.
* ``adamw``        - textbook bias-corrected AdamW (used for 1-D parameters).
* ``signum``       - EMA momentum buffer + sign step + decoupled decay
                     (equals SignSGD at beta1 = 0).

The variants share one skeleton, so each step body holds only its magnitude
rule (Adam, frozen or sign) and its momentum initialization. The three
muown kinds start from ``init_view``'s (W, g, r). ``_grad_for`` checks every
kind's gradient; the muown kinds split it with ``ReparamView.split`` on the
view rebuilt and checked from their state; ``_nesterov`` is Muon's direction
step, used unchanged by ``muon``, ``muown`` and ``muown_fixed``; ``_adam`` is
the moment update of ``adamw`` and of muown's magnitudes; ``_recompose``
adds the decoupled decay to ``reparam.rebuild``, the in-place form of
``reparam.recompose`` and the muown kinds' rebuild.

Every step function is pure: it returns a fresh state and never mutates its
inputs, which is what makes per-layer execution order irrelevant: ``step_all``
may step heavy layers on several threads and still return the serial bits.

Memory contract. The arrays of a returned state are fresh: none shares
memory with another field, with the input state or with the gradient, and
none is written after the return. Scratch is per call, never kept on the
module or a state, since ``step_all`` runs steps on threads. A muown step
builds W in its own carrier R; the product buffer in which the split forms
grad_R then holds the Nesterov mix, which is lent to Newton-Schulz as its
``x``, so the step allocates R, the split's unit-row direction (dropped
after the split), that buffer, the new momentum, a transient ``beta1 * M``,
Newton-Schulz's second m x n array and the scaled step, which then takes
the squares of the new row norms. ``muon`` lends its fresh mix likewise. No
array ``descent_direction`` returned is written. Zero momenta come from
``np.zeros``: their calloc'd pages cost no memory until written, and a step
only reads them.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import os
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import StepAllError
from .linalg import as_matrix, check_finite, row_norms_into
from .orthogonalize import DEFAULT_NS, NSConfig, descent_direction
from .reparam import check_rows_nonzero, init_view, rebuild, view_from_state
from .serialize import atomic_open, read_record, write_record

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor


@dataclass(frozen=True)
class HyperParams:
    """Per-step hyperparameters; ``eta`` is the (possibly schedule-driven) rate."""

    eta: float
    weight_decay: float = 0.0
    beta1: float = 0.95
    adam_beta1: float = 0.9
    adam_beta2: float = 0.95
    adam_eps: float = 1e-8
    ns: NSConfig = field(default_factory=lambda: DEFAULT_NS)
    rms_scale_on: bool = True
    backend: str = "ns"
    gamma: Optional[float] = None  # magnitude stepsize for muown_signum; eta if None

    def __post_init__(self):
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {self.beta1}")
        if not 0.0 <= self.adam_beta1 < 1.0:
            raise ValueError(f"adam_beta1 must be in [0, 1), got {self.adam_beta1}")
        if not self.adam_beta1 < self.adam_beta2 < 1.0:
            raise ValueError(
                f"adam_beta2 must lie in (adam_beta1, 1), got {self.adam_beta2}"
            )
        if self.adam_eps <= 0:
            raise ValueError(f"adam_eps must be positive, got {self.adam_eps}")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError(f"gamma must be positive when given, got {self.gamma}")
        if self.backend not in ("polar", "ns"):
            raise ValueError(f"backend must be 'polar' or 'ns', got {self.backend!r}")


def rms_match_scale(shape) -> float:
    """The 0.2 * sqrt(max(m, n)) factor matching a typical Adam update's RMS norm."""
    m, n = shape
    return 0.2 * math.sqrt(max(m, n))


# --------------------------------------------------------------------------
# layer states


@dataclass(frozen=True)
class MuownState:
    param: np.ndarray  # effective weight W, the only model-visible tensor
    g: np.ndarray      # signed row magnitudes, |g| = ||W||_row
    r: np.ndarray      # cached row norms of the direction carrier R
    M: np.ndarray      # direction momentum
    m_g: np.ndarray    # Adam first moment of g
    v_g: np.ndarray    # Adam second moment of g
    t: int = 0


@dataclass(frozen=True)
class MuownFixedState:
    param: np.ndarray
    g: np.ndarray
    r: np.ndarray
    M: np.ndarray
    t: int = 0


@dataclass(frozen=True)
class MuownSignumState:
    param: np.ndarray
    g: np.ndarray
    r: np.ndarray
    M: np.ndarray  # direction momentum; the first step starts it from its gradient
    m: np.ndarray  # magnitude momentum; likewise
    t: int = 0


@dataclass(frozen=True)
class MuonState:
    param: np.ndarray
    M: np.ndarray
    t: int = 0


@dataclass(frozen=True)
class AdamWState:
    param: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int = 0


@dataclass(frozen=True)
class SignumState:
    param: np.ndarray
    m: np.ndarray
    t: int = 0


def init_muown(w) -> MuownState:
    v = init_view(w)
    return MuownState(param=v.R, g=v.g, r=v.r, M=np.zeros(v.R.shape),
                      m_g=np.zeros(v.g.shape), v_g=np.zeros(v.g.shape), t=0)


def init_muown_fixed(w) -> MuownFixedState:
    v = init_view(w)
    return MuownFixedState(param=v.R, g=v.g, r=v.r, M=np.zeros(v.R.shape), t=0)


def init_muown_signum(w) -> MuownSignumState:
    v = init_view(w)
    return MuownSignumState(param=v.R, g=v.g, r=v.r, M=np.zeros(v.R.shape),
                            m=np.zeros(v.g.shape))


def init_muon(w) -> MuonState:
    m = as_matrix(w)
    return MuonState(param=m.copy(), M=np.zeros(m.shape), t=0)


def init_adamw(p) -> AdamWState:
    p = np.asarray(p, dtype=np.float64)
    return AdamWState(param=p.copy(), m=np.zeros(p.shape), v=np.zeros(p.shape), t=0)


def init_signum(p) -> SignumState:
    p = np.asarray(p, dtype=np.float64)
    return SignumState(param=p.copy(), m=np.zeros(p.shape), t=0)


# --------------------------------------------------------------------------
# single-layer steps


def _grad_for(state, grad) -> np.ndarray:
    """The gradient as float64, checked finite and shaped like the parameter."""
    grad = check_finite(np.asarray(grad, dtype=np.float64), "gradient")
    if grad.shape != state.param.shape:
        raise ValueError(f"gradient shape {grad.shape} != param shape {state.param.shape}")
    return grad


def _nesterov(M_prev, grad, shape, hp: HyperParams, out=None):
    """Muon's direction rule: (new momentum, RMS-scaled orthogonalized Nesterov step).

    The mix ``beta1 * M + grad`` is built in ``out``, which may be ``grad``
    when the caller owns it, else fresh. The mix is dead once its direction
    is taken, so it is lent to Newton-Schulz, which prenormalizes in it. The
    step goes to a fresh array laid out like the mix, never over the
    direction: ``rebuild``'s row sums follow the step's layout, and the
    direction is the caller's to read after the step.
    """
    M = hp.beta1 * M_prev
    M += grad
    mix = np.add(hp.beta1 * M, grad, out=out)
    O = descent_direction(mix, hp.backend, hp.ns, overwrite=True)
    scale = rms_match_scale(shape) if hp.rms_scale_on else 1.0
    return M, np.multiply(scale * hp.eta, O, out=np.empty_like(mix))


def _adam(m, v, grad, t: int, hp: HyperParams):
    """Bias-corrected Adam moments at step ``t`` and the step they give."""
    m = hp.adam_beta1 * m + (1.0 - hp.adam_beta1) * grad
    v = hp.adam_beta2 * v + (1.0 - hp.adam_beta2) * (grad * grad)
    mhat = m / (1.0 - hp.adam_beta1 ** t)
    vhat = v / (1.0 - hp.adam_beta2 ** t)
    return m, v, hp.eta * mhat / (np.sqrt(vhat) + hp.adam_eps)


def _recompose(state, g, R, step, hp: HyperParams):
    """(W, g, r): ``recompose(g, R + step)`` minus the decoupled decay of the old W.

    ``step`` is added in place to ``R``, the caller's own carrier, and W is
    built over it; ``step``'s array, dead from then on, takes the squares and
    the decay term. With decay, g is refreshed to the new row norms so the
    |g| = ||W||_row invariant survives.
    """
    R += step
    w_new, r = rebuild(g, R, step)
    if hp.weight_decay != 0.0:
        w_new -= np.multiply(hp.eta * hp.weight_decay, state.param, out=step)
        g = check_rows_nonzero(check_finite(row_norms_into(w_new, step),
                                            "updated row norms"))
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
    M, step = _nesterov(state.M, gR, state.param.shape, hp, out=gR)
    t = state.t + 1
    m_g, v_g, delta = _adam(state.m_g, state.v_g, gg, t, hp)
    w_new, g, r = _recompose(state, state.g - delta, view.R, step, hp)
    return MuownState(param=w_new, g=g, r=r, M=M, m_g=m_g, v_g=v_g, t=t)


def muown_fixed_step(state: MuownFixedState, grad_w, hp: HyperParams) -> MuownFixedState:
    """Muown with row magnitudes frozen at initialization (g never changes)."""
    if hp.weight_decay != 0.0:
        raise ValueError("weight decay would unfreeze the row magnitudes; "
                         "muown_fixed requires weight_decay == 0")
    grad_w = _grad_for(state, grad_w)
    view = view_from_state(state.param, state.g, state.r)
    _, gR = view.split(grad_w)
    M, step = _nesterov(state.M, gR, state.param.shape, hp, out=gR)
    # g is copied so that no two states share an array
    w_new, g, r = _recompose(state, state.g.copy(), view.R, step, hp)
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
    M = hp.beta1 * (gR if state.t == 0 else state.M)
    M += gR
    m = hp.beta1 * (gg if state.t == 0 else state.m) + gg
    step = np.multiply(hp.eta, descent_direction(M, hp.backend, hp.ns), out=gR)
    gamma = hp.eta if hp.gamma is None else hp.gamma
    w_new, g, r = _recompose(state, state.g - gamma * np.sign(m), view.R, step, hp)
    return MuownSignumState(param=w_new, g=g, r=r, M=M, m=m, t=state.t + 1)


def muon_step(state: MuonState, grad_w, hp: HyperParams) -> MuonState:
    """Spectral steepest descent with simplified Nesterov momentum."""
    grad_w = _grad_for(state, grad_w)
    M, step = _nesterov(state.M, grad_w, state.param.shape, hp)
    w_new = state.param + step
    w_new -= np.multiply(hp.eta * hp.weight_decay, state.param, out=step)
    return MuonState(param=check_finite(w_new, "updated param"), M=M, t=state.t + 1)


def adamw_step(state: AdamWState, grad, hp: HyperParams) -> AdamWState:
    """Bias-corrected AdamW with decoupled weight decay; any parameter shape."""
    grad = _grad_for(state, grad)
    t = state.t + 1
    m, v, delta = _adam(state.m, state.v, grad, t, hp)
    p = state.param - delta - (hp.eta * hp.weight_decay) * state.param
    return AdamWState(param=check_finite(p, "updated param"), m=m, v=v, t=t)


def signum_step(state: SignumState, grad, hp: HyperParams) -> SignumState:
    """EMA momentum + sign step (SignSGD when beta1 = 0) + decoupled decay."""
    grad = _grad_for(state, grad)
    m = hp.beta1 * state.m + (1.0 - hp.beta1) * grad
    p = state.param - hp.eta * np.sign(m) - (hp.eta * hp.weight_decay) * state.param
    return SignumState(param=check_finite(p, "updated param"), m=m, t=state.t + 1)


# --------------------------------------------------------------------------
# multi-layer driver

# kind -> (state type, init, step); a state's field order is its checkpoint record order
_KINDS = {
    "muown": (MuownState, init_muown, muown_step),
    "muown_fixed": (MuownFixedState, init_muown_fixed, muown_fixed_step),
    "muown_signum": (MuownSignumState, init_muown_signum, muown_signum_step),
    "muon": (MuonState, init_muon, muon_step),
    "adamw": (AdamWState, init_adamw, adamw_step),
    "signum": (SignumState, init_signum, signum_step),
}
INIT_FNS = {kind: init for kind, (_, init, _) in _KINDS.items()}
STEP_FNS = {kind: step for kind, (_, _, step) in _KINDS.items()}


@dataclass(frozen=True)
class Layer:
    name: str
    kind: str
    state: object


def init_layers(named_params, matrix_kind: str = "muown") -> list[Layer]:
    """Route (name, array) pairs: 2-D params to ``matrix_kind``, the rest to
    signum when ``matrix_kind`` is signum and to adamw otherwise."""
    if matrix_kind not in INIT_FNS:
        raise ValueError(f"unknown optimizer kind {matrix_kind!r}")
    vector_kind = "signum" if matrix_kind == "signum" else "adamw"
    layers = []
    for name, arr in named_params:
        arr = np.asarray(arr, dtype=np.float64)
        kind = matrix_kind if arr.ndim == 2 else vector_kind
        layers.append(Layer(name=name, kind=kind, state=INIT_FNS[kind](arr)))
    return layers


def step_layer(layer: Layer, grad, hp: HyperParams) -> Layer:
    return Layer(layer.name, layer.kind, STEP_FNS[layer.kind](layer.state, grad, hp))


# A parameter of at least this many entries is heavy: enough BLAS work per step
# to pay for a hand-off to a pool thread.
HEAVY_SIZE = 1 << 14

_PID = os.getpid()  # the importing process, the only one with more than one worker


def _workers() -> int:
    """How many layer steps may run at once without oversubscribing the CPUs.

    Usable CPUs divided by the BLAS thread count, read as OpenBLAS reads it:
    the first positive ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``;
    with neither, BLAS uses every CPU and the answer is 1. It is 1 too in a
    forked process, which therefore neither pools nor forks.
    """
    if os.getpid() != _PID:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            return max(1, cpus // blas)
    return 1


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The step pool, made on first use; it starts a thread only when a
    submitted helper finds none idle. Only the importing process asks for it
    (``_workers``), so no forked copy of it is ever used."""
    # imported here: concurrent.futures adds ~0.6 MB to a process that never pools
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(thread_name_prefix="muown-step")


def _step_cost(layer: Layer) -> int:
    """Flops of one orthogonalization up to a constant: each Newton-Schulz
    product of an m x n matrix costs m * n * min(m, n); a vector step is linear."""
    p = layer.state.param
    return p.size * min(p.shape) if p.ndim == 2 else p.size


def _drain(jobs: deque, run) -> None:
    while True:
        try:
            i = jobs.popleft()
        except IndexError:
            return
        run(i)


def step_all(layers, grads, hp: HyperParams) -> list[Layer]:
    """Step every layer; failures are aggregated by index.

    With two or more heavy layers (``HEAVY_SIZE``) and more than one worker
    (``_workers``), the calling thread and up to ``workers - 1`` pool threads
    drain one job list, costliest step first (``_step_cost``), so the cheap
    steps fill in at the end. Every step is pure, so the result is bit for bit
    the serial loop's, in declaration order.
    """
    if len(grads) != len(layers):
        raise ValueError(f"{len(grads)} gradients for {len(layers)} layers")
    out: list[Layer | None] = [None] * len(layers)
    failures = []

    def run(i: int) -> None:
        try:
            out[i] = step_layer(layers[i], grads[i], hp)
        except Exception as exc:  # noqa: BLE001 - aggregated and re-raised
            failures.append((i, exc))

    heavy = sum(layer.state.param.size >= HEAVY_SIZE for layer in layers)
    threads = min(_workers(), heavy) - 1 if heavy >= 2 else 0
    if threads > 0:
        jobs = deque(sorted(range(len(layers)), key=lambda i: -_step_cost(layers[i])))
        pool = _pool()
        helpers = [pool.submit(_drain, jobs, run) for _ in range(threads)]
        _drain(jobs, run)
        for helper in helpers:
            helper.result()
    else:
        for i in range(len(layers)):
            run(i)
    if failures:
        raise StepAllError(sorted(failures, key=lambda f: f[0]))
    return out  # type: ignore[return-value]


# --------------------------------------------------------------------------
# checkpointing: every layer's records in one state.mwn1, named by manifest.json


def _digest(records: bytes, manifest: dict) -> str:
    """sha256 of the records, then of the manifest's hyperparameters and layers."""
    h = hashlib.sha256(records)
    h.update(json.dumps({"hyperparams": manifest["hyperparams"],
                         "layers": manifest["layers"]}, sort_keys=True).encode())
    return h.hexdigest()


def save_checkpoint(dirpath, layers, hp: HyperParams) -> None:
    """Write ``state.mwn1``, every layer's state tensors as records in field
    order, then ``manifest.json``, which names them and holds ``_digest``."""
    os.makedirs(dirpath, exist_ok=True)
    buf = io.BytesIO()
    specs = []
    for layer in layers:
        tensors = []
        for f in fields(layer.state):
            if f.name != "t":
                val = getattr(layer.state, f.name)
                write_record(buf, val)
                tensors.append([f.name, val.ndim])
        specs.append({"name": layer.name, "kind": layer.kind, "t": layer.state.t,
                      "tensors": tensors})
    records = buf.getvalue()
    manifest = {"hyperparams": asdict(hp), "layers": specs}
    manifest["sha256"] = _digest(records, manifest)
    with atomic_open(os.path.join(dirpath, "state.mwn1")) as fh:
        fh.write(records)
    with atomic_open(os.path.join(dirpath, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_checkpoint(dirpath) -> tuple[list[Layer], dict]:
    """(layers, hyperparameters dict) of a checkpoint; ValueError unless one
    ``save_checkpoint`` wrote both of its files whole."""
    with open(os.path.join(dirpath, "state.mwn1"), "rb") as fh:
        records = fh.read()
    try:
        with open(os.path.join(dirpath, "manifest.json")) as fh:
            manifest = json.load(fh)
        if _digest(records, manifest) != manifest["sha256"]:
            raise ValueError("state.mwn1 and the manifest do not match its sha256")
        buf = io.BytesIO(records)
        layers = []
        for spec in manifest["layers"]:
            values = {}
            for name, ndim in spec["tensors"]:
                rec = read_record(buf)
                values[name] = rec.ravel() if ndim == 1 else rec
            state = _KINDS[spec["kind"]][0](t=spec["t"], **values)
            layers.append(Layer(name=spec["name"], kind=spec["kind"], state=state))
        if buf.read(1):
            raise ValueError("bytes after the last record")
        return layers, manifest["hyperparams"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {dirpath} is torn or malformed: {exc!r}") from exc

"""Hand-differentiated toy objectives and deterministic synthetic data.

Three model kinds:

* ``quadratic``: 0.5 * ||W - W*||_F^2 over a single matrix parameter. The
  batch argument is ignored, so its gradient oracle is deterministic.
* ``logistic``: binary logistic regression with +-1 labels on a planted
  separator; stable log-sum-exp loss.
* ``mlp2``: two dense tanh layers with biases, squared error against a noisy
  teacher.

All pseudo-randomness (inits, datasets, epoch orders) flows through the
SplitMix64 stream in :mod:`muown.rng`, so identical seeds give bitwise
identical parameters and batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFiniteError
from .linalg import row_norms
from .rng import SplitMix64, derive_seed

# model kind -> the dimensions that ``init_params`` and ``synth_data`` read
MODEL_DIMS = {"quadratic": ("m", "n"), "logistic": ("features",),
              "mlp2": ("d_in", "hidden", "d_out")}

# Per-row rejection floor for inits, as a fraction of the expected row norm;
# keeps every initialized row safely nonzero.
_ROW_FLOOR_FRAC = 0.05


class ParamSet(dict):
    """A model's parameter arrays by name, in model order; names are unique."""

    def __init__(self, pairs):
        pairs = list(pairs)
        super().__init__(pairs)
        if len(self) != len(pairs):
            raise ValueError(f"duplicate parameter names in {[n for n, _ in pairs]}")

    def named_values(self):
        return list(self.items())


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.inputs).all() and np.isfinite(self.targets).all()):
            raise NonFiniteError("batch contains NaN/Inf")
        if self.inputs.shape[0] < 1:
            raise ValueError("batch size must be >= 1")


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    target: Optional[np.ndarray] = None  # quadratic anchor W*

    def __post_init__(self):
        if self.kind not in MODEL_DIMS:
            raise ValueError(f"unknown model kind {self.kind!r}")


def quadratic_spec(target) -> ModelSpec:
    """0.5||W - target||_F^2."""
    return ModelSpec("quadratic", np.asarray(target, dtype=np.float64))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _mlp2_forward(params, x: np.ndarray):
    """``(output, hidden)``; each layer is written into its own product's buffer,
    the same ufuncs in the same order as ``tanh(x w1ᵀ + b1)`` and ``h w2ᵀ + b2``."""
    w1, b1, w2, b2 = (params[k] for k in ("W1", "b1", "W2", "b2"))
    hidden = x.dot(w1.T)
    hidden += b1
    np.tanh(hidden, out=hidden)
    out = hidden.dot(w2.T)
    out += b2
    return out, hidden


def loss_and_grad(spec: ModelSpec, params, batch: Optional[Batch]):
    """Scalar loss and analytic gradients of a name -> array mapping, in its order."""
    if spec.kind == "quadratic":
        w = params["W"]
        diff = w - spec.target
        return float(0.5 * (diff * diff).sum()), [diff]

    if batch is None:
        raise ValueError(f"{spec.kind} models need a batch")
    x, y = batch.inputs, batch.targets

    if spec.kind == "logistic":
        z = x @ params["w"][0]  # w is 1 x d
        margin = -y * z
        loss = float(np.logaddexp(0.0, margin).mean())
        coeff = -y * _sigmoid(margin) / x.shape[0]
        return loss, [(coeff @ x)[None, :]]

    if spec.kind == "mlp2":
        pred, hidden = _mlp2_forward(params, x)
        resid = pred - y
        bsz = x.shape[0]
        loss = float(0.5 * (resid * resid).sum() / bsz)
        dpred = resid / bsz
        d_w2 = dpred.T.dot(hidden)
        d_b2 = dpred.sum(axis=0)
        dhid = dpred.dot(params["W2"]) * (1.0 - hidden * hidden)
        d_w1 = dhid.T.dot(x)
        d_b1 = dhid.sum(axis=0)
        grads = {"W1": d_w1, "b1": d_b1, "W2": d_w2, "b2": d_b2}
        return loss, [grads[k] for k in params]

    raise ValueError(f"unknown model kind {spec.kind!r}")


# --------------------------------------------------------------------------
# initialization and synthetic data


def _init_matrix(stream: SplitMix64, m: int, n: int) -> np.ndarray:
    """Uniform(-a, a) init with per-row rejection so no row is near zero.

    Rows are drawn in stream order, one block for the whole matrix, and each
    pass checks the norms of every row from row i on at once. The first
    rejected row is redrawn from the next n draws, which are the block's next
    row, so the rows below it shift up one and only the last row is drawn
    afresh: the stream is consumed exactly as by drawing and checking row by
    row.
    """
    a = 1.0 / np.sqrt(n)
    floor = _ROW_FLOOR_FRAC * a * np.sqrt(n)
    w = stream.uniform_array((m, n), -a, a)
    i = 0
    while True:
        low = row_norms(w[i:]) <= floor
        if not low.any():
            return w
        i += int(low.argmax())
        w[i:-1] = w[i + 1:]
        w[-1] = stream.uniform_array((n,), -a, a)


def init_params(kind: str, dims: dict, seed: int) -> ParamSet:
    stream = SplitMix64(derive_seed(seed, 0x1217))
    if kind == "quadratic":
        return ParamSet([("W", _init_matrix(stream, dims["m"], dims["n"]))])
    if kind == "logistic":
        return ParamSet([("w", _init_matrix(stream, 1, dims["features"]))])
    if kind == "mlp2":
        d_in, hidden, d_out = dims["d_in"], dims["hidden"], dims["d_out"]
        return ParamSet([
            ("W1", _init_matrix(stream, hidden, d_in)),
            ("b1", stream.uniform_array((hidden,), -0.1, 0.1)),
            ("W2", _init_matrix(stream, d_out, hidden)),
            ("b2", stream.uniform_array((d_out,), -0.1, 0.1)),
        ])
    raise ValueError(f"unknown model kind {kind!r}")


def synth_data(kind: str, dims: dict, seed: int, num_batches: int,
               batch_size: int) -> list[Batch]:
    """Deterministic dataset of equal-size batches from a named 64-bit seed."""
    if num_batches < 1 or batch_size < 1:
        raise ValueError("num_batches and batch_size must be >= 1")
    stream = SplitMix64(derive_seed(seed, 0xDA7A))
    total = num_batches * batch_size

    if kind == "quadratic":
        # Data-free objective; emit placeholder batches so drivers can cycle.
        return [Batch(np.zeros((1, 1)), np.zeros((1, 1))) for _ in range(num_batches)]
    if kind == "logistic":
        d = dims["features"]
        planted = stream.gaussian_array((d,)) / np.sqrt(d)
        x = stream.gaussian_array((total, d))
        noise = stream.gaussian_array((total,))
        y = np.where(x @ planted + 0.3 * noise >= 0.0, 1.0, -1.0)
    elif kind == "mlp2":
        teacher = init_params("mlp2", dims, derive_seed(seed, 0x7EAC))
        x = stream.gaussian_array((total, dims["d_in"]))
        clean, _ = _mlp2_forward(teacher, x)
        y = clean + 0.05 * stream.gaussian_array(clean.shape)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return [Batch(x[i * batch_size:(i + 1) * batch_size].copy(),
                  y[i * batch_size:(i + 1) * batch_size].copy()) for i in range(num_batches)]


def make_model(kind: str, dims: dict, seed: int, num_batches: int = 8,
               batch_size: int = 16):
    """Build (spec, initial params, dataset) for one experiment."""
    params = init_params(kind, dims, seed)
    batches = synth_data(kind, dims, seed, num_batches, batch_size)
    if kind == "quadratic":
        target = SplitMix64(derive_seed(seed, 0x7A26)).gaussian_array((dims["m"], dims["n"]))
        return quadratic_spec(target), params, batches
    return ModelSpec(kind), params, batches


def epoch_order(num_batches: int, seed: int, epoch: int) -> list[int]:
    """Without-replacement batch order for one epoch, fixed by (seed, epoch)."""
    if num_batches <= 1:
        return list(range(num_batches))  # the one order; no stream to draw
    return SplitMix64(derive_seed(seed, 0x0D0E, epoch)).permutation(num_batches)


def full_dataset_gradient(spec: ModelSpec, params, batches,
                          per_batch: Optional[list] = None):
    """Mean loss and gradients over equal-size batches (the 'true' oracle).
    Each batch's gradients are also appended to ``per_batch`` if given."""
    sizes = {b.inputs.shape[0] for b in batches}
    if len(sizes) > 1:
        raise ValueError("full-dataset gradient requires equal batch sizes")
    total_loss = 0.0
    acc = None
    for b in batches:
        loss, grads = loss_and_grad(spec, params, b)
        if per_batch is not None:
            per_batch.append(grads)
        total_loss += loss
        if acc is None:
            acc = [g.copy() for g in grads]
        else:
            for a, g in zip(acc, grads):
                a += g
    k = len(batches)
    return total_loss / k, [a / k for a in acc]

"""Hand-differentiated toy objectives and deterministic synthetic data.

Three model kinds:

* ``quadratic``: 0.5 * ||W - W*||_F^2 over a single matrix parameter. Exact
  smoothness constant 1 (identity Hessian) and known optimum 0; the batch
  argument is ignored, so its gradient oracle is deterministic.
* ``logistic``: binary logistic regression with +-1 labels on a planted
  separator; stable log-sum-exp loss. Smoothness is the analytic bound
  0.25 * lambda_max(X^T X) / N over the generating dataset.
* ``mlp2``: two dense tanh layers with biases, squared error against a noisy
  teacher. Smooth everywhere; no honest analytic constant, so none is set.

All pseudo-randomness (inits, datasets, epoch orders) flows through the
SplitMix64 stream in :mod:`muown.rng`, so identical seeds give bitwise
identical parameters and batches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import NonFiniteError
from .linalg import singular_values
from .rng import SplitMix64, derive_seed

MODEL_KINDS = ("quadratic", "logistic", "mlp2")

# Per-row rejection floor for inits, as a fraction of the expected row norm;
# keeps every initialized row safely nonzero.
_ROW_FLOOR_FRAC = 0.05


@dataclass(frozen=True)
class Param:
    name: str
    value: np.ndarray


class ParamSet:
    """Ordered collection of uniquely named parameters."""

    def __init__(self, params):
        params = tuple(params)
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names}")
        self.params = params

    def __iter__(self):
        return iter(self.params)

    def __len__(self):
        return len(self.params)

    def __getitem__(self, key):
        if isinstance(key, int):
            return self.params[key]
        for p in self.params:
            if p.name == key:
                return p
        raise KeyError(key)

    def named_values(self):
        return [(p.name, p.value) for p in self.params]

    def with_value(self, name: str, value: np.ndarray) -> "ParamSet":
        out = []
        hit = False
        for p in self.params:
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
    smoothness: Optional[float]  # exact for quadratic, bound/estimate otherwise
    optimum: Optional[float]
    target: Optional[np.ndarray] = None  # quadratic anchor W*

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "quadratic" and not (self.smoothness and self.smoothness > 0):
            raise ValueError("quadratic models carry an exact positive smoothness constant")


def quadratic_spec(target) -> ModelSpec:
    """0.5||W - target||_F^2; Hessian is the identity so L = 1 exactly."""
    target = np.asarray(target, dtype=np.float64)
    return ModelSpec(
        kind="quadratic",
        smoothness=1.0,
        optimum=0.0,
        target=target,
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _mlp2_forward(params: ParamSet, x: np.ndarray):
    w1, b1, w2, b2 = (params[k].value for k in ("W1", "b1", "W2", "b2"))
    hidden = np.tanh(x @ w1.T + b1)
    return hidden @ w2.T + b2, hidden


def loss_and_grad(spec: ModelSpec, params: ParamSet, batch: Optional[Batch]):
    """Scalar loss plus analytic gradients, aligned with the parameter order."""
    if spec.kind == "quadratic":
        w = params["W"].value
        diff = w - spec.target
        return float(0.5 * (diff * diff).sum()), [diff]

    if batch is None:
        raise ValueError(f"{spec.kind} models need a batch")
    x, y = batch.inputs, batch.targets

    if spec.kind == "logistic":
        w = params["w"].value  # 1 x d
        z = x @ w[0]
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
        w2 = params["W2"].value
        d_w2 = dpred.T @ hidden
        d_b2 = dpred.sum(axis=0)
        dhid = (dpred @ w2) * (1.0 - hidden * hidden)
        d_w1 = dhid.T @ x
        d_b1 = dhid.sum(axis=0)
        return loss, [d_w1, d_b1, d_w2, d_b2]

    raise ValueError(f"unknown model kind {spec.kind!r}")


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
            lp, _ = loss_and_grad(spec, params.with_value(p.name, flat.reshape(p.value.shape)), batch)
            flat[i] = orig - h
            lm, _ = loss_and_grad(spec, params.with_value(p.name, flat.reshape(p.value.shape)), batch)
            flat[i] = orig
            out[i] = (lp - lm) / (2.0 * h)
        grads.append(out.reshape(p.value.shape))
    return grads


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
        rest = w[i:]
        low = np.sqrt((rest * rest).sum(axis=1)) <= floor
        if not low.any():
            return w
        i += int(low.argmax())
        w[i:-1] = w[i + 1:]
        w[-1] = stream.uniform_array((n,), -a, a)


def init_params(kind: str, dims: dict, seed: int) -> ParamSet:
    stream = SplitMix64(derive_seed(seed, 0x1217))
    if kind == "quadratic":
        return ParamSet([Param("W", _init_matrix(stream, dims["m"], dims["n"]))])
    if kind == "logistic":
        return ParamSet([Param("w", _init_matrix(stream, 1, dims["features"]))])
    if kind == "mlp2":
        d_in, hidden, d_out = dims["d_in"], dims["hidden"], dims["d_out"]
        return ParamSet([
            Param("W1", _init_matrix(stream, hidden, d_in)),
            Param("b1", stream.uniform_array((hidden,), -0.1, 0.1)),
            Param("W2", _init_matrix(stream, d_out, hidden)),
            Param("b2", stream.uniform_array((d_out,), -0.1, 0.1)),
        ])
    raise ValueError(f"unknown model kind {kind!r}")


def synth_data(kind: str, dims: dict, seed: int, num_batches: int,
               batch_size: int) -> list[Batch]:
    """Deterministic dataset of equal-size batches from a named 64-bit seed."""
    if num_batches < 1 or batch_size < 1:
        raise ValueError("num_batches and batch_size must be >= 1")
    stream = SplitMix64(derive_seed(seed, 0xDA7A))
    total = num_batches * batch_size
    batches = []

    if kind == "quadratic":
        # Data-free objective; emit placeholder batches so drivers can cycle.
        return [Batch(np.zeros((1, 1)), np.zeros((1, 1))) for _ in range(num_batches)]

    if kind == "logistic":
        d = dims["features"]
        planted = stream.gaussian_array((d,)) / np.sqrt(d)
        x = stream.gaussian_array((total, d))
        noise = stream.gaussian_array((total,))
        y = np.where(x @ planted + 0.3 * noise >= 0.0, 1.0, -1.0)
        for i in range(num_batches):
            sl = slice(i * batch_size, (i + 1) * batch_size)
            batches.append(Batch(x[sl].copy(), y[sl].copy()))
        return batches

    if kind == "mlp2":
        teacher = init_params("mlp2", dims, derive_seed(seed, 0x7EAC))
        x = stream.gaussian_array((total, dims["d_in"]))
        clean, _ = _mlp2_forward(teacher, x)
        y = clean + 0.05 * stream.gaussian_array(clean.shape)
        for i in range(num_batches):
            sl = slice(i * batch_size, (i + 1) * batch_size)
            batches.append(Batch(x[sl].copy(), y[sl].copy()))
        return batches

    raise ValueError(f"unknown model kind {kind!r}")


def make_model(kind: str, dims: dict, seed: int, num_batches: int = 8,
               batch_size: int = 16):
    """Build (spec, initial params, dataset) for one experiment."""
    params = init_params(kind, dims, seed)
    batches = synth_data(kind, dims, seed, num_batches, batch_size)
    if kind == "quadratic":
        target_stream = SplitMix64(derive_seed(seed, 0x7A26))
        target = target_stream.gaussian_array((dims["m"], dims["n"]))
        spec = quadratic_spec(target)
    elif kind == "logistic":
        x_all = np.concatenate([b.inputs for b in batches], axis=0)
        lbound = 0.25 * float(singular_values(x_all)[0] ** 2) / x_all.shape[0]
        spec = ModelSpec(kind="logistic", smoothness=lbound, optimum=None)
    else:
        spec = ModelSpec(kind="mlp2", smoothness=None, optimum=None)
    return spec, params, batches


def epoch_order(num_batches: int, seed: int, epoch: int) -> list[int]:
    """Without-replacement batch order for one epoch, fixed by (seed, epoch)."""
    if num_batches <= 1:
        return list(range(num_batches))  # the one order; no stream to draw
    return SplitMix64(derive_seed(seed, 0x0D0E, epoch)).permutation(num_batches)


def full_dataset_gradient(spec: ModelSpec, params: ParamSet, batches):
    """Mean loss and gradients over equal-size batches (the 'true' oracle)."""
    sizes = {b.inputs.shape[0] for b in batches}
    if len(sizes) > 1:
        raise ValueError("full-dataset gradient requires equal batch sizes")
    total_loss = 0.0
    acc = None
    for b in batches:
        loss, grads = loss_and_grad(spec, params, b)
        total_loss += loss
        if acc is None:
            acc = [g.copy() for g in grads]
        else:
            for a, g in zip(acc, grads):
                a += g
    k = len(batches)
    return total_loss / k, [a / k for a in acc]

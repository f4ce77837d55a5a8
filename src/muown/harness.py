"""Experiment runner: presets, CSV/JSON logging, and claim checkers.

Every run is a pure function of (config, seed): model init, data, batch
order, and optimizer arithmetic all come from the deterministic streams in
:mod:`muown.rng`, so rerunning a preset reproduces its ``log.csv`` byte for
byte. Presets write three artifacts into the output directory: ``log.csv``
(per-step series, schema-versioned), ``summary.json``, and ``verdict.json``
(machine-readable pass/fail per assertion).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
import os
import pickle
import signal
import sys
import warnings
from dataclasses import astuple, dataclass, field, fields, replace
from typing import Callable, Iterator, Optional

import numpy as np

from . import models, optimizers
from .diagnostics import NoiseReport, dual_norm, noise_coefficients, spectral_decomposition
from .errors import ConfigError, NonFiniteError, StepAllError, ZeroRowError
from .linalg import row_norms, singular_values, vec_l1, nuclear_norm
from .models import Batch, ModelSpec, ParamSet, loss_and_grad
from .optimizers import (
    INIT_FNS,
    HyperParams,
    Layer,
    init_layers,
    save_checkpoint,
    step_all,
)
from .reparam import ReparamView, init_view, view_from_state
from .schedule import ScheduleSpec, eta_at

CSV_SCHEMA_LINE = "#schema=1"
DIVERGENCE_LOSS = 1e12

PRESETS = ("single", "drift", "rate-check", "noise-compare", "lr-sweep")

_DEFAULT_DIMS = {"d_in": 6, "hidden": 8, "d_out": 4}


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str = "single"
    seed: int = 0
    steps: int = 200
    log_every: int = 1
    checkpoint_every: int = 0
    model_kind: str = "mlp2"
    model_dims: dict = field(default_factory=lambda: dict(_DEFAULT_DIMS))
    num_batches: int = 8
    batch_size: int = 16
    optimizer_kind: str = "muown"
    hp: HyperParams = field(default_factory=lambda: HyperParams(eta=0.02))
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    rate_horizons: tuple[int, ...] = (100, 400, 1600)
    sweep_log2_min: int = -16
    sweep_log2_max: int = -5
    sweep_optimizers: tuple[str, ...] = ("muown", "muon", "adamw")
    noise_checkpoints: int = 4

    def __post_init__(self):
        _require(self.preset in PRESETS, "preset",
                 f"unknown preset {self.preset!r}; choose from {PRESETS}")
        # SplitMix64 keeps a seed's low 64 bits, so any other seed would alias one of these
        _require(0 <= self.seed < 2 ** 64, "seed", f"must lie in [0, 2**64), got {self.seed}")
        for name, low in (("steps", 1), ("log_every", 1), ("checkpoint_every", 0),
                          ("num_batches", 1), ("batch_size", 1), ("noise_checkpoints", 1)):
            value = getattr(self, name)
            _require(value >= low, name, f"must be >= {low}, got {value}")
        _require(self.preset != "noise-compare" or self.num_batches >= 2, "num_batches",
                 f"noise-compare needs >= 2 batches to measure noise, got {self.num_batches}")
        _require(self.model_kind in models.MODEL_DIMS, "model_kind",
                 f"unknown kind {self.model_kind!r}")
        _require(self.optimizer_kind in INIT_FNS, "optimizer_kind",
                 f"unknown kind {self.optimizer_kind!r}")
        for kind in self.sweep_optimizers:
            _require(kind in INIT_FNS, "sweep_optimizers", f"unknown kind {kind!r}")
        _require(self.hp.weight_decay == 0.0
                 or "muown_fixed" not in (self.optimizer_kind, *self.sweep_optimizers),
                 "hp.weight_decay", "must be 0 with muown_fixed, whose row magnitudes "
                 f"decay would unfreeze; got {self.hp.weight_decay}")
        for name in ("sweep_log2_min", "sweep_log2_max"):
            k = getattr(self, name)
            # exactly the k for which the grid rate 2.0 ** k is a positive finite float
            _require(-1074 <= k <= 1023, name, f"must lie in [-1074, 1023], got {k}")
        # the schedule rises, then falls, so its smallest rates are at its ends
        for name, peak in (("hp.eta", self.hp.eta), ("hp.gamma", self.hp.gamma),
                           ("sweep_log2_min", 2.0 ** self.sweep_log2_min)):
            for t in (0, self.steps - 1) if peak is not None else ():
                rate = eta_at(self.schedule, t, self.steps, peak)
                _require(rate > 0.0, name, f"its rate at step {t + 1} is {rate!r}, not > 0")
        _require(self.sweep_log2_max >= self.sweep_log2_min, "sweep_log2_max",
                 f"must be >= log2_min {self.sweep_log2_min}, got {self.sweep_log2_max}")
        _require(bool(self.rate_horizons) and min(self.rate_horizons) >= 1, "rate_horizons",
                 f"need one or more horizons >= 1, got {list(self.rate_horizons)}")
        required = models.MODEL_DIMS[self.model_kind]
        missing = [k for k in required if k not in self.model_dims]
        _require(not missing, "model_dims", f"missing {missing} for kind {self.model_kind!r}")
        for k, size in self.model_dims.items():
            _require(k in required, "model_dims", f"not a dimension of kind "
                     f"{self.model_kind!r}; expected {list(required)}", f".{k}")
            _require(size >= 1, "model_dims", f"must be >= 1, got {size}", f".{k}")


def _require(ok: bool, target: str, why: str, suffix: str = "") -> None:
    """Unless ``ok``, raise a ConfigError naming config field ``target`` by its JSON
    path, or by its own name if no config file holds it (the preset, the command's)."""
    if not ok:
        raise ConfigError(f"{_PATH_OF.get(target, target)}{suffix}: {why}")


# The config file schema: JSON leaf path -> (ExperimentConfig attribute path, JSON
# type). ``hp.ns.steps`` is ``cfg.hp.ns.steps``; an absent path keeps the default.
_SCHEMA = {
    "seed": ("seed", int),
    "steps": ("steps", int),
    "log_every": ("log_every", int),
    "checkpoint_every": ("checkpoint_every", int),
    "model.kind": ("model_kind", str),
    "model.dims": ("model_dims", dict),
    "model.num_batches": ("num_batches", int),
    "model.batch_size": ("batch_size", int),
    "optimizer.kind": ("optimizer_kind", str),
    "optimizer.eta": ("hp.eta", float),
    "optimizer.weight_decay": ("hp.weight_decay", float),
    "optimizer.beta1": ("hp.beta1", float),
    "optimizer.adam_beta1": ("hp.adam_beta1", float),
    "optimizer.adam_beta2": ("hp.adam_beta2", float),
    "optimizer.adam_eps": ("hp.adam_eps", float),
    "optimizer.gamma": ("hp.gamma", Optional[float]),
    "optimizer.backend": ("hp.backend", str),
    "optimizer.rms_scale_on": ("hp.rms_scale_on", bool),
    "optimizer.ns_steps": ("hp.ns.steps", int),
    "optimizer.ns_coeffs": ("hp.ns.coeffs", [float]),
    "schedule.warmup_frac": ("schedule.warmup_frac", float),
    "schedule.decay_frac": ("schedule.decay_frac", float),
    "schedule.floor": ("schedule.floor", float),
    "rate_check.horizons": ("rate_horizons", [int]),
    "lr_sweep.log2_min": ("sweep_log2_min", int),
    "lr_sweep.log2_max": ("sweep_log2_max", int),
    "lr_sweep.optimizers": ("sweep_optimizers", [str]),
    "noise.checkpoints": ("noise_checkpoints", int),
}
_PATH_OF = {target: path for path, (target, _) in _SCHEMA.items()}
_SECTIONS = {path.rpartition(".")[0] for path in _SCHEMA} - {""}

# Scalar JSON types: (accepts, description). A bool is not a number; an int is a float.
_SCALARS = {
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
            "a finite number"),
    str: (lambda v: type(v) is str, "a string"),
    bool: (lambda v: type(v) is bool, "true or false"),
}


def _check(path: str, value, kind):
    """``value`` as the config holds it, if it has JSON type ``kind``: a scalar type,
    ``[t]`` (a non-empty list of t, held as a tuple), ``dict`` (an object of integers)
    or ``Optional[float]`` (a float or null); else a ConfigError naming ``path``."""
    if kind == Optional[float]:
        return None if value is None else _check(path, value, float)
    if isinstance(kind, list):
        if type(value) is list and value:
            return tuple(_check(f"{path}[{i}]", v, kind[0]) for i, v in enumerate(value))
        what = "a non-empty list"
    elif kind is dict:
        if type(value) is dict:
            return {k: _check(f"{path}.{k}", v, int) for k, v in value.items()}
        what = "an object of integers"
    else:
        accepts, what = _SCALARS[kind]
        if accepts(value):
            return float(value) if kind is float else value
    raise ConfigError(f"{path}: expected {what}, got {value!r}")


def _leaves(node: dict, prefix: str = ""):
    """Yield ``(path, value)`` for each leaf of a config dict; reject a path that
    ``_SCHEMA`` does not list and a section that is not an object."""
    for key, value in node.items():
        path = f"{prefix}{key}"
        if not key:
            raise ConfigError(f"{prefix[:-1] or 'top level'}: a field with an empty name")
        if "." in key or (path not in _SCHEMA and path not in _SECTIONS):
            raise ConfigError(f"{path}: unknown config field")
        if path in _SCHEMA:
            yield path, value
        elif type(value) is not dict:
            raise ConfigError(f"{path}: expected an object, got {value!r}")
        else:
            yield from _leaves(value, path + ".")


def config_from_dict(raw: dict, preset: Optional[str] = None) -> ExperimentConfig:
    """Validate a nested config dict (the JSON file schema, ``_SCHEMA``) into a config
    of ``preset``, or of the default preset if None."""
    leaves = {_SCHEMA[path][0]: _check(path, value, _SCHEMA[path][1])
              for path, value in _leaves(raw)}
    if preset is not None:
        leaves["preset"] = preset
    # dims of the default kind merge over its defaults; another kind needs all of its own
    kind = leaves.get("model_kind", ExperimentConfig.model_kind)
    if "model_dims" in leaves and kind == ExperimentConfig.model_kind:
        leaves["model_dims"] = {**_DEFAULT_DIMS, **leaves["model_dims"]}
    return _replaced(ExperimentConfig(), "", leaves)


def _replaced(obj, prefix: str, leaves: dict):
    """``obj`` with each leaf under attribute path ``prefix`` replaced, nested objects
    rebuilt first. The error of a nested dataclass starts with the field it blames and
    is re-raised naming that field's JSON path; ExperimentConfig names its own."""
    kw = {}
    for target, value in leaves.items():
        if target.startswith(prefix):
            name, nested, _ = target[len(prefix):].partition(".")
            kw[name] = (_replaced(getattr(obj, name), f"{prefix}{name}.", leaves)
                        if nested else value)
    try:
        return replace(obj, **kw)
    except ValueError as exc:
        if not prefix:
            raise
        raise ConfigError(f"{_PATH_OF[prefix + str(exc).split()[0]]}: {exc}") from exc


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply ``--set dotted.key=json_value`` pairs onto the raw config dict."""
    out = json.loads(json.dumps(raw))  # deep copy, JSON types only
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key=value")
        key, _, text = item.partition("=")
        if "" in key.split("."):
            raise ConfigError(f"--set {item!r}: empty name in key {key!r}")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        except RecursionError as exc:
            raise ConfigError(f"--set {key}: value nested too deeply") from exc
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part} is not an object")
        node[parts[-1]] = value
    return out


# --------------------------------------------------------------------------
# single-run driver


@dataclass
class RunLog:
    columns: list[str]
    rows: list[list]
    summary: dict
    csv_path: Optional[str] = None


def _write_run(out_dir: Optional[str], columns: list[str], rows: list[list],
               summary: dict) -> Optional[str]:
    """Write ``log.csv`` and ``summary.json`` into ``out_dir`` if given; return the log path."""
    if not out_dir:
        return None
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "log.csv")
    with open(path, "w", newline="") as fh:
        fh.write(CSV_SCHEMA_LINE + "\n")
        csv.writer(fh, lineterminator="\n").writerows([columns, *rows])
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return path


def _view_of(state) -> ReparamView:
    """A matrix layer's decomposition: from its stored (g, r) when the optimizer
    keeps them, else the one that starts from its weight."""
    if hasattr(state, "g"):
        return view_from_state(state.param, state.g, state.r)
    return init_view(state.param)


# The per-step metrics of each matrix layer, in log.csv column order.
_LAYER_METRICS = ("spec_norm", "g_inf", "coherence", "grad_dual", "upd_norm")


def _layer_metrics(layer: Layer, grad: np.ndarray, prev_param: np.ndarray) -> dict:
    w = layer.state.param
    view = _view_of(layer.state)
    gg, gr = view.split(grad)
    sigma = singular_values(w)
    report = spectral_decomposition(w, g=view.g, sigma=sigma)
    return {
        "spec_norm": float(sigma[0]),
        "g_inf": float(np.max(np.abs(view.g))),
        "coherence": report.coherence,
        "grad_dual": dual_norm(gg, gr),
        "upd_norm": float(singular_values(w - prev_param)[0]),
    }


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None,
                   probe: Optional[Callable] = None) -> RunLog:
    """Train per the config; returns the log and optionally writes artifacts.

    ``probe(t, layers_before, layers_after, loss, grads)`` runs after every
    step when given; it must not mutate its arguments. A run that fails stops
    at the failing step and records it as ``summary["failure"]`` (see
    ``_run``) in place of the final loss.

    The steps are trained by ``_train`` in a ``_Child``: with two or more
    workers (``optimizers._workers``), a forked process trains ahead and sends
    each step as soon as it is trained. This process takes the steps in order
    and does each one's side effects itself: probe t, metrics row t (on
    logged steps), checkpoint t, then probe t + 1. A failed row stops the run
    at its step, and an error training step t + 1 is raised after row t and
    checkpoint t. Without the child the steps are trained here, in the same
    order, so the files written are the same at any worker count.
    """
    spec, params, batches = _make_model(cfg)
    layers = init_layers(params.named_values(), matrix_kind=cfg.optimizer_kind)
    matrix_layers = [l.name for l in layers if l.state.param.ndim == 2]
    columns = ["step", "eta", "loss"]
    for name in matrix_layers:
        columns += [f"{name}.{metric}" for metric in _LAYER_METRICS]
    rows: list[list] = []

    def on_step(t, eta_t, loss, grads, before, after, where):
        step = t + 1
        if probe is not None:
            probe(t, before, after, loss, grads)
        if step % cfg.log_every == 0 or step == cfg.steps:
            row = [step, float(eta_t), float(loss)]
            for layer, prev, grad in zip(after, before, grads):
                if layer.name in matrix_layers:
                    where[0] = layer.name
                    met = _layer_metrics(layer, grad, prev.state.param)
                    row += [met[metric] for metric in _LAYER_METRICS]
            rows.append(row)
        if out_dir and cfg.checkpoint_every and step % cfg.checkpoint_every == 0:
            save_checkpoint(os.path.join(out_dir, f"ckpt_{step:06d}"), after, cfg.hp)

    with _Child(functools.partial(_train, cfg, spec, layers, batches, cfg.hp)) as steps:
        layers, _, failure = _run(steps, layers, on_step)

    summary = {
        "preset": cfg.preset,
        "seed": cfg.seed,
        "steps": cfg.steps,
        "model_kind": cfg.model_kind,
        "optimizer_kind": cfg.optimizer_kind,
    }
    if failure:
        summary["failure"] = failure
    else:
        final_loss, _ = loss_and_grad(spec, _params_of(layers),
                                      _first_batch(batches, cfg.seed))
        summary["final_loss"] = float(final_loss)
        # The last step is always logged, so its row holds each final spec_norm.
        last = dict(zip(columns, rows[-1]))
        summary["layers"] = {
            layer.name: {"kind": layer.kind, "spec_norm": last.get(f"{layer.name}.spec_norm")}
            for layer in layers
        }
    return RunLog(columns=columns, rows=rows, summary=summary,
                  csv_path=_write_run(out_dir, columns, rows, summary))


def _train(cfg: ExperimentConfig, spec: ModelSpec, layers: list[Layer],
           batches: list[Batch], hp: HyperParams):
    """Yield ``(t, eta_t, loss, grads, layers)`` per step, ``layers`` as stepped.

    The one training loop of every preset: batches in one ``epoch_order`` per
    epoch, the schedule's rates scaled from ``hp.eta`` and a set ``hp.gamma``,
    loss and gradients at the current parameters, then ``step_all``, whose
    StepAllError ends the iteration before step ``t`` is yielded.
    """
    for t in range(cfg.steps):
        epoch, slot = divmod(t, len(batches))
        if slot == 0:
            order = models.epoch_order(len(batches), cfg.seed, epoch)
        eta_t = eta_at(cfg.schedule, t, cfg.steps, hp.eta)
        gamma_t = None if hp.gamma is None else eta_at(cfg.schedule, t, cfg.steps, hp.gamma)
        loss, grads = loss_and_grad(spec, _params_of(layers), batches[order[slot]])
        step_hp = hp if (eta_t, gamma_t) == (hp.eta, hp.gamma) else replace(
            hp, eta=eta_t, gamma=gamma_t)
        layers = step_all(layers, grads, step_hp)
        yield t, eta_t, loss, grads, layers


# What stops a run: a failed optimizer step, or a metric of a diverged layer.
_RUN_ERRORS = (StepAllError, NonFiniteError, ZeroRowError, np.linalg.LinAlgError,
               ArithmeticError)


def _run(steps: Iterator, layers: list[Layer], on_step: Callable):
    """Consume ``steps``, the items of ``_train`` from ``layers``; return
    ``(layers, step, failure)``: the layers after the last step counted, the
    count, and ``None`` or the record of the run error that stopped the run.

    The one consumer of ``_train``'s items. Each step calls
    ``on_step(t, eta_t, loss, grads, before, after, where)``, which sets
    ``where[0]`` to the name of the layer it is working on. A true return
    stops the run without counting step ``t``. The record is
    ``{step, layer, exception, message}``: a StepAllError comes from stepping
    the layers as step ``step + 1`` and names its first failed layer; any
    other error was raised while consuming step ``step``, in layer
    ``where[0]``.
    """
    step, where = 0, [None]
    try:
        for t, eta_t, loss, grads, after in steps:
            before, layers, step = layers, after, t + 1
            if on_step(t, eta_t, loss, grads, before, after, where):
                return before, t, None
    except _RUN_ERRORS as exc:
        failed, at = exc, step
        if isinstance(exc, StepAllError):
            i, failed = exc.failures[0]
            at, where[0] = step + 1, layers[i].name
        return layers, step, {"step": at, "layer": where[0],
                              "exception": type(failed).__name__, "message": str(failed)}
    return layers, step, None


def _stopped(failure: dict) -> str:
    return "stopped at step {step}, layer {layer}: {exception}: {message}".format(**failure)


def _completed(name: str, summary: dict) -> dict:
    """Assertion that a run finished every step with a finite final loss."""
    if "failure" in summary:
        return {"name": name, "pass": False, "detail": _stopped(summary["failure"])}
    loss = summary["final_loss"]
    return {"name": name, "pass": math.isfinite(loss), "detail": f"final loss {loss!r}"}


def _make_model(cfg: ExperimentConfig):
    return models.make_model(cfg.model_kind, cfg.model_dims, cfg.seed,
                             num_batches=cfg.num_batches, batch_size=cfg.batch_size)


def _first_batch(batches: list[Batch], seed: int) -> Batch:
    """The first batch of epoch 0, on which final losses are reported."""
    return batches[models.epoch_order(len(batches), seed, 0)[0]]


def _params_of(layers: list[Layer]) -> dict:
    """The layers' parameters under their names; models look them up by name."""
    return {l.name: l.state.param for l in layers}


def _write_verdict(out_dir: Optional[str], preset: str, assertions: list[dict]) -> dict:
    verdict = {
        "preset": preset,
        "assertions": assertions,
        "pass": all(a["pass"] for a in assertions),
    }
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "verdict.json"), "w") as fh:
            json.dump(verdict, fh, indent=2, sort_keys=True)
    return verdict


# --------------------------------------------------------------------------
# presets


def preset_drift(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Row-norm drift comparison: muon vs fixed vs adaptive magnitudes. Muon and
    muown take ``hp.weight_decay``; the fixed magnitudes, which decay would
    unfreeze, take none.

    Hard assertions: the fixed-magnitude run keeps every row norm of every
    matrix weight at its initial value to 1e-10 relative; all three runs emit
    coherence >= 1 - 1e-9 at every logged step; all three start from the
    bitwise-identical initial weights. Drift magnitudes for the other two
    runs are logged, not asserted.
    """
    hps = {"muon": cfg.hp, "muown_fixed": replace(cfg.hp, weight_decay=0.0), "muown": cfg.hp}
    runs = {kind: _drift_run(replace(cfg, optimizer_kind=kind, hp=hp),
                             os.path.join(out_dir, kind) if out_dir else None)
            for kind, hp in hps.items()}
    assertions = [_completed(f"{kind}_run_completed", log.summary)
                  for kind, (log, _, _) in runs.items() if "failure" in log.summary]
    fixed_dev = runs["muown_fixed"][2]
    coherent = not any(row[ci] < 1.0 - 1e-9 for log, _, _ in runs.values()
                       for row in log.rows for ci, col in enumerate(log.columns)
                       if col.endswith(".coherence"))
    starts = [start for _, start, _ in runs.values()]
    same_start = None not in starts and all(
        all(np.array_equal(a, b) for a, b in zip(starts[0], start)) for start in starts[1:])
    assertions.append({
        "name": "fixed_row_norms_constant_1e-10",
        "pass": fixed_dev <= 1e-10,
        "detail": f"max relative deviation {fixed_dev:.3e}",
    })
    assertions.append({
        "name": "coherence_lower_bound",
        "pass": coherent,
        "detail": "coherence >= 1 - 1e-9 at every logged step for all variants",
    })
    assertions.append({
        "name": "shared_bitwise_start",
        "pass": same_start,
        "detail": "all variants start from identical initial weights",
    })
    return _write_verdict(out_dir, "drift", assertions)


def _drift_run(cfg: ExperimentConfig, out_dir: Optional[str]):
    """One drift variant: ``(log, start, dev)``, the RunLog of ``cfg``'s run,
    the weights it started from (None if it took no step), and, for a
    muown_fixed run, the largest relative deviation of a matrix row norm from
    its start over the steps taken (0.0 for the other kinds)."""
    start, norms, devs = [], [], [0.0]

    def probe(t, before, after, loss, grads):
        if t == 0:
            start.extend(layer.state.param.copy() for layer in before)
            if cfg.optimizer_kind == "muown_fixed":
                norms.extend((i, row_norms(w)) for i, w in enumerate(start) if w.ndim == 2)
        devs.extend(float(np.max(np.abs(row_norms(after[i].state.param) - g0) / g0))
                    for i, g0 in norms)

    log = run_experiment(cfg, out_dir, probe=probe)
    # max keeps the first of equal or unordered values, so a NaN deviation is skipped
    return log, start or None, max(devs)


def preset_rate_check(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Deterministic sign-descent rate bound on the 2x2 identity quadratic.

    For each horizon T, runs the sign-descent variant with beta1 = 0, exact
    polar, and eta = gamma = sqrt(Delta1/(L T)), then asserts the averaged
    dual gradient norm is within the proven 4*sqrt(L*Delta1/T) bound and that
    the per-step split descent inequality holds with at most 1e-9 slack. The
    schedule is always constant: ``cfg.schedule`` is ignored.
    """
    spec = models.quadratic_spec(np.zeros((2, 2)))
    start = init_layers([("W", np.eye(2))], matrix_kind="muown_signum")
    # 0.5||W||_F^2 has the identity Hessian, so its smoothness L is 1, and its
    # minimum f* is 0, so Delta1 = f(W_0) - f* is the loss at the start.
    big_l = 1.0
    delta1 = loss_and_grad(spec, _params_of(start), None)[0]
    assertions = []
    all_rows = []

    for horizon in cfg.rate_horizons:
        step_size = math.sqrt(delta1 / (big_l * horizon))
        hp = HyperParams(eta=step_size, gamma=step_size, beta1=0.0, backend="polar")
        run_cfg = replace(cfg, steps=horizon, schedule=ScheduleSpec())
        # Per step: the loss before it, its dual gradient norm and its descent
        # bound. The loss _train takes before step t + 1 is the loss after step
        # t, so only the loss after the last step taken is evaluated here.
        losses, duals, bounds = [], [], []

        def on_step(t, eta_t, loss, grads, before, after, where):
            where[0] = "W"
            losses.append(loss)
            gg, gr = _view_of(before[0].state).split(grads[0])
            l1, nuc = vec_l1(gg), nuclear_norm(gr)
            bounds.append(-step_size * l1 - step_size * nuc
                          + 0.5 * big_l * (step_size ** 2 + step_size ** 2))
            duals.append(l1 + nuc)  # dual_norm(gg, gr), whose SVD the bound reuses

        # the quadratic ignores its batch, so one placeholder serves every step
        layers, _, failure = _run(_train(run_cfg, spec, start, [None], hp), start, on_step)
        if len(losses) == len(bounds):  # else the loss of the failed step ends the last row
            losses.append(loss_and_grad(spec, _params_of(layers), None)[0])
        slacks = [(after - loss) - rhs for loss, after, rhs in zip(losses, losses[1:], bounds)]
        all_rows += [[horizon, t + 1, float(loss), float(dual), float(slack)]
                     for t, (loss, dual, slack) in enumerate(zip(losses, duals, slacks))]
        if failure:
            assertions.append(_completed(f"run_completed_T{horizon}", {"failure": failure}))
            continue
        worst_slack = max(slacks)
        avg_dual = sum(duals) / horizon
        bound = 4.0 * math.sqrt(big_l * delta1 / horizon)
        assertions.append({
            "name": f"rate_bound_T{horizon}",
            "pass": bool(avg_dual <= bound * (1.0 + 1e-9)),
            "detail": f"avg dual {avg_dual:.6g} vs bound {bound:.6g}",
        })
        assertions.append({
            "name": f"split_descent_T{horizon}",
            "pass": bool(worst_slack <= 1e-9),
            "detail": f"worst per-step slack {worst_slack:.3e}",
        })

    _write_run(out_dir, ["T", "step", "loss", "grad_dual", "descent_slack"], all_rows,
               {"preset": "rate-check", "horizons": list(cfg.rate_horizons)})
    return _write_verdict(out_dir, "rate-check", assertions)


def preset_noise_compare(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Gradient-noise coefficients for the two geometries along one training run.

    At evenly spaced checkpoints of a matrix-geometry training run, computes
    the full-dataset gradient, then per-minibatch deviations, and emits one
    noise report per matrix layer per checkpoint. The comparison itself is
    empirical, so nothing is asserted about which coefficient is smaller.
    """
    spec, params, batches = _make_model(cfg)
    layers = init_layers(params.named_values(), matrix_kind=cfg.optimizer_kind)
    k = min(cfg.noise_checkpoints, cfg.steps)
    checkpoint_steps = sorted({round((i + 1) * cfg.steps / k) for i in range(k)})
    rows = []

    def on_step(t, eta_t, loss, grads, before, after, where):
        step = t + 1
        if step not in checkpoint_steps:
            return
        sample_grads: list[list[np.ndarray]] = []
        _, true_grads = models.full_dataset_gradient(spec, _params_of(after),
                                                     batches, sample_grads)
        for i, layer in enumerate(after):
            if layer.state.param.ndim != 2:
                continue
            where[0] = layer.name
            report = noise_coefficients(
                true_grads[i], [s[i] for s in sample_grads], _view_of(layer.state))
            rows.append([step, layer.name, *astuple(report)])

    _, _, failure = _run(_train(cfg, spec, layers, batches, cfg.hp), layers, on_step)
    ok = not failure and len(rows) > 0 and all(
        all(math.isfinite(v) and v >= 0.0 for v in r[2:]) for r in rows)
    _write_run(out_dir, ["step", "layer", *(f.name for f in fields(NoiseReport))],
               rows, {"preset": "noise-compare", "reports": len(rows)})
    assertions = [{
        "name": "noise_reports_computed",
        "pass": bool(ok),
        "detail": _stopped(failure) if failure else f"{len(rows)} finite nonnegative reports",
    }]
    return _write_verdict(out_dir, "noise-compare", assertions)


def preset_lr_sweep(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Final loss across a log2-spaced learning-rate grid, one row per cell.

    Divergent cells (loss above 1e12 or a non-finite/degenerate step) record
    an inf sentinel and stop early without aborting the sweep. The cells run
    in ``_map_cells`` worker processes.
    """
    etas = [2.0 ** k for k in range(cfg.sweep_log2_min, cfg.sweep_log2_max + 1)]
    cells = [(opt_kind, eta) for opt_kind in cfg.sweep_optimizers for eta in etas]
    # Every cell starts from the same model and data; steps and init_layers
    # copy what they keep, so the arrays are shared read-only across cells.
    spec, params, batches = _make_model(cfg)
    first_batch = _first_batch(batches, cfg.seed)
    rows = _map_cells(lambda cell: _sweep_cell(cfg, spec, params, batches, first_batch,
                                               *cell), cells)
    _write_run(out_dir, ["optimizer", "eta", "final_loss", "steps_done", "diverged"],
               rows, {"preset": "lr-sweep", "cells": len(rows)})
    assertions = [{
        "name": "sweep_complete",
        "pass": len(rows) == len(cells),
        "detail": f"{len(rows)} cells of {len(cells)}",
    }]
    return _write_verdict(out_dir, "lr-sweep", assertions)


def _sweep_cell(cfg: ExperimentConfig, spec: ModelSpec, params: ParamSet,
                batches: list[Batch], first_batch: Batch, opt_kind: str,
                eta: float) -> list:
    """The lr-sweep row of one cell: ``cfg``'s run with optimizer ``opt_kind`` at
    rate ``eta``, from the sweep's shared model and data."""
    layers = init_layers(params.named_values(), matrix_kind=opt_kind)
    # A step is counted when the loss it started from is below the sentinel;
    # the step taken from a diverged loss is not. A run error stops the cell too.
    layers, steps_done, _ = _run(
        _train(cfg, spec, layers, batches, replace(cfg.hp, eta=eta)), layers,
        lambda t, eta_t, loss, *_: not math.isfinite(loss) or loss > DIVERGENCE_LOSS)
    final_loss = (loss_and_grad(spec, _params_of(layers), first_batch)[0]
                  if steps_done == cfg.steps else math.inf)
    diverged = not (math.isfinite(final_loss) and final_loss <= DIVERGENCE_LOSS)
    return [opt_kind, float(eta), math.inf if diverged else float(final_loss),
            steps_done, int(diverged)]


def _map_cells(cell: Callable, cells: list) -> list:
    """``[cell(c) for c in cells]``, the cells shared among ``_workers()`` processes.

    Worker w runs ``cells[w::workers]``. The calling process is worker 0; each
    other worker's share is mapped in a ``_Child``, forked once the caller has
    built what the cells share, so that it inherits that and sends back only
    each cell's result. Hooks in the calling process (on ``step_all``, say)
    see only worker 0's cells. The ``_Child`` fallbacks keep the results
    independent of the worker count.
    """
    workers = min(optimizers._workers(), len(cells))
    out = [None] * len(cells)
    with contextlib.ExitStack() as reaped:
        children = [reaped.enter_context(_Child(functools.partial(map, cell, cells[w::workers])))
                    for w in range(1, workers)]
        out[0::workers] = [cell(c) for c in cells[0::workers]]
        for w, child in enumerate(children, 1):
            out[w::workers] = list(child)
    return out


# --------------------------------------------------------------------------
# worker processes


class _Child:
    """The items of the iterator ``make()`` returns, made in a forked child
    process: the one fork, pipe, pickle and reap protocol of this module.

    With two or more workers (``optimizers._workers``, which is 1 in a forked
    process, so a child forks none), ``_Child(make)`` forks a child that runs
    ``make()`` and pickles each item onto one pipe as soon as it is made, then
    leaves by ``os._exit``, which flushes none of the caller's buffers and runs
    no atexit hook. Iterating the ``_Child`` in the caller takes the items in
    order. It issues the warnings the child showed making an item when it takes
    that item, and raises ``make()``'s error at its place in the stream; one
    that does not survive a pickle round trip comes back as
    ``RuntimeError("<Type>: <message>")``. With one worker, no fork, a fork
    that raises OSError, or a child lost mid-stream (a child that cannot pickle
    an item whole ends there), the iteration runs ``make()`` here and skips the
    items it already has, unwarned.

    Use it as a context manager, which kills the child, if still there, and
    reaps it. A child keeps only its own pipe end, so no sibling holds that
    pipe open after the caller dies: a child whose caller has died ends at its
    next item. Forked, not spawned, so that no child rebuilds the model.
    """

    def __init__(self, make: Callable[[], Iterator]):
        self.make, self.pid = make, None
        if optimizers._workers() < 2 or not hasattr(os, "fork"):
            return
        import fcntl  # here: a platform that forks has it

        read, write = os.pipe()
        # room for more than one item (0.6 MB a step at train-mid), so that the
        # child trains the next step while the caller works on this one; Linux only
        with contextlib.suppress(AttributeError, OSError):
            fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 1 << 20)
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            return
        if pid == 0:
            _run_child(make, write)
        os.close(write)
        self.pid, self.read = pid, os.fdopen(read, "rb")

    def __enter__(self) -> "_Child":
        return self

    def __exit__(self, *_) -> None:
        if self.pid is not None:
            self.read.close()
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None

    def __iter__(self) -> Iterator:
        taken = 0
        while self.pid is not None:
            try:
                caught, kind, payload = pickle.load(self.read)
            except (EOFError, pickle.UnpicklingError):
                break  # the child died: make the rest here
            for warning in caught:
                _warn_again(*warning)
            if kind == "error":
                raise payload
            if kind == "end":
                return
            taken += 1
            yield payload
        items = self.make()
        shown, warnings.showwarning = warnings.showwarning, lambda *_: None
        try:
            # their warnings were issued when they were taken from the child
            next(itertools.islice(items, taken, taken), None)
        finally:
            warnings.showwarning = shown
        yield from items


def _run_child(make: Callable[[], Iterator], write: int) -> None:
    """The forked side of ``_Child``: pickle ``(warnings, kind, payload)`` onto
    pipe ``write`` for each item of ``make()``, then for its end or its error,
    and ``os._exit``. A message it cannot write whole ends it there, so that
    the caller makes the rest. It first closes every descriptor it inherited
    but 0-2 and ``write``, so that it holds no read end, its own or an older
    sibling's: each child's next write fails once its caller has died,
    whichever siblings are still alive."""
    code = 1
    try:
        os.closerange(3, write)
        os.closerange(write + 1, os.sysconf("SC_OPEN_MAX"))
        out = os.fdopen(write, "wb")
        caught: list[tuple] = []  # the warnings shown since the last message
        warnings.showwarning = _keeper(caught)

        def messages():  # catches make()'s errors only, not those of pickle.dump
            try:
                for item in make():
                    yield caught, "item", item
                yield caught, "end", None
            except Exception as exc:  # noqa: BLE001 - raised again in the caller
                yield caught, "error", _portable(exc)

        for message in messages():
            pickle.dump(message, out, 5)
            out.flush()
            caught.clear()
        code = 0
    finally:
        os._exit(code)


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 - any failure to rebuild it
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _keeper(into: list) -> Callable:
    """A ``warnings.showwarning`` that keeps each warning it is shown in ``into``,
    as ``(text, category, filename, lineno)``, in place of printing it."""
    return lambda message, category, filename, lineno, *_: into.append(
        (str(message), category, filename, lineno))


def _warn_again(text: str, category: type, filename: str, lineno: int) -> None:
    """Issue a warning a child showed here, in the registry of the module that
    owns ``filename``, so that the filters print it as often as if it had been
    raised here and now."""
    owner = next((m for m in list(sys.modules.values())
                  if getattr(m, "__file__", None) == filename), None)
    registry = None if owner is None else vars(owner).setdefault("__warningregistry__", {})
    warnings.warn_explicit(text, category, filename, lineno,
                           module=getattr(owner, "__name__", None), registry=registry)


def run_preset(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Run ``cfg.preset``, which ExperimentConfig has checked is one of PRESETS."""
    presets = {"drift": preset_drift, "rate-check": preset_rate_check,
               "noise-compare": preset_noise_compare, "lr-sweep": preset_lr_sweep}
    if cfg.preset in presets:
        return presets[cfg.preset](cfg, out_dir)
    log = run_experiment(cfg, out_dir)
    return _write_verdict(out_dir, "single", [_completed("run_completed", log.summary)])

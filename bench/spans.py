"""Span tracing of muown's public functions, installed from outside the package.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper in
every ``muown`` module namespace that binds it (``from .x import f`` copies
the binding, so patching the defining module alone would miss most calls).
Each call records one span ``[layer, function, start, end, parent, top, ok]``
in memory; ``top`` is true when no enclosing span belongs to the same layer,
so a layer's busy time and call count cover only calls made into it from
outside. Nothing under ``src/`` is edited and ``log.csv`` bytes are untouched:
wrappers only read arguments and results.

``unit_metrics`` reduces one workload unit's spans to the per-layer figures
that ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

import numpy as np

# (layer, module, attribute). A layer is a muown module, except that
# ``diagnostics`` also owns the harness's per-step metric producer and
# ``serialize`` also owns checkpoint writing, which live elsewhere.
TARGETS = (
    ("harness", "muown.cli", "main"),
    ("harness", "muown.harness", "run_preset"),
    ("harness", "muown.harness", "run_experiment"),
    ("harness", "muown.harness", "preset_drift"),
    ("harness", "muown.harness", "preset_rate_check"),
    ("harness", "muown.harness", "preset_noise_compare"),
    ("harness", "muown.harness", "preset_lr_sweep"),
    ("harness", "muown.harness", "config_from_dict"),
    ("harness", "muown.harness", "apply_overrides"),
    ("diagnostics", "muown.harness", "_layer_metrics"),
    ("diagnostics", "muown.diagnostics", "spectral_decomposition"),
    ("diagnostics", "muown.diagnostics", "dual_norm"),
    ("diagnostics", "muown.diagnostics", "noise_coefficients"),
    ("diagnostics", "muown.diagnostics", "effective_rank"),
    ("models", "muown.models", "make_model"),
    ("models", "muown.models", "init_params"),
    ("models", "muown.models", "synth_data"),
    ("models", "muown.models", "loss_and_grad"),
    ("models", "muown.models", "epoch_order"),
    ("models", "muown.models", "full_dataset_gradient"),
    ("rng", "muown.rng", "SplitMix64.gaussian_array"),
    ("rng", "muown.rng", "SplitMix64.uniform_array"),
    ("rng", "muown.rng", "SplitMix64.permutation"),
    ("optimizers", "muown.optimizers", "init_layers"),
    ("optimizers", "muown.optimizers", "step_all"),
    ("optimizers", "muown.optimizers", "step_layer"),
    ("serialize", "muown.optimizers", "save_checkpoint"),
    ("serialize", "muown.serialize", "write_record"),
    ("serialize", "muown.serialize", "read_record"),
    ("reparam", "muown.reparam", "grad_g"),
    ("reparam", "muown.reparam", "grad_R"),
    ("reparam", "muown.reparam", "view_from_state"),
    ("reparam", "muown.reparam", "init_view"),
    ("reparam", "muown.reparam", "recompose"),
    ("orthogonalize", "muown.orthogonalize", "descent_direction"),
    ("orthogonalize", "muown.orthogonalize", "newton_schulz"),
    ("orthogonalize", "muown.orthogonalize", "polar_exact"),
    ("linalg", "muown.linalg", "svd"),
    ("linalg", "muown.linalg", "singular_values"),
    ("shardsim", "muown.shardsim", "run_sharded"),
    ("shardsim", "muown.shardsim", "make_plan"),
)

LAYERS = ("harness", "diagnostics", "models", "rng", "optimizers", "serialize",
          "reparam", "orthogonalize", "linalg", "shardsim")

# Callers whose SVDs are reported apart; any other caller counts as "other".
SVD_CALLERS = ("orthogonalize", "diagnostics", "harness", "other")

ROOT_LAYER = "bench"


class Tracer:
    """In-memory span recorder plus the counters its hooks fill."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self.counts: Counter = Counter()
        self.ns_inputs: list[tuple] = []
        self.gather: list[int] = []
        self.rank_busy: list[list[float]] = []
        self.directions: list[np.ndarray] | None = None
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        hooks = {
            "newton_schulz": self._on_newton_schulz,
            "descent_direction": self._on_direction,
            "gaussian_array": self._on_doubles,
            "uniform_array": self._on_doubles,
            "write_record": self._on_write,
            "run_sharded": self._on_sharded,
        }
        modules = [m for n, m in list(sys.modules.items())
                   if n == "muown" or n.startswith("muown.")]
        for layer, modname, attr in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self.wrap(layer, attr, orig, hooks.get(attr))
            if isinstance(owner, type):
                self._patch(owner, attr, orig, wrapper)
                continue
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, name, orig, wrapper)

    def _patch(self, owner, name, orig, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def wrap(self, layer: str, fn_name: str, fn, hook=None):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [layer, fn_name, 0.0, 0.0, stack[-1] if stack else -1,
                   active[layer] == 0, False]
            spans.append(rec)
            stack.append(idx)
            active[layer] += 1
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                active[layer] -= 1
            rec[6] = True
            if hook is not None:
                hook(idx, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def start_unit(self, keep_directions: bool) -> None:
        self.spans.clear()
        self.counts.clear()
        self.ns_inputs.clear()
        self.gather.clear()
        self.rank_busy.clear()
        self.directions = [] if keep_directions else None

    # -- hooks: they read arguments and results, never change them ---------

    def _on_newton_schulz(self, idx, args, kwargs, out) -> None:
        # Keep this cheap: it runs inside the caller's span.
        g = args[0] if args else kwargs["g"]
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        self.ns_inputs.append((np.shape(g), cfg))

    def _on_direction(self, idx, args, kwargs, out) -> None:
        if self.directions is not None:
            self.directions.append(out)

    def _on_doubles(self, idx, args, kwargs, out) -> None:
        self.counts["rng_doubles"] += out.size

    def _on_write(self, idx, args, kwargs, out) -> None:
        self.counts["bytes_written"] += out

    def _on_sharded(self, idx, args, kwargs, out) -> None:
        """Per-rank busy time of one sharded step, from its step_layer children.

        ``run_sharded`` steps rank 0's layers, then rank 1's, and so on, so
        the k-th child span belongs to the k-th layer of that concatenation.
        """
        plan = args[3] if len(args) > 3 else kwargs["plan"]
        owners = [r for r in range(plan.num_ranks) for _ in plan.layers_of(r)]
        children = [s for s in self.spans[idx + 1:] if s[4] == idx]
        busy = [0.0] * plan.num_ranks
        for rank, span in zip(owners, children):
            busy[rank] += span[3] - span[2]
        self.rank_busy.append(busy)
        self.gather.append(int(out[1]))


def ns_work(ns_inputs) -> tuple[int, int]:
    """Newton-Schulz iterations and their matmul flops, computed from shapes."""
    default_steps = sys.modules["muown.orthogonalize"].DEFAULT_NS.steps
    iters = flops = 0
    for shape, cfg in ns_inputs:
        steps = default_steps if cfg is None else cfg.steps
        m, n = sorted(shape)
        # gram (2 m^2 n), gram @ gram (2 m^3) and poly @ x (2 m^2 n) per step
        iters += steps
        flops += steps * (4 * m * m * n + 2 * m ** 3)
    return iters, flops


def ortho_error(directions) -> float:
    """max |sigma - 1| over the returned (nonzero) directions."""
    worst = 0.0
    for o in directions:
        if np.any(o):
            s = np.linalg.svd(o, compute_uv=False)
            worst = max(worst, float(np.max(np.abs(s - 1.0))))
    return worst


def unit_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced workload unit (one root span)."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for layer, fn, t0, t1, parent, top, ok in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    busy, self_s, calls = Counter(), Counter(), Counter()
    fn_calls, fn_busy, fn_failed = Counter(), Counter(), Counter()
    svd_calls, svd_busy = Counter(), Counter()
    for i, (layer, fn, t0, t1, parent, top, ok) in enumerate(spans):
        dur = t1 - t0
        self_s[layer] += dur - child[i]
        fn_calls[fn] += 1
        fn_busy[fn] += dur
        fn_failed[fn] += not ok
        if top:
            busy[layer] += dur
            calls[layer] += 1
            if layer == "linalg":
                caller = spans[parent][0] if parent >= 0 else "other"
                caller = caller if caller in SVD_CALLERS else "other"
                svd_calls[caller] += 1
                svd_busy[caller] += dur
    roots = [s for s in spans if s[0] == ROOT_LAYER]
    wall = sum(s[3] - s[2] for s in roots)

    c = tracer.counts
    ns_iters, ns_flops = ns_work(tracer.ns_inputs)
    out = {"trace.wall_s": wall}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    ortho_busy = busy["orthogonalize"]
    ns_busy = fn_busy["newton_schulz"]
    out.update({
        "orthogonalize.calls": calls["orthogonalize"],
        "orthogonalize.busy_s": ortho_busy,
        "orthogonalize.us_per_call": 1e6 * ortho_busy / max(calls["orthogonalize"], 1),
        "orthogonalize.ns_iters": ns_iters,
        "orthogonalize.flops": ns_flops,
        "orthogonalize.gflops_per_s": ns_flops / ns_busy / 1e9 if ns_busy else 0.0,
        "orthogonalize.svd_calls": svd_calls["orthogonalize"],
        "diagnostics.calls": calls["diagnostics"],
        "diagnostics.busy_s": busy["diagnostics"],
        "diagnostics.svd_calls_per_logged_layer":
            svd_calls["diagnostics"] / fn_calls["_layer_metrics"]
            if fn_calls["_layer_metrics"] else 0.0,
        "rng.doubles": c["rng_doubles"],
        "rng.busy_s": busy["rng"],
        "models.make_model.calls": fn_calls["make_model"],
        "models.make_model.busy_s": fn_busy["make_model"],
        "models.loss_and_grad.calls": fn_calls["loss_and_grad"],
        "models.loss_and_grad.busy_s": fn_busy["loss_and_grad"],
        "models.epoch_order.busy_s": fn_busy["epoch_order"],
        "reparam.calls": calls["reparam"],
        "reparam.busy_s": busy["reparam"],
        "optimizers.steps": fn_calls["step_layer"],
        "optimizers.busy_s": busy["optimizers"],
        "optimizers.failures": fn_failed["step_layer"],
        "serialize.bytes_written": c["bytes_written"],
        "serialize.busy_s": busy["serialize"],
        "serialize.checkpoints": fn_calls["save_checkpoint"],
    })
    for caller in SVD_CALLERS:
        out[f"linalg.svd_calls.{caller}"] = svd_calls[caller]
        out[f"linalg.svd_busy_s.{caller}"] = svd_busy[caller]
    if tracer.rank_busy:
        out["shardsim.gathered_bytes_per_step"] = float(np.median(tracer.gather))
        out["shardsim.rank_busy_max_s"] = float(np.median([max(b) for b in tracer.rank_busy]))
        out["shardsim.imbalance"] = float(np.median(
            [max(b) / (sum(b) / len(b)) for b in tracer.rank_busy if sum(b) > 0]))
    else:
        out.update({"shardsim.gathered_bytes_per_step": 0.0,
                    "shardsim.rank_busy_max_s": 0.0, "shardsim.imbalance": 0.0})
    return out

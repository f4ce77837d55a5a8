"""The benchmark's workloads, one per cost regime of muown.

Each workload builds every input from the benchmark seed and runs in units:
one unit is one complete workload run, from config to verdict, and the
measuring window repeats units in a closed loop (one caller, each unit
starting when the previous one ended).

* ``train-mid``: the ``single`` preset on mlp2 64/256/32, batch 64, 8 batches,
  muown with the default Newton-Schulz backend, metrics logged every step and
  a checkpoint every 25 of its 100 steps. The default harness path at a size
  where matrix work dominates; the only workload where per-step diagnostics
  and checkpoint serialization do real work.
* ``sweep-desk``: the ``lr-sweep`` preset at its default config (desk 6/8/4,
  3 optimizers x 12 rates, 36 model rebuilds). Thousands of 8x6
  orthogonalizations, so per-call overhead sets the cost, not flops; no
  per-step metrics.
* ``shard-large``: six muown matrices (512x128 ... 256x64), each with an
  adamw bias, stepped through ``shardsim.run_sharded`` on 2 virtual ranks
  against a seeded quadratic objective. BLAS-bound orthogonalization;
  bypasses models, rng and diagnostics.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

# Module-qualified calls only: the tracer patches module attributes, so a
# name imported here would bypass it.
from muown import cli, harness, models, optimizers, shardsim

clock = time.perf_counter

CAL_EVERY = 10  # train-mid takes a calibration sample every this many steps


@dataclass
class Unit:
    """What one workload run produced."""

    wall_s: float
    steps: int               # optimizer steps completed
    step_s: list[float]      # per-step latencies
    digest: str              # sha256 of the run's log (or final parameters)
    final_loss: float
    useful_step_frac: float = 1.0
    problems: list[str] = field(default_factory=list)
    speed_factor: float = 1.0  # median of the unit's calibration samples
    step_factors: list[float] | None = None  # latest sample before each step


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_cli(argv) -> list[str]:
    """Run ``muown.cli.main`` in-process; return its failures (empty on PASS)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    problems = [line for line in buf.getvalue().splitlines()
                if line.startswith("[FAIL]")]
    if code != 0:
        problems.append(f"muown {' '.join(argv[:2])} exited {code}")
    return problems


# blas_share weights the calibration kernels (calibrate.py): the share of the
# traced wall time spent in BLAS/LAPACK-bound calls (orthogonalize and linalg)
# at the seed commit, rounded. setup_blas_share does the same for set-up:
# models.make_model draws its weights through muown.rng in Python loops, so
# the presets' set-up is timed against the Python kernel alone.

class TrainMid:
    name = "train-mid"
    blas_share = 0.7
    setup_blas_share = 0.0

    def __init__(self, seed: int, work_dir: str, smoke: bool = False):
        dims = ({"d_in": 6, "hidden": 8, "d_out": 4} if smoke
                else {"d_in": 64, "hidden": 256, "d_out": 32})
        steps = 8 if smoke else 100
        self.raw = {
            "seed": seed, "steps": steps, "log_every": 1,
            "checkpoint_every": steps // 4,
            "model": {"kind": "mlp2", "dims": dims, "num_batches": 8,
                      "batch_size": 64},
        }
        self.cfg = harness.config_from_dict(self.raw, preset="single")
        self.dir = work_dir

    def setup(self) -> None:
        """The model, dataset and optimizer state that ``run_experiment`` builds."""
        cfg = self.cfg
        _, params, _ = models.make_model(
            cfg.model_kind, cfg.model_dims, cfg.seed,
            num_batches=cfg.num_batches, batch_size=cfg.batch_size)
        optimizers.init_layers(params.named_values(), matrix_kind=cfg.optimizer_kind)

    def unit(self, cal=None) -> Unit:
        ends, starts = [], []  # per step: when it ended, when the next began
        latest = []  # per step: the latest calibration factor after it

        def probe(t, *_):
            now = clock()
            ends.append(now)
            starts.append(cal.sample() if cal and t % CAL_EVERY == 0 else now)
            if cal:
                latest.append(cal.factors[-1])

        start = clock()
        log = harness.run_experiment(self.cfg, os.path.join(self.dir, "unit"),
                                     probe=probe)
        wall = clock() - start - (cal.excluded if cal else 0.0)
        loss = log.summary["final_loss"]
        problems = [] if math.isfinite(loss) else [f"final loss {loss!r}"]
        return Unit(wall, len(ends), [e - s for e, s in zip(ends[1:], starts)],
                    sha256_file(log.csv_path), loss, problems=problems,
                    step_factors=latest[:-1] if cal else None)

    def gate(self) -> tuple[list[str], str]:
        """The same run through the CLI: exit 0, every assertion PASS."""
        out = os.path.join(self.dir, "gate")
        cfg_path = os.path.join(self.dir, "train-mid.json")
        with open(cfg_path, "w") as fh:
            json.dump(self.raw, fh)
        problems = run_cli(["run", "single", "--config", cfg_path, "--out", out])
        return problems, sha256_file(os.path.join(out, "log.csv"))


class StepClock:
    """Per-step latency of the sweep, read at each ``harness.step_all`` return.

    One clock read per step. The first step of a cell (optimizer state
    counter ``t == 0``) opens a new interval, so the model rebuild between
    cells is not counted as a step; a calibration sample, if any, is taken
    right before it.
    """

    def __init__(self, cal=None):
        self.intervals: list[float] = []
        self.factors: list[float] = []  # latest calibration before each interval
        self._last = 0.0
        self.cal = cal

    @contextlib.contextmanager
    def installed(self):
        inner = harness.step_all

        def timed(layers, grads, hp):
            first = layers[0].state.t == 0
            if first and self.cal:
                self.cal.sample()
            out = inner(layers, grads, hp)
            now = clock()
            if not first:
                self.intervals.append(now - self._last)
                if self.cal:
                    self.factors.append(self.cal.factors[-1])
            self._last = now
            return out

        harness.step_all = timed
        try:
            yield self
        finally:
            harness.step_all = inner


class SweepDesk:
    name = "sweep-desk"
    blas_share = 0.0  # 8x6 products: numpy call overhead, not flops
    setup_blas_share = 0.0

    def __init__(self, seed: int, work_dir: str, smoke: bool = False):
        sets = [f"seed={seed}"]
        if smoke:
            sets += ["steps=10", "lr_sweep.log2_min=-6", "lr_sweep.log2_max=-5"]
        self.out = os.path.join(work_dir, "unit")
        self.argv = ["run", "lr-sweep"]
        for item in sets:
            self.argv += ["--set", item]
        self.argv += ["--out", self.out]
        self.cfg = harness.config_from_dict(harness.apply_overrides({}, sets),
                                            preset="lr-sweep")

    def setup(self) -> None:
        """The model and optimizer-state builds the sweep repeats for each cell."""
        cfg = self.cfg
        for kind in cfg.sweep_optimizers:
            for _ in range(cfg.sweep_log2_min, cfg.sweep_log2_max + 1):
                _, params, _ = models.make_model(
                    cfg.model_kind, cfg.model_dims, cfg.seed,
                    num_batches=cfg.num_batches, batch_size=cfg.batch_size)
                optimizers.init_layers(params.named_values(), matrix_kind=kind)

    def unit(self, cal=None) -> Unit:
        steps_clock = StepClock(cal)
        with steps_clock.installed():
            start = clock()
            problems = run_cli(self.argv)
            wall = clock() - start - (cal.excluded if cal else 0.0)
        csv_path = os.path.join(self.out, "log.csv")
        with open(csv_path, newline="") as fh:
            next(fh)  # schema line
            cells = list(csv.DictReader(fh))
        steps = sum(int(c["steps_done"]) for c in cells)
        useful = sum(int(c["steps_done"]) for c in cells if c["diverged"] == "0")
        losses = [float(c["final_loss"]) for c in cells if c["optimizer"] == "muown"]
        finite = [x for x in losses if math.isfinite(x)]
        if not finite:
            problems.append("no muown cell reached a finite loss")
        return Unit(wall, steps, steps_clock.intervals, sha256_file(csv_path),
                    min(finite, default=math.inf),
                    useful / steps if steps else 0.0, problems,
                    step_factors=steps_clock.factors if cal else None)

    def gate(self) -> tuple[list[str], None]:
        return [], None  # every unit already runs the preset through the CLI


SHARD_SHAPES = ((512, 128), (128, 512), (256, 256), (384, 192), (192, 384), (256, 64))
SMOKE_SHAPES = ((16, 8), (8, 16), (12, 12))
SHARD_RANKS = 2


def same_bits(x, y) -> bool:
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                and x.shape == y.shape and x.dtype == y.dtype
                and x.tobytes() == y.tobytes())
    return x == y


class ShardLarge:
    name = "shard-large"
    blas_share = 1.0
    setup_blas_share = 1.0

    def __init__(self, seed: int, work_dir: str, smoke: bool = False):
        self.seed = seed
        self.shapes = SMOKE_SHAPES if smoke else SHARD_SHAPES
        self.steps = 2 if smoke else 10
        self.hp = optimizers.HyperParams(eta=0.01)

    def setup(self):
        """Layer stack, quadratic targets and shard plan, all from the seed.

        Weights, biases and targets come from numpy's generator, not
        ``muown.rng``, so this workload draws nothing through that module.
        """
        rng = np.random.default_rng(self.seed)
        named = []
        for i, (m, n) in enumerate(self.shapes):
            named.append((f"W{i}", rng.standard_normal((m, n)) / math.sqrt(n)))
            named.append((f"b{i}", 0.1 * rng.standard_normal(m)))
        targets = [rng.standard_normal(a.shape) / math.sqrt(a.shape[-1])
                   for _, a in named]
        layers = optimizers.init_layers(named)
        return layers, targets, shardsim.make_plan(len(layers), SHARD_RANKS)

    @staticmethod
    def grads(layers, targets):
        """Gradient of sum_i 0.5 ||P_i - T_i||^2 at the current parameters."""
        return [layer.state.param - t for layer, t in zip(layers, targets)]

    def unit(self, cal=None) -> Unit:
        start = clock()
        layers, targets, plan = self.setup()
        expected = 8 * sum(t.size for t in targets)
        step_s, problems = [], []
        for _ in range(self.steps):
            if cal:
                cal.sample()
            t0 = clock()
            layers, gathered = shardsim.run_sharded(layers, self.grads(layers, targets),
                                                    self.hp, plan)
            step_s.append(clock() - t0)
            if gathered != expected:
                problems.append(f"gathered {gathered} bytes, expected {expected}")
        loss = sum(0.5 * float(np.sum((layer.state.param - t) ** 2))
                   for layer, t in zip(layers, targets))
        wall = clock() - start - (cal.excluded if cal else 0.0)
        digest = hashlib.sha256()
        for layer in layers:
            digest.update(layer.state.param.tobytes())
        return Unit(wall, self.steps, step_s, digest.hexdigest(), loss,
                    problems=problems, step_factors=list(cal.factors) if cal else None)

    def gate(self) -> tuple[list[str], None]:
        """One sharded step equals replicated ``step_all`` bit for bit."""
        layers, targets, plan = self.setup()
        grads = self.grads(layers, targets)
        sharded, gathered = shardsim.run_sharded(layers, grads, self.hp, plan)
        replicated = optimizers.step_all(layers, grads, self.hp)
        problems = [
            f"{a.name}.{f.name}: sharded differs from replicated step_all"
            for a, b in zip(sharded, replicated) for f in fields(a.state)
            if not same_bits(getattr(a.state, f.name), getattr(b.state, f.name))
        ]
        expected = 8 * sum(layer.state.param.size for layer in sharded)
        if gathered != expected:
            problems.append(f"gathered {gathered} bytes, expected {expected}")
        return problems, None


WORKLOADS = {w.name: w for w in (TrainMid, SweepDesk, ShardLarge)}

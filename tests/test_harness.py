import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muown import harness, models, optimizers, rng
from muown.cli import main as cli_main
from muown.errors import ConfigError, StepAllError, ZeroRowError
from muown.optimizers import HyperParams
from muown.harness import (
    CSV_SCHEMA_LINE,
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    preset_lr_sweep,
    preset_noise_compare,
    run_experiment,
    run_preset,
)
from muown.orthogonalize import AGGRESSIVE_COEFFS, CLASSIC_COEFFS
from muown.schedule import ScheduleSpec, eta_at


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == CSV_SCHEMA_LINE
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


def _fmt_reference(value) -> str:
    """The reference text of a log.csv field: a float by its repr, anything
    else by str."""
    return repr(value) if isinstance(value, float) else str(value)


_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]{0,11}", fullmatch=True)
_ROW_VALUES = st.one_of(
    st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308]),
    st.integers(), _NAMES)


@settings(max_examples=60, deadline=None)
@given(columns=st.lists(_NAMES, min_size=1, max_size=6), data=st.data())
def test_log_csv_is_the_joined_reference_fields(columns, data):
    rows = data.draw(st.lists(st.lists(_ROW_VALUES, min_size=len(columns),
                                       max_size=len(columns)), max_size=5))
    with tempfile.TemporaryDirectory() as out:
        path = harness._write_run(out, columns, rows, {})
        with open(path, "rb") as fh:
            written = fh.read()
    lines = [CSV_SCHEMA_LINE, ",".join(columns)]
    lines += [",".join(_fmt_reference(v) for v in row) for row in rows]
    assert written == "".join(line + "\n" for line in lines).encode()


class TestConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig()
        assert cfg.preset == "single"

    def test_from_dict_nested(self):
        cfg = config_from_dict({
            "seed": 3,
            "steps": 10,
            "model": {"kind": "logistic", "dims": {"features": 4}},
            "optimizer": {"kind": "muon", "eta": 0.01, "backend": "polar"},
            "schedule": {"warmup_frac": 0.1, "decay_frac": 0.1},
        })
        assert cfg.model_kind == "logistic"
        assert cfg.optimizer_kind == "muon"
        assert cfg.hp.eta == 0.01
        assert (cfg.schedule.warmup_frac, cfg.schedule.decay_frac) == (0.1, 0.1)

    def test_an_unknown_preset_is_named(self):
        # the preset is no config path, yet its error names it
        with pytest.raises(ConfigError, match="^preset: unknown preset 'bogus'"):
            ExperimentConfig(preset="bogus")

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict({"bogus": 1})

    def test_unknown_optimizer_field(self):
        with pytest.raises(ConfigError, match="optimizer.typo"):
            config_from_dict({"optimizer": {"typo": 1}})

    def test_bad_hyperparam_reported_with_field(self):
        with pytest.raises(ConfigError, match="optimizer"):
            config_from_dict({"optimizer": {"eta": -1.0}})

    def test_missing_dims(self):
        with pytest.raises(ConfigError, match="model.dims"):
            config_from_dict({"model": {"kind": "quadratic"}})

    def test_partial_dims_merge_over_default_kind(self, tmp_path):
        cfg = config_from_dict({"model": {"dims": {"hidden": 16}}, "steps": 2})
        assert cfg.model_dims == {"d_in": 6, "hidden": 16, "d_out": 4}
        shapes = []
        run_experiment(cfg, probe=lambda t, before, after, loss, grads:
                       shapes.append(after[0].state.param.shape))
        assert shapes[-1] == (16, 6)
        rc = cli_main(["run", "single", "--set", "model.dims.hidden=16",
                       "--set", "steps=2", "--out", str(tmp_path / "x")])
        assert rc == 0
        # another kind does not inherit mlp2's dims
        with pytest.raises(ConfigError, match="model.dims"):
            config_from_dict({"model": {"kind": "quadratic", "dims": {"m": 3}}})

    def test_overrides(self):
        raw = {"steps": 5, "optimizer": {"eta": 0.1}}
        out = apply_overrides(raw, ["steps=7", "optimizer.eta=0.2", "model.kind=mlp2"])
        assert out["steps"] == 7
        assert out["optimizer"]["eta"] == 0.2
        assert out["model"]["kind"] == "mlp2"
        assert raw["steps"] == 5  # original untouched

    def test_override_requires_equals(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["steps"])


class TestRunExperiment:
    def test_single_step_emits_one_row(self, tmp_path):
        cfg = ExperimentConfig(steps=1)
        log = run_experiment(cfg, str(tmp_path))
        header, rows = _read_csv(tmp_path / "log.csv")
        assert len(rows) == 1
        assert header[:3] == ["step", "eta", "loss"]
        assert os.path.exists(tmp_path / "summary.json")

    def test_rerun_reproduces_csv_bytes(self, tmp_path):
        cfg = ExperimentConfig(steps=17, log_every=3, seed=12)
        run_experiment(cfg, str(tmp_path / "a"))
        run_experiment(cfg, str(tmp_path / "b"))
        a = (tmp_path / "a" / "log.csv").read_bytes()
        b = (tmp_path / "b" / "log.csv").read_bytes()
        assert a == b

    def test_loss_decreases_on_mlp(self, tmp_path):
        cfg = ExperimentConfig(steps=120, log_every=120)
        log = run_experiment(cfg, None)
        first_loss = log.rows[0][2]
        assert log.summary["final_loss"] < first_loss

    def test_checkpoints_written(self, tmp_path):
        cfg = ExperimentConfig(steps=4, checkpoint_every=2)
        run_experiment(cfg, str(tmp_path))
        assert (tmp_path / "ckpt_000002").is_dir()
        assert (tmp_path / "ckpt_000004").is_dir()

    def test_a_set_gamma_follows_the_schedule(self, monkeypatch):
        # one process, so that the spy sees every step
        monkeypatch.setattr(optimizers, "_workers", lambda: 1)
        rates = []
        inner = harness.step_all

        def spy(layers, grads, hp):
            rates.append((hp.eta, hp.gamma))
            return inner(layers, grads, hp)

        monkeypatch.setattr(harness, "step_all", spy)
        cfg = config_from_dict(_scheduled_signum(gamma=0.05))
        run_experiment(cfg, None)
        assert rates == [(eta_at(cfg.schedule, t, 10, 0.02), eta_at(cfg.schedule, t, 10, 0.05))
                         for t in range(10)]
        assert len({gamma for _, gamma in rates}) == 3  # a third, two thirds and all of 0.05

    def test_no_earlier_gradient_is_held_while_the_next_one_is_made(self, monkeypatch):
        # one process: _train's frame drops each step's gradients once it is taken
        monkeypatch.setattr(optimizers, "_workers", lambda: 1)
        grads, alive, inner = [], [], harness.loss_and_grad

        def spy(*args):
            alive.append(sum(ref() is not None for ref in grads))
            return inner(*args)

        monkeypatch.setattr(harness, "loss_and_grad", spy)
        run_experiment(ExperimentConfig(steps=6),
                       probe=lambda t, before, after, loss, g: grads.append(weakref.ref(g[0])))
        assert len(grads) == 6
        assert alive == [0] * 7  # six steps, then the final loss

    @pytest.mark.parametrize("kind", ["muown", "muown_signum"])
    @pytest.mark.parametrize("num_batches", [4, 1])
    # mid-epoch at 4 batches, the first steps of epochs 1 and 2, the last step
    @pytest.mark.parametrize("start", [0, 1, 2, 4, 8, 10])
    def test_train_resumes_bit_for_bit(self, kind, num_batches, start):
        cfg = ExperimentConfig(steps=11, num_batches=num_batches, optimizer_kind=kind,
                               hp=HyperParams(eta=0.02, gamma=0.05),
                               schedule=ScheduleSpec(warmup_frac=0.2, decay_frac=0.3))
        spec, params, batches = harness._make_model(cfg)
        layers = optimizers.init_layers(params.named_values(), matrix_kind=kind)
        full = list(harness._train(cfg, spec, layers, batches))
        given = full[start - 1][4] if start else layers
        resumed = list(harness._train(cfg, spec, given, batches, start))
        assert [_item_bits(item) for item in resumed] == [_item_bits(item)
                                                          for item in full[start:]]

    def test_gamma_equal_to_eta_logs_as_gamma_null(self, tmp_path):
        for name, gamma in (("null", None), ("eta", 0.02)):
            run_experiment(config_from_dict(_scheduled_signum(gamma)), str(tmp_path / name))
        assert ((tmp_path / "null" / "log.csv").read_bytes()
                == (tmp_path / "eta" / "log.csv").read_bytes())


def _item_bits(item) -> tuple:
    """A ``_train`` item as bytes: ``t``, the rate, the loss, the gradients, and
    every field of every layer's state (its arrays and its ``t`` counter)."""
    t, eta_t, loss, grads, layers = item
    states = [getattr(l.state, f.name) for l in layers for f in dataclasses.fields(l.state)]
    return (t, np.float64(eta_t).tobytes(), np.float64(loss).tobytes(),
            [(a.shape, a.tobytes()) for a in grads],
            [(v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in states])


def _scheduled_signum(gamma) -> dict:
    """muown_signum at eta = 0.02 for 10 steps of a schedule with 3 warmup and
    3 decay steps."""
    return {"steps": 10, "optimizer": {"kind": "muown_signum", "eta": 0.02, "gamma": gamma},
            "schedule": {"warmup_frac": 0.3, "decay_frac": 0.3}}


class TestPresets:
    def test_drift_verdict(self, tmp_path):
        cfg = ExperimentConfig(preset="drift", steps=40, log_every=4)
        verdict = run_preset(cfg, str(tmp_path))
        assert verdict["pass"]
        names = [a["name"] for a in verdict["assertions"]]
        assert "fixed_row_norms_constant_1e-10" in names
        assert json.load(open(tmp_path / "verdict.json"))["pass"]

    def test_drift_takes_the_configured_decay_but_for_fixed_magnitudes(self, tmp_path):
        for name, decay in (("none", 0.0), ("decay", 0.1)):
            rc = cli_main(["run", "drift", "--set", "steps=5", "--set",
                           f"optimizer.weight_decay={decay}", "--out", str(tmp_path / name)])
            assert rc == 0
        same = {kind: (tmp_path / "none" / kind / "log.csv").read_bytes()
                == (tmp_path / "decay" / kind / "log.csv").read_bytes()
                for kind in ("muon", "muown_fixed", "muown")}
        assert same == {"muon": False, "muown_fixed": True, "muown": False}

    def test_drift_verdict_when_every_variant_fails_its_first_step(self, tmp_path):
        cfg = config_from_dict(apply_overrides({}, ["steps=6", "optimizer.eta=1e300"]),
                               preset="drift")
        verdict = run_preset(cfg, str(tmp_path))
        # no variant took a step, so none has a start to compare
        assert {a["name"]: a["pass"] for a in verdict["assertions"]} == {
            "muon_run_completed": False, "muown_fixed_run_completed": False,
            "muown_run_completed": False, "fixed_row_norms_constant_1e-10": True,
            "coherence_lower_bound": True, "shared_bitwise_start": False}
        assert not verdict["pass"]

    def test_rate_check_verdict(self, tmp_path):
        cfg = ExperimentConfig(preset="rate-check", rate_horizons=(100, 400))
        verdict = run_preset(cfg, str(tmp_path))
        assert verdict["pass"]
        assert len(verdict["assertions"]) == 4

    def test_rate_bound_halves_when_horizon_quadruples(self):
        cfg = ExperimentConfig(preset="rate-check", rate_horizons=(100, 400))
        # bound = 4*sqrt(L*Delta1/T): exact sqrt scaling
        b100 = 4.0 * math.sqrt(1.0 / 100)
        b400 = 4.0 * math.sqrt(1.0 / 400)
        assert b400 == pytest.approx(b100 / 2.0, rel=1e-15)
        assert run_preset(cfg, None)["pass"]

    def test_a_failed_rate_check_horizon_leaves_the_others_their_assertions(self, monkeypatch):
        alone = run_preset(ExperimentConfig(preset="rate-check", rate_horizons=(2,)), None)
        real = optimizers.STEP_FNS["muown_signum"]

        def third_step_fails(state, grad, hp):
            if state.t == 2:
                raise FloatingPointError("third step")
            return real(state, grad, hp)

        monkeypatch.setitem(optimizers.STEP_FNS, "muown_signum", third_step_fails)
        verdict = run_preset(ExperimentConfig(preset="rate-check", rate_horizons=(3, 2)), None)
        assert verdict["assertions"] == [
            {"name": "run_completed_T3", "pass": False,
             "detail": "stopped at step 3, layer W: FloatingPointError: third step"},
            *alone["assertions"]]
        assert not verdict["pass"]

    def test_each_rate_check_horizon_trains_by_its_own_config(self, monkeypatch):
        # the config a horizon's run is given holds the hyperparameters it trains with
        seen, inner = [], harness._train

        def spy(cfg, *args):
            seen.append((cfg.steps, cfg.hp))
            return inner(cfg, *args)

        monkeypatch.setattr(harness, "_train", spy)
        cfg = ExperimentConfig(preset="rate-check", rate_horizons=(2, 9))
        assert run_preset(cfg, None)["pass"]
        # Delta1 = 0.5 ||I||_F^2 = 1 and L = 1, so the step size is sqrt(1 / T)
        assert seen == [(T, HyperParams(eta=math.sqrt(1.0 / T), gamma=math.sqrt(1.0 / T),
                                        beta1=0.0, backend="polar")) for T in (2, 9)]

    def test_rate_check_takes_each_loss_once(self, monkeypatch):
        counts = {"loss_and_grad": 0, "permutation": 0}

        def counted(owner, name):
            inner = getattr(owner, name)

            def wrapper(*args):
                counts[name] += 1
                return inner(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(harness, "loss_and_grad")
        counted(rng.SplitMix64, "permutation")
        cfg = ExperimentConfig(preset="rate-check", rate_horizons=(2, 3))
        assert run_preset(cfg, None)["pass"]
        # Delta1, then one loss per step plus the loss after each horizon's last step
        assert counts == {"loss_and_grad": 1 + (2 + 3) + 2, "permutation": 0}

    def test_rate_check_takes_one_svd_per_step(self, monkeypatch):
        calls = []
        inner = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        harness.preset_rate_check(ExperimentConfig(preset="rate-check", rate_horizons=(5,)))
        # the dual norm's nuclear norm, which the step's descent bound reuses
        assert len(calls) == 5

    def test_noise_compare_takes_each_batch_gradient_once(self, monkeypatch):
        calls = []
        for owner in (harness, models):  # _train's and full_dataset_gradient's
            inner = owner.loss_and_grad

            def counted(*args, _inner=inner):
                calls.append(1)
                return _inner(*args)

            monkeypatch.setattr(owner, "loss_and_grad", counted)
        cfg = ExperimentConfig(preset="noise-compare")
        assert run_preset(cfg, None)["pass"]
        # one loss per step, then each batch once at each checkpoint
        assert len(calls) == cfg.steps + cfg.noise_checkpoints * cfg.num_batches == 232

    def test_noise_compare_zero_variance_dataset(self, tmp_path):
        # single repeated batch -> every sigma is exactly zero
        from muown import models as mmodels
        from muown.harness import _params_of
        from muown.optimizers import init_layers
        from muown.diagnostics import noise_coefficients
        from muown.reparam import view_from_state
        spec, params, batches = mmodels.make_model(
            "mlp2", {"d_in": 4, "hidden": 5, "d_out": 2}, seed=1,
            num_batches=2, batch_size=4)
        layers = init_layers(params.named_values())
        same = [batches[0], batches[0]]
        pset = _params_of(layers)
        _, true_grads = mmodels.full_dataset_gradient(spec, pset, same)
        sample_grads = [mmodels.loss_and_grad(spec, pset, b)[1] for b in same]
        for i, layer in enumerate(layers):
            if layer.state.param.ndim != 2:
                continue
            view = view_from_state(layer.state.param, layer.state.g, layer.state.r)
            rep = noise_coefficients(true_grads[i], [s[i] for s in sample_grads], view)
            assert rep.sigma_W == rep.sigma_g == rep.sigma_R == 0.0

    def test_noise_compare_preset(self, tmp_path):
        cfg = ExperimentConfig(preset="noise-compare", steps=20, noise_checkpoints=2)
        verdict = preset_noise_compare(cfg, str(tmp_path))
        assert verdict["pass"]
        header, rows = _read_csv(tmp_path / "log.csv")
        assert header == ["step", "layer", "sigma_W", "sigma_g", "sigma_R",
                          "zeta_W", "zeta_g", "zeta_R", "muon_coeff", "muown_coeff"]
        assert len(rows) == 2 * 2  # two matrix layers, two checkpoints

    @pytest.mark.parametrize("sets, rows, detail", [
        # checkpoint 2's report of W1 is written; W2's raises
        pytest.param(["optimizer.kind=muown_signum", "optimizer.eta=1e20", "steps=10"], 1,
                     "stopped at step 2, layer W2: ZeroRowError: row 0 has norm 0.0, "
                     "below the nonzero-row floor", id="report-fails"),
        pytest.param(["optimizer.eta=1e300", "steps=5"], 0,
                     "stopped at step 1, layer W1: NonFiniteError: carrier row norms "
                     "contains NaN/Inf", id="step-fails"),
    ])
    def test_noise_compare_records_where_the_run_stopped(self, tmp_path, sets, rows, detail):
        cfg = config_from_dict(apply_overrides({}, sets), preset="noise-compare")
        verdict = run_preset(cfg, str(tmp_path))
        assert verdict["assertions"] == [
            {"name": "noise_reports_computed", "pass": False, "detail": detail}]
        assert len(_read_csv(tmp_path / "log.csv")[1]) == rows

    @pytest.mark.parametrize("kind, log2, row, failed_from", [
        # the second step fails: one step counted, none of the failed one
        pytest.param("muown", 512, ["muown", "1.3407807929942597e+154", "inf", "1", "1"], [1],
                     id="step-fails"),
        # the loss before step 16 is past the sentinel
        pytest.param("signum", 17, ["signum", "131072.0", "inf", "15", "1"], [],
                     id="sentinel"),
    ])
    def test_lr_sweep_cell_stops(self, monkeypatch, tmp_path, kind, log2, row, failed_from):
        monkeypatch.setattr(optimizers, "_workers", lambda: 1)
        errors = []
        inner = harness.step_all

        def spy(layers, grads, hp):
            try:
                return inner(layers, grads, hp)
            except StepAllError:
                errors.append(layers[0].state.t)  # the steps its layers had taken
                raise

        monkeypatch.setattr(harness, "step_all", spy)
        cfg = config_from_dict({"lr_sweep": {"log2_min": log2, "log2_max": log2,
                                             "optimizers": [kind]}}, preset="lr-sweep")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert preset_lr_sweep(cfg, str(tmp_path))["pass"]
        assert _read_csv(tmp_path / "log.csv")[1] == [row]
        assert errors == failed_from

    def test_lr_sweep_grid_and_sentinel(self, tmp_path):
        # the top of the grid is large enough to blow past the loss sentinel
        # even though tanh saturation caps the growth rate
        cfg = ExperimentConfig(preset="lr-sweep", steps=40,
                               sweep_log2_min=-8, sweep_log2_max=20,
                               sweep_optimizers=("signum",))
        verdict = preset_lr_sweep(cfg, str(tmp_path))
        assert verdict["pass"]
        header, rows = _read_csv(tmp_path / "log.csv")
        assert len(rows) == 29
        etas = [float(r[1]) for r in rows]
        assert etas[0] == 2.0 ** -8 and etas[-1] == 2.0 ** 20  # endpoints exact
        losses = [float(r[2]) for r in rows]
        assert any(math.isinf(x) for x in losses), "expected a divergent cell"
        assert any(math.isfinite(x) for x in losses), "expected surviving cells"
        # divergent cells record the sentinel without aborting later cells
        diverged = [int(r[4]) for r in rows]
        assert diverged[-1] == 1 and diverged[0] == 0

    def test_a_sweep_cell_is_the_single_run_of_its_config(self, monkeypatch):
        monkeypatch.setattr(optimizers, "_workers", lambda: 1)
        cells, inner = [], harness._sweep_cell

        def spy(cell, *args):
            row = inner(cell, *args)
            cells.append((cell, row))
            return row

        monkeypatch.setattr(harness, "_sweep_cell", spy)
        cfg = config_from_dict({"steps": 20, "lr_sweep": {"log2_min": -8, "log2_max": -8}},
                               preset="lr-sweep")
        assert preset_lr_sweep(cfg, None)["pass"]
        assert [cell.optimizer_kind for cell, _ in cells] == list(cfg.sweep_optimizers)
        for cell, [kind, eta, final_loss, steps_done, diverged] in cells:
            assert (kind, eta, steps_done, diverged) == (cell.optimizer_kind, 2.0 ** -8, 20, 0)
            assert cell.hp.eta == eta and cell.steps == 20
            assert final_loss == run_experiment(cell).summary["final_loss"]  # bit for bit

    def test_sweep_rows_count_multiple_optimizers(self):
        cfg = ExperimentConfig(preset="lr-sweep", steps=5,
                               sweep_log2_min=-6, sweep_log2_max=-5,
                               sweep_optimizers=("muown", "muon", "adamw"))
        verdict = preset_lr_sweep(cfg, None)
        assert verdict["assertions"][0]["detail"] == "6 cells of 6"

    @pytest.mark.parametrize("preset, sets, steps", [
        pytest.param("single", {}, 3, id="single"),
        pytest.param("drift", {}, 3 * 3, id="drift"),  # muon, muown_fixed, muown
        pytest.param("rate-check", {"rate_check": {"horizons": [2, 3]}}, 2 + 3,
                     id="rate-check"),
        pytest.param("noise-compare", {"noise": {"checkpoints": 1}}, 3, id="noise-compare"),
        pytest.param("lr-sweep", {"lr_sweep": {"log2_min": -6, "log2_max": -6}}, 3 * 3,
                     id="lr-sweep"),
    ])
    def test_every_preset_steps_through_step_all(self, monkeypatch, preset, sets, steps):
        # a wrapper on harness.step_all, like the bench's step clock, sees every step
        # of a run in one process (lr-sweep forks no worker at _workers() == 1)
        monkeypatch.setattr(optimizers, "_workers", lambda: 1)
        calls = []
        inner = harness.step_all

        def counted(layers, grads, hp):
            calls.append(layers[0].state.t)
            return inner(layers, grads, hp)

        monkeypatch.setattr(harness, "step_all", counted)
        cfg = config_from_dict({"steps": 3, **sets}, preset=preset)
        run_preset(cfg, None)
        assert len(calls) == steps


def _sweep_rows(cfg, out_dir):
    preset_lr_sweep(cfg, str(out_dir))
    return (out_dir / "log.csv").read_bytes()


class NeedsTwoArgs(Exception):
    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


@pytest.fixture
def time_bound():
    # a forked child does not inherit the alarm; a caller stuck waiting on one
    # raises, and every child is killed and reaped on the way out
    def expired(*_):
        raise TimeoutError("worker processes still running after 120 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("error", [ZeroRowError(3, 1e-300),
                                   StepAllError([(1, ZeroRowError(0, 0.0))])],
                         ids=["ZeroRowError", "StepAllError"])
def test_run_errors_survive_a_pickle_round_trip(error):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error) and str(back) == str(error)
    if isinstance(error, ZeroRowError):
        assert (back.row, back.norm) == (error.row, error.norm)
    else:
        [(i, inner)] = back.failures
        assert i == 1 and type(inner) is ZeroRowError and str(inner) == str(error.failures[0][1])


@pytest.mark.usefixtures("time_bound")
class TestSweepWorkers:
    """lr-sweep cells run in ``_workers()`` processes: the calling process takes
    ``cells[0::w]`` and forked children the rest, with the same log bytes."""

    @pytest.mark.parametrize("sets, counts", [
        pytest.param({}, (1, 2), id="default"),
        # a slice of the all-diverging grid 0..1023 x 5 optimizers, also with
        # more workers than CPUs
        pytest.param({"steps": 30, "lr_sweep": {
            "log2_min": 0, "log2_max": 63,
            "optimizers": ["muown", "muon", "adamw", "signum", "muown_signum"]}},
            (1, 2, 5), id="divergent"),
    ])
    def test_log_bytes_do_not_depend_on_workers(self, monkeypatch, tmp_path, sets, counts):
        cfg = config_from_dict(sets, preset="lr-sweep")
        logs = []
        for count in counts:
            monkeypatch.setattr(optimizers, "_workers", lambda: count)
            logs.append(_sweep_rows(cfg, tmp_path / f"w{count}"))
        assert all(log == logs[0] for log in logs[1:])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_calling_process_steps_its_own_cells(self, monkeypatch):
        # cells (muown, muon, adamw) x one rate: worker 0 takes cells 0 and 2
        monkeypatch.setattr(optimizers, "_workers", lambda: 2)
        kinds = []
        inner = harness.step_all

        def counted(layers, grads, hp):
            kinds.append(layers[0].kind)
            return inner(layers, grads, hp)

        monkeypatch.setattr(harness, "step_all", counted)
        cfg = config_from_dict({"steps": 3, "lr_sweep": {"log2_min": -6, "log2_max": -6}},
                               preset="lr-sweep")
        assert preset_lr_sweep(cfg, None)["pass"]
        assert kinds == ["muown"] * 3 + ["adamw"] * 3

    @pytest.mark.parametrize("fault", ["fork fails", "worker dies"])
    def test_lost_worker_cells_run_in_the_caller(self, monkeypatch, tmp_path, fault):
        cfg = config_from_dict({"steps": 20, "lr_sweep": {"log2_min": -8, "log2_max": -3}},
                               preset="lr-sweep")
        monkeypatch.setattr(optimizers, "_workers", lambda: 1)
        serial = _sweep_rows(cfg, tmp_path / "serial")
        monkeypatch.setattr(optimizers, "_workers", lambda: 2)
        if fault == "fork fails":
            def no_fork():
                raise OSError(11, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", no_fork)
        else:
            caller = os.getpid()
            inner = harness.init_layers

            def dies_in_a_worker(*args, **kw):
                if os.getpid() != caller:
                    os._exit(3)  # as if killed: no result reaches the pipe
                return inner(*args, **kw)

            monkeypatch.setattr(harness, "init_layers", dies_in_a_worker)
        assert _sweep_rows(cfg, tmp_path / "lost") == serial
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("error, raised, message", [
        pytest.param(LookupError("no such cell"), LookupError, "no such cell",
                     id="picklable"),
        # no pickle carries the error, so one that cannot be rebuilt from its args
        # keeps its type too
        pytest.param(NeedsTwoArgs("bad cell", "a worker"), NeedsTwoArgs,
                     "bad cell in a worker", id="unpicklable"),
    ])
    def test_worker_exception_is_raised_in_the_caller(self, monkeypatch, error, raised,
                                                       message):
        # the muon cell, the worker's, fails in every process
        monkeypatch.setattr(optimizers, "_workers", lambda: 2)
        inner = harness.init_layers

        def fails_for_muon(*args, matrix_kind, **kw):
            if matrix_kind == "muon":
                raise error
            return inner(*args, matrix_kind=matrix_kind, **kw)

        monkeypatch.setattr(harness, "init_layers", fails_for_muon)
        cfg = config_from_dict({"steps": 3, "lr_sweep": {
            "log2_min": -6, "log2_max": -6, "optimizers": ["muown", "muon"]}},
            preset="lr-sweep")
        with pytest.raises(raised) as info:
            preset_lr_sweep(cfg, None)
        assert type(info.value) is raised and str(info.value) == message
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_caller_exception_kills_and_reaps_the_workers(self, monkeypatch):
        monkeypatch.setattr(optimizers, "_workers", lambda: 2)
        caller = os.getpid()
        inner = harness.init_layers

        def fails_in_the_caller(*args, **kw):
            if os.getpid() == caller:
                raise LookupError("caller cell failed")
            return inner(*args, **kw)

        monkeypatch.setattr(harness, "init_layers", fails_in_the_caller)
        cfg = config_from_dict({"lr_sweep": {"log2_min": -6, "log2_max": -5}},
                               preset="lr-sweep")
        with pytest.raises(LookupError, match="caller cell failed"):
            preset_lr_sweep(cfg, None)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_lost_workers_delivered_cells_are_not_run_again(self, monkeypatch):
        # the worker's share is cells 1, 3, 5 and 7; it sends 1 and 3, then
        # leaves at 5, so the caller runs 5 and 7 after its own share
        caller, calls = os.getpid(), []

        def cell(c):
            if os.getpid() != caller and c == 5:
                os._exit(0)
            calls.append(c)  # a child appends to its own copy
            return c * c

        results = []
        for workers in (1, 2):
            monkeypatch.setattr(optimizers, "_workers", lambda: workers)
            calls.clear()
            results.append(harness._map_cells(cell, range(8)))
        assert results[1] == results[0] == [c * c for c in range(8)]
        assert calls == [0, 2, 4, 6, 5, 7]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_cli_prints_its_output_once(self, tmp_path):
        # a worker leaves by os._exit, so it never flushes the caller's buffered stdout
        code = ("import sys; from muown import cli, optimizers; "
                "optimizers._workers = lambda: 2; print('started'); "
                "sys.exit(cli.main(sys.argv[1:]))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", code, "run", "lr-sweep", "--set", "steps=5",
             "--set", "lr_sweep.log2_min=-6", "--set", "lr_sweep.log2_max=-5",
             "--out", str(tmp_path)], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("started") == 1, proc.stdout
        assert proc.stdout.count("verdict: PASS") == 1, proc.stdout


    def test_child_run_error_keeps_its_type(self, monkeypatch):
        # cell 3 fails in every process; the worker's share is cells 1 and 3
        monkeypatch.setattr(optimizers, "_workers", lambda: 2)

        def cell(c):
            if c == 3:
                raise ZeroRowError(c, 0.0)
            return c

        with pytest.raises(ZeroRowError) as info:
            harness._map_cells(cell, [0, 1, 2, 3])
        assert (info.value.row, info.value.norm) == (3, 0.0)
        assert str(info.value) == str(ZeroRowError(3, 0.0))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_warnings_print_once(self, tmp_path):
        # every cell diverges; each process keeps its own once-per-location
        # registry, so the child's warnings are issued again in the caller's.
        # The caller's share warns as it runs and the child's share when its
        # rows are taken, so the lines are the same but their order is not.
        sets = ["steps=30", "lr_sweep.log2_min=1000", "lr_sweep.log2_max=1023",
                'lr_sweep.optimizers=["muown","muon","adamw","signum","muown_signum"]']
        lines = []
        for workers in (1, 2):
            proc = _cli_at(workers, tmp_path / f"w{workers}", "lr-sweep", sets)
            assert proc.returncode == 0, proc.stderr
            lines.append(sorted(proc.stderr.splitlines()))
        assert "RuntimeWarning: overflow" in "".join(lines[0])
        assert lines[1] == lines[0]


def _observed_run(monkeypatch, tmp_path, workers, preset, sets):
    """A preset run at ``workers``: its verdict, every file it wrote, and its
    probe and checkpoint calls in order (``run_experiment``'s probes)."""
    events = []
    inner_run, inner_save = harness.run_experiment, harness.save_checkpoint

    def run(cfg, out_dir=None, probe=None):
        def observed(t, before, after, loss, grads):
            params = b"".join(l.state.param.tobytes() for l in after)
            events.append(("probe", t, float(loss), hashlib.sha256(params).hexdigest()))
            if probe is not None:
                probe(t, before, after, loss, grads)

        return inner_run(cfg, out_dir, probe=observed)

    def save(path, layers, hp):
        events.append(("checkpoint", os.path.relpath(path, out)))
        inner_save(path, layers, hp)

    out = tmp_path / f"w{workers}"
    with monkeypatch.context() as m:
        m.setattr(optimizers, "_workers", lambda: workers)
        m.setattr(harness, "run_experiment", run)
        m.setattr(harness, "save_checkpoint", save)
        verdict = run_preset(config_from_dict(apply_overrides({}, sets), preset=preset),
                             str(out))
    files = {str(p.relative_to(out)): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return verdict, files, events


@pytest.mark.usefixtures("time_bound")
class TestMetricsWorker:
    """With two workers a forked child trains the steps and the caller takes
    them, computing each logged step's metrics; what the run writes, its
    stderr, and the order of its probe and checkpoint calls, are those of the
    inline run."""

    @pytest.fixture(autouse=True)
    def reaped(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("preset, sets", [
        pytest.param("single", ["steps=30", "checkpoint_every=10"], id="single"),
        pytest.param("single", ["steps=30", "log_every=4", "checkpoint_every=6",
                                "optimizer.kind=muon"], id="single-muon-every-4"),
        pytest.param("drift", ["steps=40", "log_every=3"], id="drift"),
        pytest.param("drift", ["steps=6", "optimizer.eta=1e300"], id="drift-fails"),
        # the two runs of TestCli::test_failed_run_exits_1_with_a_verdict
        pytest.param("single", ["optimizer.kind=adamw", "optimizer.eta=1e300", "steps=5"],
                     id="metrics-fail"),
        pytest.param("single", ["optimizer.eta=1e300", "steps=5", "log_every=100"],
                     id="step-fails"),
        # row 1 is in flight when step 2 fails: row 1 and checkpoint 1 still land
        pytest.param("single", ["optimizer.eta=2e154", "steps=10", "checkpoint_every=1"],
                     id="step-fails-behind-a-row"),
    ])
    def test_same_run_at_one_and_two_workers(self, monkeypatch, tmp_path, preset, sets):
        one = _observed_run(monkeypatch, tmp_path, 1, preset, sets)
        assert _observed_run(monkeypatch, tmp_path, 2, preset, sets) == one

    def test_failed_row_at_a_checkpoint_step_writes_no_checkpoint(self, monkeypatch,
                                                                  tmp_path):
        # row 2 raises ZeroRowError in W2; step 3, trained meanwhile, fails too
        sets = ["optimizer.kind=muown_signum", "optimizer.eta=1e20", "steps=10",
                "checkpoint_every=1"]
        runs = [_observed_run(monkeypatch, tmp_path, w, "single", sets) for w in (1, 2)]
        assert runs[1] == runs[0]
        _, files, events = runs[1]
        failure = json.loads(files["summary.json"])["failure"]
        assert failure == {"step": 2, "layer": "W2", "exception": "ZeroRowError",
                           "message": "row 0 has norm 0.0, below the nonzero-row floor"}
        assert [e for e in events if e[0] == "checkpoint"] == [("checkpoint", "ckpt_000001")]
        assert {f.split("/")[0] for f in files if f.startswith("ckpt")} == {"ckpt_000001"}

    @pytest.mark.parametrize("sets", [
        ["optimizer.kind=adamw", "optimizer.eta=1e300", "steps=5"],
        ["optimizer.eta=2e154", "steps=10"],
    ], ids=["metrics-fail", "step-fails-behind-a-row"])
    def test_stderr_is_the_inline_runs(self, tmp_path, sets):
        # the step trained ahead shows its warnings only once it is taken, and
        # never when the row before it fails
        procs = [_cli_at(w, tmp_path / f"w{w}", "single", sets) for w in (1, 2)]
        assert procs[0].returncode == procs[1].returncode == 1
        assert "RuntimeWarning" in procs[0].stderr
        assert procs[1].stderr == procs[0].stderr
        assert procs[1].stdout.replace("w2", "w1") == procs[0].stdout


def _no_fork():
    raise OSError(11, "Resource temporarily unavailable")


def _running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.usefixtures("time_bound")
class TestChild:
    """``harness._Child`` on toy generators, with no model."""

    @pytest.fixture(autouse=True)
    def reaped(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_items_come_in_order(self, monkeypatch, workers):
        # 40 items of 320 kB: more than the pipe holds, so the child waits on it
        monkeypatch.setattr(optimizers, "_workers", lambda: workers)
        caller = os.getpid()
        with harness._Child(lambda k: ((i, os.getpid(), np.full(40_000, float(i)))
                                       for i in range(k, 40))) as items:
            got = list(items)
        assert [i for i, _, _ in got] == list(range(40))
        assert {pid == caller for _, pid, _ in got} == {workers == 1}
        assert all(np.array_equal(a, np.full(40_000, float(i))) for i, _, a in got)

    def test_each_items_warnings_are_issued_when_it_is_taken(self, monkeypatch):
        monkeypatch.setattr(optimizers, "_workers", lambda: 2)

        def make(k):
            for i in range(k, 3):
                warnings.warn(f"making {i}", UserWarning)
                yield i

        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            with harness._Child(make) as items:
                seen = [(i, [str(w.message) for w in shown]) for i in items]
        assert seen == [(i, [f"making {j}" for j in range(i + 1)]) for i in range(3)]

    def test_makes_error_is_raised_after_the_items_before_it(self, monkeypatch):
        monkeypatch.setattr(optimizers, "_workers", lambda: 2)

        def make(k):
            yield from range(k, 3)
            raise ZeroRowError(1, 0.0)

        got = []
        with pytest.raises(ZeroRowError) as info:
            with harness._Child(make) as items:
                for item in items:
                    got.append(item)
        assert got == [0, 1, 2]
        assert (info.value.row, info.value.norm) == (1, 0.0)

    def test_a_failed_fork_makes_the_items_here(self, monkeypatch):
        monkeypatch.setattr(optimizers, "_workers", lambda: 2)
        monkeypatch.setattr(os, "fork", _no_fork)
        caller = os.getpid()
        with harness._Child(lambda k: (os.getpid() for _ in range(k, 3))) as items:
            assert list(items) == [caller] * 3

    @pytest.mark.parametrize("k", [0, 3])
    def test_a_killed_childs_rest_is_made_here(self, monkeypatch, k):
        monkeypatch.setattr(optimizers, "_workers", lambda: 2)
        caller = os.getpid()

        def make(start):
            for i in range(start, 6):
                if os.getpid() != caller and i == k:
                    os.kill(os.getpid(), signal.SIGKILL)
                yield i, os.getpid()

        with harness._Child(make) as items:
            got = list(items)
        assert [i for i, _ in got] == list(range(6))
        assert [pid == caller for _, pid in got] == [False] * k + [True] * (6 - k)

    def test_caller_error_kills_and_reaps_the_child(self, monkeypatch):
        monkeypatch.setattr(optimizers, "_workers", lambda: 2)
        with pytest.raises(LookupError):
            with harness._Child(itertools.count) as items:
                for i in items:
                    if i == 3:
                        raise LookupError("caller failed")

    @pytest.mark.parametrize("k", [0, 2])
    def test_a_child_killed_mid_message_has_its_rest_made_here(self, monkeypatch, k):
        # item k's 320 kB array is on the pipe when its next part kills the child
        monkeypatch.setattr(optimizers, "_workers", lambda: 2)
        caller = os.getpid()

        def make(start):
            for i in range(start, 4):
                yield (i, os.getpid(), np.full(40_000, float(i)),
                       _KillsAChild(caller) if i == k else None)

        with harness._Child(make) as items:
            got = list(items)
        assert [i for i, *_ in got] == list(range(4))
        assert [pid == caller for _, pid, *_ in got] == [False] * k + [True] * (4 - k)
        assert all(np.array_equal(a, np.full(40_000, float(i))) for i, _, a, _ in got)

    def test_an_item_that_does_not_pickle_is_made_here(self, monkeypatch):
        # the child cannot send item 2, which holds a lambda, and ends there
        caller = os.getpid()

        def make(start):
            for i in range(start, 4):
                yield i, os.getpid(), (lambda i=i: i) if i == 2 else None

        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(optimizers, "_workers", lambda: workers)
            with harness._Child(make) as items:
                runs.append([(i, pid == caller, f and f()) for i, pid, f in items])
        assert [(i, f) for i, _, f in runs[1]] == [(i, f) for i, _, f in runs[0]]
        assert [here for _, here, _ in runs[1]] == [False, False, True, True]


class _KillsAChild:
    """An object whose pickling SIGKILLs any process but ``caller``."""

    def __init__(self, caller):
        self.caller = caller

    def __reduce__(self):
        if os.getpid() != self.caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return type(self), (self.caller,)


@pytest.mark.usefixtures("time_bound")
class TestTrainingChild:
    """``run_experiment`` trains in a ``_Child`` at two workers."""

    @pytest.fixture(autouse=True)
    def reaped(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fault", ["fork fails", "child killed in step 4",
                                       "child ends after 3 steps"])
    def test_lost_child_steps_are_trained_in_the_caller(self, monkeypatch, tmp_path,
                                                        fault):
        sets = ["steps=30", "checkpoint_every=10"]
        inline = _observed_run(monkeypatch, tmp_path, 1, "single", sets)
        caller, calls = os.getpid(), []
        inner = harness.step_all

        def counted(layers, grads, hp):
            calls.append(os.getpid())  # the child's list is its own copy
            if os.getpid() != caller and len(calls) == 4:  # steps 1-3 were sent
                if "killed" in fault:
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(0)
            return inner(layers, grads, hp)

        monkeypatch.setattr(harness, "step_all", counted)
        if fault == "fork fails":
            monkeypatch.setattr(os, "fork", _no_fork)
        lost = _observed_run(monkeypatch, tmp_path / "lost", 2, "single", sets)
        assert lost == inline
        # the caller trains the steps it did not take from the child, once
        assert calls == [caller] * (30 if fault == "fork fails" else 27)

    def test_a_failing_step_is_trained_once_in_the_caller(self, monkeypatch, tmp_path):
        # step 8 of 12 fails in every process: the child trains steps 1-7 and
        # leaves at step 8, which the caller trains alone from step 7's layers
        sets = ["steps=12", "checkpoint_every=4"]
        caller, calls, inner = os.getpid(), [], harness.step_all

        def fails_step_8(layers, grads, hp):
            if os.getpid() == caller:
                calls.append(layers[0].state.t)
            if layers[0].state.t == 7:
                raise StepAllError([(0, ZeroRowError(0, 0.0))])
            return inner(layers, grads, hp)

        monkeypatch.setattr(harness, "step_all", fails_step_8)
        inline = _observed_run(monkeypatch, tmp_path, 1, "single", sets)
        assert inline[0]["pass"] is False and calls == list(range(8))
        calls.clear()
        assert _observed_run(monkeypatch, tmp_path / "two", 2, "single", sets) == inline
        assert calls == [7]

    def test_the_caller_holds_no_earlier_step_while_the_next_one_loads(self, monkeypatch):
        # each step's gradient is freed once its row is done, not after the
        # next step has been unpickled beside it
        monkeypatch.setattr(optimizers, "_workers", lambda: 2)
        grads, alive, inner = [], [], pickle.load

        def load(fh):
            alive.append(sum(ref() is not None for ref in grads))
            return inner(fh)

        monkeypatch.setattr(pickle, "load", load)
        run_experiment(ExperimentConfig(steps=6),
                       probe=lambda t, before, after, loss, g: grads.append(weakref.ref(g[0])))
        assert len(grads) == 6
        assert alive == [0] * 7  # six steps, then the end of the stream

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
    def test_killed_cli_run_leaves_no_training_child(self, tmp_path):
        # the caller stops at its first row and is killed; its child, trained
        # ahead until the pipe is full, fails its next write and leaves
        code = textwrap.dedent("""
            import os, sys, time
            from muown import cli, harness, optimizers
            optimizers._workers = lambda: 2
            fork = os.fork

            def forked():
                pid = fork()
                if pid:
                    print("child", pid, flush=True)
                return pid

            def first_row(*args):
                print("row", flush=True)
                time.sleep(120)

            os.fork, harness._layer_metrics = forked, first_row
            sys.exit(cli.main(sys.argv[1:]))
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "run", "single", "--set", "steps=100000",
             "--out", str(tmp_path)], stdout=subprocess.PIPE, text=True, env=env)
        child = None
        try:
            child = int(proc.stdout.readline().split()[1])
            assert proc.stdout.readline() == "row\n"
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 5
            while _running(child) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(child)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            if child is not None:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
    def test_a_live_sibling_does_not_keep_a_dead_callers_child_running(self, tmp_path):
        # three workers share 108 cells of 3,000 steps. The caller stalls in its
        # first cell and the second child in every cell; once the caller is
        # killed, the first child fails its next write and leaves, though the
        # second child, forked after it, is still alive
        code = textwrap.dedent("""
            import os, sys, time
            from muown import cli, harness, optimizers
            optimizers._workers = lambda: 3
            caller, fork, cell, children = os.getpid(), os.fork, harness._sweep_cell, []

            def forked():
                pid = fork()
                if pid:
                    children.append(pid)
                    print("child", pid, flush=True)
                return pid

            def stalled(*args):
                if os.getpid() == caller:
                    print("stall", flush=True)
                if children:  # the caller and the second child; the first has none
                    time.sleep(120)
                return cell(*args)

            os.fork, harness._sweep_cell = forked, stalled
            sys.exit(cli.main(sys.argv[1:]))
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "run", "lr-sweep", "--set", "steps=3000",
             "--set", "lr_sweep.log2_min=-40", "--out", str(tmp_path)],
            stdout=subprocess.PIPE, text=True, env=env)
        children = []
        try:
            children = [int(proc.stdout.readline().split()[1]) for _ in range(2)]
            assert proc.stdout.readline() == "stall\n"
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 8
            while _running(children[0]) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(children[0])
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            for child in children:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)


@pytest.mark.usefixtures("time_bound")
class TestChildOnlyError:
    """An error that only a forked child meets loses that child, so the caller
    makes the child's items itself and gets the one-worker result."""

    @pytest.fixture(autouse=True)
    def reaped(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_map_cells_gives_the_one_worker_results(self, monkeypatch):
        caller = os.getpid()

        def cell(c):
            if os.getpid() != caller:
                raise ZeroRowError(c, 0.0)
            return c * c

        results = []
        for workers in (1, 2):
            monkeypatch.setattr(optimizers, "_workers", lambda: workers)
            results.append(harness._map_cells(cell, [0, 1, 2, 3]))
        assert results == [[0, 1, 4, 9]] * 2

    def test_single_run_writes_the_inline_runs_files(self, monkeypatch, tmp_path):
        sets = ["steps=12", "checkpoint_every=4"]
        inline = _observed_run(monkeypatch, tmp_path, 1, "single", sets)
        caller, inner = os.getpid(), harness.step_all

        def fails_in_the_child(layers, grads, hp):
            if os.getpid() != caller and layers[0].state.t == 5:
                raise StepAllError([(0, ZeroRowError(0, 0.0))])
            return inner(layers, grads, hp)

        monkeypatch.setattr(harness, "step_all", fails_in_the_child)
        assert _observed_run(monkeypatch, tmp_path / "healed", 2, "single", sets) == inline


class TestVectorRouting:
    @pytest.mark.parametrize("preset, sets", [
        ("single", {"optimizer": {"kind": "signum"}}),
        ("noise-compare", {"optimizer": {"kind": "signum"}}),
        ("lr-sweep", {"lr_sweep": {"optimizers": ["signum"], "log2_min": -6,
                                   "log2_max": -6}}),
    ])
    def test_signum_steps_vector_params_with_signum(self, monkeypatch, preset, sets):
        # one process, so that the spy sees every step (single forks its
        # training child at two workers)
        monkeypatch.setattr(optimizers, "_workers", lambda: 1)
        kinds = set()
        inner = harness.step_all

        def spy(layers, grads, hp):
            kinds.update(l.kind for l in layers if l.state.param.ndim == 1)
            return inner(layers, grads, hp)

        monkeypatch.setattr(harness, "step_all", spy)
        cfg = config_from_dict({"steps": 4, **sets}, preset=preset)
        assert run_preset(cfg, None)["pass"]
        assert kinds == {"signum"}


_TOY = st.integers(1, 4)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _toy_configs(draw):
    """A config dict at toy size: steps, dims and horizons <= 4, at most two
    lr-sweep cells, eta and gamma anywhere in the positive floats; the cheap
    fields may be left out."""
    kind = draw(st.sampled_from(sorted(models.MODEL_DIMS)))
    sweep = draw(st.lists(st.sampled_from(sorted(optimizers.INIT_FNS)),
                          min_size=1, max_size=2, unique=True))
    log2_min = draw(st.integers(-1074, 1023))
    log2_max = min(log2_min + draw(st.integers(0, 2 - len(sweep))), 1023)
    raw = {
        "steps": draw(_TOY),
        "model": {"kind": kind, "dims": {d: draw(_TOY) for d in models.MODEL_DIMS[kind]}},
        "rate_check": {"horizons": draw(st.lists(_TOY, min_size=1, max_size=2))},
        "lr_sweep": {"optimizers": sweep, "log2_min": log2_min, "log2_max": log2_max},
    }
    optional = {
        "seed": st.integers(0, 2**32 - 1),
        "log_every": _TOY,
        "checkpoint_every": st.integers(0, 4),
        "model.num_batches": st.integers(1, 3),
        "model.batch_size": _TOY,
        "optimizer.kind": st.sampled_from(sorted(optimizers.INIT_FNS)),
        "optimizer.eta": _POSITIVE,
        "optimizer.weight_decay": st.just(0.0) | st.floats(0, 1),
        "optimizer.beta1": st.floats(0, 0.99),
        "optimizer.adam_beta1": st.floats(0, 0.9),
        "optimizer.adam_beta2": st.floats(0.91, 0.999),
        "optimizer.adam_eps": st.floats(1e-12, 1e-2),
        "optimizer.gamma": st.none() | _POSITIVE,
        "optimizer.backend": st.sampled_from(["ns", "polar"]),
        "optimizer.rms_scale_on": st.booleans(),
        "optimizer.ns_steps": _TOY,
        "optimizer.ns_coeffs": st.sampled_from([list(CLASSIC_COEFFS),
                                                list(AGGRESSIVE_COEFFS)]),
        "schedule.warmup_frac": st.floats(0, 0.5),
        "schedule.decay_frac": st.floats(0, 0.5),
        "schedule.floor": st.floats(0, 1),
        "noise.checkpoints": _TOY,
    }
    for path, values in optional.items():
        if draw(st.booleans()):
            section, _, leaf = path.rpartition(".")
            (raw.setdefault(section, {}) if section else raw)[leaf] = draw(values)
    return raw


# a warmup-stable-decay schedule: 4 warmup and 40 decay steps of the default 200
_FRACTIONS = ["schedule.warmup_frac=0.02", "schedule.decay_frac=0.2"]


class TestCli:
    def test_run_with_config_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"steps": 30, "log_every": 10}))
        out = tmp_path / "out"
        rc = cli_main(["run", "drift", "--config", str(cfg_file),
                       "--set", "steps=20", "--out", str(out)])
        assert rc == 0
        verdict = json.load(open(out / "verdict.json"))
        assert verdict["pass"]

    def test_config_error_exit_code(self, tmp_path):
        rc = cli_main(["run", "drift", "--set", "steps=0",
                       "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("preset, override", [
        ("drift", "optimizer.ns_steps=0"),
        ("drift", "optimizer.ns_coeffs=[1,2]"),
        ("drift", "optimizer.ns_coeffs=5"),
        ("rate-check", "rate_check.horizons=[0]"),
        ("rate-check", "rate_check.horizons=5"),
        ("lr-sweep", "lr_sweep.optimizers=5"),
        ("single", 'model.dims={"d_in": 6, "hidden": 0, "d_out": 4}'),
        # a section that is not an object
        ("single", "model=5"),
        ("single", "optimizer=5"),
        ("single", "schedule=5"),
        ("single", "rate_check=5"),
        # a value of the wrong JSON type
        ("single", "optimizer.kind=[1]"),
        ("single", "lr_sweep.optimizers=[[1]]"),
        ("single", 'optimizer.rms_scale_on="no"'),
        ("single", "optimizer.eta=true"),
        ("single", 'optimizer.eta="x"'),
        ("single", 'schedule.floor="x"'),
        ("single", "optimizer.eta=NaN"),
        ("single", "optimizer.weight_decay=NaN"),
        pytest.param("single", "schedule.floor=1" + "0" * 400,
                     id="single-schedule.floor=10**400"),
        ("single", "optimizer.ns_steps=1e400"),
        # a key that is not a dimension of the model kind
        ("single", "model.dims.foo=3"),
        # a seed SplitMix64 would alias: it keeps only the low 64 bits
        ("single", "seed=-1"),
        ("single", f"seed={2 ** 64}"),
        # out of range, caught by the dataclass that holds the field
        ("single", "optimizer.adam_eps=0"),
        ("single", "schedule.decay_frac=1.01"),
        ("single", "schedule.floor=-1"),
        ("single", "model.batch_size=0"),
        # weight decay would unfreeze muown_fixed's magnitudes; the last --set is named
        pytest.param("single", ("optimizer.kind=muown_fixed", "optimizer.weight_decay=0.1"),
                     id="single-muown_fixed-optimizer.weight_decay=0.1"),
        pytest.param("lr-sweep", ('lr_sweep.optimizers=["muown_fixed"]',
                                  "optimizer.weight_decay=0.1"),
                     id="lr-sweep-muown_fixed-optimizer.weight_decay=0.1"),
        # a grid exponent k whose rate 2.0 ** k overflows or underflows to 0
        pytest.param("lr-sweep", ("lr_sweep.log2_max=2000", "lr_sweep.log2_min=2000"),
                     id="lr-sweep-lr_sweep.log2_min=2000"),
        pytest.param("lr-sweep", ("lr_sweep.log2_max=-2000", "lr_sweep.log2_min=-2000"),
                     id="lr-sweep-lr_sweep.log2_min=-2000"),
        ("lr-sweep", "lr_sweep.log2_max=1024"),
        # one batch leaves noise_coefficients no batch-to-batch deviation to measure
        ("noise-compare", "model.num_batches=1"),
    ])
    def test_bad_field_exits_2_naming_it(self, tmp_path, capsys, preset, override):
        overrides = override if isinstance(override, tuple) else (override,)
        sets = [arg for item in overrides for arg in ("--set", item)]
        rc = cli_main(["run", preset, *sets, "--out", str(tmp_path / "x")])
        assert rc == 2
        field = overrides[-1].partition("=")[0]
        assert f"config error: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "optimizer.weight_decay=-1", "optimizer.beta1=1", "optimizer.adam_beta1=1",
        "optimizer.adam_beta2=0.5", "optimizer.gamma=0", 'optimizer.backend="svd"',
        "schedule.warmup_frac=1.5", "schedule.decay_frac=-0.1",
    ])
    def test_out_of_range_field_exits_2_naming_its_path(self, tmp_path, capsys, override):
        # each range check's message starts with its field, which _replaced maps to the path
        rc = cli_main(["run", "single", "--set", override, "--out", str(tmp_path / "x")])
        assert rc == 2
        field = override.partition("=")[0]
        assert f"config error: {field}: {field.rpartition('.')[2]} " in capsys.readouterr().err

    def test_config_file_holding_a_list_exits_2(self, tmp_path, capsys):
        listed = tmp_path / "list.json"
        listed.write_text('[{"steps": 2}]')
        rc = cli_main(["run", "single", "--config", str(listed), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "must hold a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_out_that_is_a_file_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep")
        rc = cli_main(["run", "single", "--set", "steps=1", "--out", str(out)])
        assert rc == 2
        assert "config error: --out" in capsys.readouterr().err
        assert out.read_text() == "keep"

    def test_readme_config_block_is_the_default_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Config file schema", 1)[1].split("```json", 1)[1]
        block = json.loads(block.split("```", 1)[0])
        assert config_from_dict(block) == ExperimentConfig()
        paths = {path for path, _ in harness._leaves(block)}
        assert paths == set(harness._SCHEMA)

    def test_preset_in_a_config_exits_2_naming_it(self, tmp_path, capsys):
        # the preset is the command's: a config that names one would be overruled silently
        config = tmp_path / "cfg.json"
        config.write_text('{"preset": "drift", "steps": 2}')
        for args in (["--config", str(config)], ["--set", "preset=drift"]):
            rc = cli_main(["run", "single", *args, "--out", str(tmp_path / "x")])
            assert rc == 2
            assert "config error: preset: unknown config field" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("item, key", [("=5", ""), (".x=1", ".x"),
                                           ("model..kind=mlp2", "model..kind")])
    def test_empty_key_name_exits_2_quoting_the_set(self, tmp_path, capsys, item, key):
        rc = cli_main(["run", "single", "--set", item, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: --set {item!r}: empty name in key {key!r}\n")

    @pytest.mark.parametrize("raw, where", [('{"model": {"": 1}}', "model"),
                                            ('{"": 1}', "top level")])
    def test_an_empty_field_name_in_a_config_file_names_its_section(self, tmp_path, capsys,
                                                                    raw, where):
        config = tmp_path / "cfg.json"
        config.write_text(raw)
        rc = cli_main(["run", "single", "--config", str(config), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {where}: a field with an empty name\n"

    def test_an_empty_dimension_name_exits_2_naming_the_dims(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"model": {"dims": {"": 1}}}')
        for args in (["--config", str(config)], ["--set", 'model.dims={"": 1}']):
            rc = cli_main(["run", "single", *args, "--out", str(tmp_path / "x")])
            assert rc == 2
            assert capsys.readouterr().err == (
                "config error: model.dims: a field with an empty name\n")
        assert not (tmp_path / "x").exists()

    def test_schedule_kind_exits_2_naming_it(self, tmp_path, capsys):
        # zero fractions are the constant schedule, so no kind is left to choose
        config = tmp_path / "cfg.json"
        config.write_text('{"schedule": {"kind": "wsd"}, "steps": 2}')
        for args in (["--config", str(config)], ["--set", 'schedule.kind="constant"']):
            rc = cli_main(["run", "single", *args, "--out", str(tmp_path / "x")])
            assert rc == 2
            assert ("config error: schedule.kind: unknown config field"
                    in capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    def test_a_lone_warmup_fraction_ramps_the_rate(self, tmp_path):
        rc = cli_main(["run", "single", "--set", "schedule.warmup_frac=0.5",
                       "--set", "steps=4", "--out", str(tmp_path)])
        assert rc == 0
        assert [float(row[1]) for row in _read_csv(tmp_path / "log.csv")[1]] == [
            0.01, 0.02, 0.02, 0.02]

    @pytest.mark.parametrize("preset, sets, field", [
        ("single", ["optimizer.eta=5e-324"], "optimizer.eta"),
        ("single", ["optimizer.kind=muown_signum", "optimizer.gamma=5e-324"],
         "optimizer.gamma"),
        ("lr-sweep", ["lr_sweep.log2_min=-1074", "lr_sweep.log2_max=-1074"],
         "lr_sweep.log2_min"),
    ])
    def test_a_scheduled_rate_that_underflows_exits_2_naming_its_peak(
            self, tmp_path, capsys, preset, sets, field):
        # 200 steps: the first rate is a quarter of the peak, which rounds to 0.0
        sets = [*sets, *_FRACTIONS]
        rc = cli_main(["run", preset, *(a for item in sets for a in ("--set", item)),
                       "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: {field}: its rate at step 1 is 0.0, not > 0\n")
        assert not (tmp_path / "x").exists()

    def test_a_scheduled_grid_rate_at_the_top_of_the_float_range(self, monkeypatch, tmp_path):
        # each ramp and decay rate is a fraction <= 1 of its peak, so none overflows
        monkeypatch.setattr(optimizers, "_workers", lambda: 1)
        rates = []
        inner = harness.step_all

        def spy(layers, grads, hp):
            rates.append(hp.eta)
            return inner(layers, grads, hp)

        monkeypatch.setattr(harness, "step_all", spy)
        sets = ["lr_sweep.log2_min=1023", "lr_sweep.log2_max=1023", *_FRACTIONS]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rc = cli_main(["run", "lr-sweep", *(a for item in sets for a in ("--set", item)),
                           "--out", str(tmp_path)])
        assert rc == 0
        assert rates[0] == 2.0 ** 1021 and max(rates) <= 2.0 ** 1023

    @pytest.mark.parametrize("preset, sets, digest", [
        ("single", ["model.kind=logistic", 'model.dims={"features": 5}', "steps=20"],
         "a8ef7495e684f5b37b464f043797b5b30ca1ede5121a4f82424b660260f39c2f"),
        ("single", ["model.kind=quadratic", 'model.dims={"m": 4, "n": 3}', "steps=20"],
         "6c736a4bda4936fab556053164291b7b18a91e690f6773956d2fd872052854a0"),
        ("noise-compare", ["model.kind=quadratic", 'model.dims={"m": 4, "n": 3}', "steps=8"],
         "7eb4003dd1a7c428795c4960d7f1b5786a8fb860aaf1b0bb2dd99c1081877c3c"),
    ], ids=["logistic-single", "quadratic-single", "quadratic-noise-compare"])
    def test_non_default_model_logs_keep_their_bytes(self, tmp_path, preset, sets, digest):
        # the golden hashes cover mlp2 only; these pin the quadratic and logistic paths
        out = tmp_path / "out"
        rc = cli_main(["run", preset, *(a for item in sets for a in ("--set", item)),
                       "--out", str(out)])
        assert rc == 0
        assert hashlib.sha256((out / "log.csv").read_bytes()).hexdigest() == digest

    @settings(max_examples=300, deadline=None)
    @given(sets=st.lists(st.tuples(
        # a known leaf or section, optionally with a random tail: mostly unknown paths
        st.tuples(st.sampled_from(sorted(set(harness._SCHEMA) | harness._SECTIONS)),
                  st.sampled_from(["", ".", ".dims", ".foo"])
                  | st.from_regex(r"[a-z_.]{0,8}", fullmatch=True)).map("".join),
        st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
                     | st.sampled_from([0, 1, -1, 0.5, 10 ** 400, "mlp2", "wsd", "muown"]),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                     max_leaves=6)), max_size=4))
    def test_any_json_at_any_path_is_a_config_or_a_config_error(self, sets):
        overrides = [f"{path}={json.dumps(value)}" for path, value in sets]
        try:
            config_from_dict(apply_overrides({}, overrides))
        except ConfigError:
            pass

    @settings(max_examples=40, deadline=None)
    @given(preset=st.sampled_from(harness.PRESETS), raw=_toy_configs())
    def test_a_toy_config_runs_to_a_verdict_or_a_config_error(self, preset, raw):
        """Any toy-size config through ``cli.main``: exit 0 or 1 with a verdict,
        or exit 2 for a config the dataclasses reject, never a traceback."""
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "config.json")
            with open(config, "w") as fh:
                json.dump(raw, fh)
            out = os.path.join(tmp, "out")
            rc = cli_main(["run", preset, "--config", config, "--out", out])
            assert rc in (0, 1, 2)
            if rc != 2:
                with open(os.path.join(out, "verdict.json")) as fh:
                    assert json.load(fh)["pass"] == (rc == 0)

    def test_bad_json_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = cli_main(["run", "drift", "--config", str(bad),
                       "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("content", [
        b'\xff\xfe{"steps": 2}',  # a UTF-16 byte-order mark: not UTF-8
        b'{"steps": 2, "seed": "\xe9"}',  # a latin-1 byte inside a string
        b'{"seed": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",  # too deep for json
    ], ids=["utf16-bom", "latin1-byte", "nested-100000"])
    def test_unreadable_config_exits_2_naming_it(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        rc = cli_main(["run", "single", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "config error: --config" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_deeply_nested_set_exits_2_naming_it(self, tmp_path, capsys):
        rc = cli_main(["run", "single", "--set", "seed=" + "[" * 100_000 + "]" * 100_000,
                       "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "config error: --set seed" in capsys.readouterr().err

    def test_byte_identical_reruns_via_cli(self, tmp_path):
        for name in ("r1", "r2"):
            rc = cli_main(["run", "rate-check",
                           "--set", "rate_check.horizons=[100]",
                           "--out", str(tmp_path / name)])
            assert rc == 0
        a = (tmp_path / "r1" / "log.csv").read_bytes()
        b = (tmp_path / "r2" / "log.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("sets", [
        # the per-step metrics of a 1e300-sized weight fail
        ["optimizer.kind=adamw", "optimizer.eta=1e300", "steps=5"],
        # no metrics: the second optimizer step fails
        ["optimizer.eta=1e300", "steps=5", "log_every=100"],
    ])
    def test_failed_run_exits_1_with_a_verdict(self, tmp_path, sets):
        proc = _run_cli(tmp_path, "single", sets)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert re.search(r"\[FAIL\] run_completed: stopped at step \d+, layer W[12]: "
                         r"\w+Error: ", proc.stdout), proc.stdout
        failure = json.load(open(tmp_path / "summary.json"))["failure"]
        assert failure["layer"] in ("W1", "W2")
        assert not json.load(open(tmp_path / "verdict.json"))["pass"]

    def test_overflowing_row_norms_stop_the_run_at_step_1(self, tmp_path):
        # the first muown step's carrier rows are finite, but their norms overflow
        proc = _run_cli(tmp_path, "single", ["optimizer.eta=1e200", "steps=2"])
        assert proc.returncode == 1, proc.stderr
        assert ("[FAIL] run_completed: stopped at step 1, layer W1: NonFiniteError: "
                "carrier row norms contains NaN/Inf") in proc.stdout, proc.stdout

    def test_failed_rate_check_horizon_exits_1_with_a_verdict(self, tmp_path):
        # step size sqrt(1/4) = 0.5 drives the magnitude of the 2x2 identity to 0
        proc = _run_cli(tmp_path, "rate-check", ["rate_check.horizons=[1,4]"])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "[PASS] rate_bound_T1: " in proc.stdout, proc.stdout
        assert re.search(r"\[FAIL\] run_completed_T4: stopped at step \d+, layer W: "
                         r"ZeroRowError: ", proc.stdout), proc.stdout


def _run_cli(out_dir, preset, sets):
    argv = [sys.executable, "-m", "muown.cli", "run", preset]
    for item in sets:
        argv += ["--set", item]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(argv + ["--out", str(out_dir)], capture_output=True,
                          text=True, env=env, timeout=120)


def _cli_at(workers, out_dir, preset, sets):
    """The CLI run in a new process with ``optimizers._workers()`` at ``workers``."""
    code = ("import sys; from muown import cli, optimizers; "
            f"optimizers._workers = lambda: {workers}; sys.exit(cli.main(sys.argv[1:]))")
    argv = [sys.executable, "-c", code, "run", preset]
    for item in sets:
        argv += ["--set", item]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(argv + ["--out", str(out_dir)], capture_output=True,
                          text=True, env=env, timeout=120)

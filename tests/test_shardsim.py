from dataclasses import fields

import numpy as np
import pytest

from muown import optimizers
from muown.errors import StepAllError
from muown.models import loss_and_grad, make_model
from muown.optimizers import HyperParams, init_layers, step_all, step_layer
from muown.shardsim import ShardPlan, make_plan, run_sharded

from conftest import bitwise_equal

MLP_DIMS = {"d_in": 5, "hidden": 6, "d_out": 3}


class TestMakePlan:
    def test_round_robin(self):
        assert make_plan(5, 2).assignment == (0, 1, 0, 1, 0)
        assert make_plan(3, 1).assignment == (0, 0, 0)

    def test_balanced_loads(self):
        plan = make_plan(8, 4)
        loads = [len(plan.layers_of(r)) for r in range(4)]
        assert loads == [2, 2, 2, 2]

    def test_load_imbalance_at_most_one(self):
        plan = make_plan(7, 3)
        loads = [len(plan.layers_of(r)) for r in range(3)]
        assert max(loads) - min(loads) <= 1
        assert sum(loads) == 7

    def test_invalid(self):
        with pytest.raises(ValueError):
            make_plan(0, 2)
        with pytest.raises(ValueError):
            make_plan(2, 0)


def _mlp_problem(matrix_kind, seed=4):
    spec, params, batches = make_model("mlp2", MLP_DIMS, seed=seed,
                                       num_batches=4, batch_size=6)
    layers = init_layers(params.named_values(), matrix_kind=matrix_kind)
    return spec, layers, batches


def _grads_for(spec, layers, batch):
    from muown.models import ParamSet
    pset = ParamSet((l.name, l.state.param) for l in layers)
    _, grads = loss_and_grad(spec, pset, batch)
    return grads


class TestShardedEquivalence:
    @pytest.mark.parametrize("kind", ["muown", "muown_fixed", "muown_signum",
                                      "muon", "adamw", "signum"])
    @pytest.mark.parametrize("ranks", [1, 2, 3, 8])
    def test_bitwise_equal_to_replicated(self, kind, ranks):
        hp = HyperParams(eta=0.02, backend="polar")
        spec, rep_layers, batches = _mlp_problem(kind)
        _, shard_layers, _ = _mlp_problem(kind)
        plan = make_plan(len(rep_layers), ranks)
        for t in range(50):
            batch = batches[t % len(batches)]
            rep_layers = step_all(rep_layers, _grads_for(spec, rep_layers, batch), hp)
            shard_layers, _ = run_sharded(
                shard_layers, _grads_for(spec, shard_layers, batch), hp, plan)
        for a, b in zip(rep_layers, shard_layers):
            assert bitwise_equal(a.state.param, b.state.param), (kind, ranks, a.name)
            assert a.state.t == b.state.t

    def test_single_rank_identical_to_step_all(self):
        hp = HyperParams(eta=0.02, backend="polar")
        spec, layers, batches = _mlp_problem("muown")
        grads = _grads_for(spec, layers, batches[0])
        direct = step_all(layers, grads, hp)
        sharded, traffic = run_sharded(layers, grads, hp, make_plan(len(layers), 1))
        for a, b in zip(direct, sharded):
            assert bitwise_equal(a.state.param, b.state.param)
        assert traffic == sum(8 * l.state.param.size for l in layers)


class TestTrafficAccounting:
    def test_counts_only_parameter_bytes(self):
        hp = HyperParams(eta=0.02, backend="polar")
        spec, layers, batches = _mlp_problem("muown")
        grads = _grads_for(spec, layers, batches[0])
        _, traffic = run_sharded(layers, grads, hp, make_plan(len(layers), 2))
        # W1: 6x5, b1: 6, W2: 3x6, b2: 3 -> parameter floats only, 8 bytes each
        expected = 8 * (6 * 5 + 6 + 3 * 6 + 3)
        assert traffic == expected

    def test_traffic_independent_of_rank_count(self):
        hp = HyperParams(eta=0.02, backend="polar")
        spec, layers, batches = _mlp_problem("muown")
        grads = _grads_for(spec, layers, batches[0])
        traffics = set()
        for ranks in (1, 2, 3, 8):
            _, traffic = run_sharded(layers, grads, hp, make_plan(len(layers), ranks))
            traffics.add(traffic)
        assert len(traffics) == 1

    def test_plan_coverage_checked(self):
        hp = HyperParams(eta=0.02)
        spec, layers, batches = _mlp_problem("muown")
        grads = _grads_for(spec, layers, batches[0])
        with pytest.raises(ValueError):
            run_sharded(layers, grads, hp, ShardPlan(num_ranks=1, assignment=(0,)))


class TestPooledSharding:
    def _heavy_problem(self, rng):
        named = [("W0", rng.standard_normal((128, 128)) / 8), ("b0", rng.standard_normal(128)),
                 ("W1", rng.standard_normal((64, 256)) / 16), ("b1", rng.standard_normal(64))]
        layers = init_layers(named, matrix_kind="muown")
        return layers, [rng.standard_normal(l.state.param.shape) for l in layers]

    def test_pooled_path_equals_replicated_stepping(self, rng, monkeypatch, pool_calls):
        monkeypatch.setattr(optimizers, "_workers", lambda: 2)
        layers, grads = self._heavy_problem(rng)
        hp = HyperParams(eta=0.02)
        sharded, traffic = run_sharded(layers, grads, hp, make_plan(len(layers), 2))
        assert pool_calls == [1]
        replicated = [step_layer(l, g, hp) for l, g in zip(layers, grads)]
        for a, b in zip(sharded, replicated):
            assert a.name == b.name
            for f in fields(a.state):
                x, y = getattr(a.state, f.name), getattr(b.state, f.name)
                assert bitwise_equal(x, y) if isinstance(x, np.ndarray) else x == y, f.name
        assert traffic == 8 * sum(l.state.param.size for l in layers)

    def test_failed_step_raises_step_all_error(self, rng):
        layers, grads = self._heavy_problem(rng)
        grads[2] = np.full_like(grads[2], np.nan)
        with pytest.raises(StepAllError) as exc:
            run_sharded(layers, grads, HyperParams(eta=0.02), make_plan(len(layers), 2))
        assert [i for i, _ in exc.value.failures] == [2]

"""The step engine: concurrent ``step_all`` against the serial per-layer loop."""

import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import fields

import numpy as np
import pytest

from muown import optimizers
from muown.errors import StepAllError
from muown.harness import _DEFAULT_DIMS
from muown.models import init_params
from muown.optimizers import HEAVY_SIZE, HyperParams, init_layers, step_all, step_layer

from conftest import bitwise_equal

KINDS = ["muown", "muown_fixed", "muown_signum", "muon", "adamw", "signum"]
# three heavy matrices, each with a light 1-D bias
HEAVY_SHAPES = ((128, 128), (64, 256), (300, 60))


def _heavy_layers(rng, kind):
    named = []
    for i, shape in enumerate(HEAVY_SHAPES):
        named += [(f"W{i}", rng.standard_normal(shape) / np.sqrt(shape[1])),
                  (f"b{i}", rng.standard_normal(shape[0]))]
    return init_layers(named, matrix_kind=kind)


def _same_state(a, b) -> bool:
    for f in fields(a.state):
        x, y = getattr(a.state, f.name), getattr(b.state, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                    and bitwise_equal(x, y)):
                return False
        elif x != y:
            return False
    return a.name == b.name and a.kind == b.kind


@pytest.fixture
def pool_calls(monkeypatch):
    """Every ``_pool`` request, passed on to the real pool."""
    calls = []
    real = optimizers._pool

    def spy(threads):
        calls.append(threads)
        return real(threads)

    monkeypatch.setattr(optimizers, "_pool", spy)
    return calls


def _fake_cpus(monkeypatch, n):
    monkeypatch.setattr(optimizers.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


@pytest.mark.parametrize("kind", KINDS)
def test_pooled_equals_serial_loop_bitwise(rng, monkeypatch, pool_calls, kind):
    monkeypatch.setattr(optimizers, "_workers", lambda: 3)
    lam = 0.0 if kind == "muown_fixed" else 0.03
    hp = HyperParams(eta=0.02, weight_decay=lam, beta1=0.9)
    pooled = serial = _heavy_layers(rng, kind)
    # the second step sees momenta that the first one created
    for _ in range(2):
        grads = [rng.standard_normal(l.state.param.shape) for l in pooled]
        pooled = step_all(pooled, grads, hp)
        serial = [step_layer(l, g, hp) for l, g in zip(serial, grads)]
        assert [l.name for l in pooled] == [l.name for l in serial]
        for a, b in zip(pooled, serial):
            assert _same_state(a, b), (kind, a.name)
    assert pool_calls == [2, 2]  # two helpers, so all three matrices are heavy


class _InlinePool:
    """A pool whose helper drains the whole job list inside ``submit``, so the
    order in which jobs are taken is the list's order, with no thread race."""

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


def test_pooled_jobs_are_taken_costliest_first(monkeypatch):
    # the shard-large shapes, each with its bias
    shapes = ((512, 128), (128, 512), (256, 256), (384, 192), (192, 384), (256, 64))
    named = []
    for i, (m, n) in enumerate(shapes):
        named += [(f"W{i}", np.ones((m, n))), (f"b{i}", np.ones(m))]
    layers = init_layers(named)
    taken = []
    monkeypatch.setattr(optimizers, "_workers", lambda: 2)
    monkeypatch.setattr(optimizers, "_pool", lambda threads: _InlinePool())
    monkeypatch.setattr(optimizers, "step_layer",
                        lambda layer, grad, hp: taken.append(layer.name) or layer)
    out = step_all(layers, [None] * len(layers), HyperParams(eta=0.01))
    assert [l.name for l in out] == [name for name, _ in named]
    # m * n * min(m, n), ties in declaration order; then the biases by size
    assert taken == ["W2", "W3", "W4", "W0", "W1", "W5",
                     "b0", "b3", "b2", "b5", "b4", "b1"]


def test_failures_on_two_threads_raise_one_error_in_index_order(rng, monkeypatch):
    monkeypatch.setattr(optimizers, "_workers", lambda: 2)
    layers = init_layers([("W0", rng.standard_normal((128, 128))),
                          ("b0", rng.standard_normal(128)),
                          ("W1", rng.standard_normal((160, 128)))])
    grads = [np.zeros(l.state.param.shape) for l in layers]
    real = optimizers.step_layer
    barrier = threading.Barrier(2, timeout=30)
    threads = {}

    def failing(layer, grad, hp):
        if layer.name == "b0":
            return real(layer, grad, hp)
        barrier.wait()  # both failing steps are in flight at once, on two threads
        threads[layer.name] = threading.get_ident()
        if layer.name == "W0":
            time.sleep(0.05)  # W1, the later index, fails first
        raise FloatingPointError(layer.name)

    monkeypatch.setattr(optimizers, "step_layer", failing)
    with pytest.raises(StepAllError) as exc:
        step_all(layers, grads, HyperParams(eta=0.01))
    assert [(i, str(e)) for i, e in exc.value.failures] == [(0, "W0"), (2, "W1")]
    assert threads["W0"] != threads["W1"]


def test_stress_more_workers_than_cores_loses_no_layer_or_failure(rng, monkeypatch):
    """Eight workers, 40 heavy adamw layers, every third gradient NaN, thread
    switches every microsecond: each layer is stepped once, into its own slot."""
    monkeypatch.setattr(optimizers, "_workers", lambda: 8)
    layers = init_layers([(f"p{i}", rng.standard_normal(HEAVY_SIZE + i)) for i in range(40)])
    grads = [np.full(l.state.param.shape, np.nan) if i % 3 == 0
             else rng.standard_normal(l.state.param.shape) for i, l in enumerate(layers)]
    hp = HyperParams(eta=0.01)
    serial = [step_layer(l, g, hp) if i % 3 else None
              for i, (l, g) in enumerate(zip(layers, grads))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            with pytest.raises(StepAllError) as exc:
                step_all(layers, grads, hp)
            assert [i for i, _ in exc.value.failures] == list(range(0, 40, 3))
            out = step_all([l for i, l in enumerate(layers) if i % 3],
                           [g for i, g in enumerate(grads) if i % 3], hp)
            assert all(_same_state(a, b) for a, b in zip(out, filter(None, serial)))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("dims", [_DEFAULT_DIMS, {"d_in": 64, "hidden": 256, "d_out": 32}],
                         ids=["desk", "train-mid"])
def test_no_pool_below_two_heavy_layers(rng, monkeypatch, pool_calls, dims):
    _fake_cpus(monkeypatch, 4)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert optimizers._workers() == 4
    layers = init_layers(init_params("mlp2", dims, seed=3).named_values())
    assert sum(l.state.param.size >= HEAVY_SIZE for l in layers) < 2
    step_all(layers, [rng.standard_normal(l.state.param.shape) for l in layers],
             HyperParams(eta=0.01))
    assert pool_calls == []


def test_no_pool_when_blas_threads_are_unset(rng, monkeypatch, pool_calls):
    _fake_cpus(monkeypatch, 4)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    layers = _heavy_layers(rng, "muown")
    step_all(layers, [rng.standard_normal(l.state.param.shape) for l in layers],
             HyperParams(eta=0.01))
    assert pool_calls == []


@pytest.mark.parametrize("openblas, omp, workers", [
    (None, None, 1),    # BLAS takes every CPU
    ("1", None, 4),
    ("2", None, 2),
    ("3", None, 1),
    ("8", None, 1),
    (None, "1", 4),     # OMP_NUM_THREADS when OPENBLAS_NUM_THREADS is absent ...
    ("0", "2", 2),      # ... or not a positive count
    ("x", "1", 4),
    ("1", "4", 4),      # OPENBLAS_NUM_THREADS first
    ("", "", 1),
])
def test_workers_divide_cpus_by_blas_threads(monkeypatch, openblas, omp, workers):
    _fake_cpus(monkeypatch, 4)
    for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    assert optimizers._workers() == workers


def test_pool_is_made_once_and_again_in_a_forked_child(monkeypatch):
    monkeypatch.setattr(optimizers, "_POOL", None)
    first = optimizers._pool(1)
    assert optimizers._pool(1) is first
    pid = optimizers.os.getpid()
    monkeypatch.setattr(optimizers.os, "getpid", lambda: pid + 1)
    child = optimizers._pool(1)
    assert child is not first
    assert optimizers._pool(1) is child
    monkeypatch.undo()
    first.shutdown()
    child.shutdown()

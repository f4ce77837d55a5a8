import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muown import models
from muown.models import (
    Batch,
    ParamSet,
    epoch_order,
    full_dataset_gradient,
    init_params,
    loss_and_grad,
    make_model,
    quadratic_spec,
    synth_data,
)
from muown.linalg import row_norms
from muown.rng import SplitMix64, derive_seed

from conftest import bitwise_equal, finite_difference_grad, with_value

MLP_DIMS = {"d_in": 5, "hidden": 7, "d_out": 3}


class TestSplitMix:
    def test_known_reference_values(self):
        # SplitMix64 from seed 0: published first outputs of the standard
        # constants (also reproduced by an independent transcription below)
        s = SplitMix64(0)
        first = s.next_u64()
        assert first == 0xE220A8397B1DCDAF

    def test_uniform_range(self):
        s = SplitMix64(123)
        xs = [s.uniform() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert 0.4 < np.mean(xs) < 0.6

    def test_permutation_is_valid_and_deterministic(self):
        a = SplitMix64(9).permutation(10)
        b = SplitMix64(9).permutation(10)
        assert sorted(a) == list(range(10)) and a == b

    def test_derive_seed_order_sensitive(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)


class TestQuadratic:
    def test_closed_form(self, rng):
        target = rng.standard_normal((3, 4))
        spec = quadratic_spec(target)
        w = rng.standard_normal((3, 4))
        params = ParamSet([("W", w)])
        loss, grads = loss_and_grad(spec, params, None)
        assert loss == pytest.approx(0.5 * np.sum((w - target) ** 2), rel=1e-14)
        assert np.array_equal(grads[0], w - target)

    def test_fd_nearly_exact(self, rng):
        # zero third derivative: central differences are exact up to roundoff
        target = rng.standard_normal((2, 3))
        spec = quadratic_spec(target)
        params = ParamSet([("W", rng.standard_normal((2, 3)))])
        _, grads = loss_and_grad(spec, params, None)
        fd = finite_difference_grad(spec, params, None, h=1e-4)
        assert np.allclose(fd[0], grads[0], rtol=0, atol=1e-10)


class TestLogistic:
    def test_ln2_at_zero_weights(self, rng):
        spec, params, batches = make_model("logistic", {"features": 4}, seed=7,
                                           num_batches=2, batch_size=8)
        zero = with_value(params, "w", np.zeros((1, 4)))
        loss, _ = loss_and_grad(spec, zero, batches[0])
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    def test_gradient_matches_fd(self):
        spec, params, batches = make_model("logistic", {"features": 4}, seed=7,
                                           num_batches=2, batch_size=8)
        _, grads = loss_and_grad(spec, params, batches[0])
        fd = finite_difference_grad(spec, params, batches[0], h=1e-6)
        assert np.allclose(fd[0], grads[0], rtol=1e-7, atol=1e-10)

    def test_planted_data_is_learnable(self):
        # a few hundred sign steps beat chance loss ln(2) comfortably
        spec, params, batches = make_model("logistic", {"features": 6}, seed=3,
                                           num_batches=4, batch_size=32)
        w = params["w"].copy()
        for t in range(300):
            loss, grads = loss_and_grad(spec, with_value(params, "w", w),
                                        batches[t % 4])
            w -= 0.01 * np.sign(grads[0])
        final, _ = loss_and_grad(spec, with_value(params, "w", w), batches[0])
        assert final < 0.6 * np.log(2.0)


class TestMlp2:
    def test_gradients_match_fd_on_sampled_coordinates(self, rng):
        spec, params, batches = make_model("mlp2", MLP_DIMS, seed=11,
                                           num_batches=2, batch_size=8)
        batch = batches[0]
        _, grads = loss_and_grad(spec, params, batch)
        fd = finite_difference_grad(spec, params, batch, h=1e-5)
        for analytic, numeric, name in zip(grads, fd, params):
            flat_a, flat_n = analytic.ravel(), numeric.ravel()
            idx = rng.permutation(flat_a.size)[:min(20, flat_a.size)]
            assert len(idx) >= min(20, flat_a.size)
            for i in idx:
                assert flat_n[i] == pytest.approx(flat_a[i], rel=1e-6, abs=1e-9), name

    def test_fd_error_shrinks_quadratically(self):
        spec, params, batches = make_model("mlp2", MLP_DIMS, seed=11,
                                           num_batches=1, batch_size=8)
        batch = batches[0]
        _, grads = loss_and_grad(spec, params, batch)
        errs = []
        for h in (2e-3, 1e-3, 5e-4):
            fd = finite_difference_grad(spec, params, batch, h=h)
            errs.append(max(np.max(np.abs(f - g)) for f, g in zip(fd, grads)))
        # halving h cuts the error ~4x while above the roundoff floor
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    @pytest.mark.parametrize("dims,batch_size", [
        ({"d_in": 6, "hidden": 8, "d_out": 4}, 16),
        ({"d_in": 64, "hidden": 256, "d_out": 32}, 64),
    ], ids=["desk", "mid"])
    def test_loss_and_grad_equal_the_matmul_transcription_bitwise(self, dims, batch_size):
        spec, params, batches = make_model("mlp2", dims, seed=4, num_batches=2,
                                           batch_size=batch_size)
        for batch in batches:
            loss, grads = loss_and_grad(spec, params, batch)
            ref_loss, ref_grads = _mlp2_matmul_loss_and_grad(params, batch)
            assert loss == ref_loss
            assert len(grads) == len(ref_grads) == 4
            for g, ref, name in zip(grads, ref_grads, params):
                assert bitwise_equal(g, ref), name

    def test_forward_traced_peak(self, rng):
        """The forward's traced peak over train-mid's 512 teacher inputs, in
        512 x 256 float64 arrays beyond what was allocated before it: the hidden
        layer and the output, each written into its own product's buffer (1.19
        with numpy 2.4; 2.06 when the bias sum and tanh made fresh arrays)."""
        params = init_params("mlp2", {"d_in": 64, "hidden": 256, "d_out": 32}, seed=0)
        x = rng.standard_normal((512, 64))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            models._mlp2_forward(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - before) / (8 * 512 * 256) <= 1.25

    def test_init_rows_nonzero(self):
        params = init_params("mlp2", MLP_DIMS, seed=0)
        for value in params.values():
            if value.ndim == 2:
                assert np.all(row_norms(value) > 0)


def _mlp2_matmul_loss_and_grad(params, batch):
    """mlp2's loss and gradients as first written, every product an ``@``:
    the bitwise reference for ``loss_and_grad``."""
    w1, b1, w2, b2 = (params[k] for k in ("W1", "b1", "W2", "b2"))
    x, y = batch.inputs, batch.targets
    hidden = np.tanh(x @ w1.T + b1)
    pred = hidden @ w2.T + b2
    resid = pred - y
    bsz = x.shape[0]
    loss = float(0.5 * (resid * resid).sum() / bsz)
    dpred = resid / bsz
    d_w2 = dpred.T @ hidden
    d_b2 = dpred.sum(axis=0)
    dhid = (dpred @ w2) * (1.0 - hidden * hidden)
    d_w1 = dhid.T @ x
    d_b1 = dhid.sum(axis=0)
    return loss, [d_w1, d_b1, d_w2, d_b2]


def per_row_init_matrix(stream, m, n):
    """The reference init: one block draw, then each row's norm checked on its own."""
    a = 1.0 / np.sqrt(n)
    floor = models._ROW_FLOOR_FRAC * a * np.sqrt(n)
    w = stream.uniform_array((m, n), -a, a)
    i = 0
    while i < m:
        if np.sqrt(np.sum(w[i] * w[i])) <= floor:
            w[i:-1] = w[i + 1:]
            w[-1] = stream.uniform_array((n,), -a, a)
        else:
            i += 1
    return w


class TestInitMatrix:
    # At floor fraction 0.9 most draws are rejected (n = 1 keeps 10% of them,
    # n = 2 about 2%), so the shape stays small enough to finish quickly.
    @pytest.mark.parametrize("frac, max_m, max_n",
                             [(models._ROW_FLOOR_FRAC, 40, 40), (0.9, 12, 2)])
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), m=st.integers(1, 40), n=st.integers(1, 40))
    @example(seed=0, m=1, n=1)
    @example(seed=7, m=1, n=2)
    @example(seed=7, m=30, n=1)
    def test_equals_the_per_row_loop_bitwise(self, frac, max_m, max_n, seed, m, n):
        m, n = min(m, max_m), min(n, max_n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(models, "_ROW_FLOOR_FRAC", frac)
            fast, ref = SplitMix64(seed), SplitMix64(seed)
            w = models._init_matrix(fast, m, n)
            assert bitwise_equal(w, per_row_init_matrix(ref, m, n))
        assert fast._state == ref._state


class TestSynthData:
    def test_same_seed_bitwise_identical(self):
        a = synth_data("mlp2", MLP_DIMS, seed=5, num_batches=3, batch_size=4)
        b = synth_data("mlp2", MLP_DIMS, seed=5, num_batches=3, batch_size=4)
        for x, y in zip(a, b):
            assert bitwise_equal(x.inputs, y.inputs)
            assert bitwise_equal(x.targets, y.targets)

    def test_different_seed_differs(self):
        a = synth_data("mlp2", MLP_DIMS, seed=5, num_batches=1, batch_size=4)
        b = synth_data("mlp2", MLP_DIMS, seed=6, num_batches=1, batch_size=4)
        assert not np.array_equal(a[0].inputs, b[0].inputs)

    def test_batches_are_the_recorded_bytes(self):
        digest = hashlib.sha256()
        for kind, dims in (("quadratic", {"m": 3, "n": 4}), ("logistic", {"features": 4}),
                           ("mlp2", MLP_DIMS)):
            for b in synth_data(kind, dims, seed=3, num_batches=3, batch_size=4):
                digest.update(b.inputs.tobytes())
                digest.update(b.targets.tobytes())
        assert digest.hexdigest() == (
            "5bf2aa45d2d11917644042269215ea60164571d87ad7b99cd4e70603373fe3c5")

    @pytest.mark.parametrize("kind, dims", [("quadratic", {"m": 3, "n": 4}),
                                            ("logistic", {"features": 4}),
                                            ("mlp2", MLP_DIMS)])
    def test_each_batch_owns_its_memory(self, kind, dims):
        # no batch is a view that keeps the whole draw alive, and no two batches share
        arrays = [a for b in synth_data(kind, dims, seed=3, num_batches=3, batch_size=4)
                  for a in (b.inputs, b.targets)]
        assert all(a.flags.owndata for a in arrays)
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    def test_batch_invariants(self):
        with pytest.raises(ValueError):
            synth_data("mlp2", MLP_DIMS, seed=1, num_batches=0, batch_size=4)
        with pytest.raises(ValueError):
            Batch(np.empty((0, 2)), np.empty((0,)))

    def test_epoch_order_fixed_by_seed(self):
        assert epoch_order(8, seed=1, epoch=0) == epoch_order(8, seed=1, epoch=0)
        assert sorted(epoch_order(8, seed=1, epoch=3)) == list(range(8))

    def test_full_dataset_gradient_is_batch_mean(self):
        spec, params, batches = make_model("mlp2", MLP_DIMS, seed=2,
                                           num_batches=3, batch_size=4)
        _, grads = full_dataset_gradient(spec, params, batches)
        manual = None
        for b in batches:
            _, g = loss_and_grad(spec, params, b)
            manual = g if manual is None else [a + x for a, x in zip(manual, g)]
        for a, m in zip(grads, manual):
            assert np.allclose(a, m / 3, rtol=1e-15)


class TestParamSet:
    @pytest.mark.parametrize("kind, dims, shapes", [
        ("mlp2", MLP_DIMS, {"W1": (7, 5), "b1": (7,), "W2": (3, 7), "b2": (3,)}),
        ("quadratic", {"m": 3, "n": 4}, {"W": (3, 4)}),
        ("logistic", {"features": 4}, {"w": (1, 4)}),
    ])
    def test_named_values_list_the_arrays_in_model_order(self, kind, dims, shapes):
        # init_layers(params.named_values()) and the gradient order rest on this
        pairs = init_params(kind, dims, seed=0).named_values()
        assert [name for name, _ in pairs] == list(shapes)
        assert all(type(value) is np.ndarray for _, value in pairs)
        assert [value.shape for _, value in pairs] == list(shapes.values())

    def test_duplicate_names_rejected(self, rng):
        with pytest.raises(ValueError):
            ParamSet([("a", rng.standard_normal(2)), ("a", rng.standard_normal(2))])

    def test_with_value_shape_checked(self, rng):
        ps = ParamSet([("a", rng.standard_normal((2, 2)))])
        with pytest.raises(ValueError):
            with_value(ps, "a", np.zeros((3, 3)))

    @pytest.mark.parametrize("kind, dims", [
        ("mlp2", MLP_DIMS), ("quadratic", {"m": 3, "n": 4}), ("logistic", {"features": 4}),
    ])
    def test_loss_and_grad_takes_a_plain_dict_bitwise(self, kind, dims):
        spec, params, batches = make_model(kind, dims, seed=5, num_batches=2, batch_size=8)
        loss, grads = loss_and_grad(spec, params, batches[0])
        plain_loss, plain_grads = loss_and_grad(spec, dict(params.named_values()), batches[0])
        assert plain_loss == loss and len(plain_grads) == len(grads) == len(params)
        for g, plain in zip(grads, plain_grads):
            assert bitwise_equal(plain, g)

    def test_gradients_follow_the_mapping_order(self):
        spec, params, batches = make_model("mlp2", MLP_DIMS, seed=5, num_batches=1,
                                           batch_size=8)
        _, grads = loss_and_grad(spec, params, batches[0])
        reordered = dict(reversed(params.named_values()))
        _, back = loss_and_grad(spec, reordered, batches[0])
        for g, b in zip(grads, reversed(back)):
            assert bitwise_equal(b, g)

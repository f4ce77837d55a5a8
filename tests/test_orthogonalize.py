import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muown.errors import NonFiniteError
from muown.linalg import nuclear_norm, singular_values
from muown.models import loss_and_grad, make_model
from muown.orthogonalize import (
    AGGRESSIVE_COEFFS,
    CLASSIC_COEFFS,
    DEFAULT_NS,
    S_HI,
    S_LO,
    NSConfig,
    descent_direction,
    newton_schulz,
    polar_exact,
)

from conftest import bitwise_equal, frobenius_norm, matrix_with_condition, orthonormal_rows


class TestPolarExact:
    def test_diagonal(self):
        g = np.diag([3.0, 4.0])
        o = polar_exact(g)
        assert np.allclose(o, np.eye(2), atol=1e-14)
        assert np.sum(g * o) == pytest.approx(7.0, rel=1e-12)

    def test_rank_one(self, rng):
        # zero-sigma directions carry an arbitrary completion, so check the
        # rank-one component: O maps the right singular direction to the left
        # one and attains the full nuclear pairing
        u = rng.standard_normal(4)
        v = rng.standard_normal(3)
        g = np.outer(u, v)
        o = polar_exact(g)
        assert np.allclose(o @ (v / np.linalg.norm(v)), u / np.linalg.norm(u), atol=1e-12)
        assert np.sum(g * o) == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)

    def test_pairing_equals_nuclear_norm(self, rng):
        for _ in range(20):
            g = rng.standard_normal((5, 3))
            o = polar_exact(g)
            nuc = nuclear_norm(g)
            assert abs(np.sum(g * o) - nuc) <= 1e-9 * nuc

    def test_unit_singular_values(self, rng):
        o = polar_exact(rng.standard_normal((4, 6)))
        assert np.allclose(singular_values(o), 1.0, atol=1e-12)


def _textbook_newton_schulz(g, cfg):
    """The iteration as first written, one fresh array per operation: the
    bitwise reference for the in-place loop."""
    g = np.asarray(g, dtype=np.float64)
    fro = float(np.sqrt(np.sum(g * g)))
    x = g / fro
    transposed = x.shape[0] > x.shape[1]
    if transposed:
        x = x.T
    a, b, c = cfg.coeffs
    for _ in range(cfg.steps):
        gram = x @ x.T
        poly = b * gram + c * (gram @ gram)
        x = a * x + poly @ x
    if transposed:
        x = x.T
    return x


def _pinned_inputs(rng):
    yield "tall", rng.standard_normal((40, 12))
    yield "wide", rng.standard_normal((12, 40))
    yield "square", rng.standard_normal((16, 16))
    yield "1xn", rng.standard_normal((1, 9))
    yield "mx1", rng.standard_normal((9, 1))
    yield "tall-F", np.asfortranarray(rng.standard_normal((30, 10)))
    yield "wide-F", np.asfortranarray(rng.standard_normal((10, 30)))
    yield "view", rng.standard_normal((50, 60))[3::2, 1::3]
    yield "transposed-view", rng.standard_normal((20, 48)).T
    # a 37x37 Gram, where BLAS rounds poly @ x differently for a C- and an
    # F-ordered x: a loop that takes its first step on a C copy of a tall
    # input, not on the transposed view the textbook loop uses, fails here
    yield "tall-gram37", rng.standard_normal((100, 37))
    yield "wide-gram37", rng.standard_normal((37, 100))
    # the shapes the presets and the benchmark step
    yield "desk-8x6", rng.standard_normal((8, 6))
    yield "desk-4x8", rng.standard_normal((4, 8))
    yield "mid-256x64", rng.standard_normal((256, 64))
    yield "mid-32x256", rng.standard_normal((32, 256))


@pytest.mark.parametrize("cfg", [NSConfig(), NSConfig(steps=1), NSConfig(steps=2),
                                 NSConfig(steps=5, coeffs=AGGRESSIVE_COEFFS)],
                         ids=["classic", "steps1", "steps2", "aggressive"])
def test_newton_schulz_equals_textbook_loop_bitwise(rng, cfg):
    for name, g in _pinned_inputs(rng):
        before = g.copy(order="K")
        ref = _textbook_newton_schulz(g, cfg)
        assert bitwise_equal(newton_schulz(g, cfg), ref), name
        assert bitwise_equal(g, before), name  # the input is never written to
        # a lent copy: an odd step count ends in the second buffer, an even
        # one in the lent input
        out = newton_schulz(before, cfg, overwrite=True)
        assert bitwise_equal(out, ref), name
        assert np.shares_memory(out, before) == (cfg.steps % 2 == 0), name
        lent = g.copy(order="K")
        assert bitwise_equal(descent_direction(lent, "ns", cfg, overwrite=True), -ref), name


@pytest.mark.parametrize("scale", [2.0**560, 2.0**-560, 1e160, 1e-200])
def test_a_lent_input_past_the_float_range_keeps_the_bits(rng, scale):
    for name, g in _pinned_inputs(rng):
        g = g * scale
        ref = newton_schulz(g)
        assert bitwise_equal(newton_schulz(g.copy(order="K"), overwrite=True), ref), name
        assert bitwise_equal(descent_direction(g.copy(order="K"), "ns", overwrite=True),
                             -ref), name
        if np.log2(scale).is_integer():
            assert bitwise_equal(ref, _textbook_newton_schulz(g / scale, DEFAULT_NS)), name


def test_only_a_writeable_contiguous_input_is_written(rng):
    cfg = NSConfig(steps=2)
    base = rng.standard_normal((50, 60))
    view = base[3::2, 1::3]
    before = base.copy()
    out = newton_schulz(view, cfg, overwrite=True)
    assert bitwise_equal(base, before) and not np.shares_memory(out, base)
    frozen = rng.standard_normal((12, 7))
    frozen.flags.writeable = False
    before = frozen.copy()
    assert bitwise_equal(newton_schulz(frozen, cfg, overwrite=True),
                         _textbook_newton_schulz(before, cfg))
    assert bitwise_equal(frozen, before)
    for backend in ("ns", "polar"):
        g = rng.standard_normal((9, 4))
        before = g.copy()
        descent_direction(g, backend, cfg)
        assert bitwise_equal(g, before), backend


_LIGHT_CONFIGS = st.one_of(st.integers(1, 3).map(lambda k: NSConfig(steps=k)),
                           st.just(NSConfig(steps=5, coeffs=AGGRESSIVE_COEFFS)))


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 24), n=st.integers(1, 24),
       layout=st.sampled_from(["C", "F", "strided"]), cfg=_LIGHT_CONFIGS,
       seed=st.integers(0, 2**32 - 1))
def test_newton_schulz_equals_textbook_loop_bitwise_property(m, n, layout, cfg, seed):
    rng = np.random.default_rng(seed)
    if layout == "strided":
        g = rng.standard_normal((2 * m, 3 * n))[1::2, ::3]
    else:
        g = rng.standard_normal((m, n))
        if layout == "F":
            g = np.asfortranarray(g)
    ref = _textbook_newton_schulz(g, cfg)
    assert bitwise_equal(newton_schulz(g, cfg), ref)
    assert bitwise_equal(newton_schulz(g.copy(order="K"), cfg, overwrite=True), ref)


def test_light_paths_skip_the_np_dot_dispatcher(rng, monkeypatch):
    # the per-call cost of these loops is numpy's overhead: a product that
    # goes back through np.dot (and its __array_function__ dispatch) fails here
    spec, params, batches = make_model("mlp2", {"d_in": 6, "hidden": 8, "d_out": 4}, seed=3)

    def dispatched(*args, **kwargs):
        raise AssertionError("np.dot called")

    monkeypatch.setattr(np, "dot", dispatched)
    for shape in [(8, 6), (32, 256)]:
        newton_schulz(rng.standard_normal(shape))
    loss_and_grad(spec, params, batches[0])


class TestNewtonSchulz:
    def test_orthogonal_input_stays_close(self, rng):
        for k in (2, 4, 8):
            q = orthonormal_rows(rng, k, k)
            o = newton_schulz(q)
            assert frobenius_norm(o - q) <= 0.35 * np.sqrt(k)
            s = singular_values(o)
            assert s.min() >= S_LO and s.max() <= S_HI

    def test_spread_diagonal(self):
        o = newton_schulz(np.diag([5.0, 0.1]))
        s = singular_values(o)
        assert s.min() >= S_LO and s.max() <= S_HI
        assert np.allclose(np.abs(o), np.abs(np.diag(np.diag(o))), atol=1e-9)

    def test_scale_invariance_after_prenormalization(self, rng):
        g = rng.standard_normal((3, 5))
        assert np.array_equal(newton_schulz(g), newton_schulz(4.0 * g))

    def test_transpose_equivariance(self, rng):
        for shape in [(3, 7), (7, 3), (5, 5)]:
            g = rng.standard_normal(shape)
            a = newton_schulz(g.T.copy())
            b = newton_schulz(g).T
            assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(NonFiniteError):
            newton_schulz(np.zeros((2, 2)))

    def test_an_iteration_that_overflows_is_rejected(self, rng):
        # finite coefficients; x grows by 1e200 a step, past the float range on the second
        cfg = NSConfig(steps=2, coeffs=(1e200, 0.0, 0.0))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError, match="iteration"):
            newton_schulz(rng.standard_normal((3, 4)), cfg)

    def test_nonfinite_rejected(self):
        g = np.ones((2, 2))
        g[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            newton_schulz(g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_next_to_huge_entries_rejected(self, bad):
        # the squares of 1e300 overflow, so these take the rescaling path
        for big in (1.0, 1e300):
            g = np.full((2, 2), big)
            g[0, 0] = bad
            with pytest.raises(NonFiniteError):
                newton_schulz(g)

    @pytest.mark.parametrize("k", [560, -560])
    def test_scaled_past_the_float_range_keeps_its_bits(self, rng, k):
        # the squares of g * 2**560 overflow and those of g * 2**-560
        # underflow; a power-of-two scaling is exact, so the bits hold
        for name, g in _pinned_inputs(rng):
            assert bitwise_equal(newton_schulz(g * 2.0**k), newton_schulz(g)), name

    @pytest.mark.parametrize("scale", [1e160, 1e-170, 1e-200])
    def test_finite_inputs_at_the_edges_of_the_float_range(self, rng, scale):
        g = rng.standard_normal((4, 3))
        ref = newton_schulz(g)
        assert np.allclose(newton_schulz(g * scale), ref, rtol=0, atol=1e-13)
        assert np.allclose(descent_direction(g * scale, "ns"), -ref, rtol=0, atol=1e-13)
        assert np.allclose(ref, polar_exact(g), rtol=0, atol=1e-10)

    def test_band_and_pairing_across_conditioning(self, rng):
        # default (classic) config: band and >= 95% of the exact dual pairing
        for i in range(40):
            cond = 10.0 ** rng.uniform(0, 4)
            g = matrix_with_condition(rng, 6, 9, cond)
            o = newton_schulz(g)
            s = singular_values(o)
            assert s.min() >= S_LO and s.max() <= S_HI, (i, cond)
            gn = g / frobenius_norm(g)
            exact = np.sum(gn * polar_exact(g))
            assert np.sum(gn * o) >= 0.95 * exact

    def test_aggressive_preset_orbits_near_polar(self, rng):
        # the 5-step slope-maximizing preset lands in its documented band on
        # inputs above its floor, sigma_min(G) >= 5e-3 ||G||_F (which
        # kappa * sqrt(min(m, n)) <= 200 guarantees), but is intentionally
        # non-convergent: a square gaussian is below the floor and stays below
        cfg = NSConfig(steps=5, coeffs=AGGRESSIVE_COEFFS)
        for g in (matrix_with_condition(rng, 6, 8, cond=5.0),
                  matrix_with_condition(rng, 6, 8, cond=80.0),
                  rng.standard_normal((64, 256))):
            s = singular_values(newton_schulz(g, cfg))
            assert s.min() >= S_LO and s.max() <= S_HI
        square = np.random.default_rng(0).standard_normal((256, 256))
        assert singular_values(newton_schulz(square, cfg)).min() < S_LO

    def test_default_config_is_classic(self):
        cfg = NSConfig()
        assert cfg.coeffs == CLASSIC_COEFFS
        assert cfg.steps == 30

    def test_bad_config(self):
        with pytest.raises(ValueError):
            NSConfig(steps=0)
        with pytest.raises(ValueError):
            NSConfig(coeffs=(1.0, np.inf, 0.0))


class TestDescentDirection:
    def test_zero_maps_to_zero_both_backends(self):
        z = np.zeros((3, 2))
        assert np.array_equal(descent_direction(z, "polar"), z)
        assert np.array_equal(descent_direction(z, "ns"), z)

    def test_polar_is_negated_maximizer(self, rng):
        g = rng.standard_normal((4, 4))
        o = descent_direction(g, "polar")
        assert np.sum(g * o) == pytest.approx(-nuclear_norm(g), rel=1e-12)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            descent_direction(np.eye(2), "qr")

"""The block-drawn array methods of SplitMix64 against the scalar reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muown import models
from muown.rng import SplitMix64

from conftest import bitwise_equal

GAMMA = 0x9E3779B97F4A7C15
# state + gamma == 0 mod 2^64, and mix(0) == 0: the first uniform is exactly 0.0.
ZERO_FIRST_SEED = (-GAMMA) % 2**64

seeds = st.integers(min_value=0, max_value=2**64 - 1)
shapes = st.lists(st.integers(min_value=0, max_value=24), max_size=3).map(tuple)


def scalar_uniforms(stream, shape, low=0.0, high=1.0):
    out = np.empty(int(np.prod(shape)))
    span = high - low
    for i in range(out.size):
        out[i] = low + span * stream.uniform()
    return out.reshape(shape)


def scalar_gaussians(stream, shape):
    out = np.empty(int(np.prod(shape)))
    for i in range(out.size):
        out[i] = stream.gaussian()
    return out.reshape(shape)


def scalar_init_matrix(stream, m, n):
    """Row-by-row draw-and-check, the consumption order the block init must keep."""
    a = 1.0 / np.sqrt(n)
    floor = models._ROW_FLOOR_FRAC * a * np.sqrt(n)
    w = np.empty((m, n))
    rejected = 0
    for i in range(m):
        row = scalar_uniforms(stream, (n,), -a, a)
        while np.sqrt(np.sum(row * row)) <= floor:
            rejected += 1
            row = scalar_uniforms(stream, (n,), -a, a)
        w[i] = row
    return w, rejected


def test_published_vector():
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


@settings(max_examples=60, deadline=None)
@given(seed=seeds, shape=shapes)
def test_uniform_array_matches_scalar(seed, shape):
    block, ref = SplitMix64(seed), SplitMix64(seed)
    assert bitwise_equal(block.uniform_array(shape), scalar_uniforms(ref, shape))
    assert block.next_u64() == ref.next_u64()


@settings(max_examples=60, deadline=None)
@given(seed=seeds, shape=shapes,
       low=st.floats(-10.0, 10.0), span=st.floats(0.0, 10.0))
def test_uniform_array_bounds_match_scalar(seed, shape, low, span):
    high = low + span
    block, ref = SplitMix64(seed), SplitMix64(seed)
    assert bitwise_equal(block.uniform_array(shape, low, high),
                         scalar_uniforms(ref, shape, low, high))
    assert block.next_u64() == ref.next_u64()


@settings(max_examples=60, deadline=None)
@given(seed=seeds, shape=shapes)
def test_gaussian_array_matches_scalar(seed, shape):
    block, ref = SplitMix64(seed), SplitMix64(seed)
    assert bitwise_equal(block.gaussian_array(shape), scalar_gaussians(ref, shape))
    assert block.next_u64() == ref.next_u64()


def test_np_cos_is_the_c_library_cos():
    """``gaussian_array`` takes its cosines from ``np.cos``, on the scalar path's angles."""
    edges = [0.0, 2.0**-53, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]
    v = np.concatenate([edges, SplitMix64(7).uniform_array((2**20,))])
    angles = 2.0 * math.pi * v
    mapped = np.fromiter(map(math.cos, memoryview(angles)), np.float64, v.size)
    differ = np.flatnonzero(np.cos(angles).view(np.uint64) != mapped.view(np.uint64))
    assert differ.size == 0, (
        f"np.cos differs from math.cos on {differ.size} of {v.size} angles "
        f"(first v = {v[differ[0]]!r}): this numpy's float64 cos is not the C "
        "library's, so gaussian_array must map math.cos again")


@pytest.mark.parametrize("seed", [0, 1, 0xDEADBEEF, 2**64 - 1])
def test_gaussian_array_matches_scalar_over_2_16_draws(seed):
    block, ref = SplitMix64(seed), SplitMix64(seed)
    assert bitwise_equal(block.gaussian_array((2**16,)),
                         scalar_gaussians(ref, (2**16,)))
    assert block.next_u64() == ref.next_u64()


def test_zero_uniform_rejection_falls_back_to_scalar():
    assert SplitMix64(ZERO_FIRST_SEED).uniform() == 0.0
    block, ref = SplitMix64(ZERO_FIRST_SEED), SplitMix64(ZERO_FIRST_SEED)
    out = block.gaussian_array((3000,))
    assert bitwise_equal(out, scalar_gaussians(ref, (3000,)))
    assert np.all(np.isfinite(out))
    # The rejected draw shifts every later pair by one output.
    assert block.next_u64() == ref.next_u64()


@pytest.mark.parametrize("seed", range(8))
def test_init_matrix_row_rejection_matches_scalar(seed):
    # n = 1 rejects a row when |x| <= 0.05, about one row in twenty.
    block, ref = SplitMix64(seed), SplitMix64(seed)
    ref_w, rejected = scalar_init_matrix(ref, 200, 1)
    assert rejected > 0
    assert bitwise_equal(models._init_matrix(block, 200, 1), ref_w)
    assert block.next_u64() == ref.next_u64()


@settings(max_examples=30, deadline=None)
@given(seed=seeds, m=st.integers(1, 12), n=st.integers(1, 12))
def test_init_matrix_matches_scalar(seed, m, n):
    block, ref = SplitMix64(seed), SplitMix64(seed)
    ref_w, _ = scalar_init_matrix(ref, m, n)
    assert bitwise_equal(models._init_matrix(block, m, n), ref_w)
    assert block.next_u64() == ref.next_u64()


@settings(max_examples=30, deadline=None)
@given(seed=seeds, shape=shapes)
def test_block_then_scalar_continues_the_scalar_stream(seed, shape):
    block, ref = SplitMix64(seed), SplitMix64(seed)
    block.uniform_array(shape)
    block.gaussian_array(shape)
    tail = [block.uniform(), block.gaussian(), block.next_u64()]
    scalar_uniforms(ref, shape)
    scalar_gaussians(ref, shape)
    assert tail == [ref.uniform(), ref.gaussian(), ref.next_u64()]


def test_gaussian_array_does_not_draw_through_uniform_array(monkeypatch):
    """Callers that count doubles at the public array methods see each draw once."""
    def forbidden(*args, **kwargs):
        raise AssertionError("gaussian_array called uniform_array")

    monkeypatch.setattr(SplitMix64, "uniform_array", forbidden)
    SplitMix64(3).gaussian_array((5000,))

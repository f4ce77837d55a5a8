"""SplitMix64-based deterministic random streams.

Every synthetic dataset, weight init, and seeded fixture in this package is
drawn from this generator rather than numpy's, so the exact byte streams are
reproducible from a named 64-bit seed by any implementation of the same
(widely published) SplitMix64 update:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    out = z ^ (z >> 31)

Doubles take the top 53 bits of ``out``; gaussians use Box-Muller on pairs
of uniforms.

The scalar methods (``next_u64``, ``uniform``, ``gaussian``, ``permutation``)
are the reference. The array methods give the same bits, drawn in blocks: the
generator is counter-based, so output i of a block is mix(state + i * gamma)
mod 2^64, computed in numpy uint64 arithmetic on uint64 operands only (a
signed integer operand makes numpy 1.x promote uint64 to float64). Block
uniforms repeat the scalar float steps exactly. Block gaussians map
``math.log`` over the block: ``np.log`` takes a SIMD log that differs from
the C library's in the last bit on about 0.35% of uniforms (AVX-512). They
take ``np.cos``, whose float64 loop calls the C library's ``cos``
(``tests/test_rng.py::test_np_cos_is_the_c_library_cos`` pins this; if it
fails, map ``math.cos`` again). ``np.sqrt`` and the arithmetic are correctly
rounded either way. A chunk of gaussians whose u draws hold an exact 0.0,
which the scalar path rejects and redraws, rewinds the state to the chunk
start and reruns that chunk through ``gaussian``.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Outputs per numpy pass, so a large draw's temporaries stay bounded.
_CHUNK = 4096


class SplitMix64:
    """Deterministic 64-bit stream with uniform/gaussian helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def gaussian(self) -> float:
        """Standard normal via Box-Muller; rejects the u=0 corner."""
        u = self.uniform()
        while u == 0.0:
            u = self.uniform()
        v = self.uniform()
        return math.sqrt(-2.0 * math.log(u)) * math.cos(2.0 * math.pi * v)

    def _u64_block(self, count: int) -> np.ndarray:
        """The next ``count`` outputs of ``next_u64``, as one uint64 array."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def _fill_uniforms(self, out: np.ndarray) -> None:
        """Fill a 1-D float64 array with the next ``out.size`` uniforms."""
        for lo in range(0, out.size, _CHUNK):
            part = out[lo:lo + _CHUNK]
            part[:] = self._u64_block(part.size) >> np.uint64(11)
            part *= 2.0**-53

    def gaussian_array(self, shape) -> np.ndarray:
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        uv = np.empty(_CHUNK)
        for lo in range(0, out.size, _CHUNK // 2):
            part = out[lo:lo + _CHUNK // 2]
            start = self._state
            pairs = uv[:2 * part.size]
            self._fill_uniforms(pairs)
            u, v = pairs[0::2], pairs[1::2]
            if not u.all():
                self._state = start
                for i in range(part.size):
                    part[i] = self.gaussian()
                continue
            # A memoryview yields Python floats one at a time, without a list.
            log_u = np.fromiter(map(math.log, memoryview(u)), np.float64, part.size)
            np.multiply(np.sqrt(-2.0 * log_u), np.cos(2.0 * math.pi * v), out=part)
        return out.reshape(shape)

    def uniform_array(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        self._fill_uniforms(out)
        out *= high - low
        out += low
        return out.reshape(shape)

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates shuffle of range(n) driven by this stream."""
        idx = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return idx


def derive_seed(*parts: int) -> int:
    """Mix integer tags into one 64-bit seed (order-sensitive)."""
    rng = SplitMix64(0xA0F3_51DE_9C2B_7E41)
    acc = 0
    for p in parts:
        acc ^= SplitMix64((p & _MASK) ^ rng.next_u64()).next_u64()
    return acc & _MASK

"""Deterministic random number generation, drawn in blocks.

The synthetic-session generator must produce identical output for a
given seed on every rerun, so it cannot rely on library RNGs whose
streams may change between releases. This module implements a
counter-based generator built from 64-bit xor-shift/multiply mixing
(the splitmix64 finalizer): output i is `mix(seed + i * GAMMA)`,
i = 1, 2, ... Every draw is a block: numpy's wrapping uint64 arithmetic
mixes a run of consecutive counters at once. A caller that cannot know
how many numbers it needs draws a generous block and gives the rest
back with `rewind`, so the stream reads as if drawn one at a time.

The integer stream is the same on every host. The floats made from it
need not be: `np.log`, `np.log1p`, `np.sin` and `np.cos` go through
numpy's SIMD dispatch, whose loops may differ in the last bit between
CPUs. The corpus keeps its bytes only because `synth` rounds its
outputs (coordinates to 0.01 px, beats to 0.001 s) and truncates its
geometric run lengths; a value on a rounding boundary could still move.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, odd
M1 = 0xBF58476D1CE4E5B9
M2 = 0x94D049BB133111EB

# Distinct odd increment used only to derive child seeds.
CHILD_GAMMA = 0xD1B54A32D192ED03

_TWO53 = float(1 << 53)


def _mix64_block(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on each element of a uint64 array."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(M2)
    z ^= z >> np.uint64(31)
    return z


class Rng:
    """Counter-based deterministic random stream.

    Each block advances one counter, so drawing blocks in a fixed code
    order keeps the whole stream reproducible.
    """

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._n = 0

    def child_seed(self, k: int) -> int:
        """Seed for the k-th derived stream (sessions, shuffles, ...)."""
        z = np.array([(self._seed + (k + 1) * CHILD_GAMMA) & _MASK], dtype=np.uint64)
        return int(_mix64_block(z)[0])

    def u64_block(self, count: int) -> np.ndarray:
        idx = np.arange(self._n + 1, self._n + count + 1, dtype=np.uint64)
        self._n += count
        z = np.uint64(self._seed) + idx * np.uint64(GAMMA)
        return _mix64_block(z)

    def rewind(self, count: int) -> None:
        """Give back the last `count` draws: the next draws repeat them."""
        if not 0 <= count <= self._n:
            raise ValueError(f"cannot rewind {count} of {self._n} draws")
        self._n -= count

    def random_block(self, count: int) -> np.ndarray:
        """Uniform floats in [0, 1) with 53 random bits."""
        return (self.u64_block(count) >> np.uint64(11)).astype(np.float64) / _TWO53

    def normal_block(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller on consecutive uniform pairs."""
        pairs = (count + 1) // 2
        u1 = 1.0 - self.random_block(pairs)  # (0, 1]
        u2 = self.random_block(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(2.0 * np.pi * u2)
        out[1::2] = r * np.sin(2.0 * np.pi * u2)
        return out[:count]

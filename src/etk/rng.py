"""Deterministic, platform-independent random number generation.

The synthetic-session generator must produce identical output for a
given seed on every host, so it cannot rely on library RNGs whose
streams may change between releases. This module implements a
counter-based generator built from 64-bit xor-shift/multiply mixing
(the splitmix64 finalizer): output i is `mix(seed + (i+1) * GAMMA)`.
Being counter-based, arbitrarily long blocks of the stream can be
produced vectorized with numpy's wrapping uint64 arithmetic while
scalar draws use plain Python integers; both paths yield the same
stream.

Constants:
    GAMMA = 0x9E3779B97F4A7C15   (2^64 / golden ratio, odd)
    M1    = 0xBF58476D1CE4E5B9
    M2    = 0x94D049BB133111EB
    shifts 30, 27, 31
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
M1 = 0xBF58476D1CE4E5B9
M2 = 0x94D049BB133111EB

# Distinct odd increment used only to derive child seeds.
CHILD_GAMMA = 0xD1B54A32D192ED03

_TWO53 = float(1 << 53)


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z ^= z >> 30
    z = (z * M1) & _MASK
    z ^= z >> 27
    z = (z * M2) & _MASK
    z ^= z >> 31
    return z


def _mix64_block(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(M2)
    z ^= z >> np.uint64(31)
    return z


class Rng:
    """Counter-based deterministic random stream.

    Scalar and block draws advance the same counter, so interleaving
    them in a fixed code order keeps the whole stream reproducible.
    """

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._n = 0

    def child_seed(self, k: int) -> int:
        """Seed for the k-th derived stream (sessions, shuffles, ...)."""
        return mix64((self._seed + (k + 1) * CHILD_GAMMA) & _MASK)

    def u64(self) -> int:
        self._n += 1
        return mix64((self._seed + self._n * GAMMA) & _MASK)

    def u64_block(self, count: int) -> np.ndarray:
        idx = np.arange(self._n + 1, self._n + count + 1, dtype=np.uint64)
        self._n += count
        z = np.uint64(self._seed) + idx * np.uint64(GAMMA)
        return _mix64_block(z)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.u64() >> 11) / _TWO53

    def random_block(self, count: int) -> np.ndarray:
        return (self.u64_block(count) >> np.uint64(11)).astype(np.float64) / _TWO53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def geometric(self, p: float) -> int:
        """Number of trials to the first success, >= 1."""
        if p >= 1.0:
            return 1
        u = self.random()
        # inverse CDF; 1-u in (0, 1] avoids log(0)
        return 1 + int(np.log1p(-u) / np.log1p(-p))

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

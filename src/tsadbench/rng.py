"""Deterministic PRNG primitives used wherever reproducibility is promised.

Zero-shot splits and synthetic generation must produce identical output for
identical seeds on every platform, so nothing here delegates to ``random``
or numpy generators. The algorithms are pinned:

* stream: SplitMix64 (Steele et al.), 64-bit state, one output per step
* uniform doubles: top 53 bits of an output, giving [0, 1)
* normal variates: Box-Muller, cosine branch only, one variate per
  (u1, u2) pair where u1 is mapped into (0, 1]
* shuffling: Fisher-Yates from the top index down, j = next() mod (i + 1)

Bulk noise is drawn in blocks of the same stream (``next_u64_block``,
``normal_block``): a block of k outputs equals k calls of ``next_u64`` and
leaves the state where they would, so block and scalar draws interleave
bit for bit. numpy does only the integer mixing and correctly rounded IEEE
arithmetic; ``log`` and ``cos`` stay ``math`` calls per element, because
numpy's vectorized transcendentals may differ from them in the last bit.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO_PI = 2.0 * math.pi


class SplitMix64:
    """SplitMix64 stream seeded with an arbitrary non-negative integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_u64_block(self, k: int) -> np.ndarray:
        """The next k outputs as a uint64 array.

        The state after j steps is ``state + j * golden mod 2**64``, so the
        whole block is mixed at once; uint64 arithmetic wraps like the mask.
        """
        start = self._state
        z = np.arange(1, k + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(start)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self._state = (start + k * _GOLDEN) & _MASK64
        return z

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randint(self, bound: int) -> int:
        """Integer in [0, bound) via modulo reduction (bound << 2**64)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def normal(self) -> float:
        """Standard normal variate via Box-Muller (cosine branch)."""
        u1 = 1.0 - self.uniform()  # (0, 1]: keeps log() finite
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normal_block(self, k: int) -> np.ndarray:
        """k standard normal variates, bit-identical to k ``normal()`` calls."""
        u = (self.next_u64_block(2 * k) >> np.uint64(11)) * (2.0 ** -53)
        log_u1 = np.fromiter(map(math.log, (1.0 - u[0::2]).tolist()), np.float64, k)
        cos_u2 = np.fromiter(map(math.cos, (_TWO_PI * u[1::2]).tolist()), np.float64, k)
        return np.sqrt(-2.0 * log_u1) * cos_u2

    def shuffle(self, items: list) -> list:
        """In-place Fisher-Yates shuffle; returns the list for chaining."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

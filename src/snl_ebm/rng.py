"""Portable counter-based random streams (SplitMix64).

Draw i of a stream with seed s is

    out_i = mix64(s + (i + 1) * GOLDEN)   (mod 2^64)

where mix64 is the SplitMix64 finalizer (Steele, Lea & Flood 2014) and
GOLDEN = floor(2^64 / phi). Every draw is a pure function of (seed, counter),
so sequences are bit-identical across platforms, independent of numpy's own
bit generators, and support O(1) skipping.

Stream splitting rule: ``split(label)`` derives a child stream with seed
``mix64(parent_seed XOR fnv1a64(label))``. Labels are short strings such as
"data", "proposal", "init"; distinct labels give decorrelated streams and the
derivation is associative enough for nested splits ("train" -> "epoch=3").

Floating-point conventions: uniforms take the top 53 bits, ``(x >> 11) * 2^-53``
in [0, 1); normals use Box-Muller on (0, 1] x [0, 1) pairs. Both only involve
exactly-representable doubles, so the float streams are portable too.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int (mod 2^64)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of the UTF-8 encoding of ``text``."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2^64 in numpy, which is exactly what we need.
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class PortableRng:
    """A counter-based SplitMix64 stream with explicit splitting.

    The instance holds only (seed, counter); a stream starts at counter 0,
    and setting ``counter`` skips to that position. All drawing methods
    consume a documented number of counter positions, so two code paths that
    draw the same shapes from the same stream see the same values.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed) & _MASK
        self.counter = 0

    def split(self, label: str) -> "PortableRng":
        """Child stream for ``label``; independent of this stream's counter."""
        return PortableRng(mix64(self.seed ^ fnv1a64(label)))

    def split_index(self, index: int) -> "PortableRng":
        """Child stream for an integer label (used for per-seed runs)."""
        return self.split(str(int(index)))

    # -- raw draws ---------------------------------------------------------

    def uint64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs; consumes ``n`` counter positions."""
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        words = np.uint64(self.seed) + idx * np.uint64(_GOLDEN)
        return _mix64_array(words)

    # -- distributions -----------------------------------------------------

    def uniform(self, size: int | tuple[int, ...], low: float = 0.0, high: float = 1.0) -> np.ndarray:
        shape = (size,) if isinstance(size, int) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        u = (self.uint64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return (low + (high - low) * u).reshape(shape)

    def normal(self, size: int | tuple[int, ...]) -> np.ndarray:
        """Standard normals via Box-Muller; consumes 2*ceil(n/2) positions."""
        shape = (size,) if isinstance(size, int) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        pairs = (n + 1) // 2
        words = self.uint64(2 * pairs)
        # u1 in (0, 1] so log(u1) is finite; u2 in [0, 1).
        u1 = ((words[:pairs] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
        u2 = (words[pairs:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        return z[:n].reshape(shape)

    def integers(self, size: int, bound: int) -> np.ndarray:
        """Integers in [0, bound) for small bounds (exact integer arithmetic)."""
        if not 0 < bound <= 1024:
            raise ValueError("bound must be in (0, 1024]")
        top53 = self.uint64(size) >> np.uint64(11)
        return ((top53 * np.uint64(bound)) >> np.uint64(53)).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n) by stable argsort of n raw draws."""
        return np.argsort(self.uint64(n), kind="stable")

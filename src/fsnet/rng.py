"""Deterministic random numbers from an explicit, counter-based generator.

The generator is splitmix64: draw ``k`` of a stream is ``mix64(key + k*GAMMA)``
where ``mix64`` is the splitmix64 finalizer, ``GAMMA`` the 64-bit golden-ratio
increment, and ``key = mix64(seed)``. Because each output word is a pure
function of (seed, draw index), blocks of draws vectorize with numpy uint64
arithmetic and a run reproduces bit-for-bit on any platform, independent of
any global RNG state.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# clamp for Gumbel inputs: keeps -log(-log(u)) finite
_GUMBEL_EPS = 1e-12


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (bijective on 64-bit words)."""
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class RngState:
    """Explicit generator state: a seed key plus a draw counter.

    Identical seeds yield identical sample streams; the counter records how
    many 64-bit words have been consumed.
    """

    def __init__(self, seed: int, _counter: int = 0):
        self.seed = int(seed) & _MASK64
        self._key = np.uint64(int(_mix64(np.uint64(self.seed))))
        self._counter = _counter

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, counter={self._counter})"

    @property
    def counter(self) -> int:
        return self._counter

    def derive(self, label: str) -> "RngState":
        """Independent child stream, a pure function of (seed, label)."""
        child_seed = int(_mix64(np.uint64(self.seed ^ _fnv1a64(label))))
        return RngState(child_seed)

    def _raw(self, n: int) -> np.ndarray:
        ks = np.arange(self._counter + 1, self._counter + 1 + n, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix64(self._key + ks * _GAMMA)

    def uniform(self, shape: int | tuple[int, ...] = ()) -> np.ndarray | float:
        """Uniform draws on the open interval (0, 1) with 53-bit resolution."""
        size = int(np.prod(shape)) if shape != () else 1
        u = ((self._raw(size) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        if shape == ():
            return float(u[0])
        return u.reshape(shape)

    def normal(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Standard normal draws via the Box-Muller transform."""
        size = int(np.prod(shape))
        u1 = np.asarray(self.uniform(size if size else 1)).reshape(-1)
        u2 = np.asarray(self.uniform(size if size else 1)).reshape(-1)
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return z[:size].reshape(shape)

    def gumbel(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Standard Gumbel draws, -log(-log(u)), u clamped into [eps, 1-eps].
        Each step overwrites the uniform draw's own array."""
        u = np.asarray(self.uniform(shape))
        np.clip(u, _GUMBEL_EPS, 1.0 - _GUMBEL_EPS, out=u)
        np.log(u, out=u)
        np.negative(u, out=u)
        np.log(u, out=u)
        return np.negative(u, out=u)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n)."""
        perm = np.arange(n)
        if n < 2:
            return perm
        u = np.asarray(self.uniform(n - 1))
        for i in range(n - 1, 0, -1):
            j = int(u[n - 1 - i] * (i + 1))  # j in [0, i]
            perm[i], perm[j] = perm[j], perm[i]
        return perm


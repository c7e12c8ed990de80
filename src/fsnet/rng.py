"""Deterministic random numbers from an explicit, counter-based generator.

The generator is splitmix64: draw ``k`` of a stream is ``mix64(key + k*GAMMA)``
where ``mix64`` is the splitmix64 finalizer, ``GAMMA`` the 64-bit golden-ratio
increment, and ``key = mix64(seed)``. Because each output word is a pure
function of (seed, draw index), blocks of draws vectorize with numpy uint64
arithmetic and a run reproduces bit-for-bit on any platform, independent of
any global RNG state.

Draws are float64 whatever numerics.DTYPE is; a pass that computes in float32
casts them. The Gumbel transform needs float64: float32 rounds 1 - 1e-12 to
1.0, where -log(-log(u)) is inf.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# clamp for Gumbel inputs: keeps -log(-log(u)) finite
_GUMBEL_EPS = 1e-12


def _mix64(z, scratch: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer (bijective on 64-bit words), applied in place.

    A uint64 array z is overwritten with its mix; a scalar is mixed in a 0-d
    copy. scratch, an array of z's shape (default: a fresh one), holds each
    shifted word. uint64 arithmetic wraps around, which is the point.
    """
    z = np.asarray(z, dtype=np.uint64)
    t = np.empty_like(z) if scratch is None else scratch
    for shift, mult in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=t)
        np.bitwise_xor(z, t, out=z)
        if mult is not None:
            np.multiply(z, mult, out=z)
    return z


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

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._key = np.uint64(int(_mix64(np.uint64(self.seed))))
        self._counter = 0

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, counter={self._counter})"

    @property
    def counter(self) -> int:
        return self._counter

    def derive(self, label: str) -> "RngState":
        """Independent child stream, a pure function of (seed, label)."""
        child_seed = int(_mix64(np.uint64(self.seed ^ _fnv1a64(label))))
        return RngState(child_seed)

    def words(self, n: int, scratch: np.ndarray | None = None) -> np.ndarray:
        """The next n raw 64-bit words, computed in one uint64 array; scratch,
        n words (default: a fresh array), holds _mix64's shifted words."""
        z = np.arange(self._counter + 1, self._counter + 1 + n, dtype=np.uint64)
        self._counter += n
        np.multiply(z, _GAMMA, out=z)
        np.add(z, self._key, out=z)
        return _mix64(z, scratch)

    def uniform(self, shape: int | tuple[int, ...] = ()) -> np.ndarray | float:
        """Uniform draws on the open interval (0, 1) with 53-bit resolution.

        The draws are made in one float64 array, whose memory first serves
        as the generator's scratch words."""
        size = int(np.prod(shape)) if shape != () else 1
        u = np.empty(size)
        words = self.words(size, u.view(np.uint64))
        np.right_shift(words, np.uint64(11), out=words)
        np.add(words, 0.5, out=u)  # each word < 2**53 converts to float64 exactly
        np.multiply(u, 2.0**-53, out=u)
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


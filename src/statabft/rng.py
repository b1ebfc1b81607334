"""Deterministic pseudo-randomness shared by every simulation component.

All randomness flows through SplitMix64 so runs reproduce bit-for-bit on any
platform and trial seeds can be derived independently (no shared RNG state
between concurrent trials). The k-th draw from a seed is a pure function of
(seed, k), which makes bulk sampling vectorizable and lets ``u64_at`` draw
any subset of a stream alone.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """``mix64`` of each value of a uint64 array of at least one dimension.

    The products wrap modulo 2**64 silently only on arrays: numpy warns when
    a 0-d operand makes them scalar products.
    """
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


def u64_at(seed: int, idx) -> np.ndarray:
    """Outputs ``idx`` (0-based, an index array of any shape) of SplitMix64 seeded with ``seed``.

    Output i equals mix64(seed + (i + 1) * GAMMA), the classic sequential
    generator unrolled, so any output is drawn without the ones before it.
    """
    i = np.asarray(idx, dtype=np.uint64)
    # seed + (i + 1) * GAMMA, on a raveled view so a 0-d index wraps like an array
    z = np.uint64((seed + GAMMA) & MASK64) + i.ravel() * np.uint64(GAMMA)
    return _mix64_array(z).reshape(i.shape)


def u64_rows(seeds, n: int) -> np.ndarray:
    """Outputs 0 to n - 1 under each seed: row r of the result is ``u64_stream(seeds[r], n)``."""
    s = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    return _mix64_array(s + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GAMMA))


def u64_stream(seed: int, n: int, offset: int = 0) -> np.ndarray:
    """Outputs ``offset`` to ``offset + n - 1`` of SplitMix64 seeded with ``seed``.

    ``SplitMix64`` produces the same values one at a time.
    """
    return u64_at(seed, np.arange(offset, offset + n, dtype=np.uint64))


def unit_floats(u: np.ndarray) -> np.ndarray:
    """Map uint64 draws to float64 in [0, 1) using the top 53 bits."""
    return (u >> np.uint64(11)).astype(np.float64) * 2.0**-53


class SplitMix64:
    """Sequential view of the same stream ``u64_stream`` produces."""

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._i = 0

    def next_u64(self) -> int:
        self._i += 1
        return mix64(self.seed + self._i * GAMMA)


def derive_seed(root: int, *indices):
    """Fold indices into a root seed, one fixed mixing round per index.

    Used to give every (trial, GEMM, purpose) tuple its own independent
    stream. The fold order is part of the reproducibility contract.

    With Python int indices the seed is a Python int. If any index is an
    array of nonnegative integers, the indices broadcast together and the
    result is the uint64 array of the seeds of every index tuple, computed
    with the same rounds in wrapping uint64 arithmetic.
    """
    s = root & MASK64
    for k in indices:
        if isinstance(k, np.ndarray):  # checked here, as the scalar form runs once per trial
            return _derive_seeds(root, indices)
        s = mix64(((s + GAMMA) & MASK64) ^ mix64((k + GAMMA) & MASK64))
    return s


def _derive_seeds(root: int, indices) -> np.ndarray:
    ks = [np.asarray(k, dtype=np.uint64) for k in indices]
    shape = np.broadcast_shapes(*(k.shape for k in ks))
    gamma = np.uint64(GAMMA)
    # raveled, so even a 0-d shape folds on a 1-d array
    s = np.full(shape, root & MASK64, dtype=np.uint64).ravel()
    for k in ks:
        s = _mix64_array((s + gamma) ^ _mix64_array(np.broadcast_to(k, shape).ravel() + gamma))
    return s.reshape(shape)

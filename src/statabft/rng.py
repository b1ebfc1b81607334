"""Deterministic pseudo-randomness shared by every simulation component.

All randomness flows through SplitMix64 so runs reproduce bit-for-bit on any
platform and trial seeds can be derived independently (no shared RNG state
between concurrent trials). The k-th draw from a seed is a pure function of
(seed, k), which makes bulk sampling vectorizable: ``u64_at`` draws any
subset of a stream alone, and of many streams at once when given an array of
seeds. Stream-wide draws hold their temporaries to blocks of about
``DRAW_BLOCK`` values.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

# uint64 values per temporary of a stream-wide draw (128 KiB): the fault
# sampler's first chunk over a block of trials, a block of uniform-mode
# priority rows, a block of operand rows and a block of entry dot products.
# Results do not depend on it.
DRAW_BLOCK = 2**14

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """``mix64`` of each value of a uint64 array of at least one dimension, in place.

    Consumes its argument: ``z`` is overwritten with the result and returned,
    so callers pass a fresh temporary. One scratch array holds the shifts.
    The products wrap modulo 2**64 silently only on arrays: numpy warns when
    a 0-d operand makes them scalar products.
    """
    t = np.empty_like(z)
    for shift, mult in ((30, _M1), (27, _M2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def u64_at(seed, idx) -> np.ndarray:
    """Outputs ``idx`` (0-based, an index array of any shape) of SplitMix64 seeded with ``seed``.

    Output i equals mix64(seed + (i + 1) * GAMMA), the classic sequential
    generator unrolled, so any output is drawn without the ones before it.
    ``seed`` is an int, or a uint64 array that broadcasts against ``idx``:
    element i is then output idx[i] of the stream seeded with seed[i].
    """
    i = np.asarray(idx, dtype=np.uint64)
    shape = i.shape
    if isinstance(seed, np.ndarray):
        shape = np.broadcast_shapes(seed.shape, shape)
        base = np.atleast_1d(seed).astype(np.uint64, copy=False) + np.uint64(GAMMA)
    else:
        base = np.uint64((int(seed) + GAMMA) & MASK64)
    # seed + (i + 1) * GAMMA, on at least 1-d arrays so a 0-d operand wraps like an array
    return _mix64_array(base + np.atleast_1d(i) * np.uint64(GAMMA)).reshape(shape)


def u64_stream(seed, n: int, offset: int = 0) -> np.ndarray:
    """Outputs ``offset`` to ``offset + n - 1`` of SplitMix64 seeded with ``seed``.

    ``SplitMix64`` produces the same values one at a time. A column of seeds
    (a (trials x 1) uint64 array) gives one row of outputs per seed.
    """
    return u64_at(seed, np.arange(offset, offset + n, dtype=np.uint64))


def check_seed(seed: int, name: str = "seed") -> None:
    """Refuse a root seed outside [0, 2**64), which ``derive_seed`` would wrap silently."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} must be in [0, 2**64), got {seed}")


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

    With integer indices (Python ints or numpy integer scalars) the seed is a
    Python int. If any index is an array of nonnegative integers, the indices
    broadcast together and the result is the uint64 array of the seeds of
    every index tuple, computed with the same rounds in wrapping uint64
    arithmetic.
    """
    s = root & MASK64
    for k in indices:
        if isinstance(k, np.ndarray):
            return _derive_seeds(root, indices)
        # an np.integer index is the Python int it holds (numpy's own addition would overflow)
        s = mix64(((s + GAMMA) & MASK64) ^ mix64((int(k) + GAMMA) & MASK64))
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

"""A fixed reference kernel that gauges the host's current speed.

The host this benchmark was sized on runs the same code at speeds that drift
by up to 1.6x for minutes at a time (see README.md, Noise). Each worker times
this kernel PASSES times right after its set-up and PASSES times right after
its invocation, and run.py scales the worker's set-up and CPU times by
REFERENCE_S over the median pass. The kernel mixes what statabft spends its
time on: small frozen dataclasses and Python integer work, element-wise uint64
numpy passes, and an int64 matrix product. It does not import statabft, so no
change to the program moves it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# scaled times are those of a host on which one pass takes this long
REFERENCE_S = 0.1
PASSES = 3


@dataclass(frozen=True)
class _Event:
    row: int
    value: int


def reference_passes():
    """Wall times of PASSES passes of the kernel."""
    return [_one_pass() for _ in range(PASSES)]


def _one_pass():
    start = time.perf_counter()
    acc = 0
    for i in range(60000):
        e = _Event(i >> 6, i * 3)
        acc ^= int(e.row) + (e.value >> 2)
    # small arrays, so the kernel never raises a worker's peak resident memory
    a = np.arange(1 << 15, dtype=np.uint64)
    for _ in range(160):
        a = (a ^ (a >> np.uint64(29))) * np.uint64(0xBF58476D1CE4E5B9)
    x = np.arange(64 * 512, dtype=np.int64).reshape(64, 512) % 251
    for _ in range(6):
        acc ^= int((x @ x.T).sum())
    return time.perf_counter() - start

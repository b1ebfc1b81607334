"""Synthetic INT8 workload generation for experiments.

Two input distributions:

* "uniform": every element uniform over the full INT8 range.
* "outlier": small-magnitude body (values in [-16, 15]) with a 1/64 chance
  per element of a large-magnitude outlier (|v| in [96, 127]), mimicking the
  heavy-tailed activations that make normalization layers sensitive to upsets.

All draws are SplitMix64-derived, one u64 per element, bit-sliced so a
single stream fixes the matrix exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gemm import MAX_INNER_DIM, QuantMatrix
from .rng import derive_seed, u64_stream

DISTRIBUTIONS = ("uniform", "outlier")

# |checksum deviation| per element < 2**32, so MSD <= m * n * 2**32 <= 2**56
# stays exact in int64; K is capped where INT32 accumulation stays exact
MAX_OUTER_DIM = 4096

# disjoint derivation tags so workload and fault streams never collide even
# when configured with the same root seed
TAG_WEIGHTS = 101
TAG_ACTIVATIONS = 102


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape and distribution of the synthetic GEMM stream."""

    m: int = 64
    k: int = 64
    n: int = 64
    gemm_count: int = 100
    distribution: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        for name, hi in (("m", MAX_OUTER_DIM), ("k", MAX_INNER_DIM), ("n", MAX_OUTER_DIM)):
            v = getattr(self, name)
            if not 1 <= v <= hi:
                raise ValueError(f"{name} must be in [1, {hi}] (workload dimensions), got {v}")
        if self.gemm_count < 1:
            raise ValueError("gemm_count must be >= 1")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def macs_per_gemm(self) -> int:
        return self.m * self.k * self.n


def random_quant_matrix(
    rows: int, cols: int, distribution: str, seed: int, scale: float = 1.0
) -> QuantMatrix:
    u = u64_stream(seed, rows * cols)
    if distribution == "uniform":
        # 2**64 is divisible by 256, so the low byte is exactly uniform
        vals = (u & np.uint64(0xFF)).astype(np.int64) - 128
    elif distribution == "outlier":
        body = (u & np.uint64(0x1F)).astype(np.int64) - 16
        is_outlier = (u >> np.uint64(58)) == 0
        out_mag = 96 + ((u >> np.uint64(8)) & np.uint64(0x1F)).astype(np.int64)
        sign = np.where((u >> np.uint64(16)) & np.uint64(1), 1, -1)
        vals = np.where(is_outlier, sign * out_mag, body)
    else:
        raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")
    return QuantMatrix(vals.reshape(rows, cols).astype(np.int8), scale=scale)


def workload_matrices(spec: WorkloadSpec, index: int) -> tuple[QuantMatrix, QuantMatrix]:
    """The ``index``-th (W, X) pair of the stream, independent of all others."""
    if not (0 <= index < spec.gemm_count):
        raise ValueError(f"index {index} outside [0, {spec.gemm_count})")
    w = random_quant_matrix(
        spec.m, spec.k, spec.distribution, derive_seed(spec.seed, TAG_WEIGHTS, index)
    )
    x = random_quant_matrix(
        spec.k, spec.n, spec.distribution, derive_seed(spec.seed, TAG_ACTIVATIONS, index)
    )
    return w, x

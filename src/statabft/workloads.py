"""Synthetic INT8 workload generation for experiments.

Two input distributions:

* "uniform": every element uniform over the full INT8 range.
* "outlier": small-magnitude body (values in [-16, 15]) with a 1/64 chance
  per element of a large-magnitude outlier (|v| in [96, 127]), mimicking the
  heavy-tailed activations that make normalization layers sensitive to upsets.

All draws are SplitMix64-derived, one u64 per element in row-major order,
bit-sliced into the element's value. The stream is counter-based, so each
element can be drawn alone: ``workload_entries`` gives clean output entries
of a GEMM from just the W rows and X columns they read, equal to the dense
product's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gemm import MAX_INNER_DIM, QuantMatrix, gemm_entries
from .rng import derive_seed, u64_at, u64_stream

DISTRIBUTIONS = ("uniform", "outlier")

# |checksum deviation| per element < 2**32, so MSD <= m * n * 2**32 <= 2**56
# stays exact in int64; K is capped where INT32 accumulation stays exact
MAX_OUTER_DIM = 4096

# compare and the sweep each hold the stream's checksum differences as one int64
# (gemm_count x n) matrix; 2**24 lanes keep it at 128 MiB
MAX_STREAM_LANES = 2**24

# disjoint derivation tags so workload and fault streams never collide even
# when configured with the same root seed
TAG_WEIGHTS = 101
TAG_ACTIVATIONS = 102


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape and distribution of the synthetic GEMM stream.

    GEMM t is trial t of every ``compare``, ``sweep`` and ``inject`` run, so
    ``gemm_count`` is the one trial count.
    """

    m: int = 64
    k: int = 64
    n: int = 64
    gemm_count: int = 200
    distribution: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        for name, hi in (("m", MAX_OUTER_DIM), ("k", MAX_INNER_DIM), ("n", MAX_OUTER_DIM)):
            v = getattr(self, name)
            if not 1 <= v <= hi:
                raise ValueError(f"{name} must be in [1, {hi}] (workload dimensions), got {v}")
        if self.gemm_count < 1:
            raise ValueError("gemm_count must be >= 1")
        if self.gemm_count * self.n > MAX_STREAM_LANES:
            raise ValueError(
                f"gemm_count must be <= {MAX_STREAM_LANES // self.n} at n = {self.n} (a stream "
                f"holds at most {MAX_STREAM_LANES} checksum lanes), got {self.gemm_count}"
            )
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def macs_per_gemm(self) -> int:
        return self.m * self.k * self.n


def _int8_values(u: np.ndarray, distribution: str) -> np.ndarray:
    """The INT8 element each u64 draw decodes to under ``distribution``, same shape."""
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
    return vals.astype(np.int8)


def random_quant_matrix(
    rows: int, cols: int, distribution: str, seed: int, scale: float = 1.0
) -> QuantMatrix:
    u = u64_stream(seed, rows * cols)
    return QuantMatrix(_int8_values(u, distribution).reshape(rows, cols), scale=scale)


def _check_index(spec: WorkloadSpec, index: int) -> None:
    if not (0 <= index < spec.gemm_count):
        raise ValueError(f"index {index} outside [0, {spec.gemm_count})")


def workload_matrices(spec: WorkloadSpec, index: int) -> tuple[QuantMatrix, QuantMatrix]:
    """The ``index``-th (W, X) pair of the stream, independent of all others."""
    _check_index(spec, index)
    w = random_quant_matrix(
        spec.m, spec.k, spec.distribution, derive_seed(spec.seed, TAG_WEIGHTS, index)
    )
    x = random_quant_matrix(
        spec.k, spec.n, spec.distribution, derive_seed(spec.seed, TAG_ACTIVATIONS, index)
    )
    return w, x


def _operand(spec: WorkloadSpec, tag: int, index: int, idx: np.ndarray) -> QuantMatrix:
    """The elements at row-major positions ``idx`` of one operand of GEMM ``index``."""
    u = u64_at(derive_seed(spec.seed, tag, index), idx)
    return QuantMatrix(_int8_values(u, spec.distribution))


def workload_entries(spec: WorkloadSpec, index: int, rows, cols) -> np.ndarray:
    """Entries (rows[i], cols[i]) of the ``index``-th GEMM's clean output W @ X.

    Equal to ``gemm(*workload_matrices(spec, index)).data[rows, cols]``, but
    draws only the operand elements those entries read: W row r is draws
    r*k ... r*k + k - 1 of the W stream, X column c is draws c, c + n, ...,
    c + (k - 1)*n of the X stream. Each row and column is drawn once however
    often it is read, and no entries draw nothing.
    """
    _check_index(spec, index)
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    if rows.size != cols.size:
        raise ValueError(f"{rows.size} rows but {cols.size} cols")
    if rows.size == 0:
        return np.zeros(0, dtype=np.int64)
    w_rows, rows = np.unique(rows, return_inverse=True)
    x_cols, cols = np.unique(cols, return_inverse=True)
    if w_rows[0] < 0 or w_rows[-1] >= spec.m or x_cols[0] < 0 or x_cols[-1] >= spec.n:
        raise ValueError(f"entries outside the {spec.m}x{spec.n} output")
    inner = np.arange(spec.k, dtype=np.int64)
    w = _operand(spec, TAG_WEIGHTS, index, w_rows[:, None] * spec.k + inner)
    x = _operand(spec, TAG_ACTIVATIONS, index, inner[:, None] * spec.n + x_cols)
    return gemm_entries(w, x, rows, cols)

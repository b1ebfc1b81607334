"""Synthetic INT8 workload generation for experiments.

Two input distributions:

* "uniform": every element uniform over the full INT8 range.
* "outlier": small-magnitude body (values in [-16, 15]) with a 1/64 chance
  per element of a large-magnitude outlier (|v| in [96, 127]), mimicking the
  heavy-tailed activations that make normalization layers sensitive to upsets.

All draws are SplitMix64-derived, one u64 per element in row-major order,
bit-sliced into the element's value. The stream is counter-based, so each
element can be drawn alone: ``workload_entries`` gives clean output entries
of any GEMMs of a stream from just the W rows and X columns they read, equal
to the dense products'. One call serves a whole stream of trials: each
(GEMM, row) and (GEMM, column) is drawn once, on seeds derived in one array
pass, over blocks of the inner dimension of about ``rng.DRAW_BLOCK`` values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gemm import MAX_INNER_DIM, QuantMatrix, gemm_entries
from .rng import DRAW_BLOCK, GAMMA, MASK64, check_seed, derive_seed, u64_at, u64_stream

DISTRIBUTIONS = ("uniform", "outlier")

# |checksum deviation| per element < 2**32, so MSD <= m * n * 2**32 <= 2**56
# stays exact in int64; K is capped where INT32 accumulation stays exact
MAX_OUTER_DIM = 4096

# checksum lanes (gemm_count x n) a stream may hold; compare and the sweep score
# it in bounded blocks, so this bounds a run's length, not its memory
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
        check_seed(self.seed)

    @property
    def macs_per_gemm(self) -> int:
        return self.m * self.k * self.n


def _int8_values(u: np.ndarray, distribution: str) -> np.ndarray:
    """The INT8 element each u64 draw decodes to under ``distribution``, same shape.

    Every value is read from the draw's low 17 bits and its top 6, on bytes:
    the low byte is taken once, and only the outlier positions read more.
    """
    low = u.astype(np.uint8, order="C")  # the low byte: unsigned casts wrap modulo 256
    if distribution == "uniform":
        # 2**64 is divisible by 256, so the low byte is exactly uniform;
        # flipping its top bit maps 0..255 onto -128..127 in two's complement
        low ^= np.uint8(0x80)
        return low.view(np.int8)
    if distribution != "outlier":
        raise ValueError(f"distribution must be one of {DISTRIBUTIONS}")
    low &= np.uint8(0x1F)
    vals = low.view(np.int8)
    vals -= np.int8(16)  # the body, in [-16, 15]
    # about 1 draw in 64 has its top 6 bits clear and is an outlier, |v| in [96, 127]
    at = np.flatnonzero(u < np.uint64(1 << 58))
    hit = u.ravel()[at]
    mag = 96 + ((hit >> np.uint64(8)) & np.uint64(0x1F)).astype(np.int8)
    vals.ravel()[at] = np.where((hit >> np.uint64(16)) & np.uint64(1), mag, -mag)
    return vals


def random_quant_matrix(rows: int, cols: int, distribution: str, seed: int) -> QuantMatrix:
    u = u64_stream(seed, rows * cols)
    return QuantMatrix(_int8_values(u, distribution).reshape(rows, cols))


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


def workload_entries(spec: WorkloadSpec, index, rows, cols) -> np.ndarray:
    """Entries (rows[i], cols[i]) of GEMM index[i]'s clean output W @ X.

    ``index`` holds one GEMM index per entry, or one for all of them. Entry i
    equals ``gemm(*workload_matrices(spec, index[i])).data[rows[i], cols[i]]``,
    but only the operand elements the entries read are drawn: W row r is
    draws r*k ... r*k + k - 1 of its GEMM's W stream, X column c is draws c,
    c + n, ..., c + (k - 1)*n of its X stream. Each (GEMM, W row) and (GEMM,
    X column) is drawn once however often it is read, and no entries draw
    nothing. The draws run over blocks of the inner dimension of about
    ``DRAW_BLOCK`` values (one inner index per block when more rows or
    columns are read), and ``gemm_entries`` takes each block's products in
    blocks of its own.
    """
    index = np.asarray(index, dtype=np.int64)
    outside = index[(index < 0) | (index >= spec.gemm_count)]
    if outside.size:
        raise ValueError(f"index {outside[0]} outside [0, {spec.gemm_count})")
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    if rows.size != cols.size:
        raise ValueError(f"{rows.size} rows but {cols.size} cols")
    trial = np.broadcast_to(index, rows.shape) if index.ndim == 0 else index.ravel()
    if trial.size != rows.size:
        raise ValueError(f"{trial.size} GEMM indices but {rows.size} entries")
    if rows.size == 0:
        return np.zeros(0, dtype=np.int64)
    if rows.min() < 0 or rows.max() >= spec.m or cols.min() < 0 or cols.max() >= spec.n:
        raise ValueError(f"entries outside the {spec.m}x{spec.n} output")
    w_keys, w_at = np.unique(trial * spec.m + rows, return_inverse=True)
    x_keys, x_at = np.unique(trial * spec.n + cols, return_inverse=True)
    # draw j of a stream seeded s is mix64(s + (j + 1) * GAMMA), so W row r's
    # draw r*k + i is draw i of the seed s + r*k*GAMMA, and X column c's draw
    # i*n + c is draw i*n of the seed s + c*GAMMA: a block indexes its inner
    # positions once, broadcast against every row's and column's seed
    w_rows, x_cols = (w_keys % spec.m).astype(np.uint64), (x_keys % spec.n).astype(np.uint64)
    w_seeds = derive_seed(spec.seed, TAG_WEIGHTS, w_keys // spec.m) + w_rows * np.uint64(spec.k * GAMMA & MASK64)
    x_seeds = derive_seed(spec.seed, TAG_ACTIVATIONS, x_keys // spec.n) + x_cols * np.uint64(GAMMA)
    out = np.zeros(rows.size, dtype=np.int64)
    step = max(1, DRAW_BLOCK // max(w_keys.size, x_keys.size))
    for start in range(0, spec.k, step):
        inner = np.arange(start, min(start + step, spec.k), dtype=np.uint64)
        w = _int8_values(u64_at(w_seeds[:, np.newaxis], inner), spec.distribution)
        x = _int8_values(u64_at(x_seeds, (inner * np.uint64(spec.n))[:, np.newaxis]), spec.distribution)
        out += gemm_entries(QuantMatrix(w), QuantMatrix(x), w_at, x_at)
    return out

"""Exact integer GEMM and checksum arithmetic.

This is the golden reference the rest of the package is validated against:
INT8 operands, INT32 accumulation, and 64-bit checksum vectors that cannot
wrap for any supported problem size.

Checksum identities (exact over the integers, fault-free):

    colsum(W @ X) == colsum(W) @ X      (checksum row  e^T W, then times X)
    rowsum(W @ X) == W @ rowsum(X)      (checksum col  X e)
    sum(W @ X)    == colsum(W) @ rowsum(X)

where colsum is the sum over rows (a length-N row vector) and rowsum the sum
over columns. The shared inner dimension K is capped at 2**16 so that INT32
accumulators provably cannot overflow (|y| <= 127 * 127 * 2**16 < 2**30) and
INT64 checksums hold sums of up to 2**16 such values with > 16 bits to spare.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_INNER_DIM = 2**16

# values per (K x entries) block of products gathered by gemm_entries (512 KiB in int16)
_ENTRY_BLOCK = 2**18

ROW = "row"
COLUMN = "column"
_SIDES = (ROW, COLUMN)


def _frozen_2d(data, dtype) -> np.ndarray:
    arr = np.asarray(data)
    if arr.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("matrix must be non-empty")
    if arr.dtype != dtype:
        info = np.iinfo(dtype)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"matrix elements must be integers, got {arr.dtype}")
        lo, hi = int(arr.min()), int(arr.max())
        if lo < info.min or hi > info.max:
            raise ValueError(
                f"element out of range for {np.dtype(dtype).name}: "
                f"values span [{lo}, {hi}]"
            )
        arr = arr.astype(dtype)
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class _IntMatrix:
    """Row-major integer matrix of the subclass's ``dtype``; equal only to one of its class."""

    data: np.ndarray
    dtype = None

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_2d(self.data, self.dtype))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return np.array_equal(self.data, other.data)


class QuantMatrix(_IntMatrix):
    """Row-major INT8 matrix; all checksum arithmetic is done on the raw integers."""

    dtype = np.int8


class AccumMatrix(_IntMatrix):
    """INT32 accumulator matrix, the output domain of the integer GEMM."""

    dtype = np.int32


@dataclass(frozen=True, eq=False)
class ChecksumVector:
    """INT64 checksum vector tagged with the side it was reduced over.

    side="row" is the checksum row (sum over matrix rows, one entry per
    column); side="column" is the checksum column (sum over columns, one
    entry per row).
    """

    data: np.ndarray
    side: str = ROW

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"checksum must be a non-empty vector, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"checksum elements must be integers, got {arr.dtype}")
        arr = np.ascontiguousarray(arr.astype(np.int64))
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        if self.side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}, got {self.side!r}")

    def __len__(self) -> int:
        return self.data.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChecksumVector):
            return NotImplemented
        return self.side == other.side and np.array_equal(self.data, other.data)


def _check_inner(w: QuantMatrix, x: QuantMatrix, bounded: bool = False) -> None:
    if w.cols != x.rows:
        raise ValueError(f"inner dimensions differ: {w.cols} vs {x.rows}")
    if bounded and w.cols > MAX_INNER_DIM:
        raise ValueError(f"inner dimension {w.cols} exceeds {MAX_INNER_DIM}")


def gemm(w: QuantMatrix, x: QuantMatrix) -> AccumMatrix:
    """Exact INT8 x INT8 -> INT32 matrix product.

    Accumulation happens in int64 and is cast down; the MAX_INNER_DIM bound
    guarantees the result fits INT32, so the cast never wraps.
    """
    _check_inner(w, x, bounded=True)
    y = w.data.astype(np.int64) @ x.data.astype(np.int64)
    return AccumMatrix(y.astype(np.int32))


def gemm_entries(w: QuantMatrix, x: QuantMatrix, rows, cols) -> np.ndarray:
    """Entries (rows[i], cols[i]) of W @ X: one exact K-MAC dot product each.

    Equal to ``gemm(w, x).data[rows, cols]`` without the dense product. The
    operand rows and columns are gathered in blocks of at most
    ``_ENTRY_BLOCK`` values each, so memory stays bounded however many
    entries are asked for.
    """
    _check_inner(w, x, bounded=True)
    out = np.zeros(len(rows), dtype=np.int64)
    step = max(_ENTRY_BLOCK // w.cols, 1)
    for i in range(0, len(rows), step):
        # gathered as (K x entries) rows, so short operand rows stay fast; an
        # INT8 x INT8 product fits int16 (|w * x| <= 2**14), its sum int64
        block = np.take(w.data.T, rows[i : i + step], axis=1).astype(np.int16)
        block *= np.take(x.data, cols[i : i + step], axis=1)
        out[i : i + step] = block.sum(axis=0, dtype=np.int64)
    return out


def checksum(m: QuantMatrix | AccumMatrix, side: str = ROW) -> ChecksumVector:
    """Exact column sums (side="row") or row sums (side="column") in int64."""
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES}, got {side!r}")
    axis = 0 if side == ROW else 1
    return ChecksumVector(m.data.sum(axis=axis, dtype=np.int64), side=side)


def predicted_output_checksum(w: QuantMatrix, x: QuantMatrix) -> ChecksumVector:
    """Checksum row of W @ X computed from the inputs only: (e^T W) X.

    This is the quantity a checksum-extended array computes on the side; a
    fault in the main GEMM leaves it untouched, so comparing it against the
    observed checksum of the (possibly faulted) output isolates the fault.
    """
    _check_inner(w, x)
    wsum = w.data.sum(axis=0, dtype=np.int64)
    return ChecksumVector(wsum @ x.data.astype(np.int64), side=ROW)


def predicted_column_checksum(w: QuantMatrix, x: QuantMatrix) -> ChecksumVector:
    """Checksum column of W @ X computed from the inputs only: W (X e)."""
    _check_inner(w, x)
    xsum = x.data.sum(axis=1, dtype=np.int64)
    return ChecksumVector(w.data.astype(np.int64) @ xsum, side=COLUMN)


def total_checksum(w: QuantMatrix, x: QuantMatrix) -> int:
    """Scalar checksum of W @ X from the inputs only: (e^T W)(X e)."""
    _check_inner(w, x)
    wsum = w.data.sum(axis=0, dtype=np.int64)
    xsum = x.data.sum(axis=1, dtype=np.int64)
    return int(wsum @ xsum)

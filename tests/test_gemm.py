import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statabft.gemm import (
    AccumMatrix,
    ChecksumVector,
    QuantMatrix,
    checksum,
    gemm,
    gemm_entries,
    predicted_column_checksum,
    predicted_output_checksum,
    total_checksum,
)
from statabft.workloads import random_quant_matrix


def naive_gemm(w, x):
    m, k = w.shape
    k2, n = x.shape
    assert k == k2
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            acc = 0
            for p in range(k):
                acc += int(w[i, p]) * int(x[p, j])
            out[i][j] = acc
    return out


def small_matrices(seed, hi=8):
    dims = [(int(v) % hi) + 1 for v in np.frombuffer(np.uint64(seed).tobytes(), np.uint8)[:3]]
    m, k, n = dims
    w = random_quant_matrix(m, k, "uniform", seed)
    x = random_quant_matrix(k, n, "uniform", seed + 1)
    return w, x


def test_gemm_matches_naive_oracle():
    for seed in range(25):
        w, x = small_matrices(seed)
        y = gemm(w, x)
        assert y.data.tolist() == naive_gemm(w.data, x.data)


def test_gemm_dtype_and_shape():
    w = QuantMatrix(np.ones((3, 4), dtype=np.int8))
    x = QuantMatrix(np.ones((4, 2), dtype=np.int8))
    y = gemm(w, x)
    assert y.data.dtype == np.int32
    assert y.data.shape == (3, 2)
    assert np.all(y.data == 4)


def test_gemm_dimension_mismatch():
    w = QuantMatrix(np.ones((3, 4), dtype=np.int8))
    x = QuantMatrix(np.ones((5, 2), dtype=np.int8))
    with pytest.raises(ValueError, match="inner dimensions"):
        gemm(w, x)


def test_checksum_against_naive_sums():
    for seed in range(10):
        w, _ = small_matrices(seed)
        by_col = [sum(int(w.data[i, j]) for i in range(w.rows)) for j in range(w.cols)]
        by_row = [sum(int(w.data[i, j]) for j in range(w.cols)) for i in range(w.rows)]
        assert checksum(w, "row").data.tolist() == by_col
        assert checksum(w, "column").data.tolist() == by_row


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_checksum_identities_hold(seed):
    w, x = small_matrices(seed, hi=12)
    y = gemm(w, x)
    assert np.array_equal(predicted_output_checksum(w, x).data, checksum(y, "row").data)
    assert np.array_equal(predicted_column_checksum(w, x).data, checksum(y, "column").data)
    assert total_checksum(w, x) == int(y.data.sum(dtype=np.int64))


def test_checksums_are_int64_and_sided():
    w = QuantMatrix(np.full((2, 3), 100, dtype=np.int8))
    cs = checksum(w, "row")
    assert cs.data.dtype == np.int64
    assert cs.side == "row"
    assert len(cs) == 3
    with pytest.raises(ValueError, match="side"):
        checksum(w, "diagonal")


def test_extreme_values_do_not_overflow():
    w = QuantMatrix(np.full((64, 64), -128, dtype=np.int8))
    x = QuantMatrix(np.full((64, 64), 127, dtype=np.int8))
    y = gemm(w, x)
    assert int(y.data[0, 0]) == -128 * 127 * 64
    assert np.array_equal(predicted_output_checksum(w, x).data, checksum(y, "row").data)


def test_quantmatrix_validation():
    with pytest.raises(ValueError, match="2-D"):
        QuantMatrix(np.zeros(4, dtype=np.int8))
    with pytest.raises(ValueError, match="out of range"):
        QuantMatrix(np.array([[300]]))
    with pytest.raises(ValueError, match="integers"):
        QuantMatrix(np.zeros((2, 2), dtype=np.float64))
    # exact integer input in a wider dtype is accepted
    q = QuantMatrix(np.array([[1, -2], [3, 4]], dtype=np.int64))
    assert q.data.dtype == np.int8 and q.data.tolist() == [[1, -2], [3, 4]]


def test_matrices_are_immutable():
    q = QuantMatrix(np.zeros((2, 2), dtype=np.int8))
    with pytest.raises(ValueError):
        q.data[0, 0] = 1


def test_equality_semantics():
    a = QuantMatrix(np.array([[1, 2]], dtype=np.int8))
    b = QuantMatrix(np.array([[1, 2]], dtype=np.int64))
    c = QuantMatrix(np.array([[1, 3]], dtype=np.int8))
    assert a == b and a != c
    assert AccumMatrix([[5]]) == AccumMatrix([[5]])
    assert ChecksumVector([1, 2], side="row") != ChecksumVector([1, 2], side="column")


def test_max_inner_dim_enforced():
    w = QuantMatrix(np.zeros((1, 2**16), dtype=np.int8))
    x = QuantMatrix(np.zeros((2**16, 1), dtype=np.int8))
    gemm(w, x)  # at the limit is fine
    data = np.zeros((1, 2**16 + 1), dtype=np.int8)
    with pytest.raises(ValueError, match="exceeds"):
        gemm(QuantMatrix(data), QuantMatrix(data.T.copy()))


_W34 = QuantMatrix(np.ones((3, 4), dtype=np.int8))
_X52 = QuantMatrix(np.ones((5, 2), dtype=np.int8))
_WIDE = QuantMatrix(np.zeros((1, 2**16 + 1), dtype=np.int8))
_TALL = QuantMatrix(np.zeros((2**16 + 1, 1), dtype=np.int8))
_AT = (np.array([0]), np.array([0]))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gemm_entries(_W34, _X52, *_AT), "inner dimensions differ: 4 vs 5"),
        (lambda: predicted_output_checksum(_W34, _X52), "inner dimensions differ: 4 vs 5"),
        (lambda: predicted_column_checksum(_W34, _X52), "inner dimensions differ: 4 vs 5"),
        (lambda: total_checksum(_W34, _X52), "inner dimensions differ: 4 vs 5"),
        (lambda: gemm_entries(_WIDE, _TALL, *_AT), "inner dimension 65537 exceeds 65536"),
    ],
    ids=["entries", "output-checksum", "column-checksum", "total-checksum", "entries-max-k"],
)
def test_inner_dimension_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("block", [1, 7 * 5, 7 * 64, 2**18])
def test_gemm_entries_equal_the_dense_product_in_any_block_size(monkeypatch, block):
    # a block holds block // k entries (at least one), so block boundaries fall
    # inside, at the end of, and beyond the requested entries
    # the package exports the function gemm under the module's name
    monkeypatch.setattr(importlib.import_module("statabft.gemm"), "_ENTRY_BLOCK", block)
    w = random_quant_matrix(9, 7, "outlier", 1)
    x = random_quant_matrix(7, 11, "uniform", 2)
    dense = gemm(w, x).data
    rows, cols = np.divmod(np.arange(0, 99, 2), 11)
    assert np.array_equal(gemm_entries(w, x, rows, cols), dense[rows, cols])
    empty = gemm_entries(w, x, rows[:0], cols[:0])
    assert empty.dtype == np.int64 and empty.size == 0

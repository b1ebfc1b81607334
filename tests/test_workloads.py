import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statabft.gemm import gemm
from statabft.rng import u64_stream
from statabft.workloads import (
    MAX_STREAM_LANES,
    WorkloadSpec,
    _int8_values,
    random_quant_matrix,
    workload_entries,
    workload_matrices,
)


def test_spec_validation():
    with pytest.raises(ValueError, match="dimensions"):
        WorkloadSpec(m=0)
    with pytest.raises(ValueError, match="gemm_count"):
        WorkloadSpec(gemm_count=0)
    with pytest.raises(ValueError, match="distribution"):
        WorkloadSpec(distribution="gaussian")
    assert WorkloadSpec(m=8, k=16, n=32).macs_per_gemm == 8 * 16 * 32


def test_stream_is_bounded_in_checksum_lanes():
    # gemm_count * n lanes: at most 2**24, 128 MiB as one int64 difference matrix
    assert MAX_STREAM_LANES * 8 == 128 * 2**20
    assert WorkloadSpec(n=64, gemm_count=MAX_STREAM_LANES // 64).gemm_count == 2**18
    for n, gemm_count in ((64, MAX_STREAM_LANES // 64 + 1), (1, MAX_STREAM_LANES + 1), (4096, 10**30)):
        with pytest.raises(ValueError, match=f"^gemm_count must be <= {MAX_STREAM_LANES // n} at n = {n} "):
            WorkloadSpec(n=n, gemm_count=gemm_count)


def test_uniform_matrix_covers_full_range():
    m = random_quant_matrix(128, 128, "uniform", seed=0)
    vals = m.data.astype(np.int64)
    assert vals.min() == -128 and vals.max() == 127
    # 16384 draws over 256 buckets: every bucket should be hit
    assert len(np.unique(vals)) == 256
    # and the mean of an exactly uniform byte is near -0.5
    assert abs(vals.mean() + 0.5) < 1.5


def test_outlier_matrix_is_heavy_tailed():
    m = random_quant_matrix(256, 256, "outlier", seed=1)
    vals = m.data.astype(np.int64)
    body = vals[(vals >= -16) & (vals <= 15)]
    outliers = vals[np.abs(vals) >= 96]
    # nothing lives between the body band and the outlier band
    assert body.size + outliers.size == vals.size
    assert np.all(np.abs(outliers) <= 127)
    # outlier probability is 1/64 per element
    rate = outliers.size / vals.size
    assert 0.7 / 64 < rate < 1.3 / 64
    # both signs occur
    assert (outliers > 0).any() and (outliers < 0).any()


def _reference_int8_values(u, distribution):
    # the decode on int64 temporaries that the byte-wide one replaced
    if distribution == "uniform":
        vals = (u & np.uint64(0xFF)).astype(np.int64) - 128
    else:
        body = (u & np.uint64(0x1F)).astype(np.int64) - 16
        is_outlier = (u >> np.uint64(58)) == 0
        out_mag = 96 + ((u >> np.uint64(8)) & np.uint64(0x1F)).astype(np.int64)
        sign = np.where((u >> np.uint64(16)) & np.uint64(1), 1, -1)
        vals = np.where(is_outlier, sign * out_mag, body)
    return vals.astype(np.int8)


@pytest.mark.parametrize("distribution", ["uniform", "outlier"])
def test_int8_decode_equals_the_int64_formula_on_every_low_pattern(distribution):
    # every value of the low 17 bits, which hold both distributions' values and
    # signs, under a zero top-6 field (an outlier) and three nonzero ones; the
    # bits between them are random and read by neither
    low = np.arange(2**17, dtype=np.uint64)
    middle = u64_stream(21, low.size) & np.uint64(((1 << 58) - 1) ^ ((1 << 17) - 1))
    u = np.concatenate([(low | middle) + (np.uint64(top) << np.uint64(58)) for top in (0, 1, 32, 63)])
    assert ((u >> np.uint64(58)) == 0).sum() == 2**17
    got = _int8_values(u, distribution)
    assert got.dtype == np.int8 and np.array_equal(got, _reference_int8_values(u, distribution))
    # a strided 2-D view decodes like its copy
    view = u.reshape(-1, 2**10).T[::3]
    assert np.array_equal(_int8_values(view, distribution), _reference_int8_values(view, distribution))


def test_matrices_are_deterministic_and_indexed():
    spec = WorkloadSpec(m=8, k=8, n=8, gemm_count=3, seed=42)
    w0, x0 = workload_matrices(spec, 0)
    w0b, x0b = workload_matrices(spec, 0)
    assert w0 == w0b and x0 == x0b
    w1, x1 = workload_matrices(spec, 1)
    assert w0 != w1 and x0 != x1
    # weight and activation streams never collide even at the same index
    assert w0.data.shape == x0.data.shape
    assert not np.array_equal(w0.data, x0.data)


def test_index_bounds():
    spec = WorkloadSpec(m=4, k=4, n=4, gemm_count=2)
    with pytest.raises(ValueError, match="outside"):
        workload_matrices(spec, 2)
    with pytest.raises(ValueError, match="outside"):
        workload_matrices(spec, -1)


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    dist=st.sampled_from(["uniform", "outlier"]),
)
@settings(max_examples=30, deadline=None)
def test_matrix_values_always_in_int8(seed, dist):
    m = random_quant_matrix(16, 16, dist, seed)
    assert m.data.dtype == np.int8
    # construction would have raised on overflow; check shape and determinism
    again = random_quant_matrix(16, 16, dist, seed)
    assert m == again


@st.composite
def _entry_case(draw):
    """A small spec, a GEMM index and positions in its output: unsorted, repeated or all."""
    m, k, n = (draw(st.integers(min_value=1, max_value=hi)) for hi in (9, 33, 7))
    spec = WorkloadSpec(
        m=m, k=k, n=n, gemm_count=3,
        distribution=draw(st.sampled_from(["uniform", "outlier"])),
        seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
    )
    if draw(st.booleans()):
        positions = draw(st.permutations(range(m * n)))
    else:
        positions = draw(st.lists(st.integers(min_value=0, max_value=m * n - 1), max_size=12))
    return spec, draw(st.integers(min_value=0, max_value=2)), np.array(positions, dtype=np.int64)


@given(_entry_case())
@settings(max_examples=60, deadline=None)
def test_workload_entries_equal_the_dense_product(case):
    spec, index, positions = case
    rows, cols = np.divmod(positions, spec.n)
    got = workload_entries(spec, index, rows, cols)
    assert got.dtype == np.int64 and got.shape == positions.shape
    assert np.array_equal(got, gemm(*workload_matrices(spec, index)).data[rows, cols])


def test_workload_entries_validation():
    spec = WorkloadSpec(m=4, k=5, n=3, gemm_count=2)
    assert workload_entries(spec, 1, [], []).size == 0
    with pytest.raises(ValueError, match="outside"):
        workload_entries(spec, 2, [0], [0])
    with pytest.raises(ValueError, match="outside the 4x3 output"):
        workload_entries(spec, 0, [4], [0])
    with pytest.raises(ValueError, match="outside the 4x3 output"):
        workload_entries(spec, 0, [0], [-1])
    with pytest.raises(ValueError, match="2 rows but 1 cols"):
        workload_entries(spec, 0, [0, 1], [0])

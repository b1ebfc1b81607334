import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statabft.detectors import (
    DETECTOR_KINDS,
    LZC_FRAC_BITS,
    ChecksumPair,
    CriticalRegionParams,
    DetectorSpec,
    _floor_log2_lanes,
    _theta_fixed,
    floor_log2,
    log2_fixed,
)
from statabft.faults import FaultConfig
from statabft.gemm import checksum, gemm
from statabft.systolic import run_array, statistical_unit
from statabft.workloads import random_quant_matrix

P = CriticalRegionParams(a=2.0, b=40.0, theta_freq=4)
# each vectorized statistical kind and the scalar unit's log2 mode it must match
MODES = (("statistical", "exact"), ("statistical_lzc", "lzc"))


def matrices(seed, m=8, k=8, n=8):
    return (
        random_quant_matrix(m, k, "uniform", seed),
        random_quant_matrix(k, n, "uniform", seed + 1),
    )


def test_floor_log2_matches_math():
    # exact integer oracle: e is the floor log iff 2**e <= x < 2**(e+1).
    # (math.log2 itself rounds wrong near 2**63, so no float comparison here.)
    for x in [1, 2, 3, 4, 7, 8, 255, 256, 2**40, 2**63 - 1, 2**63]:
        e = floor_log2(x)
        assert (1 << e) <= x < (1 << (e + 1))
    with pytest.raises(ValueError):
        floor_log2(0)


def test_log2_fixed_known_values():
    # x = 6 = 0b110, exponent 2, next 4 mantissa bits 1000 -> 2 + 8/16 = 2.5
    assert log2_fixed(6, 4) == (2 << 4) | 8
    assert log2_fixed(1, 4) == 0
    assert log2_fixed(2, 4) == 1 << 4
    # powers of two are exact in any precision
    for f in (0, 4, 8):
        for e in (0, 1, 5, 40):
            assert log2_fixed(1 << e, f) == e << f


def test_log2_fixed_truncates_toward_zero():
    for x in range(1, 4096):
        approx = log2_fixed(x, 6) / 64.0
        exact = math.log2(x)
        assert approx <= exact + 1e-12
        # Mitchell interpolation error (~0.086) plus frac truncation (2**-6)
        assert exact - approx < 0.086 + 1.0 / 64.0 + 1e-12


def test_theta_fixed_matches_exact_for_power_msd():
    # msd = 2**20: log2 is exact, theta = 40 - 20 = 20 on any grid
    assert _theta_fixed(2**20, P) == 20 << LZC_FRAC_BITS
    assert _theta_fixed(0, P) is None


def test_run_array_clean_pass():
    w, x = matrices(1)
    sim = run_array(w, x)
    assert sim.output == gemm(w, x)
    assert sim.events == ()
    assert sim.observed == checksum(sim.output, "row")


def test_run_array_applies_fault_and_logs_events():
    w, x = matrices(2)
    fault = FaultConfig(mode="ber", ber=0.02, seed=5)
    sim = run_array(w, x, fault=fault)
    clean = gemm(w, x)
    changed = int(np.count_nonzero(sim.output.data != clean.data))
    assert changed == len(sim.events) > 0
    # prediction is computed pre-fault
    assert sim.predicted == checksum(clean, "row")


@st.composite
def checksum_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=48))
    vals = st.one_of(
        st.just(0),
        st.integers(min_value=-(2**24), max_value=2**24),
        st.integers(min_value=-(2**45), max_value=2**45),
    )
    d = draw(st.lists(vals, min_size=n, max_size=n))
    return ChecksumPair.from_diff(np.array(d, dtype=np.int64))


@given(checksum_pairs())
@settings(max_examples=300, deadline=None)
def test_exact_unit_agrees_with_reference_detector(pair):
    ref = DetectorSpec(kind="statistical", params=P).evaluate(pair)
    unit = statistical_unit(pair.predicted, pair.observed, P)
    assert unit.msd == ref.msd
    assert unit.freq_eff == ref.freq_eff
    assert unit.recovers == ref.recovers


@given(checksum_pairs())
@settings(max_examples=300, deadline=None)
def test_lzc_unit_disagrees_only_near_quantization_edges(pair):
    exact = statistical_unit(pair.predicted, pair.observed, P, "exact")
    lzc = statistical_unit(pair.predicted, pair.observed, P, "lzc")
    if lzc.recovers == exact.recovers:
        return
    msd = pair.msd()
    assert msd > 0
    t_exact = P.b - (P.a - 1.0) * math.log2(msd)
    t_lzc = _theta_fixed(msd, P) / (1 << LZC_FRAC_BITS)
    near = False
    for v in pair.diff:
        v = int(v)
        if v == 0:
            continue
        if abs(math.log2(abs(v)) - t_exact) <= 1.0:
            near = True
            break
        e = floor_log2(abs(v))
        if min(t_exact, t_lzc) < e <= max(t_exact, t_lzc):
            near = True
            break
    assert near, f"diff {pair.diff.tolist()} disagreed away from the quantization edge"


def test_stat_unit_config_validation():
    pair = ChecksumPair.from_diff(np.array([1, 2], dtype=np.int64))
    with pytest.raises(ValueError, match="log2_mode"):
        statistical_unit(pair.predicted, pair.observed, P, "approx")


def test_stat_unit_length_mismatch():
    a = ChecksumPair.from_diff(np.array([1, 2], dtype=np.int64))
    b = ChecksumPair.from_diff(np.array([1, 2, 3], dtype=np.int64))
    with pytest.raises(ValueError, match="lengths"):
        statistical_unit(a.predicted, b.observed, P)


# lane deviations at the edges of the GEMM bound: zeros, around +-2**31 (one
# INT32 flip at bit 31), and worst-case column stacking of +-m * 2**32 with m
# up to the 4096-row limit, each nudged by -1, 0 or +1
_EDGES = st.one_of(
    st.just(0),
    st.builds(lambda s, o: s * (2**31 + o), st.sampled_from((-1, 1)), st.integers(-1, 1)),
    st.builds(
        lambda s, m, o: s * (m * 2**32 + o),
        st.sampled_from((-1, 1)),
        st.integers(1, 4096),
        st.integers(-1, 1),
    ),
    st.integers(-(2**20), 2**20),
)
_PARAMS = st.builds(
    CriticalRegionParams,
    a=st.floats(1.0, 5.0),
    b=st.floats(0.0, 80.0),
    theta_freq=st.integers(0, 8),
)


@given(st.lists(_EDGES, min_size=1, max_size=64), _PARAMS)
@settings(max_examples=500, deadline=None)
def test_vectorized_detectors_match_the_scalar_unit(d, params):
    pair = ChecksumPair.from_diff(np.array(d, dtype=np.int64))
    for kind, mode in MODES:
        ref = DetectorSpec(kind=kind, params=params).evaluate(pair)
        unit = statistical_unit(pair.predicted, pair.observed, params, mode)
        assert (ref.msd, ref.freq_eff, ref.recovers) == (unit.msd, unit.freq_eff, unit.recovers)
        if mode == "lzc":
            assert ref.theta_mag == unit.theta_mag


@st.composite
def difference_matrices(draw):
    """A (rows x lanes) matrix of edge lanes with an all-zero row and, from two
    lanes up, a row whose lanes cancel to MSD 0; params half the time put the
    LZC bound exactly on a lane's exponent."""
    n = draw(st.integers(1, 24))
    rows = draw(st.lists(st.lists(_EDGES, min_size=n, max_size=n), min_size=1, max_size=10))
    rows.append([0] * n)
    if n > 1:
        lanes = draw(st.lists(_EDGES, min_size=n - 1, max_size=n - 1))
        rows.insert(draw(st.integers(0, len(rows))), [*lanes, -sum(lanes)])
    diffs = np.array(rows, dtype=np.int64)
    params = draw(_PARAMS)
    msd = np.abs(diffs.sum(axis=1))
    if draw(st.booleans()) and msd.any():
        # a = 2 and b * 2**LZC_FRAC_BITS = log2_fixed(MSD) + (e << LZC_FRAC_BITS) give a bound of exactly e
        i = draw(st.sampled_from(np.flatnonzero(msd).tolist()))
        lane = draw(st.sampled_from([int(v) for v in diffs[i] if v != 0]))
        fixed = log2_fixed(int(msd[i]), LZC_FRAC_BITS) + (floor_log2(abs(lane)) << LZC_FRAC_BITS)
        params = CriticalRegionParams(a=2.0, b=fixed / (1 << LZC_FRAC_BITS), theta_freq=params.theta_freq)
    return diffs, params


@given(difference_matrices(), st.integers(0, 2**50))
@settings(max_examples=100, deadline=None)
def test_deciding_all_rows_at_once_equals_each_row_alone(case, threshold):
    diffs, params = case
    units = dict(MODES)
    for kind in DETECTOR_KINDS:
        spec = DetectorSpec(kind=kind, params=params, msd_threshold=threshold)
        rows = spec.decide(diffs)
        for i, d in enumerate(diffs):
            pair = ChecksumPair.from_diff(d)
            alone = spec.evaluate(pair)
            assert alone == rows.row(i)
            if kind in units:
                unit = statistical_unit(pair.predicted, pair.observed, params, units[kind])
                assert unit == alone


def test_decide_asserts_the_int64_bound():
    # 2 lanes of 2**62: their int64 row sum would wrap
    with pytest.raises(ValueError, match="int64 bound"):
        DetectorSpec(kind="classical").decide(np.full((3, 2), 2**62, dtype=np.int64))
    with pytest.raises(ValueError, match="2-D int64"):
        DetectorSpec(kind="classical").decide(np.zeros((2, 2), dtype=np.int32))


@given(st.lists(st.one_of(_EDGES, st.integers(-(2**63), 2**63 - 1)), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_lane_floor_log2_matches_bit_length(d):
    lanes = np.array([v for v in d if v != 0] or [-(2**63)], dtype=np.int64)
    assert _floor_log2_lanes(lanes).tolist() == [floor_log2(abs(int(v))) for v in lanes]


def test_bounds_beyond_every_lane_count_all_lanes_or_none():
    # theta is about 1e308 and -inf: far outside the lanes' [0, 63] exponents.
    # The fixed-point bound saturates there without changing a lane's decision
    pair = ChecksumPair.from_diff(np.array([1, -(2**40), 3], dtype=np.int64))
    for params, lanes in (
        (CriticalRegionParams(a=1.0, b=1e308, theta_freq=0), 0),
        (CriticalRegionParams(a=1e308, b=0.0, theta_freq=0), 3),
    ):
        for kind, mode in MODES:
            assert DetectorSpec(kind=kind, params=params).evaluate(pair).freq_eff == lanes
            assert statistical_unit(pair.predicted, pair.observed, params, mode).freq_eff == lanes

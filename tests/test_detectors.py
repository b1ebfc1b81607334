import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statabft.detectors import (
    DEFAULT_PARAMS,
    DETECTOR_KINDS,
    ChecksumPair,
    CriticalRegionParams,
    DetectorSpec,
    RowDecisions,
    detect_statistical,
    load_params,
    save_params,
    theta_mag,
)
from statabft.gemm import ChecksumVector
from statabft.rng import u64_stream

P = CriticalRegionParams(a=2.0, b=40.0, theta_freq=4)
CLASSICAL = DetectorSpec(kind="classical")
MSD_0 = DetectorSpec(kind="msd")


def msd_at(threshold):
    return DetectorSpec(kind="msd", msd_threshold=threshold)


def pair_of(diff):
    return ChecksumPair.from_diff(np.array(diff, dtype=np.int64))


def test_params_validation():
    with pytest.raises(ValueError, match="a must be"):
        CriticalRegionParams(a=0.5, b=1.0, theta_freq=0)
    with pytest.raises(ValueError, match="theta_freq"):
        CriticalRegionParams(a=2.0, b=1.0, theta_freq=-1)
    with pytest.raises(ValueError, match="theta_freq"):
        CriticalRegionParams(a=2.0, b=1.0, theta_freq=1.5)
    CriticalRegionParams(a=1.0, b=0.0, theta_freq=0)  # flat bound allowed in-process


def test_theta_mag_closed_form():
    assert theta_mag(2**20, P) == 20.0
    assert theta_mag(1, P) == 40.0
    assert theta_mag(0, P) == math.inf
    with pytest.raises(ValueError):
        theta_mag(-1, P)


def test_theta_mag_monotone_decreasing():
    msds = [2**k for k in range(0, 63, 3)]
    thetas = [theta_mag(m, P) for m in msds]
    assert all(t1 > t2 for t1, t2 in zip(thetas, thetas[1:]))


def test_checksum_pair_construction():
    p = ChecksumVector([10, 20, 30])
    o = ChecksumVector([10, 25, 30])
    pair = ChecksumPair.from_vectors(p, o)
    assert pair.diff.tolist() == [0, -5, 0]
    assert pair.msd() == 5
    assert np.count_nonzero(pair.diff) == 1
    with pytest.raises(ValueError, match="lengths"):
        ChecksumPair.from_vectors(p, ChecksumVector([1, 2]))
    with pytest.raises(ValueError, match="sides"):
        ChecksumPair.from_vectors(p, ChecksumVector([1, 2, 3], side="column"))


def test_msd_is_exact_for_huge_values():
    # values whose float64 sum would lose precision, inside lanes * max|d_j| < 2**63
    big = 2**60 - 1
    pair = pair_of([big, big, -big, 3])
    assert pair.msd() == big + 3
    assert pair.msd() == DetectorSpec(kind="none").evaluate(pair).msd
    # past the bound msd() raises, as decide does, instead of summing in Python ints
    for diff in ([2**62 - 1, 2**62 - 1, -(2**62 - 1), 3], [-(2**63)], [2**62, 2**62]):
        with pytest.raises(ValueError, match="int64 bound"):
            pair_of(diff).msd()
        with pytest.raises(ValueError, match="int64 bound"):
            CLASSICAL.decide(np.array([diff], dtype=np.int64))


@given(st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.lists(
        st.integers(
            min_value=max(-(2**63 - 1) // n - 1, -(2**63)),
            max_value=min((2**63 - 1) // n + 1, 2**63 - 1),
        ),
        min_size=n, max_size=n,
    )
))
@settings(max_examples=300, deadline=None)
def test_msd_equals_the_python_int_sum_at_the_int64_bound(diff):
    # values straddle (2**63 - 1) / len(d): exact on one side, ValueError on the other
    pair = pair_of(diff)
    if len(diff) * max(abs(v) for v in diff) < 2**63:
        assert pair.msd() == abs(sum(diff))
        assert pair.msd() == MSD_0.decide(pair.diff[np.newaxis]).msd[0]
    else:
        with pytest.raises(ValueError, match="int64 bound"):
            pair.msd()


def test_classical_fires_on_any_nonzero():
    assert not CLASSICAL.evaluate(pair_of([0, 0, 0])).recovers
    v = CLASSICAL.evaluate(pair_of([0, 1, 0]))
    assert v == RowDecisions(msd=1, theta_mag=0.0, freq_eff=1, recovers=True)
    # one GEMM's decision holds Python scalars, not numpy ones
    assert [type(x) for x in v] == [int, float, int, bool]


def test_msd_detector_strict_threshold():
    pair = pair_of([64, 0, 0])
    assert not msd_at(64).evaluate(pair).recovers  # strict >
    assert msd_at(63).evaluate(pair).recovers
    # cancellation hides from MSD thresholding
    assert not msd_at(0).evaluate(pair_of([2**30, -(2**30)])).recovers
    with pytest.raises(ValueError):
        msd_at(-1)


def test_statistical_strict_inequalities():
    # freq_eff must strictly exceed theta_freq
    params = CriticalRegionParams(a=2.0, b=0.0, theta_freq=2)
    # three lanes at 2**10: msd = 3*2**10, theta = -(log2 msd) < 0, all count
    v = detect_statistical(pair_of([1 << 10, 1 << 10, 1 << 10]), params)
    assert v.freq_eff == 3 and v.recovers
    v = detect_statistical(pair_of([1 << 10, 1 << 10, 0]), params)
    assert v.freq_eff == 2 and not v.recovers


def test_statistical_magnitude_cut_is_strict():
    # msd = 2**20 -> theta = 20; a lane at exactly 2**20 must NOT count
    v = detect_statistical(pair_of([1 << 20]), P)
    assert v.theta_mag == 20.0
    assert v.freq_eff == 0 and not v.recovers
    # just above the bound counts
    params = CriticalRegionParams(a=2.0, b=10.0, theta_freq=0)
    v = detect_statistical(pair_of([1 << 9]), params)  # theta = 10 - 9 = 1, log2|d| = 9
    assert v.freq_eff == 1 and v.recovers


def test_statistical_cancellation_passes():
    # perfectly cancelling large errors: msd == 0, theta = +inf, nothing counts
    v = detect_statistical(pair_of([2**40, -(2**40)]), P)
    assert v.msd == 0 and math.isinf(v.theta_mag)
    assert v.freq_eff == 0 and not v.recovers


def test_single_large_error_passes_low_freq():
    # one huge deviation: freq_eff <= 1 <= theta_freq -> pass
    v = detect_statistical(pair_of([2**35]), P)
    assert not v.recovers and v.freq_eff == 1


def test_many_small_errors_recover():
    # six lanes of 2**18, msd = 6 * 2**18 ~ 2**20.58, theta ~ 19.4 < 18? no:
    # theta = 40 - log2(6*2**18) = 40 - 20.58 = 19.4, log2|d| = 18 < theta -> no count
    v = detect_statistical(pair_of([1 << 18] * 6), P)
    assert not v.recovers
    # raise magnitudes so lanes clear the bound: log2|d|=22 > 40-log2(6*2**22)=15.4
    v = detect_statistical(pair_of([1 << 22] * 6), P)
    assert v.freq_eff == 6 and v.recovers


def test_none_detector_never_recovers():
    v = DetectorSpec(kind="none").evaluate(pair_of([1 << 30] * 8))
    assert v == (8 << 30, 0.0, 8, False)


def test_detector_spec_dispatch():
    pair = pair_of([1 << 22] * 6)
    assert DetectorSpec(kind="classical").evaluate(pair).recovers
    assert not DetectorSpec(kind="none").evaluate(pair).recovers
    assert not DetectorSpec(kind="msd", msd_threshold=2**40).evaluate(pair).recovers
    assert DetectorSpec(kind="statistical", params=P).evaluate(pair).recovers
    assert DetectorSpec(kind="dmr").evaluate(pair) == CLASSICAL.evaluate(pair)
    with pytest.raises(ValueError, match="kind"):
        DetectorSpec(kind="quantum")
    assert DetectorSpec(kind="statistical").params is DEFAULT_PARAMS


@pytest.mark.parametrize("kind", DETECTOR_KINDS)
@pytest.mark.parametrize("theta_freq", [0, 4])
def test_zero_rows_decide_to_nothing(kind, theta_freq):
    # the scorer skips the all-zero difference rows of untouched trials: at the
    # lowest thresholds (theta_freq 0, msd_threshold 0) they still add nothing
    spec = DetectorSpec(
        kind=kind, params=CriticalRegionParams(a=2.0, b=-8.0, theta_freq=theta_freq)
    )
    rows = spec.decide(np.zeros((5, 8), dtype=np.int64))
    assert rows.msd.tolist() == [0] * 5 and rows.freq_eff.tolist() == [0] * 5
    assert not rows.recovers.any()


@st.composite
def diffs(draw):
    n = draw(st.integers(min_value=1, max_value=32))
    vals = st.one_of(
        st.just(0),
        st.integers(min_value=-(2**30), max_value=2**30),
        st.integers(min_value=2**38, max_value=2**42),
    )
    return draw(st.lists(vals, min_size=n, max_size=n))


@given(diffs())
@settings(max_examples=200, deadline=None)
def test_statistical_implies_classical(d):
    pair = pair_of(d)
    stat = detect_statistical(pair, P)
    classical = CLASSICAL.evaluate(pair)
    if stat.recovers:
        assert classical.recovers


@given(diffs(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
def test_detectors_invariant_under_permutation(d, perm_seed):
    rng = np.random.default_rng(perm_seed)
    shuffled = list(np.array(d)[rng.permutation(len(d))])
    for fn in (CLASSICAL.evaluate, msd_at(100).evaluate, lambda p: detect_statistical(p, P)):
        a, b = fn(pair_of(d)), fn(pair_of(shuffled))
        assert a == b


def test_params_file_round_trip(tmp_path):
    path = str(tmp_path / "params.json")
    save_params(P, path, provenance="unit-test fit")
    loaded, prov = load_params(path)
    assert loaded == P and prov == "unit-test fit"


def test_params_file_rejects_flat_a(tmp_path):
    path = str(tmp_path / "params.json")
    with open(path, "w") as fh:
        json.dump({"a": 1.0, "b": 10.0, "theta_freq": 2}, fh)
    with pytest.raises(ValueError, match="a must be > 1"):
        load_params(path)


def test_params_file_rejects_missing_and_bad_types(tmp_path):
    path = str(tmp_path / "params.json")
    with open(path, "w") as fh:
        json.dump({"a": 2.0, "b": 10.0}, fh)
    with pytest.raises(ValueError, match="missing keys"):
        load_params(path)
    with open(path, "w") as fh:
        json.dump({"a": 2.0, "b": 10.0, "theta_freq": 2.5}, fh)
    with pytest.raises(ValueError, match="integer"):
        load_params(path)


def test_statistical_lzc_floors_lane_logs_and_uses_the_mitchell_bound():
    # MSD = 3 * 2**20: Mitchell's log2 is 21.5 (exact 21.585), so the fixed-point
    # bound is 40 - 21.5 = 18.5 where the exact one is 18.415. The 357000 lane
    # (log2 18.45) lies between them, and its floored log2 is 18
    pair = pair_of([357000, 3 * 2**20 - 357000])
    params = CriticalRegionParams(a=2.0, b=40.0, theta_freq=1)
    exact = DetectorSpec(kind="statistical", params=params).evaluate(pair)
    lzc = DetectorSpec(kind="statistical_lzc", params=params).evaluate(pair)
    assert (exact.freq_eff, exact.recovers) == (2, True)
    assert lzc == (3 * 2**20, 18.5, 1, False)
    cancelled = DetectorSpec(kind="statistical_lzc", params=params).evaluate(pair_of([5, -5]))
    assert math.isinf(cancelled.theta_mag) and cancelled.freq_eff == 0
    assert DetectorSpec(kind="statistical_lzc").params is DEFAULT_PARAMS


def test_nan_lzc_bound_is_refused_without_a_warning():
    # b * 16 and (a - 1) * log2(MSD) both overflow to inf, and inf - inf is NaN
    spec = DetectorSpec(kind="statistical_lzc", params=CriticalRegionParams(1e308, 1e308, 0))
    with pytest.raises(ValueError, match=r"^the LZC bound of .* is NaN$"):
        spec.decide(np.array([[3, 5]], dtype=np.int64))


@pytest.mark.parametrize(
    "params",
    [P, CriticalRegionParams(a=1.0, b=-3.25, theta_freq=0), CriticalRegionParams(a=1.37, b=17.1, theta_freq=2),
     CriticalRegionParams(a=1e307, b=1.0, theta_freq=0)],
)
def test_row_bound_equals_theta_mag_on_every_msd_scale(params):
    # MSD 1 to 2**56: every power of two and its neighbours, the integers
    # around 2**53 where a float64 MSD would round, and spread values
    msds = {1, 2, 3, 2**56}
    msds |= {2**e + d for e in range(2, 56) for d in (-1, 0, 1)}
    msds |= {2**53 + d for d in range(-8, 9)}
    msds |= {int(v) for v in u64_stream(4, 64) >> np.uint64(8)}
    msds = sorted(msds)
    assert msds[0] == 1 and msds[-1] == 2**56
    # each MSD is a one-lane row, with a zero row between for the +inf bound
    diffs = np.array([[v] for m in msds for v in (m, 0)], dtype=np.int64)
    theta = DetectorSpec(kind="statistical", params=params).decide(diffs).theta_mag
    assert theta.tolist() == [t for m in msds for t in (theta_mag(m, params), math.inf)]

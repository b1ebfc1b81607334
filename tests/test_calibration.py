import hashlib
import math

import numpy as np
import pytest

from statabft import calibration
from statabft.calibration import (
    GridCellError,
    NoBoundaryError,
    OracleCase,
    QualityGrid,
    fit_critical_region,
    norm_distortion_oracle,
    planted_step_oracle,
    quality_grid,
)
from statabft.config import DEFAULT_FREQ_AXIS, DEFAULT_MAG_AXIS
from statabft.detectors import CriticalRegionParams, load_params, save_params
from statabft.faults import FaultConfig, inject_uniform
from statabft.gemm import AccumMatrix
from statabft.rng import derive_seed, u64_stream


def make_grid(freqs, mags, acceptable):
    acc = np.asarray(acceptable, dtype=bool)
    # quality 0 on acceptable cells, 1 elsewhere, consistent with epsilon 0.5
    return QualityGrid(
        freq_axis=np.array(freqs, dtype=np.int64),
        mag_log2_axis=np.array(mags, dtype=np.float64),
        quality=np.where(acc, 0.0, 1.0),
        acceptable=acc,
        epsilon=0.5,
    )


def planted_case(freq, mag_log2):
    z = AccumMatrix(np.zeros((1, 1), dtype=np.int32))
    return OracleCase(
        clean=z,
        corrupted=z,
        freq=freq,
        mag=int(round(2.0**mag_log2)),
        mag_log2=mag_log2,
        trial_index=0,
    )


def test_planted_oracle_region_membership():
    oracle = planted_step_oracle(CriticalRegionParams(a=2.0, b=40.0, theta_freq=4))
    # below the frequency floor nothing degrades no matter the magnitude
    assert oracle(planted_case(4, 25.0)) == 0.0
    # boundary at freq 32 (t=5): m = (40 - 5) / 2 = 17.5
    assert oracle(planted_case(32, 18.0)) == 1.0
    assert oracle(planted_case(32, 17.0)) == 0.0


def test_planted_fit_recovers_parameters():
    planted = CriticalRegionParams(a=2.0, b=40.0, theta_freq=4)
    grid = quality_grid(
        planted_step_oracle(planted),
        DEFAULT_MAG_AXIS,
        DEFAULT_FREQ_AXIS,
        epsilon=0.5,
        trials=1,
        seed=0,
    )
    fit = fit_critical_region(grid)
    assert fit.theta_freq == planted.theta_freq
    assert abs(fit.a - planted.a) < 0.1
    assert abs(fit.b - planted.b) < 1.0
    # fitted parameters satisfy the loadable contract
    assert fit.a > 1.0


def test_planted_fit_other_slopes():
    # quarter-step magnitude axis: boundary slopes off the calibrated default
    # need finer sampling to keep grid-quantization bias small
    for a, b in [(1.5, 30.0), (2.5, 45.0)]:
        planted = CriticalRegionParams(a=a, b=b, theta_freq=4)
        grid = quality_grid(
            planted_step_oracle(planted),
            tuple(8.0 + 0.25 * i for i in range(48)),
            DEFAULT_FREQ_AXIS,
            epsilon=0.5,
            trials=1,
        )
        fit = fit_critical_region(grid)
        assert fit.theta_freq == 4
        assert abs(fit.a - a) < 0.15, (a, b, fit)
        assert abs(fit.b - b) < 2.0, (a, b, fit)


def test_pure_frequency_boundary_flat_fallback():
    # every magnitude hurts once freq exceeds 8: theta_freq = 8, flat bound
    freqs = [1, 2, 4, 8, 16, 32]
    mags = [10.0, 12.0, 14.0]
    acc = [[f <= 8] * 3 for f in freqs]
    fit = fit_critical_region(make_grid(freqs, mags, acc))
    assert fit.theta_freq == 8
    assert fit.a > 1.0
    assert fit.a == pytest.approx(1.0, abs=1e-5)
    assert fit.b == 10.0


def test_flat_fallback_params_round_trip(tmp_path):
    freqs = [1, 2, 4]
    acc = [[True, True], [False, False], [False, False]]
    fit = fit_critical_region(make_grid(freqs, [10.0, 12.0], acc))
    p = tmp_path / "params.json"
    save_params(fit, str(p), provenance="flat grid")
    loaded, prov = load_params(str(p))
    assert loaded == fit and prov == "flat grid"


def test_degenerate_grids_raise():
    with pytest.raises(NoBoundaryError, match="entirely acceptable"):
        fit_critical_region(make_grid([1, 2], [10.0, 12.0], np.ones((2, 2), bool)))
    with pytest.raises(NoBoundaryError, match="entirely unacceptable"):
        fit_critical_region(make_grid([1, 2], [10.0, 12.0], np.zeros((2, 2), bool)))


def test_boundary_without_frequency_extent_raises():
    # one row above theta_freq with a vertical boundary: cannot fit a slope
    acc = [[True, True, True], [True, True, False]]
    with pytest.raises(NoBoundaryError, match="frequency extent"):
        fit_critical_region(make_grid([1, 2], [10.0, 11.0, 12.0], acc))


def test_quality_grid_determinism_and_seed_sensitivity():
    def position_oracle(case):
        # the row of the first corrupted element in row-major order
        changed = np.flatnonzero(case.corrupted.data != case.clean.data)
        return float(changed[0] // case.clean.cols) if changed.size else 0.0

    kw = dict(epsilon=3.0, trials=2)
    g1 = quality_grid(position_oracle, [4.0, 5.0], [1, 2], seed=0, **kw)
    g2 = quality_grid(position_oracle, [4.0, 5.0], [1, 2], seed=0, **kw)
    g3 = quality_grid(position_oracle, [4.0, 5.0], [1, 2], seed=99, **kw)
    np.testing.assert_array_equal(g1.quality, g2.quality)
    assert not np.array_equal(g1.quality, g3.quality)


def test_quality_grid_mean_over_trials():
    seen = []

    def counting_oracle(case):
        seen.append((case.freq, case.mag, case.trial_index))
        return float(case.trial_index)

    g = quality_grid(counting_oracle, [3.0, 4.0], [2, 5], epsilon=10.0, trials=4)
    # mean of 0..3 in every cell
    np.testing.assert_allclose(g.quality, 1.5)
    assert g.acceptable.all()
    # mag_log2 rounds to the nearest integer magnitude
    assert (2, 8, 0) in seen and (5, 16, 3) in seen
    assert {mag for _, mag, _ in seen} == {8, 16}


def test_quality_grid_validation():
    ok = lambda case: 0.0
    with pytest.raises(ValueError, match="trials"):
        quality_grid(ok, [4.0], [1], epsilon=1.0, trials=0)
    with pytest.raises(ValueError, match="epsilon"):
        quality_grid(ok, [4.0], [1], epsilon=-1.0)
    with pytest.raises(ValueError, match="mag_log2"):
        quality_grid(ok, [31.0], [1], epsilon=1.0)


def test_oracle_failures_are_annotated():
    def broken(case):
        raise RuntimeError("synthetic oracle crash")

    with pytest.raises(GridCellError, match=r"freq=2.*mag_log2=4\.0"):
        quality_grid(broken, [4.0], [2], epsilon=1.0, trials=1)

    def negative(case):
        return -1.0

    with pytest.raises(GridCellError, match="returned"):
        quality_grid(negative, [4.0], [2], epsilon=1.0, trials=1)

    def nan_oracle(case):
        return math.nan

    with pytest.raises(GridCellError, match="returned"):
        quality_grid(nan_oracle, [4.0], [2], epsilon=1.0, trials=1)

    # injection failure (freq exceeds the 16x16 default clean matrix)
    with pytest.raises(GridCellError, match="freq=300"):
        quality_grid(lambda c: 0.0, [4.0], [300], epsilon=1.0, trials=1)


def test_norm_distortion_oracle_spread_vs_confined():
    clean = AccumMatrix(np.zeros((16, 16), dtype=np.int32))
    cfg = FaultConfig(mode="uniform", freq=4, mag=1024, seed=3)
    corrupted, _ = inject_uniform(clean, cfg)
    case = OracleCase(
        clean=clean,
        corrupted=corrupted,
        freq=4,
        mag=1024,
        mag_log2=10.0,
        trial_index=0,
    )
    assert norm_distortion_oracle("layer_norm")(case) == 1.0
    assert norm_distortion_oracle("none")(case) == 4.0 / 256.0


def test_grid_type_validation():
    with pytest.raises(ValueError, match="freq_axis"):
        make_grid([2, 1], [4.0, 5.0], np.ones((2, 2), bool))
    with pytest.raises(ValueError, match="mag_log2_axis"):
        make_grid([1, 2], [5.0, 4.0], np.ones((2, 2), bool))
    with pytest.raises(ValueError, match="shape"):
        QualityGrid(
            freq_axis=np.array([1, 2]),
            mag_log2_axis=np.array([4.0, 5.0]),
            quality=np.zeros((3, 2)),
            acceptable=np.zeros((3, 2), bool),
            epsilon=1.0,
        )
    with pytest.raises(ValueError, match="inconsistent"):
        QualityGrid(
            freq_axis=np.array([1, 2]),
            mag_log2_axis=np.array([4.0, 5.0]),
            quality=np.ones((2, 2)),
            acceptable=np.ones((2, 2), bool),
            epsilon=0.5,
        )


def noisy_factory(rows, cols):
    """Clean matrices of values spread over all of INT32, so large injections wrap."""

    def factory(seed):
        u = u64_stream(seed, rows * cols) >> np.uint64(32)
        return AccumMatrix(u.astype(np.uint32).view(np.int32).reshape(rows, cols))

    return factory


def hash_oracle(log):
    """Scores a trial by a hash of its corrupted matrix, and logs the hash."""

    def oracle(case):
        digest = hashlib.sha256(case.corrupted.data.tobytes()).digest()
        log.append(digest)
        return int.from_bytes(digest[:4], "little") / 2**32

    return oracle


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_batched_grid_equals_a_per_trial_reference(seed):
    freqs, mags, trials, rows, cols = [1, 5, 11], [0.0, 10.5, 30.0], 3, 3, 4
    factory = noisy_factory(rows, cols)
    got = []
    grid = quality_grid(
        hash_oracle(got), mags, freqs, epsilon=0.5, trials=trials, seed=seed, clean_factory=factory
    )
    want, quality = [], np.zeros((len(freqs), len(mags)))
    for i, f in enumerate(freqs):
        for j, m in enumerate(mags):
            cell, scores = i * len(mags) + j, []
            for t in range(trials):
                data = factory(derive_seed(seed, cell, t, 0)).data.ravel().astype(np.int64)
                priority = u64_stream(derive_seed(seed, cell, t, 1), rows * cols)
                data[np.sort(np.argpartition(priority, f)[:f])] += round(2.0**m)
                corrupted = ((data + 2**31) % 2**32 - 2**31).astype(np.int32).reshape(rows, cols)
                digest = hashlib.sha256(corrupted.tobytes()).digest()
                want.append(digest)
                scores.append(int.from_bytes(digest[:4], "little") / 2**32)
            quality[i, j] = sum(scores) / trials
    assert got == want
    np.testing.assert_array_equal(grid.quality, quality)


def test_grid_injections_equal_inject_uniform():
    # every trial of the stock 16x16 grid, freq 256 (all elements) included
    factory = noisy_factory(16, 16)
    cases = []
    quality_grid(
        lambda case: cases.append(case) or 0.0, DEFAULT_MAG_AXIS, DEFAULT_FREQ_AXIS,
        epsilon=0.5, trials=4, seed=5, clean_factory=factory,
    )
    assert len(cases) == len(DEFAULT_FREQ_AXIS) * len(DEFAULT_MAG_AXIS) * 4
    for k, case in enumerate(cases):
        cell, t = divmod(k, 4)
        assert case.trial_index == t
        assert case.clean == factory(derive_seed(5, cell, t, 0))
        cfg = FaultConfig(mode="uniform", freq=case.freq, mag=case.mag, seed=derive_seed(5, cell, t, 1))
        assert case.corrupted == inject_uniform(case.clean, cfg)[0]


@pytest.mark.parametrize("block_lanes", [1, 24])
def test_block_size_changes_no_result(monkeypatch, block_lanes):
    # 12-element targets: 1-trial blocks, or 2-trial blocks with a ragged last one
    kw = dict(epsilon=0.5, trials=5, seed=3, clean_factory=noisy_factory(3, 4))
    default = []
    g = quality_grid(hash_oracle(default), [0.0, 30.0], [1, 11], **kw)
    blocks = []
    real = calibration.inject_uniform_stack

    def spy(clean, seeds, freq, mag):
        blocks.append(len(clean))
        return real(clean, seeds, freq, mag)

    monkeypatch.setattr(calibration, "BLOCK_LANES", block_lanes)
    monkeypatch.setattr(calibration, "inject_uniform_stack", spy)
    small = []
    g_small = quality_grid(hash_oracle(small), [0.0, 30.0], [1, 11], **kw)
    assert blocks == ([1] * 20 if block_lanes == 1 else [2, 2, 1] * 4)
    assert small == default
    np.testing.assert_array_equal(g_small.quality, g.quality)


@pytest.mark.parametrize("block_lanes", [None, 1])
def test_clean_factory_must_return_one_shape(monkeypatch, block_lanes):
    if block_lanes is not None:
        monkeypatch.setattr(calibration, "BLOCK_LANES", block_lanes)
    calls = []

    def factory(seed):
        calls.append(seed)
        return AccumMatrix(np.zeros((4, 4 + (len(calls) > 1)), dtype=np.int32))

    with pytest.raises(GridCellError, match=r"freq=2.*mag_log2=4\.0.*\(4, 5\) after \(4, 4\)"):
        quality_grid(lambda c: 0.0, [4.0], [2], epsilon=1.0, trials=2, clean_factory=factory)

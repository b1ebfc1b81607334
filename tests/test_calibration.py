import hashlib
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statabft import calibration, cli, faults
from statabft.calibration import (
    DEFAULT_FREQ_AXIS,
    DEFAULT_MAG_AXIS,
    GridCellError,
    NoBoundaryError,
    OracleBlock,
    QualityGrid,
    fit_critical_region,
    norm_distortion_oracle,
    planted_step_oracle,
    quality_grid,
    zero_factory,
)
from statabft.detectors import CriticalRegionParams, load_params, save_params
from statabft.faults import INT32_MAX, INT32_MIN, FaultConfig, inject_uniform, uniform_positions
from statabft.gemm import AccumMatrix
from statabft.resilience import NORM_KINDS, apply_norm, measure_change
from statabft.rng import derive_seed, u64_stream

ROOT = pathlib.Path(__file__).resolve().parent.parent


def make_grid(freqs, mags, acceptable):
    acc = np.asarray(acceptable, dtype=bool)
    # quality 0 on acceptable cells, 1 elsewhere, consistent with epsilon 0.5
    return QualityGrid(
        freq_axis=np.array(freqs, dtype=np.int64),
        mag_log2_axis=np.array(mags, dtype=np.float64),
        quality=np.where(acc, 0.0, 1.0),
        epsilon=0.5,
    )


def planted_case(freq, mag_log2, trials=3):
    # the planted oracle reads only the cell's coordinates, so no trial hits an element
    return OracleBlock(
        clean=np.zeros((trials, 1, 1), dtype=np.int32),
        positions=np.zeros((trials, 0), dtype=np.int64),
        freq=freq,
        mag=int(round(2.0**mag_log2)),
        mag_log2=mag_log2,
        trials=np.arange(trials),
    )


def test_planted_oracle_region_membership():
    oracle = planted_step_oracle(CriticalRegionParams(a=2.0, b=40.0, theta_freq=4))
    # below the frequency floor nothing degrades no matter the magnitude
    assert oracle(planted_case(4, 25.0)).tolist() == [0.0] * 3
    # boundary at freq 32 (t=5): m = (40 - 5) / 2 = 17.5
    assert oracle(planted_case(32, 18.0)).tolist() == [1.0] * 3
    assert oracle(planted_case(32, 17.0, trials=1)).tolist() == [0.0]


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


def reference_fit(grid):
    """fit_critical_region with one hand-written case per neighbour, as it once was."""
    acc = grid.acceptable
    if acc.all():
        raise NoBoundaryError("grid entirely acceptable; extend axes upward")
    if not acc.any():
        raise NoBoundaryError("grid entirely unacceptable; extend axes downward")
    freqs = grid.freq_axis
    t_axis = np.log2(freqs.astype(np.float64))
    m_axis = grid.mag_log2_axis
    n_rows, n_cols = acc.shape
    theta_freq = 0
    for i in range(n_rows):
        if acc[i].all():
            theta_freq = int(freqs[i])
        else:
            break
    ts, ms = [], []
    for i in range(n_rows):
        if freqs[i] <= theta_freq:
            continue
        for j in range(n_cols):
            if not acc[i, j]:
                continue
            if j + 1 < n_cols and not acc[i, j + 1]:
                ts.append(t_axis[i])
                ms.append(0.5 * (m_axis[j] + m_axis[j + 1]))
            if j > 0 and not acc[i, j - 1]:
                ts.append(t_axis[i])
                ms.append(0.5 * (m_axis[j] + m_axis[j - 1]))
            if i + 1 < n_rows and not acc[i + 1, j]:
                ts.append(0.5 * (t_axis[i] + t_axis[i + 1]))
                ms.append(m_axis[j])
            if i > 0 and freqs[i - 1] > theta_freq and not acc[i - 1, j]:
                ts.append(0.5 * (t_axis[i] + t_axis[i - 1]))
                ms.append(m_axis[j])
    if not ts:
        above = [i for i in range(n_rows) if freqs[i] > theta_freq]
        if above and not any(acc[i].any() for i in above):
            return CriticalRegionParams(a=calibration._FLAT_A, b=float(m_axis[0]),
                                        theta_freq=theta_freq)
        raise NoBoundaryError("no acceptable/unacceptable boundary above theta_freq")
    if len(set(ts)) < 2:
        raise NoBoundaryError("boundary has no frequency extent; widen the freq axis")
    slope, intercept = np.polyfit(np.array(ts), np.array(ms), 1)
    slope = float(min(max(slope, -1.0 + 1e-9), 0.0))
    a = 1.0 / (1.0 + slope)
    return CriticalRegionParams(a=float(a), b=float(intercept) * a, theta_freq=theta_freq)


def fit_outcome(fit, grid):
    """The repr of ``fit(grid)``'s params, or of the NoBoundaryError it raises."""
    try:
        return repr(fit(grid))
    except NoBoundaryError as e:
        return repr(e)


@pytest.mark.parametrize("mags", [[10.0, 11.5, 14.0], [10.0, 11.5, 14.0, 14.25]])
def test_fit_equals_the_per_neighbour_reference_on_every_mask(mags):
    freqs = [1, 3, 8]
    cells = len(freqs) * len(mags)
    for bits in range(2**cells):
        acc = (bits >> np.arange(cells) & 1).astype(bool).reshape(len(freqs), len(mags))
        grid = make_grid(freqs, mags, acc)
        assert fit_outcome(fit_critical_region, grid) == fit_outcome(reference_fit, grid), acc


@st.composite
def random_grids(draw):
    rows, cols = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    freqs = np.cumsum(draw(st.lists(st.integers(1, 50), min_size=rows, max_size=rows)))
    steps = draw(st.lists(st.floats(0.01, 4.0), min_size=cols, max_size=cols))
    mags = draw(st.floats(0.0, 10.0)) + np.cumsum(steps)
    acc = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    return make_grid(freqs, mags, np.reshape(acc, (rows, cols)))


@settings(max_examples=300, deadline=None)
@given(random_grids())
# one row above theta_freq: no frequency extent
@example(make_grid([1, 2], [10.0, 11.0, 12.0], [[True, True, True], [True, True, False]]))
# no pair above theta_freq: the flat fallback
@example(make_grid([1, 2, 4], [10.0, 11.0], [[True, True], [False, False], [False, False]]))
# pairs only at the grid's edges
@example(make_grid([1, 2, 4], [10.0, 11.0, 12.0],
                   [[True] * 3, [False, True, False], [True, False, True]]))
def test_fit_equals_the_per_neighbour_reference_on_random_grids(grid):
    assert fit_outcome(fit_critical_region, grid) == fit_outcome(reference_fit, grid)


def loop_midpoints(acc, above, t_axis, m_axis):
    """The boundary midpoints by the per-cell loop that ``_boundary_midpoints`` replaced."""
    n_rows, n_cols = acc.shape
    ts, ms = [], []
    for i, j in zip(*np.nonzero(acc & above[:, np.newaxis])):
        for k, l in ((i, j + 1), (i, j - 1), (i + 1, j), (i - 1, j)):
            if 0 <= k < n_rows and 0 <= l < n_cols and above[k] and not acc[k, l]:
                ts.append(0.5 * (t_axis[i] + t_axis[k]))
                ms.append(0.5 * (m_axis[j] + m_axis[l]))
    return np.array(ts), np.array(ms)


@st.composite
def midpoint_cases(draw):
    # single rows and columns too, and rows taking part in any pattern
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    t_axis = np.cumsum(draw(st.lists(st.floats(0.01, 4.0), min_size=rows, max_size=rows)))
    m_axis = draw(st.floats(0.0, 10.0)) + np.cumsum(
        draw(st.lists(st.floats(0.01, 4.0), min_size=cols, max_size=cols))
    )
    above = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    acc = np.reshape(draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols)),
                     (rows, cols))
    return acc, above, t_axis, m_axis


@settings(max_examples=300, deadline=None)
@given(midpoint_cases())
# no cell takes part; every cell acceptable; one row with pairs at both edges
@example((np.ones((2, 2), bool), np.zeros(2, bool), np.array([0.0, 1.0]), np.array([1.0, 2.0])))
@example((np.ones((3, 1), bool), np.ones(3, bool), np.arange(3.0), np.array([5.0])))
@example((np.array([[True, False, True]]), np.ones(1, bool), np.zeros(1), np.arange(3.0)))
def test_midpoints_equal_the_per_cell_loop(case):
    got, want = calibration._boundary_midpoints(*case), loop_midpoints(*case)
    for g, w in zip(got, want):
        assert g.dtype == np.float64 and g.tolist() == w.tolist()


def test_non_monotone_grid_pairs_left_and_up_neighbours():
    # (4, 13.0) is acceptable right of the unacceptable (4, 12.0) and above the
    # unacceptable (2, 13.0): its left and up neighbours add the midpoints
    # (2, 12.5) and (1.5, 13) in (log2 freq, log2 mag)
    acc = [
        [True, True, True, True],
        [True, True, False, False],
        [True, False, False, True],
        [True, False, False, False],
    ]
    fit = fit_critical_region(make_grid([1, 2, 4, 8], [10.0, 11.0, 12.0, 13.0], acc))
    # least squares over the midpoints (1, 11.5), (1.5, 11), (2, 10.5), (2, 12.5),
    # (2.5, 13), (1.5, 13), (3, 10.5): slope -9/38, intercept 462.5/38
    assert fit.theta_freq == 1
    assert fit.a == pytest.approx(38 / 29, rel=1e-12)
    assert fit.b == pytest.approx(462.5 / 29, rel=1e-12)


def test_quality_grid_determinism_and_seed_sensitivity():
    def position_oracle(block):
        # per trial, the row of the first corrupted element in row-major order
        changed = (block.corrupted != block.clean).reshape(len(block.trials), -1)
        first = np.where(changed.any(axis=1), changed.argmax(axis=1), 0)
        return (first // block.clean.shape[2]).astype(float)

    kw = dict(epsilon=3.0, trials=2)
    g1 = quality_grid(position_oracle, [4.0, 5.0], [1, 2], seed=0, **kw)
    g2 = quality_grid(position_oracle, [4.0, 5.0], [1, 2], seed=0, **kw)
    g3 = quality_grid(position_oracle, [4.0, 5.0], [1, 2], seed=99, **kw)
    np.testing.assert_array_equal(g1.quality, g2.quality)
    assert not np.array_equal(g1.quality, g3.quality)


def test_quality_grid_mean_over_trials():
    seen = []

    def counting_oracle(block):
        seen.extend((block.freq, block.mag, t) for t in block.trials.tolist())
        return block.trials.astype(float)

    g = quality_grid(counting_oracle, [3.0, 4.0], [2, 5], epsilon=10.0, trials=4)
    # mean of 0..3 in every cell
    np.testing.assert_allclose(g.quality, 1.5)
    assert g.acceptable.all()
    # mag_log2 rounds to the nearest integer magnitude
    assert (2, 8, 0) in seen and (5, 16, 3) in seen
    assert {mag for _, mag, _ in seen} == {8, 16}


def test_quality_grid_validation():
    ok = lambda block: np.zeros(len(block.trials))
    with pytest.raises(ValueError, match="trials"):
        quality_grid(ok, [4.0], [1], epsilon=1.0, trials=0)
    with pytest.raises(ValueError, match="epsilon"):
        quality_grid(ok, [4.0], [1], epsilon=-1.0)
    with pytest.raises(ValueError, match="mag_log2"):
        quality_grid(ok, [31.0], [1], epsilon=1.0)


def test_oracle_failures_are_annotated():
    def broken(block):
        raise RuntimeError("synthetic oracle crash")

    with pytest.raises(GridCellError, match=r"freq=2.*mag_log2=4\.0"):
        quality_grid(broken, [4.0, 5.0], [2, 3], epsilon=1.0, trials=1)

    def negative(block):
        # one bad score among good ones fails the cell
        return np.where(block.trials == 2, -1.0, 0.5)

    with pytest.raises(GridCellError, match=r"returned -1\.0"):
        quality_grid(negative, [4.0, 5.0], [2, 3], epsilon=1.0, trials=3)

    def nan_oracle(block):
        return np.full(len(block.trials), math.nan)

    with pytest.raises(GridCellError, match="returned nan"):
        quality_grid(nan_oracle, [4.0, 5.0], [2, 3], epsilon=1.0, trials=1)

    # injection failure (freq exceeds the 16x16 default clean matrix)
    with pytest.raises(GridCellError, match="freq=300"):
        quality_grid(
            lambda b: np.zeros(len(b.trials)), [4.0, 5.0], [300, 301], epsilon=1.0, trials=1
        )


@pytest.mark.parametrize("later", ["crash", "shape"])
def test_an_earlier_cells_bad_score_wins_over_a_later_cells_failure(later):
    # cell (0, 0) scores -2 in every trial; cell (0, 1) crashes or returns too many scores
    def oracle(block):
        if (block.freq, block.mag_log2) == (2, 4.0):
            return np.full(len(block.trials), -2.0)
        if later == "crash":
            raise RuntimeError("synthetic oracle crash")
        return np.zeros(len(block.trials) + 1)

    with pytest.raises(GridCellError, match=r"^cell \(freq=2, mag_log2=4\.0\): oracle returned -2\.0$"):
        quality_grid(oracle, [4.0, 5.0], [2, 3], epsilon=1.0, trials=3)


def test_the_first_bad_cell_freq_major_names_its_first_bad_trial():
    # cell (0, 1) is bad in its last trial only, cell (1, 0) in its first:
    # (0, 1) comes first in freq-major order
    def oracle(block):
        scores = np.zeros(len(block.trials))
        if (block.freq, block.mag_log2) == (2, 5.0):
            scores[-1] = math.inf
        if (block.freq, block.mag_log2) == (3, 4.0):
            scores[0] = -1.0
        return scores

    with pytest.raises(GridCellError, match=r"^cell \(freq=2, mag_log2=5\.0\): oracle returned inf$"):
        quality_grid(oracle, [4.0, 5.0], [2, 3], epsilon=1.0, trials=3)


@pytest.mark.parametrize("freqs", [[300, 301], [1, 300]])
def test_a_freq_above_the_target_is_refused_before_any_draw(monkeypatch, freqs):
    drawn = []
    monkeypatch.setattr(faults, "u64_stream", counted(faults.u64_stream, drawn))
    match = r"^cell \(freq=300, mag_log2=4\.0\): freq must be in \[0, n = 256\], got 300$"
    with pytest.raises(GridCellError, match=match):
        quality_grid(lambda b: np.zeros(len(b.trials)), [4.0, 5.0], freqs, epsilon=1.0, trials=1)
    assert drawn == []


@pytest.mark.parametrize(
    "scores",
    [lambda n: 0.0, lambda n: np.zeros(n + 1), lambda n: np.zeros((n, 1)), lambda n: []],
    ids=["scalar", "one-too-many", "column", "empty"],
)
def test_oracle_must_return_one_score_per_trial(scores):
    with pytest.raises(GridCellError, match=r"freq=2.*returned shape .* for 3 trials"):
        quality_grid(lambda b: scores(len(b.trials)), [4.0, 5.0], [2, 3], epsilon=1.0, trials=3)


def test_norm_distortion_oracle_spread_vs_confined():
    clean = AccumMatrix(np.zeros((16, 16), dtype=np.int32))
    cfg = FaultConfig(mode="uniform", freq=4, mag=1024, seed=3)
    corrupted, _ = inject_uniform(clean, cfg)
    # the positions inject_uniform draws on the same seed
    positions = uniform_positions(np.array([cfg.seed], dtype=np.uint64), 256, cfg.freq)
    block = OracleBlock(
        clean=clean.data[np.newaxis],
        positions=positions,
        freq=4,
        mag=1024,
        mag_log2=10.0,
        trials=np.arange(1),
    )
    np.testing.assert_array_equal(block.corrupted, corrupted.data[np.newaxis])
    assert norm_distortion_oracle("layer_norm")(block).tolist() == [1.0]
    assert norm_distortion_oracle("none")(block).tolist() == [4.0 / 256.0]


def one_freq_block(stack, seeds, freq, mag):
    """The OracleBlock of ``stack`` injected with ``freq`` elements of ``mag`` on ``seeds``."""
    positions = uniform_positions(np.asarray(seeds, dtype=np.uint64), stack[0].size, freq)
    return OracleBlock(
        stack, positions, freq=freq, mag=mag, mag_log2=math.log2(mag), trials=np.arange(len(stack))
    )


def test_oracle_block_stacks_are_read_only():
    stack = np.zeros((2, 3, 4), dtype=np.int32)
    block = one_freq_block(stack, [5, 6], freq=1, mag=2)
    for arr in (block.clean, block.positions, block.corrupted, block.trials):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    # the caller's own arrays stay writable
    stack[0] = 1
    # a read-only array is taken as it is
    frozen = stack.view()
    frozen.setflags(write=False)
    assert one_freq_block(frozen, [5, 6], freq=1, mag=2).clean is frozen


def test_corrupted_is_built_once_and_cached():
    stack = np.zeros((2, 3, 4), dtype=np.int32)
    block = one_freq_block(stack, [5, 6], freq=3, mag=8)
    first = block.corrupted
    assert block.corrupted is first
    assert not first.flags.writeable
    assert [int((row == 8).sum()) for row in first] == [3, 3]
    # the clean stack is untouched
    assert not block.clean.any()


def wrapped(values):
    """Python ints wrapped into INT32 by the modular formula."""
    return [(v - INT32_MIN) % 2**32 + INT32_MIN for v in values]


def test_record_adds_the_cells_own_mag():
    stack = noisy_factory(3, 4)(np.array([1, 2], dtype=np.uint64))
    stack[0, 0, 0] = INT32_MAX
    positions = np.array([[0, 5, 11], [1, 2, 3]])
    before = [int(stack[t].ravel()[e]) for t in range(2) for e in positions[t]]
    for mag in (1, 3, 2**30):
        block = OracleBlock(
            stack, positions, freq=3, mag=mag, mag_log2=math.log2(mag), trials=np.arange(2)
        )
        record = block.record
        assert block.record is record
        assert record.trial.tolist() == [0, 0, 0, 1, 1, 1]
        assert record.element.tolist() == positions.ravel().tolist()
        assert record.before.tolist() == before
        assert record.after.tolist() == wrapped(b + mag for b in before)
        np.testing.assert_array_equal(block.corrupted, record.apply(stack.copy()))
        # a clean INT32_MAX and mag 1 wrap to INT32_MIN
        assert (record.after[0] == INT32_MIN) == (mag == 1)


def test_every_grid_cells_record_holds_its_own_mag():
    blocks = []
    quality_grid(
        lambda block: blocks.append(block) or np.zeros(len(block.trials)),
        [0.0, 10.5, 30.0], [1, 5, 12], epsilon=0.5, trials=3, seed=2,
        clean_factory=noisy_factory(3, 4),
    )
    assert len(blocks) == 9
    for block in blocks:
        record = block.record
        flat = block.clean.reshape(len(block.trials), -1)
        assert record.before.tolist() == flat[record.trial, record.element].tolist()
        assert record.after.tolist() == wrapped(b + block.mag for b in record.before.tolist())
        np.testing.assert_array_equal(block.corrupted, record.apply(block.clean.copy()))


@pytest.mark.parametrize(
    "mags, freqs, message",
    [
        ([4.0, 5.0, 6.0], [4, 2, 8], "freq_axis must be >= 2 strictly increasing positives"),
        ([4.0, 4.0, 6.0], [2, 4, 8], "mag_log2_axis must be >= 2 strictly increasing values"),
        ([4.0, 5.0], [2], "freq_axis must be >= 2 strictly increasing positives"),
        ([4.0], [2, 4], "mag_log2_axis must be >= 2 strictly increasing values"),
        ([4.0, 5.0], [0, 2], "freq_axis must be >= 2 strictly increasing positives"),
    ],
    ids=["descending-freq", "repeated-mag", "one-freq", "one-mag", "freq-0"],
)
def test_grid_axes_are_refused_before_any_factory_or_oracle_call(mags, freqs, message):
    calls = []

    def factory(seeds):
        calls.append("factory")
        return np.zeros((len(seeds), 16, 16), dtype=np.int32)

    def oracle(block):
        calls.append("oracle")
        return np.zeros(len(block.trials))

    with pytest.raises(ValueError, match=message):
        quality_grid(oracle, mags, freqs, epsilon=1.0, trials=2, clean_factory=factory)
    assert calls == []


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
            epsilon=1.0,
        )


def noisy_factory(rows, cols):
    """Clean stacks of values spread over all of INT32, so large injections wrap."""

    def factory(seeds):
        u = u64_stream(np.asarray(seeds, dtype=np.uint64)[:, np.newaxis], rows * cols)
        return (u >> np.uint64(32)).astype(np.uint32).view(np.int32).reshape(-1, rows, cols)

    return factory


def hash_oracle(log):
    """Scores each trial of a block by a hash of its corrupted matrix, and logs the hash."""

    def oracle(block):
        scores = []
        for corrupted in block.corrupted:
            digest = hashlib.sha256(corrupted.tobytes()).digest()
            log.append(digest)
            scores.append(int.from_bytes(digest[:4], "little") / 2**32)
        return scores

    return oracle


def one_clean(factory, seed):
    return factory(np.array([seed], dtype=np.uint64))[0]


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
            scores = []
            for t in range(trials):
                # trial t draws on the same two seeds in every cell
                data = one_clean(factory, derive_seed(seed, t, 0)).ravel().astype(np.int64)
                priority = u64_stream(derive_seed(seed, t, 1), rows * cols)
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
    blocks = []
    quality_grid(
        lambda block: blocks.append(block) or np.zeros(len(block.trials)),
        DEFAULT_MAG_AXIS, DEFAULT_FREQ_AXIS,
        epsilon=0.5, trials=4, seed=5, clean_factory=factory,
    )
    # 4 trials of 256 elements make one block, scored in one oracle call per cell
    assert len(blocks) == len(DEFAULT_FREQ_AXIS) * len(DEFAULT_MAG_AXIS)
    for block in blocks:
        assert block.trials.tolist() == [0, 1, 2, 3]
        for t, (clean, corrupted) in enumerate(zip(block.clean, block.corrupted)):
            assert np.array_equal(clean, one_clean(factory, derive_seed(5, t, 0)))
            cfg = FaultConfig(
                mode="uniform", freq=block.freq, mag=block.mag, seed=derive_seed(5, t, 1)
            )
            assert np.array_equal(corrupted, inject_uniform(AccumMatrix(clean), cfg)[0].data)


def count_writes(monkeypatch):
    """Log each ``Corruption.apply`` call, by the number of trials it writes."""
    writes = []
    real = faults.Corruption.apply

    def spy(record, stack):
        writes.append(record.n_trials)
        return real(record, stack)

    monkeypatch.setattr(faults.Corruption, "apply", spy)
    return writes


def test_stock_planted_grid_writes_no_corrupted_stack(monkeypatch, tmp_path, capsys):
    # the benchmarked calibrate run: the planted oracle reads only the cell coordinates
    writes = count_writes(monkeypatch)
    config = str(ROOT / "perfbench" / "configs" / "calibrate_planted.json")
    assert cli.main(["--config", config, "--out", str(tmp_path), "calibrate"]) == 0
    assert "fitted a=" in capsys.readouterr().out
    assert writes == []


def test_norm_distortion_grid_writes_once_per_cell_per_block(monkeypatch):
    # 12-element targets in 2-trial blocks: trials (0, 1), (2, 3), (4,)
    monkeypatch.setattr(calibration, "BLOCK_LANES", 24)
    writes = count_writes(monkeypatch)
    inner, during = norm_distortion_oracle("layer_norm"), []

    def oracle(block):
        before = len(writes)
        scores = inner(block)
        # a second read writes nothing
        assert block.corrupted.shape == block.clean.shape
        during.append(writes[before:])
        return scores

    quality_grid(
        oracle, [0.0, 10.5], [1, 5, 11], epsilon=0.5, trials=5, seed=2,
        clean_factory=noisy_factory(3, 4),
    )
    # each cell's stack is written inside its oracle call, in one pass over the block
    assert during == [[2]] * 6 + [[2]] * 6 + [[1]] * 6
    assert len(writes) == 18


def test_a_kept_block_still_yields_its_stack(monkeypatch):
    # 12-element targets in 2-trial blocks; no oracle call reads a stack
    monkeypatch.setattr(calibration, "BLOCK_LANES", 24)
    writes = count_writes(monkeypatch)
    factory, blocks = noisy_factory(3, 4), []
    quality_grid(
        lambda block: blocks.append(block) or np.zeros(len(block.trials)),
        [0.0, 10.5, 30.0], [1, 5, 11], epsilon=0.5, trials=5, seed=6, clean_factory=factory,
    )
    assert writes == []
    # read after the grid has moved on to later blocks, and returned
    stacks = [block.corrupted for block in blocks]
    assert writes == [2] * 9 + [2] * 9 + [1] * 9
    for block, stack in zip(blocks, stacks):
        for t, corrupted in zip(block.trials.tolist(), stack):
            clean = one_clean(factory, derive_seed(6, t, 0))
            cfg = FaultConfig(
                mode="uniform", freq=block.freq, mag=block.mag, seed=derive_seed(6, t, 1)
            )
            assert np.array_equal(corrupted, inject_uniform(AccumMatrix(clean), cfg)[0].data)


def test_a_failed_stack_write_names_its_cell(monkeypatch):
    def broken(record, stack):
        raise RuntimeError("synthetic write failure")

    monkeypatch.setattr(faults.Corruption, "apply", broken)
    with pytest.raises(GridCellError, match=r"freq=2.*mag_log2=4\.0.*synthetic write failure"):
        quality_grid(norm_distortion_oracle(), [4.0, 5.0], [2, 3], epsilon=1.0, trials=2)


def counted(real, calls):
    def spy(seeds, *args):
        calls.append(len(seeds))
        return real(seeds, *args)

    return spy


@pytest.mark.parametrize("block_lanes", [1, 24])
def test_block_size_changes_no_result(monkeypatch, block_lanes):
    # 12-element targets: 1-trial blocks, or 2-trial blocks with a ragged last one
    made = []
    kw = dict(epsilon=0.5, trials=5, seed=3, clean_factory=counted(noisy_factory(3, 4), made))
    default = []
    g = quality_grid(hash_oracle(default), [0.0, 30.0], [1, 11], **kw)
    assert made == [1, 5]
    blocks, drawn = [], []
    monkeypatch.setattr(calibration, "BLOCK_LANES", block_lanes)
    injected = counted(calibration.uniform_position_sets, blocks)
    monkeypatch.setattr(calibration, "uniform_position_sets", injected)
    monkeypatch.setattr(faults, "u64_stream", counted(faults.u64_stream, drawn))
    made.clear()
    small = []
    g_small = quality_grid(hash_oracle(small), [0.0, 30.0], [1, 11], **kw)
    # each block of trials draws the positions of both freqs at once
    step = 1 if block_lanes == 1 else 2
    chunks = [range(t0, min(t0 + step, 5)) for t0 in range(0, 5, step)]
    assert blocks == drawn == [len(chunk) for chunk in chunks]
    # one probe of the target shape, then one stack per block, shared by the four cells
    assert made == [1] + [len(chunk) for chunk in chunks]
    assert small == [default[cell * 5 + t] for chunk in chunks for cell in range(4) for t in chunk]
    np.testing.assert_array_equal(g_small.quality, g.quality)


def test_stock_grid_calls_the_oracle_once_per_block():
    oracle_calls, made = [], []

    def oracle(block):
        oracle_calls.append(block.trials.tolist())
        return np.zeros(len(block.trials))

    quality_grid(
        oracle, DEFAULT_MAG_AXIS, DEFAULT_FREQ_AXIS, epsilon=0.5, trials=64,
        clean_factory=counted(zero_factory(16, 16), made),
    )
    assert oracle_calls == [list(range(64))] * 256
    # the probe, then the one block's stack, shared by all 256 cells
    assert made == [1, 64]


def test_a_block_holds_at_most_block_lanes_scores(monkeypatch):
    # 4-element targets fit 16 trials in 64 lanes, but 32 cells' scores fit only 2
    monkeypatch.setattr(calibration, "BLOCK_LANES", 64)
    sizes = []
    quality_grid(
        lambda block: sizes.append(len(block.trials)) or np.zeros(len(block.trials)),
        [1.0 + m for m in range(8)], [1, 2, 3, 4], epsilon=0.5, trials=5,
        clean_factory=zero_factory(2, 2),
    )
    assert sizes == [2] * 32 + [2] * 32 + [1] * 32


def test_stock_grid_draws_positions_once_per_block(monkeypatch):
    calls, drawn = [], []
    monkeypatch.setattr(
        calibration, "uniform_position_sets", counted(calibration.uniform_position_sets, calls)
    )
    monkeypatch.setattr(faults, "u64_stream", counted(faults.u64_stream, drawn))
    quality_grid(
        lambda b: np.zeros(len(b.trials)), DEFAULT_MAG_AXIS, DEFAULT_FREQ_AXIS,
        epsilon=0.5, trials=64,
    )
    # one 64-row draw of the priorities, which all 16 freqs and their 16 mags share
    assert calls == drawn == [64]


def test_stock_planted_grid_builds_no_record(monkeypatch):
    built, records = [], []
    real_init = faults.Corruption.__init__

    def init(record, n_trials, *args):
        built.append(n_trials)
        real_init(record, n_trials, *args)

    monkeypatch.setattr(faults.Corruption, "__init__", init)
    # a record's clean values are read only inside uniform_record
    monkeypatch.setattr(
        calibration, "uniform_record", counted(calibration.uniform_record, records)
    )
    planted, blocks = planted_step_oracle(calibration.CalibrationSettings.planted), []
    grid = quality_grid(
        lambda block: blocks.append(block) or planted(block), DEFAULT_MAG_AXIS,
        DEFAULT_FREQ_AXIS, epsilon=0.5, trials=64,
    )
    assert grid.acceptable.any() and not grid.acceptable.all()
    assert len(blocks) == 256 and built == records == []
    assert not any({"record", "corrupted"} & set(vars(block)) for block in blocks)
    # an oracle that reads corrupted builds one record per cell, once
    quality_grid(
        hash_oracle([]), [0.0, 30.0], [1, 11], epsilon=0.5, trials=5, seed=3,
        clean_factory=noisy_factory(3, 4),
    )
    assert built == records == [5] * 4


# sha256 of the hash_oracle digests of the stock grid at 64 trials and seed 0
# on noisy 16 x 16 stacks: every corrupted stack in cell and trial order
STOCK_GRID_STACKS_SHA256 = "1c8ec4b3a3203978a637c57afc3977c2ffe3bb11a48186fec87fe5c7d816952c"


def test_stock_grid_corrupted_stacks_are_pinned():
    log = []
    quality_grid(
        hash_oracle(log), DEFAULT_MAG_AXIS, DEFAULT_FREQ_AXIS, epsilon=0.5, trials=64, seed=0,
        clean_factory=noisy_factory(16, 16),
    )
    assert len(log) == len(DEFAULT_FREQ_AXIS) * len(DEFAULT_MAG_AXIS) * 64
    assert hashlib.sha256(b"".join(log)).hexdigest() == STOCK_GRID_STACKS_SHA256


def test_every_cell_of_a_block_gets_the_same_clean_stack(monkeypatch):
    # 12-element targets in 2-trial blocks: trials (0, 1), (2, 3), (4,)
    monkeypatch.setattr(calibration, "BLOCK_LANES", 24)
    factory, blocks = noisy_factory(3, 4), []
    quality_grid(
        lambda block: blocks.append(block) or np.zeros(len(block.trials)),
        [0.0, 10.5, 30.0], [1, 5, 11], epsilon=0.5, trials=5, seed=4, clean_factory=factory,
    )
    assert [b.trials.tolist() for b in blocks] == [[0, 1]] * 9 + [[2, 3]] * 9 + [[4]] * 9
    for block in blocks:
        want = [one_clean(factory, derive_seed(4, t, 0)) for t in block.trials.tolist()]
        np.testing.assert_array_equal(block.clean, want)
    # one read-only view of each per block, which its nine cells share
    for name in ("clean", "trials"):
        views = [getattr(b, name) for b in blocks]
        assert not any(v.flags.writeable for v in views)
        assert [len({id(v) for v in views[k : k + 9]}) for k in (0, 9, 18)] == [1, 1, 1]
        assert len({id(v) for v in views}) == 3


def test_a_factorys_own_stacks_stay_writable():
    # int32 stacks pass through the checks as they are, so the grid's view must not freeze them
    stacks = []

    def factory(seeds):
        stacks.append(np.zeros((len(seeds), 4, 4), dtype=np.int32))
        return stacks[-1]

    quality_grid(
        lambda b: np.zeros(len(b.trials)), [4.0, 5.0], [2, 3], epsilon=1.0, trials=2,
        clean_factory=factory,
    )
    assert len(stacks) == 2 and all(stack.flags.writeable for stack in stacks)


def test_positions_nest_across_freqs():
    # values spread over INT32 change under any mag, so the changed elements are the positions
    freqs, mags, trials = [1, 2, 5, 11, 12], [0.0, 10.5, 30.0], 6
    changed = {}

    def oracle(block):
        moved = (block.corrupted != block.clean).reshape(len(block.trials), -1)
        for t, row in zip(block.trials.tolist(), moved):
            changed[block.freq, block.mag_log2, t] = set(np.flatnonzero(row).tolist())
        return np.zeros(len(block.trials))

    quality_grid(
        oracle, mags, freqs, epsilon=0.5, trials=trials, seed=9, clean_factory=noisy_factory(3, 4)
    )
    for t in range(trials):
        for m in mags:
            sets = [changed[f, m, t] for f in freqs]
            assert [len(hit) for hit in sets] == freqs
            for lower, higher in zip(sets, sets[1:]):
                assert lower < higher, (t, m)
        # every mag of a freq hits the same elements
        for f in freqs:
            assert len({frozenset(changed[f, m, t]) for m in mags}) == 1


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5], ids=["-1", "2**64", "2**64+5"])
def test_grid_seed_outside_64_bits_is_refused_before_any_draw(seed):
    made = []
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        quality_grid(
            lambda b: np.zeros(len(b.trials)), [4.0, 8.0], [1, 2], epsilon=0.5, trials=2,
            seed=seed, clean_factory=counted(zero_factory(4, 4), made),
        )
    assert made == []


def test_a_huge_trial_count_fails_on_its_first_block():
    def broken(block):
        raise RuntimeError("synthetic oracle crash")

    # seeds are derived a block at a time, so nothing is sized by the trial count
    with pytest.raises(GridCellError, match="synthetic oracle crash"):
        quality_grid(broken, [4.0, 8.0], [1, 2], epsilon=1.0, trials=10**12)


def test_grid_memory_does_not_grow_with_the_trials(monkeypatch):
    # 16-trial blocks of 256-element targets
    monkeypatch.setattr(calibration, "BLOCK_LANES", 2**12)
    oracle = planted_step_oracle(CriticalRegionParams(a=2.0, b=40.0, theta_freq=4))
    peaks = []
    for trials in (64, 4096):
        tracemalloc.start()
        try:
            quality_grid(oracle, [4.0, 8.0], [1, 2], epsilon=0.5, trials=trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("block_lanes", [None, 1, 32])
def test_clean_factory_must_return_one_shape(monkeypatch, block_lanes):
    # the shape changes after the probe on the one 3-trial block (the second
    # call), or after the first block (the third call) on the second 1-trial
    # block or the ragged last block (2 + 1 trials); a factory failure names
    # the grid's first cell
    if block_lanes is not None:
        monkeypatch.setattr(calibration, "BLOCK_LANES", block_lanes)
    calls, change = [], 2 if block_lanes is None else 3

    def factory(seeds):
        calls.append(len(seeds))
        return np.zeros((len(seeds), 4, 4 + (len(calls) >= change)), dtype=np.int32)

    match = r"freq=2.*mag_log2=4\.0.*\(4, 5\) after \(4, 4\)"
    with pytest.raises(GridCellError, match=match):
        quality_grid(
            lambda b: np.zeros(len(b.trials)), [4.0, 5.0], [2, 3], epsilon=1.0, trials=3,
            clean_factory=factory,
        )
    assert calls[-1] == (3 if block_lanes is None else 1)


@pytest.mark.parametrize(
    "stack, problem",
    [
        (
            lambda n: np.full((n, 4, 4), 2**31, dtype=np.int64),
            r"\[2147483648, 2147483648\], outside INT32",
        ),
        (lambda n: np.full((n, 4, 4), -(2**31) - 1), "outside INT32"),
        (lambda n: np.zeros((n, 16)), r"shape \(\d+, 16\)"),
        (lambda n: np.zeros((n + 1, 4, 4), dtype=np.int32), r"shape \(\d+, 4, 4\) for \d+ seeds"),
        (lambda n: np.zeros((n, 0, 4), dtype=np.int32), "non-empty"),
        (lambda n: np.zeros((n, 4, 4)), "float64 values"),
    ],
    ids=["above-int32", "below-int32", "2-d", "too-many", "empty", "floats"],
)
@pytest.mark.parametrize("probe", [True, False], ids=["probe", "block"])
def test_clean_factory_stacks_are_checked(stack, problem, probe):
    # a malformed stack fails the probe, or the first block after a good probe
    calls = []

    def factory(seeds):
        calls.append(len(seeds))
        if len(calls) == 1 and not probe:
            return np.zeros((len(seeds), 4, 4), dtype=np.int32)
        return stack(len(seeds))

    match = rf"freq=2.*mag_log2=4\.0.*clean_factory returned .*{problem}"
    with pytest.raises(GridCellError, match=match):
        quality_grid(
            lambda b: np.zeros(len(b.trials)), [4.0, 5.0], [2, 3], epsilon=1.0, trials=2,
            clean_factory=factory,
        )


def test_in_range_integer_stacks_of_any_dtype_are_taken_as_int32():
    wide = lambda seeds: noisy_factory(3, 4)(seeds).astype(np.int64)
    grids = [
        quality_grid(hash_oracle([]), [0.0, 30.0], [1, 11], epsilon=0.5, trials=3, clean_factory=f)
        for f in (noisy_factory(3, 4), wide)
    ]
    np.testing.assert_array_equal(grids[0].quality, grids[1].quality)


@pytest.mark.parametrize("kind", NORM_KINDS)
def test_norm_distortion_oracle_equals_the_per_trial_measure(kind):
    # a noisy 16x16 grid: each trial's score is measure_change of its own normalized vectors
    blocks, scores = [], []
    oracle = norm_distortion_oracle(kind)

    def spy(block):
        blocks.append(block)
        scores.append(oracle(block))
        return scores[-1]

    quality_grid(
        spy, [0.0, 8.0, 16.0, 24.0, 30.0], [1, 4, 16, 64, 256], epsilon=0.5, trials=4, seed=2,
        clean_factory=noisy_factory(16, 16),
    )
    for block, got in zip(blocks, scores):
        want = [
            measure_change(
                apply_norm(clean.astype(np.float64).ravel(), kind),
                apply_norm(corrupted.astype(np.float64).ravel(), kind),
            ).changed_fraction
            for clean, corrupted in zip(block.clean, block.corrupted)
        ]
        assert got.tolist() == want
    assert len({s for got in scores for s in got.tolist()}) > 5

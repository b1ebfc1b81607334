import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statabft import faults
from statabft.faults import (
    INT32_MAX,
    INT32_MIN,
    FaultConfig,
    SparseFlips,
    TableFormatError,
    VoltageBerTable,
    apply_fault,
    corruption,
    default_table,
    geometric_flips,
    inject_uniform,
    sample_bitflips,
    uniform_corruption,
    uniform_position_sets,
    uniform_positions,
    uniform_record,
)
from statabft.gemm import AccumMatrix, checksum, gemm, gemm_entries, predicted_output_checksum
from statabft.rng import DRAW_BLOCK, derive_seed, u64_stream
from statabft.workloads import DISTRIBUTIONS, WorkloadSpec, random_quant_matrix, workload_entries


def _entries(w, x):
    """A one-GEMM record's clean-entry callback: every trial reads W @ X."""
    return lambda trials, rows, cols: gemm_entries(w, x, rows, cols)


def make_output(seed, m=8, n=8, k=8):
    w = random_quant_matrix(m, k, "uniform", seed)
    x = random_quant_matrix(k, n, "uniform", seed + 1)
    return gemm(w, x)


def test_fault_config_validation():
    with pytest.raises(ValueError, match="mode"):
        FaultConfig(mode="gamma")
    with pytest.raises(ValueError, match="ber"):
        FaultConfig(mode="ber", ber=1.5)
    with pytest.raises(ValueError, match="bit_window"):
        FaultConfig(mode="ber", bit_window=(20, 10))
    with pytest.raises(ValueError, match="bit_window"):
        FaultConfig(mode="ber", bit_window=(0, 32))
    # the freq rule needs the output's size, so its one home is check_uniform_freq
    negative = FaultConfig(mode="uniform", freq=-1)
    with pytest.raises(ValueError, match=r"^freq must be in \[0, n = 64\], got -1$"):
        inject_uniform(make_output(0), negative)
    with pytest.raises(ValueError, match="mag"):
        FaultConfig(mode="uniform", mag=2**31)


def test_bitflips_deterministic_and_seeded():
    y = make_output(3)
    cfg = FaultConfig(mode="ber", ber=0.02, seed=5)
    a1, e1 = sample_bitflips(y, cfg)
    a2, e2 = sample_bitflips(y, cfg)
    assert a1 == a2 and e1 == e2
    b, _ = sample_bitflips(y, replace(cfg, seed=6))
    assert b != a1  # different stream, different corruption


def test_bitflips_confined_to_window():
    y = AccumMatrix(np.zeros((16, 16), dtype=np.int32))
    cfg = FaultConfig(mode="ber", ber=0.5, bit_window=(20, 23), seed=1)
    corrupted, events = sample_bitflips(y, cfg)
    xor = corrupted.data.view(np.uint32) ^ y.data.view(np.uint32)
    window_mask = np.uint32(0b1111 << 20)
    assert np.all((xor & ~window_mask) == 0)
    assert events, "ber=0.5 over 1024 candidate bits must flip something"
    for e in events:
        assert e.flipped_bits and all(20 <= b <= 23 for b in e.flipped_bits)
        assert e.before != e.after


def test_bitflips_ber_zero_and_one():
    y = make_output(7)
    clean, events = sample_bitflips(y, FaultConfig(mode="ber", ber=0.0, seed=2))
    assert clean == y and events == []
    full, events = sample_bitflips(y, FaultConfig(mode="ber", ber=1.0, bit_window=(16, 31), seed=2))
    # every element flips all 16 window bits
    assert len(events) == y.data.size
    xor = full.data.view(np.uint32) ^ y.data.view(np.uint32)
    assert np.all(xor == np.uint32(0xFFFF0000))


def test_bitflip_rate_statistics():
    y = AccumMatrix(np.zeros((64, 64), dtype=np.int32))
    cfg = FaultConfig(mode="ber", ber=0.01, bit_window=(16, 31), seed=9)
    _, events = sample_bitflips(y, cfg)
    flips = sum(len(e.flipped_bits) for e in events)
    expected = y.data.size * 16 * 0.01  # 655 draws expected
    assert 0.7 * expected < flips < 1.3 * expected


@pytest.mark.parametrize("n_bits, ber", [(1, 0.5), (500, 0.02), (4096, 0.3), (65536, 1e-4)])
def test_geometric_flips_do_not_depend_on_chunk_size(monkeypatch, n_bits, ber):
    trial, idx, u = geometric_flips([17], n_bits, ber)
    monkeypatch.setattr(faults, "_SKIP_CHUNK", 1)
    _, idx1, u1 = geometric_flips([17], n_bits, ber)
    assert np.array_equal(idx, idx1) and np.array_equal(u, u1) and not trial.any()
    assert np.all(np.diff(idx) > 0) and (idx.size == 0 or 0 <= idx[0] <= idx[-1] < n_bits)
    assert np.all((0.0 <= u) & (u < ber))


def test_geometric_flips_at_ber_zero_and_one():
    trial, idx, u = geometric_flips([3, 4], 1000, 0.0)
    assert trial.size == idx.size == u.size == 0
    assert trial.dtype == idx.dtype == np.int64 and u.dtype == np.float64
    trial, idx, u = geometric_flips([3, 4], 1000, 1.0)
    assert np.array_equal(trial, np.repeat([0, 1], 1000))
    assert np.array_equal(idx, np.tile(np.arange(1000), 2))
    assert np.all((0.0 <= u) & (u < 1.0))
    with pytest.raises(ValueError, match="ber"):
        geometric_flips([3], 1000, 1.5)


def test_geometric_flips_refuse_more_expected_flips_than_a_block(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew")

    monkeypatch.setattr(faults, "u64_stream", no_draw)
    # a 4096 x 4096 output's 16-bit window at BER 1 expects 2**28 flips
    with pytest.raises(ValueError, match="expects 268435456 flips per trial, more than 1048576"):
        geometric_flips([0], 4096 * 4096 * 16, 1.0)
    with pytest.raises(AssertionError, match="drew"):
        geometric_flips([0], faults.BLOCK_LANES, 1.0)


def test_uniform_positions_refuse_more_elements_than_a_block(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew")

    monkeypatch.setattr(faults, "u64_stream", no_draw)
    # a 4096 x 4096 output would take 2**24 priorities (128 MiB) per trial
    for freq in (0, 1, 4096 * 4096):
        with pytest.raises(ValueError, match=r"^n must make n <= 1048576 for uniform injection, got 16777216$"):
            uniform_positions([0], 4096 * 4096, freq)
    with pytest.raises(AssertionError, match="drew"):
        uniform_positions([0], faults.BLOCK_LANES, 1)


def test_geometric_flips_are_bernoulli_per_bit():
    # a flip count and its thinned share each within 5 standard deviations
    n_bits, ber = 200_000, 0.25
    _, idx, u = geometric_flips([29], n_bits, ber)
    sd = (n_bits * ber * (1 - ber)) ** 0.5
    assert abs(idx.size - n_bits * ber) < 5 * sd
    # bits are alike: every residue class of the index flips at the same rate
    per_class = np.bincount(idx % 7, minlength=7)
    assert np.all(np.abs(per_class - n_bits / 7 * ber) < 5 * sd / 7**0.5)
    kept = int(np.count_nonzero(u < ber / 2))
    assert abs(kept - idx.size / 2) < 5 * (idx.size / 4) ** 0.5


@pytest.mark.parametrize(
    "n_bits, ber",
    # means of 10 flips, of 205 (past the first _SKIP_CHUNK draw), and every bit
    [(1000, 0.01), (4096, 0.05), (300, 1.0)],
)
def test_geometric_flips_count_per_trial_is_binomial(n_bits, ber):
    # K, a trial's flip count, is Binomial(n_bits, ber): over 2,000 trials its
    # sample mean and variance lie within 5 standard errors of the law's
    trials = 2000
    trial, _, _ = geometric_flips(derive_seed(41, np.arange(trials)), n_bits, ber)
    k = np.bincount(trial, minlength=trials)
    mean, var = n_bits * ber, n_bits * ber * (1 - ber)
    # the binomial's fourth central moment gives the sample variance's spread
    mu4 = var * (1 + 3 * (n_bits - 2) * ber * (1 - ber))
    var_se = ((mu4 - var**2 * (trials - 3) / (trials - 1)) / trials) ** 0.5
    assert abs(k.mean() - mean) <= 5 * (var / trials) ** 0.5
    assert abs(k.var(ddof=1) - var) <= 5 * var_se


def test_sparse_flips_match_the_dense_sampler():
    w = random_quant_matrix(12, 40, "uniform", 5)
    x = random_quant_matrix(40, 9, "outlier", 6)
    clean = gemm(w, x)
    cfg = FaultConfig(mode="ber", ber=0.05, bit_window=(8, 31), seed=8)
    flips = SparseFlips.draw(w.rows, x.cols, _entries(w, x), [cfg.seed], cfg.bit_window, cfg.ber)
    corrupted, events = sample_bitflips(clean, cfg)
    # the clean value at each flipped element is the dense product's
    assert flips.clean.size and np.array_equal(flips.clean, clean.data.ravel()[flips.element])
    record = flips.at(cfg.ber)
    assert record.events() == events
    assert np.array_equal(record.apply(clean.data[np.newaxis].copy())[0], corrupted.data)
    dense = predicted_output_checksum(w, x).data - checksum(corrupted, "row").data
    assert np.array_equal(record.diff(), dense[np.newaxis])
    assert not flips.at(0.0).diff().any() and flips.at(0.0).events() == []
    with pytest.raises(ValueError, match="ber"):
        flips.at(0.06)


def _xor_diff(clean: np.ndarray, record) -> np.ndarray:
    """Trial 0's checksum difference with the record's bits XORed into the dense ``clean`` by numpy."""
    out = clean.copy()
    out[np.divmod(record.element, clean.shape[1])] ^= record.mask.view(np.int32)
    return clean.sum(0, dtype=np.int64) - out.sum(0, dtype=np.int64)


def test_stacked_flips_give_each_trials_difference_row():
    # a sweep thins the flips of all its trials at once: row t of at(ber).diff()
    # is trial t's own flips at that ber XORed into the dense product, bit-31
    # flips that wrap included
    w = random_quant_matrix(9, 30, "outlier", 2)
    x = random_quant_matrix(30, 7, "uniform", 3)
    clean = gemm(w, x).data
    window = (0, 31)
    parts = [SparseFlips.draw(w.rows, x.cols, _entries(w, x), [s], window, 0.04) for s in range(5)]
    stream = SparseFlips.draw(w.rows, x.cols, _entries(w, x), range(5), window, 0.04)
    assert stream.n_trials == 5
    assert stream.trial.tolist() == [t for t, p in enumerate(parts) for _ in p.u]
    for ber in (0.04, 0.01, 0.001, 0.0):
        rows = [_xor_diff(clean, p.at(ber)) for p in parts]
        assert np.array_equal(stream.at(ber).diff(), np.array(rows))
    assert stream.at(0.04).diff().any() and not stream.at(0.0).diff().any()
    # on a one-element output every trial's flips hit the element the trial
    # before it ended on: the flips of two trials never merge into one element
    sevens = lambda trials, rows, cols: np.full(rows.shape, 7)  # noqa: E731
    one = [SparseFlips.draw(1, 1, sevens, [s], window, 0.5) for s in range(4)]
    rows = [_xor_diff(np.full((1, 1), 7, dtype=np.int32), p.at(0.5)) for p in one]
    assert all(r.any() for r in rows)
    assert np.array_equal(SparseFlips.draw(1, 1, sevens, range(4), window, 0.5).at(0.5).diff(), np.array(rows))
    with pytest.raises(ValueError, match="5 trials"):
        stream.at(0.01).events()


def _flip_stream(trials=6, top=0.04):
    """The flips of a ``trials``-trial stream of one 9x7 GEMM at ``top`` in the whole 32-bit window."""
    w = random_quant_matrix(9, 30, "outlier", 2)
    x = random_quant_matrix(30, 7, "uniform", 3)
    return SparseFlips.draw(w.rows, x.cols, _entries(w, x), range(trials), (0, 31), top)


def _assert_rows_are_the_per_ber_records(flips, bers):
    # rows(bers) joins each BER's at(ber) record, narrowed to its touched trials, in order
    levels, trials, record = flips.rows(bers)
    parts = [flips.at(ber) for ber in bers]
    touched = [np.unique(p.trial) for p in parts]
    assert np.array_equal(levels, np.repeat(np.arange(len(bers)), [t.size for t in touched]))
    assert np.array_equal(trials, np.concatenate([np.zeros(0, dtype=np.int64), *touched]))
    assert record.n_trials == levels.size and record.n_cols == flips.n_cols
    expected = [p.diff()[t] for p, t in zip(parts, touched)]
    assert np.array_equal(record.diff(), np.concatenate([np.zeros((0, flips.n_cols), np.int64), *expected]))
    for name in ("element", "before", "after", "mask"):
        joined = np.concatenate([np.zeros(0, getattr(record, name).dtype), *(getattr(p, name) for p in parts)])
        assert np.array_equal(getattr(record, name), joined), name
    return levels, trials, record


def test_rows_join_the_touched_trials_of_each_ber():
    # BERs in no particular order: each keeps its flips, and its trials ascend
    flips = _flip_stream()
    levels, trials, record = _assert_rows_are_the_per_ber_records(flips, [0.01, 0.04, 2e-4])
    assert 0 < np.count_nonzero(levels == 2) < np.count_nonzero(levels == 0) <= flips.n_trials
    assert record.diff().any(axis=1).all()


def test_rows_of_no_ber_and_of_ber_zero_are_empty():
    flips = _flip_stream()
    for bers in ([], [0.0], [0.0, 0.0]):
        levels, trials, record = _assert_rows_are_the_per_ber_records(flips, bers)
        assert levels.size == trials.size == record.n_trials == record.element.size == 0
        assert record.diff().shape == (0, flips.n_cols)
    # a BER of 0 between two others leaves a gap in the BER indices
    levels, _, _ = _assert_rows_are_the_per_ber_records(flips, [0.04, 0.0, 0.02])
    assert sorted(set(levels.tolist())) == [0, 2]


def test_rows_repeat_for_equal_bers():
    # two voltages on a flat stretch of the table: the same rows, once per BER
    flips = _flip_stream()
    levels, trials, record = _assert_rows_are_the_per_ber_records(flips, [0.02, 0.02])
    half = levels.size // 2
    assert half and np.array_equal(levels, np.repeat([0, 1], half))
    assert np.array_equal(trials[:half], trials[half:])
    assert np.array_equal(record.diff()[:half], record.diff()[half:])


def test_rows_refuse_a_ber_above_the_top_one():
    flips = _flip_stream()
    for bers in ([0.05], [0.01, 0.041], [-0.01]):
        with pytest.raises(ValueError, match="ber"):
            flips.rows(bers)


_SEVERAL_CHUNKS = st.floats(min_value=0.05, max_value=1.0)  # >= 64 flips on >= 1280 bits


@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(DISTRIBUTIONS),
    st.sampled_from([(0, 31), (16, 31)]),
    st.one_of(st.sampled_from([0.0, 1.0]), _SEVERAL_CHUNKS, st.floats(min_value=1e-4, max_value=0.05)),
    st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=80, deadline=None)
def test_stream_draw_equals_the_per_trial_draws_joined(m, k, n, trials, distribution, window, ber, seed):
    # trial t of a stream is GEMM t drawn on seeds[t]; drawn alone, it gives the same flips
    spec = WorkloadSpec(m=m, k=k, n=n, gemm_count=trials, distribution=distribution, seed=seed)
    seeds = derive_seed(seed, np.arange(trials))
    stream = SparseFlips.draw(m, n, partial(workload_entries, spec), seeds, window, ber)
    parts = [
        SparseFlips.draw(m, n, lambda _, rows, cols, t=t: workload_entries(spec, t, rows, cols), [s], window, ber)
        for t, s in enumerate(seeds.tolist())
    ]
    assert stream.n_trials == trials and stream.ber == ber
    assert np.array_equal(stream.trial, np.repeat(np.arange(trials), [p.u.size for p in parts]))
    for name in ("element", "mask", "u", "clean"):
        joined = np.concatenate([getattr(p, name) for p in parts])
        got = getattr(stream, name)
        assert got.dtype == joined.dtype and np.array_equal(got, joined), name
    for thinned in (ber, ber / 3, 0.0):
        rows = np.concatenate([p.at(thinned).diff() for p in parts])
        assert np.array_equal(stream.at(thinned).diff(), rows)
    if ber == 1.0:
        assert stream.u.size == trials * m * n * (window[1] - window[0] + 1)


@pytest.mark.parametrize(
    "cfg",
    [
        FaultConfig(mode="ber", ber=0.01, bit_window=(4, 31)),
        FaultConfig(mode="uniform", freq=7, mag=-(2**31)),
    ],
    ids=["ber", "uniform"],
)
def test_fault_events_equal_the_dense_injectors_log(cfg):
    # the same builder per mode, fed gemm_entries instead of the dense product
    w = random_quant_matrix(10, 24, "outlier", 3)
    x = random_quant_matrix(24, 12, "uniform", 4)
    for s in range(6):
        seeded = replace(cfg, seed=s)
        events = corruption(w.rows, x.cols, _entries(w, x), [s], seeded).events()
        assert events and events == apply_fault(gemm(w, x), seeded)[1]


def test_event_log_replays_exactly():
    y = make_output(11)
    for cfg in (
        FaultConfig(mode="ber", ber=0.05, seed=3),
        FaultConfig(mode="uniform", freq=9, mag=-(1 << 18), seed=3),
        FaultConfig(mode="uniform", freq=64, mag=2**31 - 1, seed=3),
    ):
        corrupted, events = apply_fault(y, cfg)
        # the injectors write their own record, so check its log against numpy's XOR
        # of the logged bits, or its wrapping INT32 addition of mag, instead
        expected = y.data.copy()
        at = ([e.row for e in events], [e.col for e in events])
        if cfg.mode == "ber":
            masks = [sum(1 << b for b in e.flipped_bits) for e in events]
            expected[at] ^= np.array(masks, dtype=np.uint32).view(np.int32)
        else:
            expected[at] += np.int32(cfg.mag)
        assert events and np.array_equal(corrupted.data, expected)
        changed = int(np.count_nonzero(corrupted.data != y.data))
        assert changed == len(events)


def test_uniform_injects_exact_count_at_distinct_positions():
    y = AccumMatrix(np.zeros((8, 8), dtype=np.int32))
    cfg = FaultConfig(mode="uniform", freq=17, mag=5, seed=21)
    corrupted, events = inject_uniform(y, cfg)
    positions = {(e.row, e.col) for e in events}
    assert len(events) == 17 and len(positions) == 17
    assert int(np.count_nonzero(corrupted.data == 5)) == 17


def test_uniform_freq_bounds():
    y = AccumMatrix(np.zeros((4, 4), dtype=np.int32))
    full, events = inject_uniform(y, FaultConfig(mode="uniform", freq=16, mag=1, seed=0))
    assert np.all(full.data == 1) and len(events) == 16
    with pytest.raises(ValueError, match=r"^freq must be in \[0, n = 16\], got 17$"):
        inject_uniform(y, FaultConfig(mode="uniform", freq=17, mag=1, seed=0))


def test_uniform_noop_cases():
    y = make_output(15)
    same, events = inject_uniform(y, FaultConfig(mode="uniform", freq=0, mag=9, seed=0))
    assert same == y and events == []
    same, events = inject_uniform(y, FaultConfig(mode="uniform", freq=4, mag=0, seed=0))
    assert same == y and events == []


def test_uniform_wraps_int32():
    y = AccumMatrix(np.full((2, 2), 2**31 - 1, dtype=np.int32))
    corrupted, events = inject_uniform(y, FaultConfig(mode="uniform", freq=1, mag=1, seed=4))
    e = events[0]
    assert e.after == -(2**31)
    assert int(corrupted.data[e.row, e.col]) == -(2**31)
    assert int(np.count_nonzero(corrupted.data != y.data)) == 1


def test_mode_dispatch_guards():
    y = make_output(17)
    with pytest.raises(ValueError, match="mode"):
        sample_bitflips(y, FaultConfig(mode="uniform", freq=1, mag=1))
    with pytest.raises(ValueError, match="mode"):
        inject_uniform(y, FaultConfig(mode="ber", ber=0.1))


@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=0, max_value=64))
@settings(max_examples=50, deadline=None)
def test_uniform_position_selection_uniformity_props(seed, freq):
    y = AccumMatrix(np.zeros((8, 8), dtype=np.int32))
    corrupted, events = inject_uniform(y, FaultConfig(mode="uniform", freq=freq, mag=3, seed=seed))
    assert len(events) == freq
    assert len({(e.row, e.col) for e in events}) == freq
    expected = y.data.copy()
    expected[[e.row for e in events], [e.col for e in events]] = 3
    assert np.array_equal(corrupted.data, expected)


def test_uniform_positions_are_the_one_trial_draws_stacked():
    seeds = [0, 3, 2**64 - 1]
    positions = uniform_positions(seeds, 64, 9)
    assert positions.shape == (3, 9)
    y = AccumMatrix(np.zeros((8, 8), dtype=np.int32))
    for seed, row in zip(seeds, positions):
        _, events = inject_uniform(y, FaultConfig(mode="uniform", freq=9, mag=1, seed=seed))
        assert row.tolist() == [e.row * 8 + e.col for e in events]
    assert uniform_positions(seeds, 64, 0).shape == (3, 0)
    assert np.array_equal(uniform_positions(seeds, 64, 64), np.tile(np.arange(64), (3, 1)))
    with pytest.raises(ValueError, match=r"^freq must be in \[0, n = 64\], got 65$"):
        uniform_positions(seeds, 64, 65)
    with pytest.raises(ValueError, match=r"^freq must be in \[0, n = 64\], got -1$"):
        uniform_positions(seeds, 64, -1)


@pytest.mark.parametrize("freq, mag", [(0, 9), (4, 0), (5, 2**31 - 1), (12, 1)])
def test_stack_injection_equals_inject_uniform_per_trial(freq, mag):
    clean = np.stack([make_output(s).data[:3, :4] for s in range(4)])
    clean[0, 0, 0] = 2**31 - 1
    seeds = np.array([5, 6, 7, 8], dtype=np.uint64)
    record = uniform_corruption(seeds, 3, 4, lambda t, r, c: clean[t, r, c], freq, mag)
    out = record.apply(clean.copy())
    assert out.dtype == np.int32 and out.shape == clean.shape
    assert record.mask is None and record.trial.size == (freq if mag else 0) * len(seeds)
    for c, o, seed in zip(clean, out, seeds.tolist()):
        cfg = FaultConfig(mode="uniform", freq=freq, mag=mag, seed=seed)
        assert AccumMatrix(o) == inject_uniform(AccumMatrix(c), cfg)[0]


@pytest.mark.parametrize("n", [2, 255, 256, 257, DRAW_BLOCK + 1])
def test_uniform_positions_equal_an_argsort_reference(n):
    # rows go in blocks of max(1, DRAW_BLOCK // n): one block at n = 2,
    # several with a ragged last one at n = 255 to 257, one row each past DRAW_BLOCK
    seeds = derive_seed(n, np.arange(200))
    order = np.argsort(u64_stream(seeds[:, np.newaxis], n), axis=1)
    for rows in (1, 7, 200):
        for freq in sorted({1, n // 2, n - 1}):
            want = np.sort(order[:rows, :freq], axis=1)
            got = uniform_positions(seeds[:rows], n, freq)
            assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 255, 256, 257, DRAW_BLOCK + 1])
def test_position_sets_equal_uniform_positions_and_an_argsort_reference(n):
    # freq 0 and n draw nothing, and the freqs need not be sorted
    seeds = derive_seed(n, np.arange(200))
    order = np.argsort(u64_stream(seeds[:, np.newaxis], n), axis=1)
    freqs = list(dict.fromkeys([n - 1, 0, n // 2, n, 1]))
    for rows in (1, 7, 200):
        sets = list(uniform_position_sets(seeds[:rows], n, freqs))
        assert len(sets) == len(freqs)
        for freq, got in zip(freqs, sets):
            want = np.sort(order[:rows, :freq], axis=1)
            assert got.dtype == np.int64 and np.array_equal(got, want)
            assert np.array_equal(got, uniform_positions(seeds[:rows], n, freq))


def spy_draws(monkeypatch):
    """Log the rows of each ``faults.u64_stream`` call."""
    drawn = []

    def spy(seeds, *args):
        drawn.append(len(seeds))
        return u64_stream(seeds, *args)

    monkeypatch.setattr(faults, "u64_stream", spy)
    return drawn


@pytest.mark.parametrize("n", [2, 256, 257, DRAW_BLOCK + 1])
def test_position_sets_draw_each_row_block_once_for_every_freq(monkeypatch, n):
    drawn = spy_draws(monkeypatch)
    seeds = derive_seed(5, np.arange(100))
    freqs = sorted({1, n // 2, n - 1, n})
    sets = list(uniform_position_sets(seeds, n, freqs))
    step = max(1, DRAW_BLOCK // n)
    row_blocks = [min(step, 100 - start) for start in range(0, 100, step)]
    assert drawn == row_blocks
    assert [s.shape for s in sets] == [(100, f) for f in freqs]
    # a record is built from its positions with no further draw
    records = [uniform_record(positions, n, lambda t, r, c: c, 7) for positions in sets]
    assert drawn == row_blocks
    for record, positions in zip(records, sets):
        assert np.array_equal(record.element, positions.ravel())
        assert np.array_equal(record.after, positions.ravel() + 7)


def test_position_sets_refuse_every_freq_before_any_draw(monkeypatch):
    drawn = spy_draws(monkeypatch)
    sets = uniform_position_sets([0, 1], 64, [1, 65, 32])
    with pytest.raises(ValueError, match=r"^freq must be in \[0, n = 64\], got 65$"):
        next(sets)
    # freq 0 and n alone take no draw
    sets = list(uniform_position_sets([0, 1], 64, [64, 0]))
    assert drawn == [] and [s.shape for s in sets] == [(2, 64), (2, 0)]


@pytest.mark.parametrize("n", [2, 256, 257, DRAW_BLOCK + 1, 3 * DRAW_BLOCK])
def test_uniform_positions_draw_at_most_a_block_per_call(monkeypatch, n):
    drawn = []

    def spy(*args):
        out = u64_stream(*args)
        drawn.append(out.size)
        return out

    monkeypatch.setattr(faults, "u64_stream", spy)
    uniform_positions(derive_seed(3, np.arange(100)), n, n // 2)
    assert sum(drawn) == 100 * n and max(drawn) <= max(DRAW_BLOCK, n)


def test_wrap_int32_equals_the_modular_formula():
    # INT32 bounds and 2**32 off by one each way, every sum before + mag of
    # INT32 values, and every before ^ mask of an INT32 value and a uint32 mask
    edges = np.array([INT32_MIN, INT32_MIN + 1, -1, 0, 1, INT32_MAX - 1, INT32_MAX])
    masks = np.array([0, 1, 2**31 - 1, 2**31, 2**32 - 1], dtype=np.int64)
    values = np.concatenate([
        [INT32_MIN - 1, INT32_MAX + 1, -(2**32), 2**32, -(2**32) - 1, 2**32 + 1],
        (edges[:, np.newaxis] + edges).ravel(),
        (edges[:, np.newaxis] ^ masks).ravel(),
    ]).astype(np.int64)
    got = faults._wrap_int32(values)
    assert got.dtype == np.int64
    assert got.tolist() == [((v - INT32_MIN) % 2**32) + INT32_MIN for v in values.tolist()]


def test_apply_writes_every_entry_of_a_strided_stack_or_raises():
    seeds = np.arange(4, dtype=np.uint64)
    record = uniform_corruption(seeds, 6, 8, lambda t, r, c: t * 100 + r * 8 + c, 9, 1000)
    want = np.zeros((4, 6, 8), dtype=np.int32)
    for t, e, a in zip(record.trial, record.element, record.after):
        want[t, e // 8, e % 8] = a
    shapes = ((8, 6, 8), (4, 12, 8), (4, 6, 16), (8, 6, 4))
    trials2, rows2, cols2, transposed = (np.zeros(shape, dtype=np.int32) for shape in shapes)
    # (name, base, the stack inside it, whether its rows and columns are viewable flat)
    views = [
        ("every other trial", trials2, trials2[::2], True),
        ("every other row", rows2, rows2[:, ::2], False),
        # a row of every other column spans exactly one row stride: flat with step 2
        ("every other column", cols2, cols2[:, :, ::2], True),
        ("column-major", transposed, transposed.T, False),
    ]
    for name, base, stack, flat in views:
        try:
            out = record.apply(stack)
        except ValueError as e:
            assert not flat and "viewable flat" in str(e), name
            assert not base.any(), name
        else:
            assert flat and out is stack, name
            assert np.array_equal(stack, want) and np.count_nonzero(base) == np.count_nonzero(want)
    empty = uniform_corruption(seeds[:0], 6, 8, lambda t, r, c: t, 9, 1000)
    assert empty.apply(np.zeros((0, 6, 8), dtype=np.int32)).shape == (0, 6, 8)
    with pytest.raises(ValueError, match="stack shape"):
        record.apply(np.zeros((4, 8, 6), dtype=np.int32))
    with pytest.raises(ValueError, match="stack shape"):
        record.apply(np.zeros((3, 6, 8), dtype=np.int32))


# --- voltage/BER table -------------------------------------------------------


def test_table_validation():
    with pytest.raises(ValueError, match="descending"):
        VoltageBerTable(np.array([0.8, 0.9]), np.array([1e-9, 1e-6]))
    with pytest.raises(ValueError, match="non-decreasing"):
        VoltageBerTable(np.array([0.9, 0.8]), np.array([1e-6, 1e-9]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        VoltageBerTable(np.array([0.9, 0.8]), np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match=">= 2"):
        VoltageBerTable(np.array([0.9]), np.array([1e-9]))


def test_table_exact_rows_returned_verbatim():
    t = VoltageBerTable(np.array([0.9, 0.8, 0.7]), np.array([0.0, 1e-8, 1e-5]))
    assert t.ber_at(0.9) == 0.0
    assert t.ber_at(0.8) == 1e-8
    assert t.ber_at(0.7) == 1e-5


def test_table_rows_match_through_float_error_but_not_across_sweep_voltages():
    t = VoltageBerTable(np.array([0.9, 0.8, 0.7]), np.array([0.0, 1e-8, 1e-5]))
    # a voltage one ulp off a row, as float arithmetic leaves one, gets the row
    for v in (0.9, 0.8, 0.7):
        for off in (math.nextafter(v, 0.0), math.nextafter(v, 1.0)):
            assert t.ber_at(off) == float(t.bers[[0.9, 0.8, 0.7].index(v)])
    assert 0.7 + 0.1 != 0.8 and t.ber_at(0.7 + 0.1) == 1e-8
    # 1e-10 apart, as two distinct sweep voltages are, interpolates
    below = t.ber_at(0.8 - 1e-10)
    above = t.ber_at(0.8 + 1e-10)
    assert 1e-8 < below < 1e-5 and 0.0 < above < 1e-8
    assert below == pytest.approx(1e-8, rel=1e-6)
    with pytest.raises(ValueError, match="outside table span"):
        t.ber_at(0.9 + 1e-10)


def test_table_log_linear_interpolation():
    t = VoltageBerTable(np.array([0.9, 0.7]), np.array([1e-10, 1e-6]))
    mid = t.ber_at(0.8)
    assert mid == pytest.approx(1e-8, rel=1e-9)


def test_table_zero_row_floors_in_log_domain():
    t = VoltageBerTable(np.array([0.9, 0.8]), np.array([0.0, 1e-6]))
    mid = t.ber_at(0.85)
    assert 0.0 < mid < 1e-6


def test_table_out_of_span():
    t = default_table()
    with pytest.raises(ValueError, match="outside table span"):
        t.ber_at(0.95)
    with pytest.raises(ValueError, match="outside table span"):
        t.ber_at(0.55)


def test_default_table_endpoints_and_monotonicity():
    t = default_table()
    assert t.v_max == 0.9 and t.v_min == pytest.approx(0.6)
    assert t.ber_at(0.9) == pytest.approx(1e-12)
    assert t.ber_at(0.6) == pytest.approx(1e-4)
    vs = np.linspace(0.6, 0.9, 61)
    bers = [t.ber_at(float(v)) for v in vs]
    assert all(b1 >= b2 for b1, b2 in zip(bers, bers[1:]))


def test_table_csv_round_trip(tmp_path):
    t = default_table()
    p = tmp_path / "table.csv"
    rows = zip(t.voltages.tolist(), t.bers.tolist())
    p.write_text("voltage,ber\n" + "".join(f"{v!r},{b!r}\n" for v, b in rows))
    back = VoltageBerTable.from_csv(str(p))
    assert np.array_equal(back.voltages, t.voltages)
    assert np.array_equal(back.bers, t.bers)


def test_table_csv_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "table.csv"
    for text, match in (
        ("volts,ber\n0.9,1e-9\n0.8,1e-6\n", "line 1"),
        ("voltage,ber\n0.9,1e-9\n0.8\n", "line 3"),
        ("voltage,ber\n0.9,abc\n", "line 2"),
        ("voltage,ber\n0.9,1e-9\n", "2 data rows"),
    ):
        p.write_text(text)
        with pytest.raises(TableFormatError, match=match):
            VoltageBerTable.from_csv(str(p))


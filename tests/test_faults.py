import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statabft import faults
from statabft.faults import (
    FaultConfig,
    SparseFlips,
    TableFormatError,
    VoltageBerTable,
    apply_fault,
    checksum_diff,
    default_table,
    geometric_flips,
    inject_uniform,
    inject_uniform_stack,
    output_events,
    replay_events,
    sample_bitflips,
    uniform_positions,
)
from statabft.gemm import AccumMatrix, checksum, gemm, gemm_entries, predicted_output_checksum
from statabft.workloads import random_quant_matrix


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
    with pytest.raises(ValueError, match="freq"):
        FaultConfig(mode="uniform", freq=-1)
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
    idx, u = geometric_flips(17, n_bits, ber)
    monkeypatch.setattr(faults, "_SKIP_CHUNK", 1)
    idx1, u1 = geometric_flips(17, n_bits, ber)
    assert np.array_equal(idx, idx1) and np.array_equal(u, u1)
    assert np.all(np.diff(idx) > 0) and (idx.size == 0 or 0 <= idx[0] <= idx[-1] < n_bits)
    assert np.all((0.0 <= u) & (u < ber))


def test_geometric_flips_at_ber_zero_and_one():
    idx, u = geometric_flips(3, 1000, 0.0)
    assert idx.size == 0 and u.size == 0
    idx, u = geometric_flips(3, 1000, 1.0)
    assert np.array_equal(idx, np.arange(1000))
    assert np.all((0.0 <= u) & (u < 1.0))
    with pytest.raises(ValueError, match="ber"):
        geometric_flips(3, 1000, 1.5)


def test_geometric_flips_are_bernoulli_per_bit():
    # a flip count and its thinned share each within 5 standard deviations
    n_bits, ber = 200_000, 0.25
    idx, u = geometric_flips(29, n_bits, ber)
    sd = (n_bits * ber * (1 - ber)) ** 0.5
    assert abs(idx.size - n_bits * ber) < 5 * sd
    # bits are alike: every residue class of the index flips at the same rate
    per_class = np.bincount(idx % 7, minlength=7)
    assert np.all(np.abs(per_class - n_bits / 7 * ber) < 5 * sd / 7**0.5)
    kept = int(np.count_nonzero(u < ber / 2))
    assert abs(kept - idx.size / 2) < 5 * (idx.size / 4) ** 0.5


def test_sparse_flips_match_the_dense_sampler():
    w = random_quant_matrix(12, 40, "uniform", 5)
    x = random_quant_matrix(40, 9, "outlier", 6)
    clean = gemm(w, x)
    cfg = FaultConfig(mode="ber", ber=0.05, bit_window=(8, 31), seed=8)
    flips = SparseFlips.draw(w.rows, x.cols, partial(gemm_entries, w, x), cfg)
    corrupted, events = sample_bitflips(clean, cfg)
    # the clean value at each flipped element is the dense product's
    assert flips.clean.size and np.array_equal(flips.clean, clean.data.ravel()[flips.element])
    assert flips.events(cfg.ber) == events
    dense = predicted_output_checksum(w, x).data - checksum(corrupted, "row").data
    assert np.array_equal(checksum_diff(flips.events(cfg.ber), flips.n_cols), dense)
    assert np.array_equal(flips.diff(cfg.ber), dense[np.newaxis])
    assert not checksum_diff(flips.events(0.0), flips.n_cols).any()
    with pytest.raises(ValueError, match="ber"):
        flips.events(0.06)


def test_stacked_flips_give_each_trials_difference_row():
    # a sweep thins the flips of all its trials at once: row t of diff(ber) is
    # trial t's own checksum_diff at that ber, bit-31 flips that wrap included
    w = random_quant_matrix(9, 30, "outlier", 2)
    x = random_quant_matrix(30, 7, "uniform", 3)
    entries = partial(gemm_entries, w, x)
    cfg = FaultConfig(mode="ber", ber=0.04, bit_window=(0, 31))
    parts = [SparseFlips.draw(w.rows, x.cols, entries, replace(cfg, seed=s)) for s in range(5)]
    stream = SparseFlips.stack(parts)
    assert stream.n_trials == 5
    assert stream.trial.tolist() == [t for t, p in enumerate(parts) for _ in p.u]
    for ber in (0.04, 0.01, 0.001, 0.0):
        rows = [checksum_diff(p.events(ber), x.cols) for p in parts]
        assert np.array_equal(stream.diff(ber), np.array(rows))
    assert stream.diff(0.04).any() and not stream.diff(0.0).any()
    # on a one-element output every trial's flips hit the element the trial
    # before it ended on: the flips of two trials never merge into one element
    one = [
        SparseFlips.draw(1, 1, lambda rows, cols: np.full(rows.shape, 7), replace(cfg, seed=s, ber=0.5))
        for s in range(4)
    ]
    rows = [checksum_diff(p.events(0.5), 1) for p in one]
    assert all(r.any() for r in rows)
    assert np.array_equal(SparseFlips.stack(one).diff(0.5), np.array(rows))
    with pytest.raises(ValueError, match="5 trials"):
        stream.events(0.01)


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
        events = output_events(w.rows, x.cols, partial(gemm_entries, w, x), seeded)
        assert events and events == apply_fault(gemm(w, x), seeded)[1]


def test_event_log_replays_exactly():
    y = make_output(11)
    for cfg in (
        FaultConfig(mode="ber", ber=0.05, seed=3),
        FaultConfig(mode="uniform", freq=9, mag=-(1 << 18), seed=3),
        FaultConfig(mode="uniform", freq=64, mag=2**31 - 1, seed=3),
    ):
        corrupted, events = apply_fault(y, cfg)
        # the injectors replay their own log, so check it against numpy's XOR
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


def test_replay_rejects_mismatched_base():
    y = make_output(13)
    corrupted, events = inject_uniform(y, FaultConfig(mode="uniform", freq=3, mag=7, seed=1))
    other = AccumMatrix(y.data + 1)
    if events:
        with pytest.raises(ValueError, match="expects before"):
            replay_events(other, events)


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
    with pytest.raises(ValueError, match="exceeds"):
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
    assert replay_events(y, events) == corrupted


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
    assert replay_events(y, events) == corrupted


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
    with pytest.raises(ValueError, match="exceeds"):
        uniform_positions(seeds, 64, 65)
    with pytest.raises(ValueError, match=">= 0"):
        uniform_positions(seeds, 64, -1)


@pytest.mark.parametrize("freq, mag", [(0, 9), (4, 0), (5, 2**31 - 1), (12, 1)])
def test_stack_injection_equals_inject_uniform_per_trial(freq, mag):
    clean = np.stack([make_output(s).data[:3, :4] for s in range(4)])
    clean[0, 0, 0] = 2**31 - 1
    seeds = np.array([5, 6, 7, 8], dtype=np.uint64)
    out = inject_uniform_stack(clean, seeds, freq, mag)
    assert out.dtype == np.int32 and out.shape == clean.shape
    for c, o, seed in zip(clean, out, seeds.tolist()):
        cfg = FaultConfig(mode="uniform", freq=freq, mag=mag, seed=seed)
        assert AccumMatrix(o) == inject_uniform(AccumMatrix(c), cfg)[0]


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

import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from statabft import energy, workloads
from statabft.detectors import CriticalRegionParams, DetectorSpec
from statabft.energy import (
    EnergyConfig,
    SweepPoint,
    _trial_diffs,
    compare_detectors,
    compute_energy,
    energy_saving,
    latency_factor,
    sweep_detectors,
    total_energy,
    trial,
)
from statabft.faults import FaultConfig, VoltageBerTable, checksum_diff, output_events
from statabft.systolic import run_array
from statabft.workloads import WorkloadSpec, workload_matrices

P = CriticalRegionParams(a=2.0, b=40.0, theta_freq=4)
DETECTORS = (
    DetectorSpec(kind="none"),
    DetectorSpec(kind="classical"),
    DetectorSpec(kind="statistical", params=P),
    DetectorSpec(kind="dmr"),
)
SPEC = WorkloadSpec(m=8, k=16, n=8, gemm_count=16, seed=7)
# a sweep reads its fault's seed and bit window; the table gives each point's BER
BER = FaultConfig(mode="ber")
# a clean stream: BER 0 flips no bit
CLEAN = FaultConfig(mode="ber", ber=0.0)


def test_compute_energy_quadratic():
    cfg = EnergyConfig()
    assert compute_energy(0.9, 1000, cfg) == pytest.approx(1000.0)
    assert compute_energy(0.45, 1000, cfg) == pytest.approx(250.0)
    assert compute_energy(0.6, 900, cfg) == pytest.approx(900 * (0.6 / 0.9) ** 2)
    with pytest.raises(ValueError, match="voltage"):
        compute_energy(0.95, 1000, cfg)
    with pytest.raises(ValueError, match="voltage"):
        compute_energy(0.0, 1000, cfg)
    with pytest.raises(ValueError, match="n_mac"):
        compute_energy(0.8, 0, cfg)


def test_total_energy_per_detector():
    cfg = EnergyConfig()
    base = 1000 * (0.6 / 0.9) ** 2
    assert total_energy(0.6, 0.25, 1000, cfg, "none") == pytest.approx(base)
    assert total_energy(0.6, 0.25, 1000, cfg, "dmr") == pytest.approx(2 * base + 250.0)
    for kind in ("statistical", "classical", "msd"):
        assert total_energy(0.6, 0.25, 1000, cfg, kind) == pytest.approx(
            base * 1.0179 + 250.0
        )
    # recovery at nominal voltage costs full nominal energy per recovery
    assert total_energy(0.9, 1.0, 1000, cfg, "statistical") == pytest.approx(
        1000 * 1.0179 + 1000.0
    )
    with pytest.raises(ValueError, match="recovery_rate"):
        total_energy(0.6, 1.5, 1000, cfg)


def test_latency_factor():
    assert latency_factor(0.0) == 1.0
    assert latency_factor(0.25) == 1.25
    with pytest.raises(ValueError, match="recovery_rate"):
        latency_factor(-0.1)


def test_energy_config_validation():
    with pytest.raises(ValueError, match="v_nom"):
        EnergyConfig(v_nom=0.0)
    with pytest.raises(ValueError, match="e_mac_nom"):
        EnergyConfig(e_mac_nom=-1.0)
    with pytest.raises(ValueError, match="overheads"):
        EnergyConfig(detect_overhead=-0.01)
    cfg = EnergyConfig()
    assert cfg.detect_overhead == 0.0179
    assert cfg.v_nom == 0.9


def test_compare_clean_stream_never_recovers():
    rows = compare_detectors(replace(SPEC, gemm_count=6), DETECTORS, CLEAN)
    assert [r.detector for r in rows] == ["none", "classical", "statistical", "dmr"]
    for r in rows:
        assert r.trials == 6
        assert r.recovery_rate == 0.0
        assert r.undetected_critical_rate == 0.0
        assert r.mean_msd == 0.0


def test_compare_detector_ordering_under_faults():
    fault = FaultConfig(mode="ber", ber=0.004, seed=3)
    rows = {r.detector: r for r in compare_detectors(replace(SPEC, gemm_count=64), DETECTORS, fault)}
    # classical fires on any deviation, so it recovers at least as often as
    # the statistical rule; dmr makes identical decisions to classical
    assert rows["classical"].recovery_rate >= rows["statistical"].recovery_rate
    assert rows["dmr"].recovery_rate == rows["classical"].recovery_rate
    assert rows["none"].recovery_rate == 0.0
    assert rows["classical"].recovery_rate > 0.5
    # whatever is critical and missed by classical is also missed by none
    assert rows["none"].undetected_critical_rate >= rows["classical"].undetected_critical_rate
    assert rows["classical"].undetected_critical_rate == 0.0
    assert rows["classical"].mean_msd == rows["none"].mean_msd


def test_compare_is_deterministic_in_seed():
    spec, fault = replace(SPEC, gemm_count=12), FaultConfig(mode="ber", ber=0.002, seed=5)
    a = compare_detectors(spec, DETECTORS, fault)
    b = compare_detectors(spec, DETECTORS, fault)
    assert a == b
    c = compare_detectors(spec, DETECTORS, replace(fault, seed=6))
    assert [r.mean_msd for r in a] != [r.mean_msd for r in c]


def test_compare_rejects_duplicate_detectors():
    with pytest.raises(ValueError, match="unique"):
        compare_detectors(SPEC, [DetectorSpec(kind="none"), DetectorSpec(kind="none")], CLEAN)


def clean_point_table():
    # explicit zero-BER row at nominal: sweeping 0.9 V injects nothing
    return VoltageBerTable(voltages=(0.9, 0.6), bers=(0.0, 1e-4))


def test_sweep_exact_energies_at_clean_nominal_point():
    cfg = EnergyConfig(table=clean_point_table())
    res = sweep_detectors(replace(SPEC, gemm_count=4), DETECTORS, BER, [0.9], cfg)
    n_mac = SPEC.macs_per_gemm
    assert res["none"].points[0].energy_total == pytest.approx(n_mac)
    assert res["statistical"].points[0].energy_total == pytest.approx(n_mac * 1.0179)
    assert res["dmr"].points[0].energy_total == pytest.approx(2.0 * n_mac)
    for label, r in res.items():
        p = r.points[0]
        assert p.detector == label
        assert p.voltage == 0.9 and p.ber == 0.0
        assert p.recovery_rate == 0.0 and p.latency_factor == 1.0
        assert r.optimum == p


def test_sweep_points_follow_voltage_order_and_table():
    cfg = EnergyConfig(table=clean_point_table())
    voltages = [0.9, 0.75, 0.6]
    res = sweep_detectors(replace(SPEC, gemm_count=8), DETECTORS, replace(BER, seed=1), voltages, cfg)
    for r in res.values():
        assert [p.voltage for p in r.points] == voltages
        for p in r.points:
            assert p.ber == cfg.table.ber_at(p.voltage)
            assert p.latency_factor == 1.0 + p.recovery_rate
            expected = total_energy(
                p.voltage, p.recovery_rate, SPEC.macs_per_gemm, cfg, p.detector
            )
            assert p.energy_total == pytest.approx(expected)
        assert r.optimum in r.points
        best = min(r.points, key=lambda p: (p.energy_total, -p.voltage))
        assert r.optimum == best


def test_sweep_deterministic_and_thread_invariant(monkeypatch):
    # the sweep scores its voltages serially: it starts no thread at all
    def start(self):
        raise AssertionError("sweep_detectors started a thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    cfg = EnergyConfig(table=clean_point_table())
    voltages = [0.9, 0.8, 0.7, 0.6]
    fault = replace(BER, seed=9)
    spec = replace(SPEC, gemm_count=6)
    first = sweep_detectors(spec, DETECTORS, fault, voltages, cfg)
    assert sweep_detectors(spec, DETECTORS, fault, voltages, cfg) == first


@pytest.mark.parametrize("block_lanes", [1, 3 * SPEC.n])
def test_scoring_in_row_blocks_changes_no_result(monkeypatch, block_lanes):
    # one-row blocks, and three-row blocks with a ragged last one, against one block
    fault = FaultConfig(mode="ber", ber=4e-3, bit_window=(12, 31), seed=4)
    spec = replace(SPEC, gemm_count=40)
    table = VoltageBerTable(voltages=(0.9, 0.6), bers=(1e-6, 4e-3))
    run = lambda: (
        compare_detectors(spec, DETECTORS, fault),
        sweep_detectors(spec, DETECTORS, fault, [0.9, 0.75, 0.6], EnergyConfig(table=table)),
    )
    whole = run()
    assert 0.0 < whole[0][2].recovery_rate < 1.0 and whole[0][0].mean_msd > 0.0
    blocks = []
    real = energy.row_msd

    def spy(diffs):
        blocks.append(len(diffs))
        return real(diffs)

    monkeypatch.setattr(energy, "BLOCK_LANES", block_lanes)
    monkeypatch.setattr(energy, "row_msd", spy)
    assert run() == whole
    per_stream = [1] * 40 if block_lanes == 1 else [3] * 13 + [1]
    assert blocks == per_stream * 4  # compare, then the sweep's three voltages


def test_sweep_input_validation():
    spec = replace(SPEC, gemm_count=2)
    with pytest.raises(ValueError, match="voltage"):
        sweep_detectors(spec, DETECTORS, BER, [])
    # the BER comes from the table, so a uniform fault has no place in a sweep
    uniform = FaultConfig(mode="uniform", freq=1, mag=1)
    with pytest.raises(ValueError, match="^fault.mode: sweep draws BER faults"):
        sweep_detectors(spec, DETECTORS, uniform, [0.9])


def test_energy_saving_fraction():
    def result_with_energy(e):
        p = SweepPoint(
            voltage=0.8,
            ber=0.0,
            recovery_rate=0.0,
            energy_total=e,
            latency_factor=1.0,
            quality_proxy=0.0,
            detector="statistical",
        )
        from statabft.energy import SweepResult

        return SweepResult(detector="statistical", points=(p,), optimum=p)

    assert energy_saving(result_with_energy(60.0), result_with_energy(100.0)) == pytest.approx(0.4)
    assert energy_saving(result_with_energy(100.0), result_with_energy(100.0)) == 0.0


def test_statistical_energy_never_exceeds_classical():
    # statistical recoveries are a subset of classical ones on every trial,
    # so at equal voltage the statistical expected energy is never higher
    res = sweep_detectors(
        replace(SPEC, gemm_count=48),
        (DetectorSpec(kind="classical"), DetectorSpec(kind="statistical", params=P)),
        replace(BER, seed=11),
        [0.70, 0.66, 0.62],
        EnergyConfig(),
    )
    for pc, ps in zip(res["classical"].points, res["statistical"].points):
        assert ps.recovery_rate <= pc.recovery_rate
        assert ps.energy_total <= pc.energy_total + 1e-12


def test_sweep_point_at_top_ber_equals_compare_at_that_ber():
    # the sweep samples each trial's flips at its highest BER with compare's
    # per-trial fault seed, so that point scores exactly compare's evidence
    table = VoltageBerTable(voltages=(0.9, 0.6), bers=(1e-6, 4e-3))
    fault = FaultConfig(mode="ber", ber=table.ber_at(0.6), bit_window=(12, 31), seed=4)
    spec = replace(SPEC, gemm_count=40)
    res = sweep_detectors(spec, DETECTORS, fault, [0.9, 0.75, 0.6], EnergyConfig(table=table))
    rows = compare_detectors(spec, DETECTORS, fault)
    # not degenerate: statistical recovers some trials, none misses critical ones
    assert 0.0 < rows[2].recovery_rate < 1.0 and rows[0].undetected_critical_rate > 0.0
    for row in rows:
        top = res[row.detector].points[-1]
        assert top.ber == fault.ber
        assert top.recovery_rate == row.recovery_rate
        assert top.quality_proxy == row.undetected_critical_rate


@pytest.mark.parametrize(
    "fault",
    [
        FaultConfig(mode="ber", ber=2e-3),
        FaultConfig(mode="ber", ber=2e-2, bit_window=(0, 31)),
        FaultConfig(mode="uniform", freq=5, mag=70000),
        FaultConfig(mode="uniform", freq=SPEC.m * SPEC.n, mag=2**31 - 1),
        CLEAN,
    ],
    ids=["ber-16-31", "ber-0-31", "uniform", "uniform-all-wrap", "clean"],
)
def test_compare_evidence_equals_the_dense_oracle(fault):
    # compare scores each trial from its fault log alone; the dense run_array,
    # given the same per-trial fault seed, corrupts the whole product
    fault = replace(fault, seed=3)
    diffs = _trial_diffs(SPEC, fault)
    assert diffs.shape == (SPEC.gemm_count, SPEC.n)
    wrapped = 0
    for t, diff in enumerate(diffs):
        w, x = workload_matrices(SPEC, t)
        _, seeded = trial(SPEC, fault, t)
        sim = run_array(w, x, fault=seeded)
        assert np.array_equal(diff, sim.predicted.data - sim.observed.data)
        events = list(sim.events)
        assert np.array_equal(checksum_diff(events, x.cols), diff)
        if seeded.mode == "uniform":
            wrapped += sum(e.after - e.before != seeded.mag for e in events)
    assert diffs.any() == (fault != replace(CLEAN, seed=3))
    if fault.mag == 2**31 - 1:
        assert wrapped > 0  # the INT32 wrap is exercised


def test_compare_with_every_element_corrupted_runs_in_bounded_memory():
    # uniform faults on all m*n elements need m*n clean values; gathered at
    # once, their int64 operand rows and columns would take 2*m*n*k*8 bytes
    m, k, n = 48, 2048, 48
    fault = FaultConfig(mode="uniform", freq=m * n, mag=3)
    tracemalloc.start()
    try:
        rows = compare_detectors(WorkloadSpec(m=m, k=k, n=n, gemm_count=2), DETECTORS, fault)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * m * n * k * 8 / 4
    assert rows[0].mean_msd == m * n * 3 and rows[1].recovery_rate == 1.0


def test_compare_draws_only_the_operand_rows_and_columns_its_faults_read(monkeypatch):
    # compare_deep's shape and BER: a trial draws k values per W row and per X
    # column that its corrupted elements read, and a trial without flips none
    m, k, n, trials = 64, 4096, 64, 8
    spec = WorkloadSpec(m=m, k=k, n=n, gemm_count=trials, distribution="outlier")
    fault = FaultConfig(mode="ber", ber=1e-5, seed=5)
    draws = []
    real = workloads.u64_at

    def spy(seed, idx):
        draws.append(idx.size)
        return real(seed, idx)

    def zeros(rows, cols):
        return np.zeros(len(rows), dtype=np.int64)

    monkeypatch.setattr(workloads, "u64_at", spy)
    diffs = _trial_diffs(spec, fault)
    touched = []
    for t in range(trials):
        # where BER flips land does not depend on the clean values
        events = output_events(m, n, zeros, trial(spec, fault, t)[1])
        touched.append(({e.row for e in events}, {e.col for e in events}))
    flipped = [(r, c) for r, c in touched if r]
    assert 0 < len(flipped) < trials  # both kinds of trial occur
    assert len(draws) == 2 * len(flipped)
    assert sum(draws) == sum(len(r) * k + k * len(c) for r, c in flipped)
    assert sum(draws) < m * k
    assert len(diffs) == trials

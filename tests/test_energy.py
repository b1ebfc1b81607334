import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from statabft import energy, faults, rng, workloads
from statabft.config import ExperimentConfig
from statabft.detectors import (
    STATISTICAL_KINDS,
    ChecksumPair,
    CriticalRegionParams,
    DetectorSpec,
    RowDecisions,
)
from statabft.energy import (
    EnergyConfig,
    SweepPoint,
    compare_detectors,
    compute_energy,
    energy_saving,
    latency_factor,
    stream,
    sweep_detectors,
    total_energy,
)
from statabft.faults import FaultConfig, VoltageBerTable, corruption
from statabft.gemm import AccumMatrix
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


def _seeded(spec, fault, t):
    """``fault`` on trial t's own seed, as the dense oracle ``run_array`` takes it."""
    return replace(fault, seed=int(stream(spec, fault, [t])[1][0]))


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
        total_energy(0.6, 1.5, 1000, cfg, "statistical")


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


def _own_flips(spec, fault, top):
    """Each trial's flips at ``top``, drawn alone on the seed ``stream`` gives it."""
    return [
        faults.SparseFlips.draw(spec.m, spec.n, *stream(spec, fault, [t]), fault.bit_window, top)
        for t in range(spec.gemm_count)
    ]


def _touched(spec, fault, top, bers):
    """(trials x BERs) bools: whether each trial's own flips, thinned to each BER, corrupt it."""
    return np.array([[f.at(ber).diff().any() for ber in bers] for f in _own_flips(spec, fault, top)])


def _spy_decide(monkeypatch):
    """The (kind, rows) of every ``DetectorSpec.decide`` call from here on."""
    calls = []
    real = DetectorSpec.decide

    def spy(self, diffs):
        calls.append((self.kind, len(diffs)))
        return real(self, diffs)

    monkeypatch.setattr(DetectorSpec, "decide", spy)
    return calls


# a 40-GEMM stream at five voltages where some (voltage, trial) rows stay clean
BLOCKED = FaultConfig(mode="ber", ber=4e-3, bit_window=(12, 31), seed=4)
BLOCKED_SPEC = replace(SPEC, gemm_count=40)
BLOCKED_TABLE = EnergyConfig(table=VoltageBerTable(voltages=(0.9, 0.6), bers=(1e-6, 4e-3)))
BLOCKED_VOLTAGES = [0.9, 0.75, 0.7, 0.65, 0.6]


def _blocked_touched():
    bers = [BLOCKED_TABLE.table.ber_at(v) for v in BLOCKED_VOLTAGES]
    return _touched(BLOCKED_SPEC, BLOCKED, BLOCKED.ber, bers)


@pytest.mark.parametrize("trials", [1, 3])
def test_scoring_in_row_blocks_changes_no_result(monkeypatch, trials):
    # sweep blocks of one trial, and of three with a ragged last one, against one block
    spec, voltages = BLOCKED_SPEC, BLOCKED_VOLTAGES
    run = lambda: (
        compare_detectors(spec, DETECTORS, BLOCKED),
        sweep_detectors(spec, DETECTORS, BLOCKED, voltages, BLOCKED_TABLE),
    )
    whole = run()
    assert 0.0 < whole[0][2].recovery_rate < 1.0 and whole[0][0].mean_msd > 0.0
    touched = _blocked_touched()
    assert touched.sum() < touched.size  # untouched rows to skip
    block_lanes = trials * len(voltages) * spec.n
    monkeypatch.setattr(energy, "BLOCK_LANES", block_lanes)
    calls = _spy_decide(monkeypatch)
    assert run() == whole
    # a block of max(1, BLOCK_LANES // (n * BERs)) trials is one call per
    # distinct spec over its touched rows of every BER (the critical-region
    # rule is the statistical detector, so it adds no call), and its rows
    # hold at most BLOCK_LANES lanes
    kinds = [d.kind for d in DETECTORS]
    expected = []
    for block, column in ((len(voltages) * trials, touched[:, -1]), (trials, touched)):
        sizes = [int(column[start : start + block].sum()) for start in range(0, spec.gemm_count, block)]
        expected += [(kind, size) for size in sizes if size for kind in kinds]
    assert calls == expected
    assert max(rows for _, rows in calls) * spec.n <= block_lanes
    assert any(touched[start : start + trials].any(axis=0).sum() > 1 for start in range(0, 40, trials))


@pytest.mark.parametrize("trials", [40, 1])
def test_evidence_yields_each_touched_row_once_at_its_ber(monkeypatch, trials):
    # the 40 BLOCKED trials in one block, and in one-trial blocks
    bers = [BLOCKED_TABLE.table.ber_at(v) for v in BLOCKED_VOLTAGES]
    if trials == 1:
        monkeypatch.setattr(energy, "BLOCK_LANES", len(bers) * BLOCKED_SPEC.n)
    yielded = np.zeros(len(bers), dtype=np.int64)
    for level, diffs, decisions, critical in energy._evidence(BLOCKED_SPEC, DETECTORS, BLOCKED, bers):
        assert diffs.any(axis=1).all()
        assert len(level) == len(diffs) == len(critical)
        assert [len(d.recovers) for d in decisions] == [len(diffs)] * len(DETECTORS)
        yielded += np.bincount(level, minlength=len(bers))
    assert yielded.tolist() == _blocked_touched().sum(axis=0).tolist()


def test_a_stream_shorter_than_a_block_is_thinned_in_one_call():
    # the 40 BLOCKED trials expect about 272 flips over all five BERs, far
    # below _RECORD_BLOCK: BER runs are sized by the block's 40 trials, not
    # by the thousands a full block would hold, so one call covers every BER
    bers = [BLOCKED_TABLE.table.ber_at(v) for v in BLOCKED_VOLTAGES]
    calls = list(energy._evidence(BLOCKED_SPEC, DETECTORS, BLOCKED, bers))
    assert len(calls) == 1
    assert calls[0][0].tolist() == np.repeat(np.arange(len(bers)), _blocked_touched().sum(axis=0)).tolist()


def test_each_bers_msd_sum_adds_its_rows_one_after_another_in_trial_order(monkeypatch):
    # 2**53 then sixteen 1s: added one after another, each 1 is lost (2**53 + 1
    # is a tie and rounds to the even 2**53), where a pairwise or an exact sum
    # keeps some of them
    msds = [2**53] + [1] * 16
    total = 0.0
    for msd in msds:
        total += msd
    assert total == 2**53 and math.fsum(msds) != total and np.sum(np.array(msds, float)) != total

    def two_blocks(spec, detectors, fault, bers):
        # both BERs' rows in each of two blocks, split after the tenth trial
        for lo, hi in ((0, 10), (10, len(msds))):
            level = np.repeat([0, 1], hi - lo)
            rows = len(level)
            decision = RowDecisions(
                np.array(msds[lo:hi] * 2, dtype=np.int64),
                np.zeros(rows),
                np.zeros(rows, dtype=np.int64),
                np.zeros(rows, dtype=bool),
            )
            yield level, np.zeros((rows, spec.n), dtype=np.int64), [decision] * len(detectors), decision.recovers

    monkeypatch.setattr(energy, "_evidence", two_blocks)
    n = len(msds)
    rows = energy._score_stream(replace(SPEC, gemm_count=n), DETECTORS, BER, [1e-6, 1e-5])
    assert [[r.mean_msd for r in per_ber] for per_ber in rows] == [[total / n] * len(DETECTORS)] * 2
    assert all(type(r.mean_msd) is float for per_ber in rows for r in per_ber)


def test_compare_and_sweep_each_reach_the_scorer_once_through_the_module(monkeypatch):
    # the benchmark's tracer patches energy._score_stream by name
    calls = []
    real = energy._score_stream

    def counting(*args):
        calls.append(args[3])
        return real(*args)

    monkeypatch.setattr(energy, "_score_stream", counting)
    compare_detectors(SPEC, DETECTORS, BLOCKED)
    assert len(calls) == 1
    sweep_detectors(SPEC, DETECTORS, BER, BLOCKED_VOLTAGES, BLOCKED_TABLE)
    assert len(calls) == 2 and len(calls[1]) == len(BLOCKED_VOLTAGES)


def test_default_sweep_decides_its_touched_rows_in_one_call_per_detector(monkeypatch):
    # 200 GEMMs at the default table's 16 BERs expect about 1,850 flips in
    # all, so every BER is thinned in one run of one block: one decide call
    # per detector on the 491 (voltage, GEMM) rows a fault touched at seed 0
    cfg = ExperimentConfig()
    calls = _spy_decide(monkeypatch)
    sweep_detectors(cfg.workload, cfg.detector_specs(), cfg.fault, cfg.voltages(), cfg.energy)
    assert calls == [(d.kind, 491) for d in cfg.detector_specs()] and len(calls) == 4


def test_a_trials_rows_past_the_lane_bound_take_several_calls(monkeypatch):
    # when BLOCK_LANES holds two BERs' rows of a trial, a one-trial block
    # thins to the five BERs two at a time: one call per spec per group, each
    # within the bound, and the same result
    whole = sweep_detectors(BLOCKED_SPEC, DETECTORS, BLOCKED, BLOCKED_VOLTAGES, BLOCKED_TABLE)
    touched = _blocked_touched()
    monkeypatch.setattr(energy, "BLOCK_LANES", 2 * BLOCKED_SPEC.n)
    calls = _spy_decide(monkeypatch)
    assert sweep_detectors(BLOCKED_SPEC, DETECTORS, BLOCKED, BLOCKED_VOLTAGES, BLOCKED_TABLE) == whole
    sizes = [int(row[lo : lo + 2].sum()) for row in touched for lo in (0, 2, 4)]
    assert calls == [(d.kind, size) for size in sizes if size for d in DETECTORS]
    assert max(rows for _, rows in calls) == 2


@pytest.mark.parametrize("msd_threshold", [0, 2**20])
def test_default_sweep_decides_once_per_distinct_spec(monkeypatch, msd_threshold):
    # the default 200 GEMMs are one block: one decision per spec over the
    # nonzero difference rows of all 16 voltages, a small share of 3,200; the
    # critical-region rule is the statistical detector whatever msd_threshold
    # the detectors share (a config's detector.msd_threshold sets it for all)
    detectors = [replace(d, msd_threshold=msd_threshold) for d in DETECTORS]
    table = EnergyConfig().table
    touched = _touched(WorkloadSpec(), BER, max(table.bers), table.bers)
    calls = _spy_decide(monkeypatch)
    sweep_detectors(WorkloadSpec(), detectors, BER, table.voltages, EnergyConfig())
    assert calls == [(d.kind, touched.sum()) for d in DETECTORS]
    assert 0 < touched.sum() < touched.size / 5 and not touched.any(axis=0).all()


def _per_trial_rows(detectors, diffs):
    """CompareRows counted trial by trial with ``DetectorSpec.evaluate`` on each dense row."""
    statistical = [d for d in detectors if d.kind in STATISTICAL_KINDS]
    rule = DetectorSpec(kind="statistical", params=statistical[0].params) if statistical else None
    tally = {d.kind: [0, 0, 0] for d in detectors}
    msd_sum = 0.0
    for diff in diffs:
        pair = ChecksumPair.from_diff(diff)
        critical = rule is not None and rule.evaluate(pair).recovers
        for d in detectors:
            decision = d.evaluate(pair)
            counts = tally[d.kind]
            counts[0] += decision.recovers
            counts[1] += critical and not decision.recovers
            counts[2] += decision.freq_eff
        msd_sum += float(pair.msd())
    n = len(diffs)
    return [
        energy.CompareRow(kind, n, rec / n, missed / n, freq / n, msd_sum / n)
        for kind, (rec, missed, freq) in tally.items()
    ]


# the LZC datapath and the float rule disagree on some trials under these params
LZC_P = CriticalRegionParams(a=2.0, b=32.0, theta_freq=0)
LZC_FIRST = (
    DetectorSpec(kind="none"),
    DetectorSpec(kind="statistical_lzc", params=LZC_P),
    DetectorSpec(kind="classical"),
    DetectorSpec(kind="statistical", params=LZC_P),
    DetectorSpec(kind="msd", msd_threshold=2**20),
)


@pytest.mark.parametrize(
    "fault, detectors",
    [
        (FaultConfig(mode="ber", ber=4e-3, bit_window=(12, 31), seed=4), DETECTORS),
        (FaultConfig(mode="ber", ber=2e-3, bit_window=(0, 31), seed=2), LZC_FIRST),
        (FaultConfig(mode="uniform", freq=5, mag=70000, seed=1), LZC_FIRST),
        (FaultConfig(mode="uniform", freq=0, mag=70000), DETECTORS),
        (FaultConfig(mode="uniform", freq=5, mag=0), LZC_FIRST),
        (FaultConfig(mode="ber", ber=4e-3, seed=4), ()),
    ],
    ids=["ber", "ber-lzc-first", "uniform-lzc-first", "freq-0", "mag-0", "no-detectors"],
)
def test_compare_equals_a_per_trial_reference(fault, detectors):
    # every trial, untouched ones included, decided alone on its dense difference row
    spec = replace(SPEC, gemm_count=64)
    diffs = [corruption(spec.m, spec.n, *stream(spec, fault, [t]), fault).diff()[0] for t in range(64)]
    assert compare_detectors(spec, detectors, fault) == _per_trial_rows(detectors, diffs)


@pytest.mark.parametrize("detectors", [DETECTORS, LZC_FIRST], ids=["stock", "lzc-first"])
def test_sweep_equals_a_per_trial_reference(detectors):
    # a sweep where most (trial, voltage) rows stay clean: each trial's own
    # draw at the top BER, thinned to each voltage, decided trial by trial
    spec = replace(SPEC, gemm_count=32)
    fault = FaultConfig(mode="ber", bit_window=(12, 31), seed=6)
    table = VoltageBerTable(voltages=(0.9, 0.6), bers=(1e-7, 3e-3))
    voltages = [0.9, 0.8, 0.7, 0.65, 0.6]
    bers = [table.ber_at(v) for v in voltages]
    res = sweep_detectors(spec, detectors, fault, voltages, EnergyConfig(table=table))
    flips = _own_flips(spec, fault, max(bers))
    touched = np.array([[f.at(ber).diff().any() for ber in bers] for f in flips])
    assert 0 < touched.sum() < touched.size / 2 and not touched[:, 0].any()
    for j, ber in enumerate(bers):
        for row in _per_trial_rows(detectors, [f.at(ber).diff()[0] for f in flips]):
            point = res[row.detector].points[j]
            assert (point.recovery_rate, point.quality_proxy) == (
                row.recovery_rate,
                row.undetected_critical_rate,
            )


def test_sweep_input_validation():
    spec = replace(SPEC, gemm_count=2)
    with pytest.raises(ValueError, match="voltage"):
        sweep_detectors(spec, DETECTORS, BER, [], EnergyConfig())
    # the BER comes from the table, so a uniform fault has no place in a sweep
    uniform = FaultConfig(mode="uniform", freq=1, mag=1)
    with pytest.raises(ValueError, match="^fault.mode: sweep draws BER faults"):
        sweep_detectors(spec, DETECTORS, uniform, [0.9], EnergyConfig())


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
        FaultConfig(mode="uniform", freq=SPEC.m * SPEC.n, mag=-3),
        FaultConfig(mode="uniform", freq=0, mag=70000),
        FaultConfig(mode="uniform", freq=5, mag=0),
        CLEAN,
    ],
    ids=["ber-16-31", "ber-0-31", "uniform", "uniform-all-wrap", "uniform-all", "freq-0", "mag-0", "clean"],
)
def test_compare_evidence_equals_the_dense_oracle(fault):
    # compare scores each trial from its corruption record alone; the dense
    # run_array, given the same per-trial fault seed, corrupts the whole product
    fault = replace(fault, seed=3)
    diffs = corruption(SPEC.m, SPEC.n, *stream(SPEC, fault, range(SPEC.gemm_count)), fault).diff()
    assert diffs.shape == (SPEC.gemm_count, SPEC.n)
    wrapped = 0
    for t, diff in enumerate(diffs):
        w, x = workload_matrices(SPEC, t)
        seeded = _seeded(SPEC, fault, t)
        sim = run_array(w, x, fault=seeded)
        assert np.array_equal(diff, sim.predicted.data - sim.observed.data)
        events = list(sim.events)
        assert corruption(SPEC.m, SPEC.n, *stream(SPEC, fault, [t]), fault).events() == events
        if seeded.mode == "uniform":
            wrapped += sum(e.after - e.before != seeded.mag for e in events)
    idle = (fault.ber if fault.mode == "ber" else fault.freq * fault.mag) == 0
    assert diffs.any() != idle
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


def test_sweep_memory_does_not_grow_with_the_stream():
    # a steep table flips about 1,300 bits per default GEMM at its top BER; the
    # sweep draws and scores them one bounded block of trials at a time
    steep = EnergyConfig(table=VoltageBerTable(voltages=(0.9, 0.6), bers=(1e-9, 0.02)))
    peaks = []
    for gemm_count in (200, 1000):
        tracemalloc.start()
        try:
            sweep_detectors(WorkloadSpec(gemm_count=gemm_count), DETECTORS, BER, [0.9, 0.6], steep)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_sweep_memory_does_not_grow_with_the_voltage_count():
    # a block's flips are thinned to its BERs a run at a time, each run's
    # record about _RECORD_BLOCK elements, so 301 voltages hold no more than 16
    steep = EnergyConfig(table=VoltageBerTable(voltages=(0.9, 0.6), bers=(1e-9, 0.02)))
    peaks = []
    for step, count in ((0.02, 16), (0.001, 301)):
        voltages = [round(0.9 - i * step, 10) for i in range(count)]
        assert voltages[-1] == 0.6
        tracemalloc.start()
        try:
            sweep_detectors(WorkloadSpec(gemm_count=400), DETECTORS, BER, voltages, steep)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_compare_draws_only_the_operand_rows_and_columns_its_faults_read(monkeypatch):
    # compare_deep's shape and BER: a trial draws k values per W row and per X
    # column that its corrupted elements read, and a trial without flips none
    m, k, n, trials = 64, 4096, 64, 8
    spec = WorkloadSpec(m=m, k=k, n=n, gemm_count=trials, distribution="outlier")
    fault = FaultConfig(mode="ber", ber=1e-5, seed=5)
    draws = []
    real = workloads.u64_at

    def spy(seed, idx):
        # the values drawn: the seeds and indices broadcast together
        drawn = real(seed, idx)
        draws.append(drawn.size)
        return drawn

    def zeros(trials, rows, cols):
        return np.zeros(len(rows), dtype=np.int64)

    monkeypatch.setattr(workloads, "u64_at", spy)
    diffs = corruption(m, n, *stream(spec, fault, range(trials)), fault).diff()
    # where BER flips land does not depend on the clean values
    record = corruption(m, n, zeros, stream(spec, fault, range(trials))[1], fault)
    touched = []
    for t in range(trials):
        rows, cols = np.divmod(record.element[record.trial == t], n)
        touched.append((set(rows.tolist()), set(cols.tolist())))
    flipped = [(r, c) for r, c in touched if r]
    assert 0 < len(flipped) < trials  # both kinds of trial occur
    # each (trial, row) and (trial, column) drawn once, in blocks of at most DRAW_BLOCK values
    assert sum(draws) == sum(len(r) * k + k * len(c) for r, c in flipped)
    assert sum(draws) < m * k and max(draws) <= rng.DRAW_BLOCK
    assert len(diffs) == trials


def test_compare_and_sweep_build_no_error_event(monkeypatch):
    # both score Corruption.diff() straight from arrays; an ErrorEvent per
    # corrupted element is for inject and the dense injectors only
    def no_events(*args, **kwargs):
        raise AssertionError("an ErrorEvent was built")

    monkeypatch.setattr(faults, "ErrorEvent", no_events)
    zeros = AccumMatrix(np.zeros((2, 2), dtype=np.int32))
    with pytest.raises(AssertionError, match="ErrorEvent"):
        faults.apply_fault(zeros, FaultConfig(mode="uniform", freq=1, mag=1))
    for fault in (FaultConfig(mode="ber", ber=2e-2), FaultConfig(mode="uniform", freq=5, mag=70000)):
        assert compare_detectors(SPEC, DETECTORS, fault)[1].recovery_rate > 0
    table = VoltageBerTable(voltages=(0.9, 0.6), bers=(1e-6, 4e-3))
    res = sweep_detectors(SPEC, DETECTORS, BER, [0.9, 0.6], EnergyConfig(table=table))
    assert res["classical"].points[-1].recovery_rate > 0


# a stream whose trials draw past the first 64-flip chunk: 8 * 8 * 32 bits at 0.05
DEEP = FaultConfig(mode="ber", ber=0.05, bit_window=(0, 31), seed=6)
UNIFORM = FaultConfig(mode="uniform", freq=9, mag=2**31 - 1, seed=6)
STEEP = EnergyConfig(table=VoltageBerTable(voltages=(0.9, 0.6), bers=(1e-6, 0.05)))


def _stream_results(spec):
    return (
        sweep_detectors(spec, DETECTORS, DEEP, [0.9, 0.7, 0.6], STEEP),
        compare_detectors(spec, DETECTORS, DEEP),
        compare_detectors(spec, DETECTORS, UNIFORM),
        faults.SparseFlips.draw(
            spec.m, spec.n, *stream(spec, DEEP, range(spec.gemm_count)), DEEP.bit_window, DEEP.ber
        ),
    )


@pytest.mark.parametrize("block", [1, 2**40])
def test_draw_block_size_changes_no_result(monkeypatch, block):
    # one-row blocks (one trial per scoring block), and one block for the
    # whole stream, give the same flips and scores
    *scores, flips = _stream_results(SPEC)
    assert np.bincount(flips.trial).max() > faults._SKIP_CHUNK  # some trial draws a second chunk
    monkeypatch.setattr(faults, "DRAW_BLOCK", block)
    monkeypatch.setattr(workloads, "DRAW_BLOCK", block)
    monkeypatch.setattr(energy, "_RECORD_BLOCK", block)
    *got, got_flips = _stream_results(SPEC)
    assert got == scores
    for name in ("trial", "element", "mask", "u", "clean"):
        assert np.array_equal(getattr(got_flips, name), getattr(flips, name)), name
    # a sweep draws one SparseFlips per block: one per trial at one-element records
    draws = []
    real = faults.SparseFlips.draw.__func__

    def spy(cls, n_rows, n_cols, entries, seeds, *args):
        draws.append(len(seeds))
        return real(cls, n_rows, n_cols, entries, seeds, *args)

    monkeypatch.setattr(faults.SparseFlips, "draw", classmethod(spy))
    assert sweep_detectors(SPEC, DETECTORS, DEEP, [0.9, 0.7, 0.6], STEEP) == scores[0]
    assert draws == ([1] * SPEC.gemm_count if block == 1 else [SPEC.gemm_count])


def test_draw_calls_do_not_grow_with_the_stream(monkeypatch):
    # a block of trials is drawn in one call, and a short stream is one block:
    # no per-GEMM workload_entries or scalar derive_seed call can come back
    calls = {"entries": 0, "scalar seeds": 0}

    def counting(real, key, scalar_only=False):
        def spy(*args):
            if not scalar_only or not any(isinstance(a, np.ndarray) for a in args):
                calls[key] += 1
            return real(*args)

        return spy

    monkeypatch.setattr(energy, "workload_entries", counting(workloads.workload_entries, "entries"))
    for module in (energy, workloads):
        monkeypatch.setattr(module, "derive_seed", counting(rng.derive_seed, "scalar seeds", True))
    counts = []
    for gemm_count in (4, 64):
        calls.update(dict.fromkeys(calls, 0))
        _stream_results(replace(SPEC, gemm_count=gemm_count))
        counts.append(dict(calls))
    assert counts[0] == counts[1] and counts[0]["entries"] > 0

"""Energy accounting for undervolted GEMMs and detector comparison sweeps.

Compute energy scales quadratically with supply voltage:

    compute(v) = n_mac * e_mac_nom * (v / v_nom)**2

Checksum detectors add a fixed fractional power overhead on top of compute;
every triggered recovery costs one full recomputation at nominal voltage:

    total(v) = compute(v) * (1 + detect_overhead) + recovery_rate * compute(v_nom)

The "none" baseline pays neither overhead nor recovery; the DMR baseline
pays compute twice (dual execution) plus the same recovery term. Expected
latency stretches by the recovery rate: latency_factor = 1 + recovery_rate.

A voltage sweep runs the same GEMM stream at every operating point, with its
faults paired across voltages too (common random numbers, for variance
reduction): each trial's bit flips are sampled once at the sweep's highest
BER, and a voltage keeps the flips whose thinning uniform lies below the BER
the voltage/BER table gives it. Detectors read only the checksum difference,
which a ``faults.Corruption`` record gives per column as ``-sum(after -
before)``, so comparisons and sweeps alike compute the clean output only at
corrupted elements and never run the dense GEMM. Nor do they draw whole
operands: ``workload_entries`` draws just the W rows and X columns that the
corrupted elements read, so a trial costs in proportion to its faults, not to
the GEMM's size. Nor do they draw trial by trial: ``stream`` gives a run of
GEMMs its fault seeds and one clean-entry callback, and one draw samples the
faults of all of them and reads every clean entry they need in one
``workload_entries`` call, with its temporaries in blocks of about
``rng.DRAW_BLOCK`` values. Every detector is scored on the same checksum
evidence, which one generator (``_evidence``) yields: it walks the stream in
blocks of trials, sized by the one block rule in its docstring, so memory
stays bounded however long the stream and however many voltages it has (the
200 default GEMMs at the default table's BERs are one block). A block draws
its flips once, at the top BER, and ``SparseFlips.rows`` thins them to a run
of BERs at a time (every BER of the default sweep at once): one record of
the (BER, trial) rows a fault touched, BER after BER, each row knowing its
BER. Faults are rare, so only those rows are yielded: an untouched trial's
difference row is all zero, and a zero row has MSD 0 and freq_eff 0 and is
recovered by no detector, so it adds nothing to any count or MSD sum. The
record's ``diff()`` is one int64 (rows x lanes) matrix D of checksum
differences, and each distinct detector spec decides all of D in one
vectorized call (``DetectorSpec.decide``). The statistical rule that marks a
trial critical equals the first statistical detector when that one is
``statistical``, and then reuses its decision. Per call, the generator
yields each row's BER, D, each detector's decisions and the critical marks.
One tally (``_score_stream``), which ``compare`` calls at one BER and a
sweep at all of its voltages' BERs, folds them with two ``np.add.at``
scatters to each row's BER: counts in int64, and MSDs in float64, which
``ufunc.at`` adds one after another in trial order, the same float sum as
over every row, since adding 0.0 changes no float. The default sweep at seed 0
decides 491 of its 3,200 (voltage, GEMM) rows in 4 calls. Row sums are exact
in int64 while lanes * max|d_j| < 2**63, which every GEMM meets (|d_j| <= m *
2**32 <= 2**44 with at most 4096 lanes) and which is asserted.
The per-detector optimum is the sweep point with minimal energy (ties break
toward higher voltage).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .detectors import STATISTICAL_KINDS
from .faults import (
    BLOCK_LANES,
    UNIFORM_MODE,
    FaultConfig,
    SparseFlips,
    VoltageBerTable,
    default_table,
    uniform_corruption,
)
from .rng import derive_seed
from .workloads import WorkloadSpec, workload_entries
# not called: the benchmark's tracer (perfbench/tracing.py) looks detect_statistical,
# run_array and workload_matrices up in this module
from .detectors import detect_statistical
from .systolic import run_array
from .workloads import workload_matrices

# derivation tag for fault streams inside sweeps/comparisons
_TAG_FAULT = 201

# elements a scoring block's flips at the top BER (and so the clean entries it
# reads in one call) and each of its thinned records are sized to hold (see
# _evidence); results do not depend on it
_RECORD_BLOCK = 2**14


@dataclass(frozen=True)
class EnergyConfig:
    """Nominal operating point, per-MAC energy, and the detector's power overhead.

    Defaults correspond to a checksum unit costing 1.79% power on a 256x256
    INT8 array at 0.9 V nominal. The unit's 1.42% area overhead enters no
    energy, so it is not a setting.
    """

    v_nom: float = 0.9
    e_mac_nom: float = 1.0
    detect_overhead: float = 0.0179
    table: VoltageBerTable = field(default_factory=default_table)

    def __post_init__(self):
        if not self.v_nom > 0:
            raise ValueError("v_nom must be > 0")
        if not self.e_mac_nom > 0:
            raise ValueError("e_mac_nom must be > 0")
        if self.detect_overhead < 0:
            raise ValueError("detect_overhead must be >= 0 like all overheads")


def _check_voltage(v: float, cfg: EnergyConfig) -> None:
    if not (0.0 < v <= cfg.v_nom):
        raise ValueError(f"voltage must be in (0, {cfg.v_nom}], got {v}")


def _check_rate(recovery_rate: float) -> None:
    if not (0.0 <= recovery_rate <= 1.0):
        raise ValueError(f"recovery_rate must be in [0, 1], got {recovery_rate}")


def compute_energy(v: float, n_mac: int, cfg: EnergyConfig) -> float:
    """Energy of n_mac MACs at supply voltage v (quadratic scaling)."""
    _check_voltage(v, cfg)
    if n_mac < 1:
        raise ValueError("n_mac must be >= 1")
    return n_mac * cfg.e_mac_nom * (v / cfg.v_nom) ** 2


def total_energy(
    v: float,
    recovery_rate: float,
    n_mac: int,
    cfg: EnergyConfig,
    detector: str,
) -> float:
    """Expected per-GEMM energy of a ``detector`` kind, detection and recovery costs included."""
    _check_rate(recovery_rate)
    base = compute_energy(v, n_mac, cfg)
    nominal = n_mac * cfg.e_mac_nom
    if detector == "none":
        return base
    if detector == "dmr":
        return 2.0 * base + recovery_rate * nominal
    return base * (1.0 + cfg.detect_overhead) + recovery_rate * nominal


def latency_factor(recovery_rate: float) -> float:
    """Expected slowdown from recoveries: 1 + recovery_rate."""
    _check_rate(recovery_rate)
    return 1.0 + recovery_rate


@dataclass(frozen=True)
class SweepPoint:
    """One (detector, voltage) operating point of a sweep."""

    voltage: float
    ber: float
    recovery_rate: float
    energy_total: float
    latency_factor: float
    quality_proxy: float
    detector: str


@dataclass(frozen=True)
class SweepResult:
    detector: str
    points: tuple[SweepPoint, ...]
    optimum: SweepPoint


@dataclass(frozen=True)
class CompareRow:
    """Per-detector summary of a fixed-operating-point comparison."""

    detector: str
    trials: int
    recovery_rate: float
    undetected_critical_rate: float
    mean_freq_eff: float
    mean_msd: float


def max_workers(n_items: int) -> int:
    """Always 1, as sweeps run serially; perfbench/worker.py records max_workers(16)."""
    return 1


def _unique_labels(detectors) -> list[str]:
    labels = [d.kind for d in detectors]
    if len(set(labels)) != len(labels):
        raise ValueError(f"detector kinds must be unique, got {labels}")
    return labels


def stream(spec: WorkloadSpec, fault: FaultConfig, trials):
    """GEMMs ``trials`` of the stream as the trials of one draw: an entry callback and their seeds.

    ``entries(i, rows, cols)`` reads GEMM ``trials[i]``, one trial index per
    entry, and ``seeds[i]`` is the fault seed ``fault.seed`` derives for it.
    Comparisons, sweeps and ``inject`` (``trials = [t]``) all build their
    trials here, so each scores or dumps the same GEMM under the same faults.
    """
    trials = np.asarray(trials, dtype=np.int64)
    seeds = derive_seed(fault.seed, _TAG_FAULT, 0, trials)
    return (lambda i, rows, cols: workload_entries(spec, trials[i], rows, cols)), seeds


def _critical_rule(detectors):
    """The statistical rule under the first statistical detector's params, or None.

    It keeps that detector's ``msd_threshold``, which no statistical decision
    reads, so that it equals a ``statistical`` first detector and shares its
    decision.
    """
    for d in detectors:
        if d.kind in STATISTICAL_KINDS:
            return replace(d, kind="statistical")
    return None


def _ber_runs(sizes, cap: int) -> list[tuple[int, int]]:
    """Consecutive runs ``[lo, hi)`` of BER positions, one ``SparseFlips.rows`` call each.

    A run holds at most ``cap`` BERs, and a new one starts where the next
    BER's expected record ``sizes[i]`` would take the run's sum past
    ``_RECORD_BLOCK``; every run holds at least one BER.
    """
    starts, total = [0], 0.0
    for i, size in enumerate(sizes):
        if i > starts[-1] and (i - starts[-1] == cap or total + size > _RECORD_BLOCK):
            starts.append(i)
            total = 0.0
        total += size
    return list(zip(starts, starts[1:] + [len(sizes)]))


def _evidence(spec: WorkloadSpec, detectors, fault: FaultConfig, bers):
    """The decided evidence of the ``spec.gemm_count`` GEMMs of a stream at each of ``bers``.

    Yields ``(level, diffs, decisions, critical)`` per scored call: row i of
    the int64 (rows x lanes) difference matrix ``diffs`` is a trial at
    ``bers[level[i]]``, ``decisions`` holds one ``RowDecisions`` of all rows
    per detector, in the order given, and ``critical`` whether the critical
    rule (``_critical_rule``; none marks no row) recovers each row. The block
    rule: with ``cap = max(1, BLOCK_LANES // n)`` BERs at most per
    ``SparseFlips.rows`` call, a block holds ``max(1, min(BLOCK_LANES // (n *
    min(len(bers), cap)), _RECORD_BLOCK // per_trial))`` trials, so one
    call's rows hold at most ``BLOCK_LANES`` lanes and the block's flips at
    the top BER about ``_RECORD_BLOCK`` elements; ``per_trial`` is m * n in
    uniform mode (its priorities), the expected flips at the top BER in BER
    mode. A call takes a run of consecutive BERs whose expected flips over
    the block's trials sum to about ``_RECORD_BLOCK`` (``_ber_runs``), so a
    call's record stays that small however many voltages share the block. A
    block draws its flips once, at ``max(bers)``, and ``rows`` gives the
    (BER, trial) rows they touch, BER after BER; a uniform record touches
    every trial or none and is yielded as is. An untouched row is all zero,
    which no detector recovers (``theta_freq`` and ``msd_threshold`` are >=
    0), and is not yielded. Each distinct spec decides a call's rows at once.
    """
    rule = _critical_rule(detectors)
    specs = list(dict.fromkeys([*detectors, rule] if rule else detectors))
    if fault.mode == UNIFORM_MODE:
        per_trial = [spec.m * spec.n]
    else:
        bits = fault.bit_window[1] - fault.bit_window[0] + 1
        per_trial = [spec.m * spec.n * (bits * ber) for ber in bers]
    cap = max(1, BLOCK_LANES // spec.n)
    step = max(1, min(BLOCK_LANES // (spec.n * min(len(bers), cap)), int(_RECORD_BLOCK // max(1.0, *per_trial))))
    # a stream shorter than step fills its one block with gemm_count trials
    runs = _ber_runs([min(step, spec.gemm_count) * p for p in per_trial], cap)
    for start in range(0, spec.gemm_count, step):
        entries, seeds = stream(spec, fault, np.arange(start, min(start + step, spec.gemm_count)))
        if fault.mode == UNIFORM_MODE:
            record = uniform_corruption(seeds, spec.m, spec.n, entries, fault.freq, fault.mag)
            parts = [(0, (np.zeros(record.n_trials, dtype=np.int64), None, record))]
        else:
            flips = SparseFlips.draw(spec.m, spec.n, entries, seeds, fault.bit_window, max(bers))
            parts = ((lo, flips.rows(bers[lo:hi])) for lo, hi in runs)
        for lo, (level, _, record) in parts:
            if level.size:
                diffs = record.diff()
                decided = {s: s.decide(diffs) for s in specs}
                critical = np.zeros(len(diffs), bool) if rule is None else decided[rule].recovers
                yield lo + level, diffs, [decided[d] for d in detectors], critical


def _score_stream(
    spec: WorkloadSpec, detectors, fault: FaultConfig, bers
) -> list[list[CompareRow]]:
    """Score every detector on the ``spec.gemm_count`` GEMMs of a stream at each of ``bers``.

    Returns one ``CompareRow`` per detector for each BER, in the orders given
    (uniform mode scores one BER, a comparison's). It tallies the rows
    ``_evidence`` yields with two ``np.add.at`` scatters to each row's BER:
    int64 counts, and float64 MSD sums that ``ufunc.at`` adds row after row,
    so each BER's MSDs sum in trial order and the block size changes no result.
    """
    labels = _unique_labels(detectors)
    if not detectors:  # nothing to tally
        return [[] for _ in bers]
    # per BER and detector: recoveries, undetected critical trials and the freq_eff sum
    counts = np.zeros((len(bers), len(detectors), 3), dtype=np.int64)
    msd_sums = np.zeros(len(bers))
    for level, diffs, decisions, critical in _evidence(spec, detectors, fault, bers):
        # (detectors x 3 x rows) int64, added to each row's BER
        per_row = np.array(
            [(r.recovers, critical & ~r.recovers, r.freq_eff) for r in decisions], dtype=np.int64
        )
        np.add.at(counts, level, np.moveaxis(per_row, 2, 0))
        # every kind's decisions hold the same MSDs; ufunc.at adds them one
        # after another in row order (np.sum would sum pairwise)
        np.add.at(msd_sums, level, decisions[0].msd.astype(np.float64))
    n = spec.gemm_count
    return [
        [
            CompareRow(label, n, recovered / n, missed / n, freq_sum / n, msd_sum / n)
            for label, (recovered, missed, freq_sum) in zip(labels, per_ber)
        ]
        for per_ber, msd_sum in zip(counts.tolist(), msd_sums.tolist())
    ]


def compare_detectors(spec: WorkloadSpec, detectors, fault: FaultConfig) -> list[CompareRow]:
    """Run the ``spec.gemm_count`` GEMMs of a stream at one fault level; score every detector.

    Trial ``t``'s checksum difference comes from its corrupted elements alone
    (the trials ``stream`` builds, clean values at those elements only), the
    same sparse evidence ``sweep_detectors`` scores. The undetected-critical
    rate counts trials a detector passed whose checksum evidence lies inside
    the statistical detector's own critical region.
    """
    return _score_stream(spec, detectors, fault, [fault.ber])[0]


def sweep_detectors(
    spec: WorkloadSpec,
    detectors,
    fault: FaultConfig,
    voltages,
    energy_cfg: EnergyConfig,
) -> dict[str, SweepResult]:
    """Voltage sweep: same GEMM stream and faults per point, BER from the table.

    ``fault`` gives the seed and bit window; its ``ber`` is not read, and a
    uniform-mode ``fault`` is rejected, as is a voltage outside
    (0, ``energy_cfg.v_nom``], both before any GEMM is scored. Each of the ``spec.gemm_count``
    trials has its flips sampled once, at the sweep's highest BER with the
    seed ``stream`` gives it, and thinned per voltage; the point at the
    highest BER therefore scores the same evidence a comparison at that BER
    does. Returns one SweepResult per detector kind with per-voltage points
    in the order given and the energy-minimal optimum (ties break toward
    higher voltage).
    """
    if fault.mode == UNIFORM_MODE:
        raise ValueError("fault.mode: sweep draws BER faults from the voltage table, not uniform")
    voltages = [float(v) for v in voltages]
    if not voltages:
        raise ValueError("sweep needs at least one voltage")
    n_mac = spec.macs_per_gemm
    bers = [energy_cfg.table.ber_at(v) for v in voltages]
    for v in voltages:  # each point's energy needs it; refused before any GEMM is scored
        _check_voltage(v, energy_cfg)
    rows = _score_stream(spec, detectors, fault, bers)
    results = {}
    for d, by_voltage in zip(detectors, zip(*rows)):
        points = tuple(
            SweepPoint(
                voltage=v,
                ber=ber,
                recovery_rate=row.recovery_rate,
                energy_total=total_energy(v, row.recovery_rate, n_mac, energy_cfg, d.kind),
                latency_factor=latency_factor(row.recovery_rate),
                quality_proxy=row.undetected_critical_rate,
                detector=row.detector,
            )
            for v, ber, row in zip(voltages, bers, by_voltage)
        )
        optimum = min(points, key=lambda p: (p.energy_total, -p.voltage))
        results[d.kind] = SweepResult(detector=d.kind, points=points, optimum=optimum)
    return results


def energy_saving(result: SweepResult, baseline: SweepResult) -> float:
    """Fractional energy saved at the optimum relative to a baseline's optimum."""
    return 1.0 - result.optimum.energy_total / baseline.optimum.energy_total

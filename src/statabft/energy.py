"""Energy accounting for undervolted GEMMs and detector comparison sweeps.

Compute energy scales quadratically with supply voltage:

    compute(v) = n_mac * e_mac_nom * (v / v_nom)**2

Checksum detectors add a fixed fractional power overhead on top of compute;
every triggered recovery costs one full recomputation at nominal voltage:

    total(v) = compute(v) * (1 + detect_overhead) + recovery_rate * compute(v_nom)

The "none" baseline pays neither overhead nor recovery; the DMR baseline
pays compute twice (dual execution) plus the same recovery term. Expected
latency stretches by the recovery rate: latency_factor = 1 + recovery_rate.

A voltage sweep runs the same GEMM stream at every operating point, with
its faults paired across voltages too (common random numbers, for variance
reduction): each trial's bit flips are sampled once at the sweep's highest
BER, and a voltage keeps the flips whose thinning uniform lies below the BER
the voltage/BER table gives it. Detectors read only the checksum difference,
which a trial's fault event log gives per column as ``-sum(after - before)``,
so comparisons and sweeps alike compute the clean output only at corrupted
elements and never run the dense GEMM. Nor do they draw whole operands:
``workload_entries`` draws just the W rows and X columns that the corrupted
elements read, so a trial costs in proportion to its faults, not to the
GEMM's size. Every detector is scored on the same checksum evidence: a
sweep builds, per voltage, one int64 (trials x lanes) matrix D of checksum
differences from the thinned flips of all its trials, and each detector
decides the rows of D in vectorized calls (``DetectorSpec.decide``), one per
block of ``BLOCK_LANES`` lanes, so its temporaries stay bounded; ``compare``
stacks its trials' difference rows into D the same way, and
``WorkloadSpec`` caps D at 2**24 lanes (128 MiB). Row sums are exact in
int64 while lanes * max|d_j| < 2**63, which every GEMM meets (|d_j| <=
m * 2**32 <= 2**44 with at most 4096 lanes) and which is asserted.
The per-detector optimum is the sweep point with minimal energy (ties break
toward higher voltage).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .detectors import STATISTICAL_KINDS, DetectorSpec, row_msd
from .faults import (
    BLOCK_LANES,
    UNIFORM_MODE,
    FaultConfig,
    SparseFlips,
    VoltageBerTable,
    checksum_diff,
    default_table,
    output_events,
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


def compute_energy(v: float, n_mac: int, cfg: EnergyConfig) -> float:
    """Energy of n_mac MACs at supply voltage v (quadratic scaling)."""
    if not (0.0 < v <= cfg.v_nom):
        raise ValueError(f"voltage must be in (0, {cfg.v_nom}], got {v}")
    if n_mac < 1:
        raise ValueError("n_mac must be >= 1")
    return n_mac * cfg.e_mac_nom * (v / cfg.v_nom) ** 2


def total_energy(
    v: float,
    recovery_rate: float,
    n_mac: int,
    cfg: EnergyConfig,
    detector: str = "statistical",
) -> float:
    """Expected per-GEMM energy including detection and recovery costs."""
    if not (0.0 <= recovery_rate <= 1.0):
        raise ValueError(f"recovery_rate must be in [0, 1], got {recovery_rate}")
    base = compute_energy(v, n_mac, cfg)
    nominal = n_mac * cfg.e_mac_nom
    if detector == "none":
        return base
    if detector == "dmr":
        return 2.0 * base + recovery_rate * nominal
    return base * (1.0 + cfg.detect_overhead) + recovery_rate * nominal


def latency_factor(recovery_rate: float) -> float:
    """Expected slowdown from recoveries: 1 + recovery_rate."""
    if not (0.0 <= recovery_rate <= 1.0):
        raise ValueError(f"recovery_rate must be in [0, 1], got {recovery_rate}")
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


def trial(spec: WorkloadSpec, fault: FaultConfig, t: int):
    """Trial ``t`` of the stream: GEMM ``t``'s clean-entry callback and ``fault`` on its own seed.

    Comparisons, sweeps and ``inject`` all build trial ``t`` here, so each
    scores or dumps the same GEMM under the same faults.
    """
    seeded = replace(fault, seed=derive_seed(fault.seed, _TAG_FAULT, 0, t))
    return partial(workload_entries, spec, t), seeded


def _trial_diffs(spec: WorkloadSpec, fault: FaultConfig) -> np.ndarray:
    """The (GEMMs x n) checksum-difference matrix of the stream: row t from trial t's fault log."""
    diffs = np.zeros((spec.gemm_count, spec.n), dtype=np.int64)
    for t in range(spec.gemm_count):
        events = output_events(spec.m, spec.n, *trial(spec, fault, t))
        diffs[t] = checksum_diff(events, spec.n)
    return diffs


def _proxy_params(detectors):
    for d in detectors:
        if d.kind in STATISTICAL_KINDS:
            return d.params
    return None


def _score_stream(diffs: np.ndarray, detectors, reference):
    """Aggregate detector decisions over a (trials x lanes) checksum-difference matrix.

    Each detector, and the statistical rule under ``reference`` that marks a
    trial critical, decides a block of max(1, BLOCK_LANES // lanes) rows per
    call, so the deciders' temporaries stay bounded however long the stream;
    counts and the MSD sum carry across blocks, giving one block's results.
    """
    labels = _unique_labels(detectors)
    n = len(diffs)
    rule = None if reference is None else DetectorSpec(kind="statistical", params=reference)
    recoveries, undetected, freq_sum = (dict.fromkeys(labels, 0) for _ in range(3))
    msd_sum = 0.0
    step = max(1, BLOCK_LANES // diffs.shape[1])
    for start in range(0, n, step):
        block = diffs[start : start + step]
        critical = np.zeros(len(block), dtype=bool) if rule is None else rule.decide(block).recovers
        for d, label in zip(detectors, labels):
            rows = d.decide(block)
            recoveries[label] += int(np.count_nonzero(rows.recovers))
            undetected[label] += int(np.count_nonzero(critical & ~rows.recovers))
            freq_sum[label] += int(rows.freq_eff.sum())
        # float MSDs summed one after another in trial order (np.sum would sum pairwise)
        msd = np.append(msd_sum, row_msd(block).astype(np.float64))
        msd_sum = float(np.add.accumulate(msd)[-1])
    return n, recoveries, undetected, freq_sum, msd_sum


def compare_detectors(spec: WorkloadSpec, detectors, fault: FaultConfig) -> list[CompareRow]:
    """Run the ``spec.gemm_count`` GEMMs of a stream at one fault level; score every detector.

    Trial ``t``'s checksum difference comes from its fault event log alone
    (``output_events`` on ``trial(spec, fault, t)``, clean values at the
    corrupted elements only), the same sparse evidence ``sweep_detectors``
    scores. The undetected-critical rate counts trials a detector passed
    whose checksum evidence lies inside the statistical detector's own
    critical region.
    """
    ref = _proxy_params(detectors)
    n, recoveries, undetected, freq_sum, msd_sum = _score_stream(
        _trial_diffs(spec, fault), detectors, ref
    )
    return [
        CompareRow(
            detector=label,
            trials=n,
            recovery_rate=recoveries[label] / n,
            undetected_critical_rate=undetected[label] / n,
            mean_freq_eff=freq_sum[label] / n,
            mean_msd=msd_sum / n,
        )
        for label in _unique_labels(detectors)
    ]


def sweep_detectors(
    spec: WorkloadSpec,
    detectors,
    fault: FaultConfig,
    voltages,
    energy_cfg: EnergyConfig | None = None,
) -> dict[str, SweepResult]:
    """Voltage sweep: same GEMM stream and faults per point, BER from the table.

    ``fault`` gives the seed and bit window; its ``ber`` is not read, and a
    uniform-mode ``fault`` is rejected. Each of the ``spec.gemm_count``
    trials has its flips sampled once, at the sweep's highest BER with the
    seed ``trial`` gives it, and thinned per voltage; the point at the
    highest BER therefore scores the same evidence a comparison at that BER
    does. Returns one SweepResult per detector kind with per-voltage points
    in the order given and the energy-minimal optimum (ties break toward
    higher voltage).
    """
    if fault.mode == UNIFORM_MODE:
        raise ValueError("fault.mode: sweep draws BER faults from the voltage table, not uniform")
    if energy_cfg is None:
        energy_cfg = EnergyConfig()
    voltages = [float(v) for v in voltages]
    if not voltages:
        raise ValueError("sweep needs at least one voltage")
    labels = _unique_labels(detectors)
    ref = _proxy_params(detectors)
    n_mac = spec.macs_per_gemm
    bers = [energy_cfg.table.ber_at(v) for v in voltages]
    top = replace(fault, ber=max(bers))

    flips = SparseFlips.stack(
        [SparseFlips.draw(spec.m, spec.n, *trial(spec, top, t)) for t in range(spec.gemm_count)]
    )

    points = {label: [] for label in labels}
    for v, ber in zip(voltages, bers):
        n, recoveries, undetected, _, _ = _score_stream(flips.diff(ber), detectors, ref)
        for d, label in zip(detectors, labels):
            rate = recoveries[label] / n
            points[label].append(
                SweepPoint(
                    voltage=v,
                    ber=ber,
                    recovery_rate=rate,
                    energy_total=total_energy(v, rate, n_mac, energy_cfg, d.kind),
                    latency_factor=latency_factor(rate),
                    quality_proxy=undetected[label] / n,
                    detector=label,
                )
            )

    results = {}
    for label, pts in points.items():
        optimum = min(pts, key=lambda p: (p.energy_total, -p.voltage))
        results[label] = SweepResult(detector=label, points=tuple(pts), optimum=optimum)
    return results


def energy_saving(result: SweepResult, baseline: SweepResult) -> float:
    """Fractional energy saved at the optimum relative to a baseline's optimum."""
    return 1.0 - result.optimum.energy_total / baseline.optimum.energy_total

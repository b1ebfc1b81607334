"""Randomized self-checks of the simulator's core invariants.

These are the properties the whole methodology leans on: exact checksum
identities, agreement between the datapath-level statistical unit and the
vectorized statistical detectors in both log2 modes, fault-log soundness,
the MSD = freq * mag relation for uniform injections, voltage/BER table
interpolation behavior, and the checksum differences of the
``faults.Corruption`` records that compare and sweep score, against the
dense product in both fault modes.

Each check is one row of ``CHECKS``: its name, the tag its case seeds are
derived with, its case count (every case, or a quarter of them for the
slower ones, at least 25) and its test. One driver, ``run_check``, runs
any row: case c gets the seed ``derive_seed(seed, tag, c)``, the test
returns "" when the case holds or else the reason it fails, and the first
failing case ends the check with that reason "at case c". To add a check,
write a test ``(s, c) -> str`` and add its row under an unused tag;
``statabft verify`` then runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .detectors import (
    LZC_FRAC_BITS,
    ChecksumPair,
    CriticalRegionParams,
    DetectorSpec,
    floor_log2,
    log2_fixed,
)
from .faults import (
    _SKIP_CHUNK,
    INT32_MAX,
    INT32_MIN,
    FaultConfig,
    SparseFlips,
    VoltageBerTable,
    apply_fault,
    corruption,
    default_table,
    geometric_flips,
    inject_uniform,
    sample_bitflips,
)
from .gemm import (
    AccumMatrix,
    checksum,
    gemm,
    predicted_column_checksum,
    predicted_output_checksum,
    total_checksum,
)
from .rng import SplitMix64, derive_seed, u64_stream
from .systolic import EXACT, LZC, statistical_unit
from .workloads import (
    DISTRIBUTIONS,
    WorkloadSpec,
    random_quant_matrix,
    workload_entries,
    workload_matrices,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    cases: int
    passed: bool
    detail: str = ""


def _dims(seed: int) -> tuple[int, int, int]:
    return tuple(int(v % 24) + 1 for v in u64_stream(seed, 3))


def _random_params(seed: int) -> CriticalRegionParams:
    u = u64_stream(seed, 3)
    a = 1.1 + (int(u[0]) % 300) / 100.0
    b = (int(u[1]) % 600) / 10.0
    tf = int(u[2]) % 8
    return CriticalRegionParams(a=a, b=b, theta_freq=tf)


def _random_diff(seed: int, n: int) -> np.ndarray:
    """Deviation vector mixing zeros, small, and large magnitudes."""
    u = u64_stream(seed, 2 * n)
    kinds = (u[:n] % np.uint64(4)).astype(np.int64)
    raw = u[n:]
    small = (raw % np.uint64(255)).astype(np.int64) - 127
    big = ((raw % np.uint64(2**40)) + np.uint64(1)).astype(np.int64)
    sign = np.where((raw >> np.uint64(60)) & np.uint64(1), -1, 1)
    d = np.zeros(n, dtype=np.int64)
    d = np.where(kinds == 1, small, d)
    d = np.where(kinds == 2, sign * big, d)
    d = np.where(kinds == 3, sign * (big << 10), d)
    return d


def _checksum_identities(s: int, c: int) -> str:
    """Row, column and scalar checksums of a random GEMM equal their predictions."""
    m, k, n = _dims(s)
    w = random_quant_matrix(m, k, "uniform", derive_seed(s, 0))
    x = random_quant_matrix(k, n, "uniform", derive_seed(s, 1))
    y = gemm(w, x)
    if not np.array_equal(predicted_output_checksum(w, x).data, checksum(y, "row").data):
        return "row identity broken"
    if not np.array_equal(predicted_column_checksum(w, x).data, checksum(y, "column").data):
        return "column identity broken"
    if total_checksum(w, x) != int(y.data.sum(dtype=np.int64)):
        return "scalar identity broken"
    return ""


def _random_case(seed: int) -> tuple[ChecksumPair, CriticalRegionParams]:
    """A deviation vector of 2 to 64 lanes (see _random_diff) and random params."""
    n = int(u64_stream(seed, 1)[0] % np.uint64(63)) + 2
    pair = ChecksumPair.from_diff(_random_diff(derive_seed(seed, 0), n))
    return pair, _random_params(derive_seed(seed, 1))


def _on_grid_params(
    pair: ChecksumPair, params: CriticalRegionParams, seed: int
) -> CriticalRegionParams:
    """``params`` moved so that the LZC bound lands exactly on a lane's exponent e.

    a = 2, b * 2**LZC_FRAC_BITS = log2_fixed(MSD) + (e << LZC_FRAC_BITS): the lane tells > from >=.
    """
    msd = pair.msd()
    if msd == 0:
        return params
    lanes = pair.diff[pair.diff != 0]
    e = floor_log2(abs(int(lanes[int(u64_stream(seed, 1)[0] % np.uint64(lanes.size))])))
    b = (log2_fixed(msd, LZC_FRAC_BITS) + (e << LZC_FRAC_BITS)) / (1 << LZC_FRAC_BITS)
    return replace(params, a=2.0, b=b)


# run_check hands cases to a test in blocks of this many; the block test
# below zero-pads each case to this many lanes (the most _random_case draws)
_BLOCK = 64


def _stat_unit_block(seeds: list[int], cases: range) -> Iterator[str]:
    """Both statistical detectors, deciding stacked cases, agree with the scalar unit.

    The block's cases are stacked as 64 rows of 64 lanes. Each case's params
    decide the whole block in one call, and the case's own row is held to
    the unit in that detector's log2 mode. The block is square, so a per-row
    bound applied along the lane axis still broadcasts and shows here as a
    wrong verdict. Every fourth case puts the LZC bound on a lane's exponent,
    where random params rarely do.
    """
    stacked = []
    diffs = np.zeros((_BLOCK, _BLOCK), dtype=np.int64)
    for i, (s, c) in enumerate(zip(seeds, cases)):
        pair, params = _random_case(s)
        if c % 4 == 3:
            params = _on_grid_params(pair, params, derive_seed(s, 2))
        diffs[i, : pair.diff.size] = pair.diff
        stacked.append((pair, params))
    for i, (pair, params) in enumerate(stacked):
        reason = ""
        for kind, mode in (("statistical", EXACT), ("statistical_lzc", LZC)):
            row = DetectorSpec(kind=kind, params=params).decide(diffs).row(i)
            unit = statistical_unit(pair.predicted, pair.observed, params, mode)
            if row != unit:
                reason = f"{mode} datapath disagrees with {kind}: {unit.freq_eff} vs {row.freq_eff}"
                break
        yield reason


def _applied(y: AccumMatrix, events, cfg: FaultConfig) -> np.ndarray:
    """``y`` with each logged fault applied by numpy, not read from ``after``.

    BER XORs in the logged bits; uniform adds ``mag`` by numpy's own wrapping
    INT32 addition. A log is sound when this reproduces the corrupted output.
    """
    out = y.data.copy()
    at = ([e.row for e in events], [e.col for e in events])
    if cfg.mode == "ber":
        masks = [sum(1 << b for b in e.flipped_bits) for e in events]
        out[at] ^= np.array(masks, dtype=np.uint32).view(np.int32)
    else:
        out[at] += np.int32(cfg.mag)
    return out


def _event_replay(s: int, c: int) -> str:
    """A fault log, BER on even cases and uniform on odd, reproduces the corrupted output."""
    m, k, n = _dims(s)
    w = random_quant_matrix(m, k, "uniform", derive_seed(s, 0))
    x = random_quant_matrix(k, n, "uniform", derive_seed(s, 1))
    y = gemm(w, x)
    if c % 2 == 0:
        cfg = FaultConfig(mode="ber", ber=0.01, seed=derive_seed(s, 2))
    else:
        freq = int(u64_stream(derive_seed(s, 3), 1)[0] % np.uint64(y.data.size))
        cfg = FaultConfig(mode="uniform", freq=freq, mag=1 << 20, seed=derive_seed(s, 2))
    corrupted, events = apply_fault(y, cfg)
    if not np.array_equal(corrupted.data, _applied(y, events, cfg)):
        return "log does not reproduce corruption"
    changed = int(np.count_nonzero(corrupted.data != y.data))
    if changed != len(events):
        return f"{changed} changed elements but {len(events)} events"
    return ""


def _uniform_msd_relation(s: int, c: int) -> str:
    """A uniform injection into zeros has MSD freq * mag and one event per element.

    The events sit at the ``freq`` smallest of the 256 priorities, found by a
    full argsort: the dense reference for ``faults.uniform_positions``.
    """
    u = u64_stream(s, 2)
    freq = int(u[0] % np.uint64(256)) + 1
    mag = 1 << (int(u[1]) % 20)
    cfg = FaultConfig(mode="uniform", freq=freq, mag=mag, seed=derive_seed(s, 0))
    zero = AccumMatrix(np.zeros((16, 16), dtype=np.int32))
    corrupted, events = apply_fault(zero, cfg)
    pair = ChecksumPair.from_vectors(checksum(zero, "row"), checksum(corrupted, "row"))
    if pair.msd() != freq * mag:
        return f"msd {pair.msd()} != freq*mag {freq * mag}"
    if len(events) != freq:
        return f"{len(events)} events for freq {freq}"
    want = np.sort(np.argsort(u64_stream(cfg.seed, 256))[:freq]).tolist()
    if [e.row * 16 + e.col for e in events] != want:
        return f"event positions differ from the {freq} smallest priorities"
    return ""


def _ber_table(s: int, c: int) -> str:
    """The default table interpolates between its rows and returns exact rows verbatim."""
    table = default_table()
    u = u64_stream(s, 2)
    i = int(u[0] % np.uint64(table.voltages.size - 1))
    v0, v1 = float(table.voltages[i]), float(table.voltages[i + 1])
    t = (int(u[1]) % 999 + 1) / 1000.0
    v = v0 + (v1 - v0) * t
    b = table.ber_at(v)
    lo, hi = float(table.bers[i]), float(table.bers[i + 1])
    if not (lo <= b <= hi):
        return f"ber({v}) = {b} outside [{lo}, {hi}]"
    if table.ber_at(v0) != lo or table.ber_at(v1) != hi:
        return "exact row not verbatim"
    if c == 0:
        # zero-BER rows floor to the log-domain epsilon instead of blowing up
        mid = VoltageBerTable(np.array([0.9, 0.8]), np.array([0.0, 1e-6])).ber_at(0.85)
        if not (0.0 < mid < 1e-6):
            return f"zero-row interpolation gave {mid}"
    return ""


def _lzc_band(s: int, c: int) -> str:
    """LZC-mode verdicts may differ from exact only near quantization edges."""
    pair, params = _random_case(s)
    exact = statistical_unit(pair.predicted, pair.observed, params, EXACT)
    lzc = statistical_unit(pair.predicted, pair.observed, params, LZC)
    if exact.recovers == lzc.recovers:
        return ""
    # at MSD == 0 both bounds are +inf, so a disagreement there fails below
    lo, hi = sorted((exact.theta_mag, lzc.theta_mag))
    lanes = [abs(int(v)) for v in pair.diff if v != 0]
    if not any(
        abs(math.log2(v) - exact.theta_mag) <= 1.0 or lo < floor_log2(v) <= hi for v in lanes
    ):
        return "disagreement away from quantization edge"
    return ""


def _one_gemm(spec: WorkloadSpec, index: int):
    """The clean-entry callback of a one-trial record of GEMM ``index``."""
    return lambda _, rows, cols: workload_entries(spec, index, rows, cols)


def _sparse_evidence(s: int, c: int) -> str:
    """Records built from clean values at the touched elements give the dense difference.

    Each case is one GEMM of a random WorkloadSpec in either distribution.
    Its ``Corruption`` records read clean values through ``workload_entries``,
    as compare and sweep do, and their ``diff()`` is held to
    ``gemm(*workload_matrices(...))`` corrupted by numpy; the counter-based
    draws both use are held to the sequential generator. The sweep's own
    draw of a two-trial stream gives each trial the difference row of its
    one-trial draw; on a quarter of the cases the BER puts about 64 flips in
    a trial, and the stream pairs a trial that draws past the first 64-flip
    chunk with one that ends inside it. Its ``rows`` over the BER ladder are
    the touched (BER, trial) pairs of the per-BER ``at`` records, in order.
    BER: at the top BER the record's events are ``sample_bitflips``'s own; as
    the BER drops, the corrupted elements form nested sets, empty at BER 0.
    Recovery rates are not checked for monotonicity: two flips in one column
    can cancel to d_j = 0. Uniform: the events are ``inject_uniform``'s, at
    INT32-edge magnitudes that wrap and up to every element corrupted.
    """
    m, k, n = _dims(s)
    u = u64_stream(s, 4)
    # drawing rows and columns alone relies on draw i being the sequential generator's
    sequential = SplitMix64(s)
    if [sequential.next_u64() for _ in range(4)] != u.tolist():
        return "counter-based draws differ from sequential SplitMix64"
    distribution = DISTRIBUTIONS[int(u[3] % np.uint64(len(DISTRIBUTIONS)))]
    spec = WorkloadSpec(m=m, k=k, n=n, gemm_count=2, distribution=distribution, seed=s)
    index = int(u[2] % np.uint64(2))
    w, x = workload_matrices(spec, index)
    clean = gemm(w, x)
    predicted = predicted_output_checksum(w, x).data
    choice, n_bits = int(u[0] % np.uint64(4)), m * n * 16  # candidate bits of the default window
    # choice 3 straddles the first chunk: this trial draws past it, the other ends inside it
    straddle = choice == 3 and n_bits >= 2 * _SKIP_CHUNK
    top = _SKIP_CHUNK / n_bits if straddle else 10.0 ** -(1 + choice % 3)
    pair = [derive_seed(s, 2), derive_seed(s, 4)]  # this trial's seed, the other's
    if straddle:
        candidates = derive_seed(s, 4, np.arange(64))
        counts = np.bincount(geometric_flips(candidates, n_bits, top)[0], minlength=64)
        if not counts.max() >= _SKIP_CHUNK > counts.min():
            return "no candidate pair straddles the first chunk"
        pair = [int(candidates[counts.argmax()]), int(candidates[counts.argmin()])]
    fault = FaultConfig(mode="ber", ber=top, seed=pair[0])
    flips = SparseFlips.draw(m, n, _one_gemm(spec, index), pair[:1], fault.bit_window, top)
    other = SparseFlips.draw(m, n, _one_gemm(spec, 1 - index), pair[1:], fault.bit_window, top)
    if flips.at(top).events() != sample_bitflips(clean, fault)[1]:
        return "top-BER events differ from dense"
    # the sweep's draw, with this GEMM as trial `index` of a two-trial stream
    seeds = pair if index == 0 else pair[::-1]
    stream = SparseFlips.draw(m, n, partial(workload_entries, spec), seeds, fault.bit_window, top)
    above, ladder, pairs, expected = None, (top, top / 3, top / 10, top / 100, 0.0), [], []
    for level, ber in enumerate(ladder):
        kept = flips.at(ber)
        dense = predicted - _applied(clean, kept.events(), fault).sum(0, dtype=np.int64)
        if not np.array_equal(kept.diff()[0], dense):
            return f"sparse difference != dense at ber {ber:g}"
        thinned = stream.at(ber)
        rows = thinned.diff()
        if not (
            np.array_equal(rows[index], dense)
            and np.array_equal(rows[1 - index], other.at(ber).diff()[0])
        ):
            return f"stream difference rows != per-trial rows at ber {ber:g}"
        touched = sorted(set(thinned.trial.tolist()))
        pairs, expected = pairs + [(level, t) for t in touched], expected + [rows[touched]]
        sites = set(kept.element.tolist())
        if ber == 0.0 and sites:
            return "flips kept at ber 0"
        if above is not None and not sites <= above:
            return f"flips at ber {ber:g} not nested in the higher BER's"
        above = sites
    # the scorer's rows: every BER of the ladder thinned at once, touched (BER, trial) pairs only
    levels, trials, record = stream.rows(ladder)
    if list(zip(levels.tolist(), trials.tolist())) != pairs or not np.array_equal(
        record.diff(), np.concatenate(expected)
    ):
        return "rows(bers) != the per-BER at(ber) rows of the touched trials"
    freq = m * n if s % 4 == 0 else int(u[1] % np.uint64(m * n + 1))
    mag = INT32_MAX if s % 3 else INT32_MIN  # adding an INT32 edge wraps often
    uniform = FaultConfig(mode="uniform", freq=freq, mag=mag, seed=derive_seed(s, 3))
    record = corruption(m, n, _one_gemm(spec, index), [uniform.seed], uniform)
    events = record.events()
    dense = predicted - _applied(clean, events, uniform).sum(0, dtype=np.int64)
    if (
        not np.array_equal(record.diff()[0], dense)
        or len({(e.row, e.col) for e in events}) != freq
        or events != inject_uniform(clean, uniform)[1]
    ):
        return "uniform record != dense"
    return ""


@dataclass(frozen=True)
class Check:
    """One row of CHECKS: a named invariant and the test that holds a case to it.

    ``test(s, c)`` returns "" when case ``c``, seeded ``s``, holds, or else
    the reason it fails. A ``block`` test instead takes the seeds and indices
    of a block of up to ``_BLOCK`` cases and yields one such reason per case.
    A ``quarter`` check, slower per case, runs max(cases // 4, 25) cases in
    ``run_checks``.
    """

    name: str
    tag: int
    test: Callable
    quarter: bool = False
    block: bool = False


CHECKS = (
    Check("checksum-identities", 1, _checksum_identities),
    Check("stat-unit-reference", 3, _stat_unit_block, block=True),
    Check("event-replay", 4, _event_replay, quarter=True),
    Check("uniform-msd-relation", 5, _uniform_msd_relation),
    Check("ber-table-interpolation", 6, _ber_table),
    Check("lzc-agreement-band", 7, _lzc_band),
    Check("sparse-evidence", 8, _sparse_evidence, quarter=True),
)


def run_check(name: str, cases: int, seed: int) -> CheckResult:
    """Run cases 0 .. cases - 1 of check ``name``; the first failing case ends the check.

    Case c is seeded ``derive_seed(seed, tag, c)`` with the check's tag, and
    cases go to its test ``_BLOCK`` at a time.
    """
    if cases < 1:
        raise ValueError("cases must be >= 1")
    check = {k.name: k for k in CHECKS}[name]
    for start in range(0, cases, _BLOCK):
        block = range(start, min(start + _BLOCK, cases))
        seeds = [derive_seed(seed, check.tag, c) for c in block]
        reasons = check.test(seeds, block) if check.block else map(check.test, seeds, block)
        for c, reason in zip(block, reasons):
            if reason:
                return CheckResult(name, c + 1, False, f"{reason} at case {c}")
    return CheckResult(name, cases, True)


def run_checks(cases: int, seed: int) -> list[CheckResult]:
    """Run every check; results keep the CHECKS order."""
    return [
        run_check(k.name, max(cases // 4, 25) if k.quarter else cases, seed)
        for k in CHECKS
    ]

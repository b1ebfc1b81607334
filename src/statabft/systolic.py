"""Behavioral model of a checksum-extended systolic array.

The model is functional, not cycle-accurate: outputs and checksums are
computed exactly, while a simple analytic cycle model accounts for time. A
tile of shape M x K times K x N costs M + N + K - 2 cycles fill-to-drain
plus one checksum-accumulate stage; problems larger than the physical array
are tiled and tile costs add up.

The statistical detection unit is modeled at datapath level, mirroring a
hardware pipeline of a subtractor, a deviation accumulator, a log2 stage,
and a comparator-based countif over the buffered lane deviations. The log2
stage runs in one of two modes:

* "exact": float64 log2, the reference semantics.
* "lzc": leading-zero-count hardware. floor(log2 x) of a positive int is
  its bit length minus 1 (equivalently 63 - lzc for a 64-bit word). The
  magnitude bound theta is computed from a truncated piecewise-linear
  (Mitchell) log2 of MSD carrying ``frac_bits`` fractional bits, then
  rounded onto the same fixed-point grid; lane comparisons happen entirely
  in that integer domain.

The two modes can only disagree on a lane whose deviation magnitude sits
within one octave of the exact bound, or when an integer exponent lands
between the exact and fixed-point bounds; both conditions mark MSD values
whose log sits on a fixed-point quantization edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .detectors import (
    DEFAULT_PARAMS,
    PASS,
    RECOVER,
    CriticalRegionParams,
    DetectionVerdict,
)
from .faults import FaultConfig, ErrorEvent, apply_fault
from .gemm import (
    AccumMatrix,
    ChecksumVector,
    QuantMatrix,
    checksum,
    gemm,
    predicted_output_checksum,
)

EXACT = "exact"
LZC = "lzc"


@dataclass(frozen=True)
class ArrayConfig:
    """Physical array geometry; larger problems tile over it."""

    rows: int = 256
    cols: int = 256
    allow_tiling: bool = True

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("array dimensions must be >= 1")


@dataclass(frozen=True)
class StatUnitConfig:
    """Statistical-unit datapath configuration."""

    params: CriticalRegionParams
    log2_mode: str = EXACT
    frac_bits: int = 4

    def __post_init__(self):
        if self.log2_mode not in (EXACT, LZC):
            raise ValueError(f"log2_mode must be 'exact' or 'lzc', got {self.log2_mode!r}")
        if not (0 <= self.frac_bits <= 16):
            raise ValueError(f"frac_bits must be in [0, 16], got {self.frac_bits}")


@dataclass(frozen=True, eq=False)
class SimResult:
    """One simulated GEMM: output, checksums, cycle count, and the verdict."""

    output: AccumMatrix
    predicted: ChecksumVector
    observed: ChecksumVector
    cycles: int
    verdict: DetectionVerdict
    events: tuple[ErrorEvent, ...] = ()


def floor_log2(x: int) -> int:
    """floor(log2 x) for x >= 1 via bit length (what an LZC circuit yields)."""
    if x < 1:
        raise ValueError(f"floor_log2 needs x >= 1, got {x}")
    return x.bit_length() - 1


def log2_fixed(x: int, frac_bits: int) -> int:
    """Truncated Mitchell log2 of x >= 1 as an integer scaled by 2**frac_bits.

    The integer part is the LZC exponent; the fractional part is the first
    ``frac_bits`` mantissa bits below the leading one (linear interpolation
    between powers of two, truncated).
    """
    e = floor_log2(x)
    if e >= frac_bits:
        frac = (x >> (e - frac_bits)) & ((1 << frac_bits) - 1)
    else:
        frac = (x << (frac_bits - e)) & ((1 << frac_bits) - 1)
    return (e << frac_bits) | frac


def _theta_fixed(msd: int, p: CriticalRegionParams, frac_bits: int) -> int | None:
    """Magnitude bound on the fixed-point grid; None encodes +inf (MSD == 0)."""
    if msd == 0:
        return None
    scale = 1 << frac_bits
    log_msd = log2_fixed(msd, frac_bits) / scale
    return round((p.b - (p.a - 1.0) * log_msd) * scale)


def statistical_unit(
    predicted: ChecksumVector, observed: ChecksumVector, cfg: StatUnitConfig
) -> DetectionVerdict:
    """Run the detection datapath over one checksum pair.

    Implemented with scalar integer arithmetic, independent of the
    vectorized detector in detectors.py; the exact mode is required to agree
    with it verdict-for-verdict.
    """
    if len(predicted) != len(observed):
        raise ValueError("checksum lengths differ")
    ds = [int(p) - int(o) for p, o in zip(predicted.data, observed.data)]
    msd = abs(sum(ds))
    p = cfg.params

    if cfg.log2_mode == EXACT:
        theta = math.inf if msd == 0 else p.b - (p.a - 1.0) * math.log2(msd)
        freq_eff = 0
        for d in ds:
            if d != 0 and math.log2(abs(d)) > theta:
                freq_eff += 1
        theta_out = theta
    else:
        theta_fp = _theta_fixed(msd, p, cfg.frac_bits)
        freq_eff = 0
        if theta_fp is None:
            theta_out = math.inf
        else:
            f = cfg.frac_bits
            for d in ds:
                if d != 0 and (floor_log2(abs(d)) << f) > theta_fp:
                    freq_eff += 1
            theta_out = theta_fp / (1 << f)

    return DetectionVerdict(
        detector=f"stat-unit-{cfg.log2_mode}",
        msd=msd,
        theta_mag=theta_out,
        freq_eff=freq_eff,
        decision=RECOVER if freq_eff > p.theta_freq else PASS,
    )


def tile_cycles(m: int, n: int, k: int) -> int:
    """Fill-to-drain latency of one tile plus the checksum-accumulate stage."""
    return m + n + k - 2 + 1


def gemm_cycles(m: int, k: int, n: int, array: ArrayConfig) -> int:
    """Total cycles to stream an M x K by K x N product through the array.

    The array holds rows x cols stationary operands; the M and N extents
    tile over the physical geometry, the K extent streams through and is
    never tiled by this model.
    """
    if m < 1 or k < 1 or n < 1:
        raise ValueError("GEMM dimensions must be >= 1")
    if not array.allow_tiling and (m > array.rows or n > array.cols):
        raise ValueError(
            f"problem {m}x{k}x{n} exceeds array {array.rows}x{array.cols} "
            "and tiling is disabled"
        )
    total = 0
    for mi in range(0, m, array.rows):
        tm = min(array.rows, m - mi)
        for ni in range(0, n, array.cols):
            tn = min(array.cols, n - ni)
            total += tile_cycles(tm, tn, k)
    return total


def run_array(
    w: QuantMatrix,
    x: QuantMatrix,
    fault: FaultConfig | None = None,
    stat: StatUnitConfig | None = None,
    array: ArrayConfig | None = None,
    fault_seed: int | None = None,
) -> SimResult:
    """One GEMM through the array: compute, optionally corrupt, then detect.

    Faults hit the INT32 output domain only; the input-side checksum
    prediction is computed before injection and is never corrupted.
    """
    if array is None:
        array = ArrayConfig()
    if stat is None:
        stat = StatUnitConfig(params=DEFAULT_PARAMS)

    clean = gemm(w, x)
    predicted = predicted_output_checksum(w, x)

    events: tuple[ErrorEvent, ...] = ()
    out = clean
    if fault is not None:
        out, ev = apply_fault(clean, fault, fault_seed)
        events = tuple(ev)

    observed = checksum(out, side="row")
    verdict = statistical_unit(predicted, observed, stat)
    cycles = gemm_cycles(w.rows, w.cols, x.cols, array)
    return SimResult(
        output=out,
        predicted=predicted,
        observed=observed,
        cycles=cycles,
        verdict=verdict,
        events=events,
    )

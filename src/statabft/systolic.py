"""Behavioral model of a checksum-extended systolic array.

The model is functional: outputs and checksums are computed exactly, and no
time is modelled.

``run_array`` is the dense reference: it computes the whole product, applies
a fault, and reduces the observed checksum from the corrupted output.
``statistical_unit`` is a scalar model of the detection datapath (a
subtractor, a deviation accumulator, a log2 stage and a comparator-based
countif) in plain Python integers. It is the independent oracle that
``statabft verify`` holds the vectorized ``statistical`` ("exact" log2) and
``statistical_lzc`` ("lzc" log2) detectors to, decision for decision: it
returns the ``RowDecisions`` of Python scalars that ``DetectorSpec.evaluate``
returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .detectors import (
    LZC_FRAC_BITS,
    CriticalRegionParams,
    RowDecisions,
    _theta_fixed,
    floor_log2,
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


@dataclass(frozen=True, eq=False)
class SimResult:
    """One simulated GEMM: output, checksums, and the fault log."""

    output: AccumMatrix
    predicted: ChecksumVector
    observed: ChecksumVector
    events: tuple[ErrorEvent, ...] = ()


def statistical_unit(
    predicted: ChecksumVector,
    observed: ChecksumVector,
    params: CriticalRegionParams,
    log2_mode: str = EXACT,
) -> RowDecisions:
    """Run the detection datapath over one checksum pair.

    "exact" takes float64 log2s. "lzc" floors each lane's log2 to its bit
    length minus 1 and compares it, on the LZC_FRAC_BITS fixed-point grid,
    with the Mitchell-log2 bound ``_theta_fixed``.
    """
    if log2_mode not in (EXACT, LZC):
        raise ValueError(f"log2_mode must be 'exact' or 'lzc', got {log2_mode!r}")
    if len(predicted) != len(observed):
        raise ValueError("checksum lengths differ")
    lanes = [int(p) - int(o) for p, o in zip(predicted.data, observed.data) if p != o]
    msd = abs(sum(lanes))
    if msd == 0:
        theta, over = math.inf, []
    elif log2_mode == EXACT:
        theta = params.b - (params.a - 1.0) * math.log2(msd)
        over = [d for d in lanes if math.log2(abs(d)) > theta]
    else:
        theta_fp = _theta_fixed(msd, params)
        theta = theta_fp / (1 << LZC_FRAC_BITS)
        over = [d for d in lanes if (floor_log2(abs(d)) << LZC_FRAC_BITS) > theta_fp]
    return RowDecisions(msd, theta, len(over), len(over) > params.theta_freq)


def run_array(w: QuantMatrix, x: QuantMatrix, fault: FaultConfig | None = None) -> SimResult:
    """One GEMM through the array, densely: compute, then optionally corrupt.

    Faults hit the INT32 output domain only; the input-side checksum
    prediction is computed before injection and is never corrupted.
    """
    clean = gemm(w, x)
    predicted = predicted_output_checksum(w, x)

    events: tuple[ErrorEvent, ...] = ()
    out = clean
    if fault is not None:
        out, ev = apply_fault(clean, fault)
        events = tuple(ev)

    return SimResult(
        output=out,
        predicted=predicted,
        observed=checksum(out, side="row"),
        events=events,
    )

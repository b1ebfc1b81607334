"""Statistical ABFT for quantized GEMM on undervolted systolic arrays.

Checksum-based error detection that recovers only when the error pattern
is statistically likely to damage workload quality, plus the fault models,
behavioral array simulator, calibration tooling, and energy accounting
needed to study the trade-off.
"""

__version__ = "0.1.0"

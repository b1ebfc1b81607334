"""Checksum-difference detectors, from classical ABFT to the statistical rule.

All detectors look at the same evidence: the element-wise difference d
between the predicted checksum row (computed from the inputs) and the
observed checksum row of the possibly-faulted output. From d they derive

    MSD      = |sum_j d_j|            (matrix sum deviation, exact int)
    theta    = b - (a - 1) * log2(MSD)        (+inf when MSD == 0)
    freq_eff = #{ j : d_j != 0 and log2|d_j| > theta }

and decide:

    classical        recover iff any d_j != 0 (the ABFT of Huang and Abraham,
                     IEEE Trans. Computers C-33(6), 1984)
    msd              recover iff MSD > threshold
    statistical      recover iff freq_eff > theta_freq
    statistical_lzc  the statistical rule on the integer LZC datapath (below)
    none             never recovers
    dmr              classical's decisions (costed differently by the energy
                     model: full dual execution instead of checksums)

The statistical rule encodes a critical region in (frequency, magnitude)
space: errors are worth recovering only when more than theta_freq checksum
lanes deviate by more than the magnitude bound theta, which shrinks as the
total deviation MSD grows (a > 1 makes the boundary slope downward in
log-log space).

statistical_lzc decides as a low-cost detector circuit would: log2|d_j| is
floored by a leading-zero count, and theta comes from Mitchell's truncated
piecewise-linear log2 of MSD (IRE Trans. Electronic Computers EC-11(4),
1962) on a grid of LZC_FRAC_BITS fractional bits. It can disagree with
statistical only on a lane within one octave of a bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .gemm import ChecksumVector

PASS = "pass"
RECOVER = "recover"

DETECTOR_KINDS = ("none", "classical", "msd", "statistical", "statistical_lzc", "dmr")
# the kinds that decide by a critical region and so need CriticalRegionParams
STATISTICAL_KINDS = ("statistical", "statistical_lzc")

# fractional bits of the LZC datapath's fixed-point log2 and theta
LZC_FRAC_BITS = 4
# lane exponents on the grid lie in [0, 63 << LZC_FRAC_BITS]: saturating changes no decision
_THETA_LIMIT = 64 << LZC_FRAC_BITS


@dataclass(frozen=True)
class CriticalRegionParams:
    """Parameters (a, b, theta_freq) of the critical-region boundary.

    The type admits a == 1 (a flat magnitude bound) so analysis code can
    probe the degenerate case; calibrated parameters loaded from disk are
    held to the strict a > 1 contract by load_params.
    """

    a: float
    b: float
    theta_freq: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a >= 1.0):
            raise ValueError(f"a must be finite and >= 1, got {self.a}")
        if not math.isfinite(self.b):
            raise ValueError(f"b must be finite, got {self.b}")
        if not (isinstance(self.theta_freq, int) and self.theta_freq >= 0):
            raise ValueError(f"theta_freq must be an int >= 0, got {self.theta_freq!r}")


# the package-default critical region, used wherever no params are configured
DEFAULT_PARAMS = CriticalRegionParams(a=2.0, b=40.0, theta_freq=4)


# an int64 sum of d is exact while len(d) * max|d_j| < 2**63. GEMM pairs meet
# it: m, n <= 4096 and |d_j| <= m * 2**32 <= 2**44, so len(d) * |d_j| <= 2**56
_INT64_SUM_LIMIT = 2**63


@dataclass(frozen=True, eq=False)
class ChecksumPair:
    """Predicted vs observed checksum row and their exact difference."""

    predicted: ChecksumVector
    observed: ChecksumVector
    diff: np.ndarray

    def __post_init__(self):
        d = self.diff
        peak = max(int(d.max()), -int(d.min())) if d.size else 0
        # outside the bound (no GEMM gets there) msd() falls back to Python ints
        object.__setattr__(self, "_int64_sum", d.size * peak < _INT64_SUM_LIMIT)

    @classmethod
    def from_vectors(cls, predicted: ChecksumVector, observed: ChecksumVector) -> "ChecksumPair":
        if len(predicted) != len(observed):
            raise ValueError(
                f"checksum lengths differ: {len(predicted)} vs {len(observed)}"
            )
        if predicted.side != observed.side:
            raise ValueError(
                f"checksum sides differ: {predicted.side!r} vs {observed.side!r}"
            )
        d = predicted.data - observed.data
        d.setflags(write=False)
        return cls(predicted=predicted, observed=observed, diff=d)

    @classmethod
    def from_diff(cls, diff) -> "ChecksumPair":
        """Build a synthetic pair with the given difference (observed = 0)."""
        d = np.asarray(diff, dtype=np.int64)
        return cls.from_vectors(
            ChecksumVector(d.copy()), ChecksumVector(np.zeros_like(d))
        )

    def msd(self) -> int:
        """|sum of differences|, exact: int64 within the bound, else Python ints."""
        if self._int64_sum:
            return abs(int(self.diff.sum()))
        return abs(sum(int(v) for v in self.diff))

    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.diff))


@dataclass(frozen=True)
class DetectionVerdict:
    """What a detector saw and what it decided for one GEMM."""

    detector: str
    msd: int
    theta_mag: float
    freq_eff: int
    decision: str

    def __post_init__(self):
        if self.decision not in (PASS, RECOVER):
            raise ValueError(f"decision must be pass/recover, got {self.decision!r}")
        if self.msd < 0:
            raise ValueError("msd is an absolute value, must be >= 0")
        if self.freq_eff < 0:
            raise ValueError("freq_eff must be >= 0")

    @property
    def recovers(self) -> bool:
        return self.decision == RECOVER


def theta_mag(msd: int, params: CriticalRegionParams) -> float:
    """Magnitude bound b - (a-1) * log2(MSD); +inf when MSD == 0."""
    if msd < 0:
        raise ValueError("msd must be >= 0")
    if msd == 0:
        return math.inf
    return params.b - (params.a - 1.0) * math.log2(msd)


def effective_frequency(pair: ChecksumPair, theta: float) -> int:
    """Count checksum lanes whose deviation magnitude exceeds 2**theta."""
    d = pair.diff
    nz = d != 0
    if not nz.any() or theta == math.inf:
        return 0
    mags = np.abs(d[nz].astype(np.float64))
    return int(np.count_nonzero(np.log2(mags) > theta))


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
    return (e << frac_bits) | (((x << frac_bits) >> e) & ((1 << frac_bits) - 1))


def _theta_fixed(msd: int, p: CriticalRegionParams) -> int | None:
    """Magnitude bound on the LZC_FRAC_BITS grid, saturated; None encodes +inf (MSD == 0)."""
    if msd == 0:
        return None
    theta = p.b * (1 << LZC_FRAC_BITS) - (p.a - 1.0) * log2_fixed(msd, LZC_FRAC_BITS)
    return round(min(max(theta, -_THETA_LIMIT), _THETA_LIMIT))


def _floor_log2_lanes(d: np.ndarray) -> np.ndarray:
    """floor(log2 |d_j|) of nonzero int64 lanes, by a 6-step binary search for the leading one."""
    # |INT64_MIN| wraps to INT64_MIN, whose uint64 view is 2**63
    x = np.abs(d).view(np.uint64)
    e = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        high = (x >> np.uint64(shift)) != 0
        e[high] += shift
        x = np.where(high, x >> np.uint64(shift), x)
    return e


def detect_classical(pair: ChecksumPair) -> DetectionVerdict:
    """Classical ABFT: any nonzero checksum difference triggers recovery."""
    nz = pair.nonzero_count()
    return DetectionVerdict(
        detector="classical",
        msd=pair.msd(),
        theta_mag=0.0,
        freq_eff=nz,
        decision=RECOVER if nz > 0 else PASS,
    )


def detect_msd(pair: ChecksumPair, threshold: int) -> DetectionVerdict:
    """Recover iff MSD strictly exceeds the fixed threshold."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    msd = pair.msd()
    return DetectionVerdict(
        detector="msd",
        msd=msd,
        theta_mag=0.0,
        freq_eff=pair.nonzero_count(),
        decision=RECOVER if msd > threshold else PASS,
    )


def detect_statistical(pair: ChecksumPair, params: CriticalRegionParams) -> DetectionVerdict:
    """Recover iff freq_eff strictly exceeds theta_freq.

    Both comparisons are strict: lanes count toward freq_eff only when
    log2|d_j| > theta, and recovery fires only when freq_eff > theta_freq.
    MSD == 0 gives theta = +inf, so fully cancelling errors always pass.
    """
    msd = pair.msd()
    theta = theta_mag(msd, params)
    freq_eff = effective_frequency(pair, theta)
    return DetectionVerdict(
        detector="statistical",
        msd=msd,
        theta_mag=theta,
        freq_eff=freq_eff,
        decision=RECOVER if freq_eff > params.theta_freq else PASS,
    )


def detect_statistical_lzc(pair: ChecksumPair, params: CriticalRegionParams) -> DetectionVerdict:
    """detect_statistical on the LZC datapath; theta_mag is the fixed-point bound."""
    msd = pair.msd()
    theta = _theta_fixed(msd, params)
    freq_eff = 0
    if theta is not None:
        lanes = pair.diff[pair.diff != 0]
        freq_eff = int(np.count_nonzero((_floor_log2_lanes(lanes) << LZC_FRAC_BITS) > theta))
    return DetectionVerdict(
        detector="statistical_lzc",
        msd=msd,
        theta_mag=math.inf if theta is None else theta / (1 << LZC_FRAC_BITS),
        freq_eff=freq_eff,
        decision=RECOVER if freq_eff > params.theta_freq else PASS,
    )


def detect_none(pair: ChecksumPair) -> DetectionVerdict:
    """Baseline that never recovers; stats still reported for bookkeeping."""
    return DetectionVerdict(
        detector="none",
        msd=pair.msd(),
        theta_mag=0.0,
        freq_eff=pair.nonzero_count(),
        decision=PASS,
    )


@dataclass(frozen=True)
class DetectorSpec:
    """A detector kind plus whatever parameters that kind needs."""

    kind: str
    params: CriticalRegionParams | None = None
    msd_threshold: int = 0

    def __post_init__(self):
        if self.kind not in DETECTOR_KINDS:
            raise ValueError(f"kind must be one of {DETECTOR_KINDS}, got {self.kind!r}")
        if self.kind in STATISTICAL_KINDS and self.params is None:
            raise ValueError(f"{self.kind} detector needs CriticalRegionParams")
        if self.msd_threshold < 0:
            raise ValueError("msd_threshold must be >= 0")

    def evaluate(self, pair: ChecksumPair) -> DetectionVerdict:
        # dmr catches every nonzero difference by full re-execution, so it
        # decides as classical does; only its energy cost differs
        if self.kind in ("classical", "dmr"):
            return detect_classical(pair)
        if self.kind == "msd":
            return detect_msd(pair, self.msd_threshold)
        if self.kind == "statistical":
            return detect_statistical(pair, self.params)
        if self.kind == "statistical_lzc":
            return detect_statistical_lzc(pair, self.params)
        return detect_none(pair)


def save_params(params: CriticalRegionParams, path: str, provenance: str = "") -> None:
    """Write calibrated parameters as a small JSON document."""
    doc = {**asdict(params), "provenance": provenance}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _is_finite_number(v) -> bool:
    """A JSON number that converts to a finite float (booleans are not numbers)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(float(v))
    except OverflowError:  # an integer too large for a float
        return False


def params_from_doc(doc) -> CriticalRegionParams:
    """Validate a decoded params document; calibrated params need a > 1 strictly.

    Each ValueError message starts with the offending key when there is one.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"params must be a JSON object, got {type(doc).__name__}")
    missing = {"a", "b", "theta_freq"} - set(doc)
    if missing:
        raise ValueError(f"params missing keys: {sorted(missing)}")
    a, b, tf = doc["a"], doc["b"], doc["theta_freq"]
    if not _is_finite_number(a):
        raise ValueError(f"a must be a finite number, got {a!r}")
    if not a > 1.0:
        raise ValueError(f"a must be > 1 (calibrated params), got {a!r}")
    if not _is_finite_number(b):
        raise ValueError(f"b must be a finite number, got {b!r}")
    if not isinstance(tf, int) or isinstance(tf, bool):
        raise ValueError(f"theta_freq must be an integer, got {tf!r}")
    return CriticalRegionParams(a=float(a), b=float(b), theta_freq=tf)


def load_params(path: str) -> tuple[CriticalRegionParams, str]:
    """Read a parameter file written by save_params (or by hand)."""
    with open(path) as fh:
        doc = json.load(fh)
    params = params_from_doc(doc)
    return params, str(doc.get("provenance", ""))

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

Each rule is written once, over rows: ``DetectorSpec.decide`` takes an int64
(GEMMs x lanes) matrix D of checksum differences and decides every row in
one vectorized pass, as a detector circuit does in one pass over its lanes.
A sweep scores each voltage this way, one row per trial. MSD is the int64 row
sum, exact while lanes * max|d_j| < 2**63 (asserted; a GEMM has |d_j| <=
m * 2**32 <= 2**44 and at most 4096 lanes, so it stays below 2**56). The
exact bound theta takes math.log2 of each row's nonzero MSD, as one GEMM's
does; the LZC bound runs the integer log2 and float steps of ``_theta_fixed``
over all rows at once. One GEMM is the one-row case: ``ChecksumPair.msd``
is ``row_msd`` of its difference, under the same bound, and
``DetectorSpec.evaluate`` is ``decide``'s one row, a ``RowDecisions`` of
Python scalars; ``systolic.statistical_unit`` is the independent scalar
oracle, and returns the same.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .gemm import ChecksumVector

DETECTOR_KINDS = ("none", "classical", "msd", "statistical", "statistical_lzc", "dmr")
# the kinds that decide by a critical region, the only ones that read DetectorSpec.params
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


# the package-default critical region: the params of DetectorSpec(), the stock detector section
DEFAULT_PARAMS = CriticalRegionParams(a=2.0, b=40.0, theta_freq=4)


# an int64 sum of d is exact while len(d) * max|d_j| < 2**63. GEMM pairs meet
# it: m, n <= 4096 and |d_j| <= m * 2**32 <= 2**44, so len(d) * |d_j| <= 2**56
_INT64_SUM_LIMIT = 2**63


def _peak(d: np.ndarray) -> int:
    """max|d_j| as a Python int (|INT64_MIN| does not fit int64)."""
    return max(int(d.max()), -int(d.min())) if d.size else 0


@dataclass(frozen=True, eq=False)
class ChecksumPair:
    """Predicted vs observed checksum row and their exact difference."""

    predicted: ChecksumVector
    observed: ChecksumVector
    diff: np.ndarray

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
        """|sum of differences|: ``row_msd`` of the one-row matrix, under the same bound."""
        return int(row_msd(self.diff[np.newaxis])[0])


def theta_mag(msd: int, params: CriticalRegionParams) -> float:
    """Magnitude bound b - (a-1) * log2(MSD); +inf when MSD == 0."""
    if msd < 0:
        raise ValueError("msd must be >= 0")
    if msd == 0:
        return math.inf
    return params.b - (params.a - 1.0) * math.log2(msd)


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
    """floor(log2 |d_j|) of int64 lanes (0 for a zero lane), by a 6-step search for the leading one."""
    # |INT64_MIN| wraps to INT64_MIN, whose uint64 view is 2**63
    x = np.abs(d).view(np.uint64)
    e = np.zeros(x.shape, dtype=np.uint64)
    for shift in (32, 16, 8, 4, 2, 1):
        # shift by `shift` where a one lies that far up, else by 0
        step = ((x >> np.uint64(shift)) != 0).astype(np.uint64) * np.uint64(shift)
        e += step
        x >>= step
    return e.view(np.int64)


class RowDecisions(NamedTuple):
    """One detector's statistics and decision for each row of a difference matrix.

    Row i is one GEMM's checksum difference; every field holds one value per
    row. ``row(i)`` holds row i's values as Python scalars, which is what a
    one-GEMM decision (``DetectorSpec.evaluate``) is. ``theta_mag`` is the
    magnitude bound (+inf where MSD == 0) for the statistical kinds and 0.0
    for the others.
    """

    msd: np.ndarray  # int64
    theta_mag: np.ndarray  # float64
    freq_eff: np.ndarray  # int64
    recovers: np.ndarray  # bool

    def row(self, i: int) -> "RowDecisions":
        """Row i's decision, with int, float, int and bool fields."""
        return RowDecisions(*(field[i].item() for field in self))


def row_msd(diffs: np.ndarray) -> np.ndarray:
    """MSD = |sum_j d_j| of each row of an int64 (GEMMs x lanes) matrix, exact in int64.

    Raises ValueError outside the bound lanes * max|d_j| < 2**63 that keeps the sums exact.
    """
    peak = _peak(diffs)
    if diffs.shape[1] * peak >= _INT64_SUM_LIMIT:
        raise ValueError(
            f"{diffs.shape[1]} lanes with |d_j| up to {peak} break the int64 bound "
            "lanes * max|d_j| < 2**63"
        )
    return np.abs(diffs.sum(axis=1))


def _theta_fixed_rows(msd: np.ndarray, params: CriticalRegionParams) -> np.ndarray:
    """``_theta_fixed`` of each MSD >= 1 at once: the same integer log2 and float steps."""
    f = LZC_FRAC_BITS
    e = _floor_log2_lanes(msd)
    # the first f mantissa bits below the leading one; x << f would overflow past 2**59
    below = np.where(e >= f, msd >> np.maximum(e - f, 0), msd << np.maximum(f - e, 0))
    with np.errstate(over="ignore", invalid="ignore"):  # inf saturates below; NaN raises next
        theta = params.b * (1 << f) - (params.a - 1.0) * ((e << f) | (below & ((1 << f) - 1)))
    if np.isnan(theta).any():
        raise ValueError(f"the LZC bound of {params} is NaN")
    # np.rint rounds half to even, as round() does
    return np.rint(np.clip(theta, -_THETA_LIMIT, _THETA_LIMIT)).astype(np.int64)


def _region_counts(diffs: np.ndarray, msd: np.ndarray, params: CriticalRegionParams, lzc: bool):
    """Each row's magnitude bound and its count of nonzero lanes above it.

    The exact bound of a row with MSD > 0 takes ``math.log2`` of its MSD, the
    logarithm ``theta_mag`` takes (numpy's ``log2`` need not round alike),
    and then ``theta_mag``'s multiply and subtract, the same two IEEE
    operations on an array; the LZC bound comes from ``_theta_fixed_rows``.
    So every row gets exactly the bound its GEMM alone gets.
    """
    if lzc:
        # rows with MSD == 0 get the saturated bound, which no lane exponent exceeds
        active = msd != 0
        fixed = np.where(active, _theta_fixed_rows(np.maximum(msd, 1), params), _THETA_LIMIT)
        over = (_floor_log2_lanes(diffs) << LZC_FRAC_BITS) > fixed[:, np.newaxis]
        theta = np.where(active, fixed / (1 << LZC_FRAC_BITS), math.inf)
    else:
        nonzero = np.flatnonzero(msd)
        logs = np.fromiter(map(math.log2, msd[nonzero].tolist()), np.float64, nonzero.size)
        theta = np.full(len(diffs), math.inf)
        with np.errstate(over="ignore"):  # a huge a gives -inf, as theta_mag's float steps do
            theta[nonzero] = params.b - (params.a - 1.0) * logs
        with np.errstate(divide="ignore"):  # log2(0) = -inf on zero lanes, masked below
            over = np.log2(np.abs(diffs.astype(np.float64))) > theta[:, np.newaxis]
    return theta, np.count_nonzero((diffs != 0) & over, axis=1)


@dataclass(frozen=True)
class DetectorSpec:
    """A detector kind plus its parameters; ``DetectorSpec()`` is the stock ``detector`` section."""

    kind: str = "statistical"
    params: CriticalRegionParams = DEFAULT_PARAMS
    msd_threshold: int = 0

    def __post_init__(self):
        if self.kind not in DETECTOR_KINDS:
            raise ValueError(f"kind must be one of {DETECTOR_KINDS}, got {self.kind!r}")
        if self.msd_threshold < 0:
            raise ValueError("msd_threshold must be >= 0")

    def decide(self, diffs: np.ndarray) -> RowDecisions:
        """This kind's rule on every row of an int64 (GEMMs x lanes) difference matrix.

        Rows are independent: row i gets the decision its GEMM would get alone.
        """
        if diffs.ndim != 2 or diffs.dtype != np.int64:
            raise ValueError(f"diffs must be a 2-D int64 matrix, got {diffs.ndim}-D {diffs.dtype}")
        msd = row_msd(diffs)
        if self.kind in STATISTICAL_KINDS:
            theta, freq_eff = _region_counts(
                diffs, msd, self.params, self.kind == "statistical_lzc"
            )
            recovers = freq_eff > self.params.theta_freq
        else:
            theta = np.zeros(len(diffs))
            freq_eff = np.count_nonzero(diffs, axis=1)
            if self.kind in ("classical", "dmr"):
                # dmr catches every nonzero difference by full re-execution, so it
                # decides as classical does; only its energy cost differs
                recovers = freq_eff > 0
            elif self.kind == "msd":
                recovers = msd > self.msd_threshold
            else:
                recovers = np.zeros(len(diffs), dtype=bool)
        return RowDecisions(msd=msd, theta_mag=theta, freq_eff=freq_eff, recovers=recovers)

    def evaluate(self, pair: ChecksumPair) -> RowDecisions:
        """The decision on one GEMM: row 0 of ``decide`` on the one-row matrix of its difference."""
        return self.decide(pair.diff[np.newaxis]).row(0)


def detect_statistical(pair: ChecksumPair, params: CriticalRegionParams) -> RowDecisions:
    """Recover iff freq_eff strictly exceeds theta_freq.

    Both comparisons are strict: lanes count toward freq_eff only when
    log2|d_j| > theta, and recovery fires only when freq_eff > theta_freq.
    MSD == 0 gives theta = +inf, so fully cancelling errors always pass.
    """
    return DetectorSpec(kind="statistical", params=params).evaluate(pair)


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

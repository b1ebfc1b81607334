"""How normalization layers spread a single numeric error across a vector.

A hidden state with a few large outliers dominates the mean/variance (or RMS)
statistics of its normalization layer. Corrupt one element enough to move
those statistics and every normalized output shifts, not just the corrupted
lane. This module builds synthetic hidden states with that structure and
measures the spread.

``changed_fraction`` uses the comparison form |after - before| > tol *
|before| rather than a division so zero baselines are handled without
special cases; ``max_rel_change`` divides but floors the denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .faults import uniform_positions
from .rng import derive_seed, u64_stream, unit_floats

NORM_KINDS = ("layer_norm", "rms_norm", "none")

# relative-change threshold for counting an element as disturbed
CHANGE_TOL = 0.01
_EPS = 1e-6
_DENOM_FLOOR = 1e-12

# derivation tags of a hidden state's two streams under its seed
_TAG_NOISE = 301
_TAG_OUTLIERS = 302


@dataclass(frozen=True)
class NormPipelineConfig:
    """Synthetic hidden-state shape: Gaussian noise plus a few large outliers.

    ``outlier_value`` must dominate ``base_noise_scale`` by at least 10x so
    the outliers actually carry the normalization statistics.
    """

    dim: int = 4096
    outlier_count: int = 8
    outlier_value: float = 50.0
    base_noise_scale: float = 1.0
    norm_kind: str = "layer_norm"
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (0 <= self.outlier_count < self.dim):
            raise ValueError(
                f"outlier_count must be in [0, dim), got {self.outlier_count}"
            )
        if self.base_noise_scale <= 0:
            raise ValueError("base_noise_scale must be > 0")
        if abs(self.outlier_value) < 10.0 * self.base_noise_scale:
            raise ValueError(
                "outlier_value must be >= 10x base_noise_scale "
                f"(got {self.outlier_value} vs {self.base_noise_scale})"
            )
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"norm_kind must be one of {NORM_KINDS}")


def synthetic_hidden_state(cfg: NormPipelineConfig) -> np.ndarray:
    """Gaussian noise with ``outlier_count`` entries forced to outlier_value.

    Deterministic in cfg.seed, which roots two SplitMix64 streams. The noise
    is Box-Muller pairs (Box & Muller, Ann. Math. Stat., 1958) from unit
    floats of the first: draws 2i and 2i + 1 give elements 2i and 2i + 1. The outliers sit at the ``outlier_count`` smallest
    priorities of the second, the rule ``faults.uniform_positions`` follows.
    """
    unit = unit_floats(u64_stream(derive_seed(cfg.seed, _TAG_NOISE), 2 * ((cfg.dim + 1) // 2)))
    # 1 - unit lies in (0, 1], so the radius is finite
    radius = np.sqrt(-2.0 * np.log1p(-unit[0::2]))
    angle = 2.0 * np.pi * unit[1::2]
    pairs = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=1)
    v = cfg.base_noise_scale * pairs.ravel()[: cfg.dim]
    outliers = uniform_positions([derive_seed(cfg.seed, _TAG_OUTLIERS)], cfg.dim, cfg.outlier_count)
    v[outliers[0]] = cfg.outlier_value
    return v


def layer_norm(v: np.ndarray, eps: float = _EPS) -> np.ndarray:
    """Zero-mean unit-variance normalization over the last axis (each row of a stack)."""
    mu = v.mean(axis=-1, keepdims=True)
    var = v.var(axis=-1, keepdims=True)
    return (v - mu) / np.sqrt(var + eps)


def rms_norm(v: np.ndarray, eps: float = _EPS) -> np.ndarray:
    """Scale by the root-mean-square over the last axis (each row of a stack)."""
    rms = np.sqrt(np.mean(v * v, axis=-1, keepdims=True) + eps)
    return v / rms


def apply_norm(v: np.ndarray, kind: str) -> np.ndarray:
    if kind == "layer_norm":
        return layer_norm(v)
    if kind == "rms_norm":
        return rms_norm(v)
    if kind == "none":
        return v.copy()
    raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {kind!r}")


@dataclass(frozen=True)
class AmplificationResult:
    changed_fraction: float
    max_rel_change: float


def changed_fraction(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Fraction of elements moved > 1% relative, over the last axis (each row of a stack)."""
    changed = np.abs(after - before) > CHANGE_TOL * np.abs(before)
    return np.count_nonzero(changed, axis=-1) / before.shape[-1]


def measure_change(before: np.ndarray, after: np.ndarray) -> AmplificationResult:
    """Fraction of elements moved > 1% relative, and the largest relative move."""
    delta = np.abs(after - before)
    max_rel = float(np.max(delta / np.maximum(np.abs(before), _DENOM_FLOOR)))
    return AmplificationResult(
        changed_fraction=float(changed_fraction(before, after)),
        max_rel_change=max_rel,
    )


def norm_amplification(
    cfg: NormPipelineConfig, error_mag: float, error_index: int
) -> AmplificationResult:
    """Inject one additive error before normalization; measure spread after.

    With norm_kind="none" the error stays confined to its own lane: the
    changed fraction is exactly 1/dim for any error big enough to clear the
    1% threshold, and exactly 0 for error_mag == 0.
    """
    base = synthetic_hidden_state(cfg)
    if not (0 <= error_index < cfg.dim):
        raise ValueError(f"error_index {error_index} outside [0, {cfg.dim})")
    corrupted = base.copy()
    corrupted[error_index] += error_mag
    return measure_change(apply_norm(base, cfg.norm_kind), apply_norm(corrupted, cfg.norm_kind))

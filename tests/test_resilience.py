import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statabft.resilience import (
    CHANGE_TOL,
    AmplificationResult,
    NormPipelineConfig,
    apply_norm,
    layer_norm,
    measure_change,
    norm_amplification,
    rms_norm,
    synthetic_hidden_state,
)

# one amplification scenario pinned end to end: dim 4096, 8 outliers at 50,
# unit noise, seed 0, +1000 added to element 100
GOLDEN = {
    "layer_norm": (1.0, 312.25985131947135),
    "rms_norm": (1.0, 388.7222171688205),
    "none": (0.000244140625, 2516.0643997973607),
}


def test_hidden_state_is_deterministic_and_shaped():
    cfg = NormPipelineConfig(seed=0)
    v = synthetic_hidden_state(cfg)
    assert v.shape == (4096,)
    np.testing.assert_allclose(
        v[:4],
        [
            1.3910965309223422,
            -2.049324111351492,
            0.7540612532158738,
            -1.2010633001612487,
        ],
        rtol=0,
        atol=1e-15,
    )
    assert np.count_nonzero(v == 50.0) == 8
    again = synthetic_hidden_state(cfg)
    np.testing.assert_array_equal(v, again)
    other = synthetic_hidden_state(NormPipelineConfig(seed=1))
    assert not np.array_equal(v, other)


def test_layer_norm_matches_direct_formula():
    rng = np.random.default_rng(7)
    v = rng.normal(0, 3.0, 512)
    out = layer_norm(v)
    expect = (v - v.mean()) / np.sqrt(v.var() + 1e-6)
    np.testing.assert_allclose(out, expect, rtol=1e-15)
    # near-zero mean and near-unit variance on output (eps shrinks it slightly)
    assert abs(out.mean()) < 1e-12
    assert 0.99 < out.std() <= 1.0


def test_rms_norm_matches_direct_formula():
    rng = np.random.default_rng(8)
    v = rng.normal(0, 2.0, 512)
    out = rms_norm(v)
    np.testing.assert_allclose(out, v / np.sqrt(np.mean(v**2) + 1e-6), rtol=1e-15)
    # rms_norm preserves sign and zero
    assert np.all(np.sign(out) == np.sign(v))


def test_apply_norm_dispatch():
    v = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(apply_norm(v, "none"), v)
    assert apply_norm(v, "none") is not v
    np.testing.assert_allclose(apply_norm(v, "layer_norm"), layer_norm(v))
    np.testing.assert_allclose(apply_norm(v, "rms_norm"), rms_norm(v))
    with pytest.raises(ValueError, match="norm_kind"):
        apply_norm(v, "batch_norm")


def test_measure_change_counts_and_max():
    before = np.array([1.0, 10.0, 0.0, -4.0])
    after = np.array([1.005, 11.0, 0.5, -4.0])
    r = measure_change(before, after)
    # lane 0 moved 0.5%, under the 1% bar; lanes 1 and 2 are over it
    assert r.changed_fraction == 0.5
    # lane 2 has a zero baseline, so its relative move hits the floored denom
    assert r.max_rel_change == pytest.approx(0.5 / 1e-12)


def test_measure_change_identical_vectors():
    v = np.array([3.0, -1.0, 0.0])
    r = measure_change(v, v.copy())
    assert r == AmplificationResult(changed_fraction=0.0, max_rel_change=0.0)


@pytest.mark.parametrize("kind", ["layer_norm", "rms_norm", "none"])
def test_amplification_golden_values(kind):
    cfg = NormPipelineConfig(norm_kind=kind, seed=0)
    r = norm_amplification(cfg, error_mag=1000.0, error_index=100)
    changed, max_rel = GOLDEN[kind]
    assert r.changed_fraction == pytest.approx(changed, rel=0, abs=0)
    assert r.max_rel_change == pytest.approx(max_rel, rel=1e-12)


def test_normalization_spreads_but_identity_confines():
    for kind in ("layer_norm", "rms_norm"):
        cfg = NormPipelineConfig(norm_kind=kind, seed=3)
        r = norm_amplification(cfg, error_mag=1000.0, error_index=0)
        assert r.changed_fraction > 0.5, kind
    r = norm_amplification(
        NormPipelineConfig(norm_kind="none", seed=3), error_mag=1000.0, error_index=0
    )
    assert r.changed_fraction == 1.0 / 4096.0


def test_zero_error_changes_nothing():
    for kind in ("layer_norm", "rms_norm", "none"):
        r = norm_amplification(
            NormPipelineConfig(norm_kind=kind), error_mag=0.0, error_index=5
        )
        assert r.changed_fraction == 0.0
        assert r.max_rel_change == 0.0


@given(
    mag=st.floats(min_value=1.0, max_value=1e6),
    idx=st.integers(min_value=0, max_value=4095),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=25, deadline=None)
def test_identity_pipeline_changed_fraction_is_one_lane(mag, idx, seed):
    # with no normalization only the corrupted lane can move; it clears the
    # 1% bar whenever the added magnitude dominates the baseline there
    cfg = NormPipelineConfig(norm_kind="none", seed=seed)
    base = synthetic_hidden_state(cfg)
    r = norm_amplification(cfg, error_mag=mag, error_index=idx)
    if mag > CHANGE_TOL * abs(base[idx]):
        assert r.changed_fraction == 1.0 / cfg.dim
    else:
        assert r.changed_fraction == 0.0


def test_config_validation():
    with pytest.raises(ValueError, match="dim"):
        NormPipelineConfig(dim=0)
    with pytest.raises(ValueError, match="outlier_count"):
        NormPipelineConfig(dim=16, outlier_count=16)
    with pytest.raises(ValueError, match="10x"):
        NormPipelineConfig(outlier_value=5.0, base_noise_scale=1.0)
    with pytest.raises(ValueError, match="norm_kind"):
        NormPipelineConfig(norm_kind="instance_norm")
    with pytest.raises(ValueError, match="error_index"):
        norm_amplification(NormPipelineConfig(dim=8, outlier_count=0), 10.0, 8)


def test_outlier_free_state_is_pure_noise():
    cfg = NormPipelineConfig(dim=64, outlier_count=0, seed=9)
    v = synthetic_hidden_state(cfg)
    assert np.all(np.abs(v) < 10.0)


def test_noise_is_standard_normal_times_its_scale():
    # Box-Muller pairs of SplitMix64 unit floats: N(0, scale^2) per element,
    # pooled over ten seeds (an odd dim drops the last pair's second value)
    states = [
        synthetic_hidden_state(
            NormPipelineConfig(dim=4095, outlier_count=0, base_noise_scale=2.0, seed=seed)
        )
        for seed in range(10)
    ]
    assert {v.shape for v in states} == {(4095,)}
    v = np.concatenate(states)
    assert abs(v.mean()) < 0.05 and abs(v.std() - 2.0) < 0.03
    assert abs(np.mean(np.abs(v) < 2.0) - 0.6827) < 0.015  # within one sigma

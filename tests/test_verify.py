from dataclasses import replace

import numpy as np
import pytest

from statabft import detectors, rng, verify, workloads
from statabft.verify import CHECKS, _random_diff, run_check, run_checks

ALL_CHECKS = tuple(check.name for check in CHECKS)


def test_all_checks_pass_on_healthy_build():
    results = run_checks(cases=60, seed=0)
    assert [r.name for r in results] == list(ALL_CHECKS)
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
        assert r.cases > 0


def test_planted_failure_is_caught(monkeypatch):
    broken = lambda s, c: "row identity broken"
    planted = tuple(
        replace(k, test=broken) if k.name == "checksum-identities" else k for k in CHECKS
    )
    monkeypatch.setattr(verify, "CHECKS", planted)
    results = run_checks(cases=30, seed=0)
    by_name = {r.name: r for r in results}
    assert not by_name["checksum-identities"].passed
    assert "identity broken" in by_name["checksum-identities"].detail
    # the plant only sabotages the checksum identity check
    for name in ALL_CHECKS[1:]:
        assert by_name[name].passed


def test_checks_are_seed_stable():
    a = run_checks(cases=25, seed=3)
    b = run_checks(cases=25, seed=3)
    assert a == b


def test_run_checks_rejects_bad_case_count():
    with pytest.raises(ValueError, match="cases"):
        run_checks(cases=0, seed=0)


def test_random_diff_mixes_magnitudes():
    d = _random_diff(0, 4096)
    assert d.dtype == np.int64
    assert (d == 0).any()
    nz = np.abs(d[d != 0])
    assert nz.min() <= 127
    # the large band reaches past 2**40 via the shifted branch
    assert nz.max() > 2**40
    assert (d > 0).any() and (d < 0).any()


def test_individual_checks_report_case_counts():
    assert run_check("checksum-identities", 7, 0).cases == 7
    assert run_check("stat-unit-reference", 9, 1).cases == 9
    assert run_check("uniform-msd-relation", 11, 2).cases == 11
    assert run_check("ber-table-interpolation", 13, 3).cases == 13
    assert run_check("lzc-agreement-band", 17, 4).cases == 17


@pytest.mark.parametrize("name", ALL_CHECKS)
def test_a_check_reports_its_first_failing_case(monkeypatch, name):
    # every check goes through one driver, so a test failing at case 2 ends it there
    failing = lambda s, c: "broken" if c == 2 else ""
    patched = tuple(
        replace(k, test=failing, block=False) if k.name == name else k for k in CHECKS
    )
    monkeypatch.setattr(verify, "CHECKS", patched)
    result = run_check(name, 10, 0)
    assert (result.cases, result.passed) == (3, False)
    assert result.detail.endswith("at case 2")
    assert run_check(name, 2, 0).passed


def test_stat_unit_reference_catches_a_non_strict_lzc_bound(monkeypatch):
    # the LZC rule counts lanes strictly above the bound; a lane exactly on
    # it, which random params almost never produce, tells > from >=
    real = detectors._region_counts

    def non_strict(diffs, msd, params, lzc):
        theta, freq_eff = real(diffs, msd, params, lzc)
        if lzc:
            scaled = detectors._floor_log2_lanes(diffs) << detectors.LZC_FRAC_BITS
            on = (diffs != 0) & (scaled == theta[:, np.newaxis] * (1 << detectors.LZC_FRAC_BITS))
            freq_eff = freq_eff + np.count_nonzero(on, axis=1)
        return theta, freq_eff

    monkeypatch.setattr(detectors, "_region_counts", non_strict)
    result = run_check("stat-unit-reference", 100, 0)
    assert not result.passed
    assert "lzc datapath disagrees" in result.detail


def test_stat_unit_reference_catches_a_bound_broadcast_along_the_lanes(monkeypatch):
    # the check stacks its cases into square blocks, so comparing lane j with
    # row j's bound still broadcasts; only the verdicts show the wrong axis
    real = detectors._region_counts

    def wrong_axis(diffs, msd, params, lzc):
        theta, freq_eff = real(diffs, msd, params, lzc)
        if not lzc:
            with np.errstate(divide="ignore"):
                over = np.log2(np.abs(diffs.astype(np.float64))) > theta[np.newaxis, :]
            freq_eff = np.count_nonzero((diffs != 0) & over, axis=1)
        return theta, freq_eff

    monkeypatch.setattr(detectors, "_region_counts", wrong_axis)
    result = run_check("stat-unit-reference", 100, 0)
    assert not result.passed
    assert "exact datapath disagrees with statistical" in result.detail


@pytest.mark.parametrize(
    "module, message",
    [
        # workload_entries reads the next draw: the sparse path alone goes wrong
        (workloads, "top-BER events differ from dense"),
        # every stream shifts alike, so only the sequential generator tells
        (rng, "counter-based draws differ from sequential SplitMix64"),
    ],
    ids=["operand-index", "stream-counter"],
)
def test_sparse_evidence_catches_an_off_by_one_draw(monkeypatch, module, message):
    real = rng.u64_at
    monkeypatch.setattr(module, "u64_at", lambda seed, idx: real(seed, np.asarray(idx) + 1))
    result = run_check("sparse-evidence", 25, 0)
    assert not result.passed
    assert message in result.detail

"""Fuzzing ``statabft sweep`` with malformed config documents: each exits 2 with an error line."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from statabft.cli import main

# JSON values of each kind, and values of every other kind
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_NUMBER = st.one_of(st.integers(-(10**30), 10**30), st.floats(allow_nan=False, allow_infinity=False))
_CONTAINER = st.one_of(st.lists(st.integers(), max_size=3), st.dictionaries(_TEXT, st.integers(), max_size=2))
_JUNK = st.one_of(st.none(), st.booleans(), _CONTAINER)
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400])
_NOT_INT = st.one_of(_JUNK, _TEXT, st.floats())  # NaN and infinities included
_NOT_FLOAT = st.one_of(_JUNK, _TEXT, _NON_FINITE)
_NOT_STR = st.one_of(_JUNK, _NUMBER)
_SCALAR = st.one_of(st.none(), st.booleans(), _TEXT, _NUMBER)
_NOT_LIST = st.one_of(_SCALAR, st.dictionaries(_TEXT, st.integers(), max_size=2))


def _int(*bad):
    return st.one_of(_NOT_INT, st.sampled_from(bad))


def _float(*bad):
    return st.one_of(_NOT_FLOAT, st.sampled_from(bad))


def _str(*bad):
    return st.one_of(_NOT_STR, st.sampled_from(bad)) if bad else _NOT_STR


def _list(*bad):
    return st.one_of(_NOT_LIST, st.just([]), st.sampled_from(bad))


_PARAMS = st.one_of(
    _NOT_LIST,
    st.lists(st.integers(), max_size=2),
    st.sampled_from([
        {}, {"a": 2.0, "b": 40.0}, {"a": 1.0, "b": 40.0, "theta_freq": 4},
        {"a": 2.0, "b": float("nan"), "theta_freq": 4}, {"a": 2.0, "b": 40.0, "theta_freq": 1.5},
        {"a": 10**400, "b": 40.0, "theta_freq": 4}, {"a": 2.0, "b": 40.0, "theta_freq": -1},
        {"a": 2.0, "b": 40.0, "theta_freq": 4, "c": 0},
    ]),
)
HUGE = 10**30

# every key of every section, with values it must reject: wrong JSON types,
# non-finite and huge numbers, and values outside its bounds
BAD = {
    "workload": {
        "m": _int(0, -HUGE, HUGE), "k": _int(0, HUGE), "n": _int(-1, HUGE),
        "gemm_count": _int(0, -HUGE, 10**8, HUGE), "seed": _int(-1, -HUGE, 2**64, HUGE),
        "distribution": _str("", "gaussian"),
    },
    "fault": {
        "mode": _str("BER", "flip"), "ber": _float(-1e-9, 1.5, 1e308),
        "bit_window": _list([5], [1, 2, 3], [10, 5], [-1, 5], [0, 32], [0, HUGE], ["0", 31], [0.5, 31], [None, 31]),
        "mag": _int(2**31, -(2**31) - 1, HUGE), "seed": _int(-1, -HUGE, 2**64, HUGE),
        # above the 64 x 64 default output's element count
        "freq": _int(-1, -HUGE, 64 * 64 + 1, HUGE),
        "voltage": _float(0.0, -0.7, 0.95, 1e308),
    },
    "detector": {
        "params": _PARAMS, "msd_threshold": _int(-1, -HUGE),
        "params_file": _str("missing.json", ".", "bad.json", "list.json", "flat.json", "binary.bin", "deep.json"),
    },
    "energy": {
        "v_nom": _float(0.0, -1.0, 1e308), "e_mac_nom": _float(0.0, -1.0, 1e308),
        "detect_overhead": _float(-0.5, 1e308),
        "table_file": _str("missing.csv", ".", "header.csv", "text.csv", "one_row.csv", "ascending.csv",
                           "inf.csv", "binary.bin", "bad.json"),
    },
    "sweep": {
        "voltages": _list([0.7, 0.7], [-0.1], [0.0], [0.7, "0.6"], [0.7, None], [0.95], [1e308], [1e-320]),
        "detectors": _list(["bogus"], ["none", "none"], [1], [None], ["statistical", ""]),
        # a lone range key is an incomplete range, whatever its value
        "v_min": st.one_of(_NOT_FLOAT, _NUMBER), "v_max": st.one_of(_NOT_FLOAT, _NUMBER),
        "v_step": st.one_of(_NOT_FLOAT, _NUMBER),
    },
    "calibrate": {
        "oracle": _str("oracle"), "epsilon": _float(-1.0), "trials": _int(0, -HUGE),
        "freq_axis": _list([1], [2, 1], [0, 4], [1, HUGE], [1, 2.5], [1, "2"]),
        "mag_log2_axis": _list([1.0], [3.0, 2.0], [-1.0, 4.0], [1.0, 1e308], [1.0, None]),
        "planted": _PARAMS, "norm_kind": _str("batch_norm"),
        "target_rows": _int(0, -HUGE, 10**6, HUGE), "target_cols": _int(0, -HUGE, 10**6, HUGE),
    },
    "output": {"dir": _str(), "format": _str("CSV", "xml")},
}

_KEY = _TEXT.map(lambda s: "zz_" + s)  # no config key starts with zz_


def _one_bad_key():
    return st.sampled_from(sorted(BAD)).flatmap(
        lambda section: st.sampled_from(sorted(BAD[section])).flatmap(
            lambda key: BAD[section][key].map(lambda v: {section: {key: v}})
        )
    )


MALFORMED = st.one_of(
    _one_bad_key(),
    # unknown keys, at the top level or inside a section
    st.builds(lambda k, v: {k: v}, _KEY, _JUNK),
    st.builds(lambda s, k, v: {s: {k: v}}, st.sampled_from(sorted(BAD)), _KEY, st.one_of(_JUNK, _NUMBER)),
    # a section, or the whole document, that is not an object
    st.builds(lambda s, v: {s: v}, st.sampled_from(sorted(BAD)), st.one_of(_SCALAR, st.lists(st.integers()))),
    st.one_of(_SCALAR, st.lists(st.integers(), max_size=3)),
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Unreadable or malformed params and table files next to the config."""
    d = tmp_path_factory.mktemp("malformed")
    (d / "bad.json").write_text("{not json")
    (d / "list.json").write_text("[1, 2]")
    (d / "flat.json").write_text('{"a": 1.0, "b": 40.0, "theta_freq": 4}')
    (d / "binary.bin").write_bytes(bytes(range(256)))
    (d / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    (d / "header.csv").write_text("volts,ber\n0.9,1e-9\n0.6,1e-4\n")
    (d / "text.csv").write_text("voltage,ber\n0.9,low\n0.6,1e-4\n")
    (d / "one_row.csv").write_text("voltage,ber\n0.9,1e-9\n")
    (d / "ascending.csv").write_text("voltage,ber\n0.6,1e-9\n0.9,1e-4\n")
    (d / "inf.csv").write_text("voltage,ber\ninf,0\n0.6,1e-4\n")
    return d


def _run(files, doc):
    path = files / "config.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["--config", str(path), "--out", str(files / "out"), "sweep"])
    return rc, err.getvalue()


@given(doc=MALFORMED)
# the lowest voltage's energy ratio overflowed a float ** and raised OverflowError
@example(doc={"sweep": {"voltages": [1e308]}})
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_malformed_config_exits_two_with_an_error_line(files, doc):
    rc, err = _run(files, doc)
    assert rc == 2, (doc, err)
    assert err.startswith("error: ") and "Traceback" not in err, (doc, err)


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, "{", "", "\xff"])
def test_unparsable_config_exits_two_with_an_error_line(files, text, capsys):
    path = files / "raw.json"
    path.write_text(text, encoding="latin-1")
    assert main(["--config", str(path), "sweep"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "args, key",
    [
        (["--seed", str(2**64)], "--seed"),
        (["--seed", str(10**30)], "--seed"),
        (["--config", "{workload}"], "workload.seed"),
        (["--config", "{fault}"], "fault.seed"),
    ],
)
def test_seeds_of_2_64_or_more_exit_two_at_their_key(files, capsys, args, key):
    # derive_seed keeps 64 bits, so 2**64 would run as seed 0
    (files / "workload.json").write_text(json.dumps({"workload": {"seed": 2**64}}))
    (files / "fault.json").write_text(json.dumps({"fault": {"seed": 2**64}}))
    args = [a.format(workload=files / "workload.json", fault=files / "fault.json") for a in args]
    assert main([*args, "inject"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}")


def test_the_largest_seed_runs(files, capsys):
    top = 2**64 - 1
    (files / "top.json").write_text(json.dumps({"workload": {"seed": top}, "fault": {"seed": top}}))
    for args in (["--config", str(files / "top.json")], ["--seed", str(top)]):
        assert main([*args, "inject"]) == 0
        assert json.loads(capsys.readouterr().out)["fault"]["seed"] == top


@pytest.mark.parametrize("freq", [-1, 64 * 64 + 1])
def test_fault_freq_has_one_rule_for_both_bounds(files, freq):
    rc, err = _run(files, {"fault": {"freq": freq}})
    assert rc == 2
    assert err == f"error: fault.freq: must be in [0, workload.m * workload.n = 4096], got {freq}\n"

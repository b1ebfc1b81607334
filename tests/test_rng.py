import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statabft.calibration import quality_grid
from statabft.cli import main
from statabft.faults import FaultConfig
from statabft.rng import (
    GAMMA,
    MASK64,
    SplitMix64,
    check_seed,
    derive_seed,
    mix64,
    u64_at,
    u64_stream,
    unit_floats,
)
from statabft.workloads import WorkloadSpec


def reference_sequence(seed, n):
    # straight sequential SplitMix64, implemented independently of the module
    out = []
    state = seed & MASK64
    for _ in range(n):
        state = (state + GAMMA) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def test_known_vector_seed_zero():
    # canonical splitmix64 outputs for seed 0
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]
    assert [int(v) for v in u64_stream(0, 4)] == expected


def test_stream_matches_reference():
    for seed in (0, 1, 42, 2**63, MASK64):
        assert [int(v) for v in u64_stream(seed, 16)] == reference_sequence(seed, 16)


def test_sequential_class_matches_stream():
    rng = SplitMix64(1234)
    assert [rng.next_u64() for _ in range(8)] == [int(v) for v in u64_stream(1234, 8)]


def test_offset_slices_stream():
    full = u64_stream(77, 20)
    assert np.array_equal(full[5:], u64_stream(77, 15, offset=5))


def test_unit_floats_in_range_and_value():
    u = u64_stream(9, 1000)
    f = unit_floats(u)
    assert f.dtype == np.float64
    assert np.all(f >= 0.0) and np.all(f < 1.0)
    assert f[0] == (int(u[0]) >> 11) * 2.0**-53


def test_derive_seed_distinguishes_paths():
    assert derive_seed(0, 1) != derive_seed(0, 2)
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
    assert derive_seed(5, 0) != derive_seed(5, 0, 0)
    # frozen values guard against accidental algorithm changes
    assert derive_seed(0, 1) == 0xDDC1ED05282D1D64
    assert derive_seed(0, 1, 2) == 0x7947B6CB424A7ED5


@given(st.integers(min_value=0, max_value=MASK64))
@settings(max_examples=200, deadline=None)
def test_mix64_stays_in_64_bits(x):
    v = mix64(x)
    assert 0 <= v <= MASK64


@given(st.integers(min_value=0, max_value=MASK64), st.integers(min_value=1, max_value=64))
@settings(max_examples=100, deadline=None)
def test_stream_prefix_stability(seed, n):
    long = u64_stream(seed, 64)
    assert np.array_equal(long[:n], u64_stream(seed, n))


@given(
    st.integers(min_value=0, max_value=MASK64),
    st.integers(min_value=0, max_value=2**62),
    st.lists(st.integers(min_value=0, max_value=63), max_size=40),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_u64_at_draws_any_indices_of_the_stream(seed, offset, picks, two_d):
    # unsorted, repeated and empty index arrays, flat or 2-D, at any offset
    idx = np.array(picks, dtype=np.int64)
    if two_d:
        idx = np.stack([idx, idx[::-1]])
    drawn = u64_at(seed, idx + offset)
    assert drawn.shape == idx.shape and drawn.dtype == np.uint64
    assert np.array_equal(drawn, u64_stream(seed, 64, offset)[idx])


def test_u64_at_single_index_and_sequential_view():
    rng = SplitMix64(99)
    expected = [rng.next_u64() for _ in range(5)]
    assert [int(u64_at(99, i)) for i in range(5)] == expected
    assert u64_at(99, 4).shape == ()


_ROOT = st.one_of(
    st.integers(min_value=0, max_value=MASK64),
    st.integers(min_value=MASK64 - 2**10, max_value=MASK64),
    st.integers(min_value=-(2**70), max_value=2**70),
)
_INDEX = st.one_of(st.integers(min_value=0, max_value=2**20), st.integers(min_value=MASK64 - 2**10, max_value=MASK64))


@given(
    _ROOT,
    st.lists(_INDEX, max_size=2),
    st.lists(_INDEX, min_size=1, max_size=6),
    st.lists(_INDEX, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_array_derive_seed_equals_the_scalar_form(root, before, column, after):
    got = derive_seed(root, *before, np.array(column, dtype=np.uint64), *after)
    assert got.dtype == np.uint64 and got.shape == (len(column),)
    assert got.tolist() == [derive_seed(root, *before, k, *after) for k in column]


@given(_ROOT, st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=3))
@settings(max_examples=50, deadline=None)
def test_array_derive_seed_broadcasts_its_indices(root, rows, cols):
    # a 0-d array index folds like a 1-d one
    got = derive_seed(root, 9, np.arange(rows)[:, np.newaxis], np.arange(cols))
    assert got.shape == (rows, cols)
    assert got.tolist() == [[derive_seed(root, 9, t, c) for c in range(cols)] for t in range(rows)]
    assert derive_seed(root, np.array(rows)).shape == ()
    assert int(derive_seed(root, np.array(rows))) == derive_seed(root, rows)


@given(
    st.lists(st.integers(min_value=0, max_value=MASK64), max_size=4),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=2**40),
)
@settings(max_examples=100, deadline=None)
def test_u64_stream_gives_each_seed_of_a_column_its_stream(seeds, n, offset):
    rows = u64_stream(np.array(seeds, dtype=np.uint64)[:, np.newaxis], n, offset)
    assert rows.shape == (len(seeds), n) and rows.dtype == np.uint64
    for seed, row in zip(seeds, rows):
        assert np.array_equal(row, u64_stream(seed, n, offset))


@given(
    st.lists(st.integers(min_value=0, max_value=MASK64), min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_u64_at_broadcasts_an_array_of_seeds(seeds, picks):
    # element i is output idx[i] of the stream seeded with seed[i], flat or broadcast
    seeds, idx = np.array(seeds, dtype=np.uint64), np.array(picks, dtype=np.int64)
    grid = u64_at(seeds[:, np.newaxis], idx)
    assert grid.shape == (seeds.size, idx.size)
    assert grid.tolist() == [[int(u64_at(int(s), i)) for i in picks] for s in seeds.tolist()]
    paired = np.resize(idx, seeds.size)
    assert u64_at(seeds, paired).tolist() == [int(u64_at(int(s), i)) for s, i in zip(seeds.tolist(), paired)]
    assert u64_at(seeds[:1].reshape(()), 3).shape == ()


@given(_ROOT, st.lists(_INDEX, max_size=2), _INDEX)
@settings(max_examples=100, deadline=None)
def test_derive_seed_takes_numpy_integer_indices(root, before, k):
    # an np.integer index is the Python int it holds, and the array form's element
    got = derive_seed(root, *before, np.uint64(k))
    assert type(got) is int and got == derive_seed(root, *before, k)
    assert got == int(derive_seed(root, *before, np.array([k], dtype=np.uint64))[0])
    if k < 2**63:
        assert derive_seed(root, *before, np.int64(k)) == got


def test_derive_seed_on_an_int64_scalar_does_not_overflow():
    assert derive_seed(0, np.int64(3)) == derive_seed(0, 3) == int(derive_seed(0, np.arange(4))[3])


def test_draws_leave_their_seed_and_index_arrays_unchanged():
    # the mixing rounds run in place on temporaries, never on a caller's array
    seeds = u64_stream(3, 6).reshape(6, 1)
    idx = np.arange(5, dtype=np.uint64) * np.uint64(7)
    keys = np.array([0, 1, MASK64], dtype=np.uint64)
    given = [seeds.copy(), idx.copy(), keys.copy()]
    u64_at(seeds, idx)
    u64_at(seeds[:, 0], np.uint64(4) + idx[:, np.newaxis] * np.uint64(0))
    u64_at(11, idx)
    u64_stream(seeds, 9, offset=2)
    derive_seed(5, 2, keys)
    derive_seed(5, keys[:, np.newaxis], idx)
    for before, after in zip(given, (seeds, idx, keys)):
        assert np.array_equal(before, after)


def _cli_seed_error(seed, capsys):
    assert main(["--seed", str(seed), "verify", "--cases", "1"]) == 2
    return capsys.readouterr().err.removeprefix("error: ").strip()


def _library_seed_error(make):
    with pytest.raises(ValueError) as e:
        make()
    return str(e.value)


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["-1", "2**64"])
@pytest.mark.parametrize("place", ["FaultConfig", "WorkloadSpec", "quality_grid", "--seed"])
def test_every_seed_check_refuses_the_same_range_in_the_same_words(place, seed, capsys):
    if place == "--seed":
        got, name = _cli_seed_error(seed, capsys), "--seed"
    else:
        make = {
            "FaultConfig": lambda: FaultConfig(mode="ber", seed=seed),
            "WorkloadSpec": lambda: WorkloadSpec(seed=seed),
            "quality_grid": lambda: quality_grid(
                lambda b: np.zeros(len(b.trials)), [4.0, 8.0], [1, 2], epsilon=0.5, seed=seed
            ),
        }[place]
        got, name = _library_seed_error(make), "seed"
    assert got == f"{name} must be in [0, 2**64), got {seed}"
    assert got == _library_seed_error(lambda: check_seed(seed, name))

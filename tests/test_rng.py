import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sscuq import rng as rng_module
from sscuq.rng import derive_seed, gumbels, mix64, normals, raw64, uniforms


def test_splitmix64_known_vector():
    # first outputs of canonical splitmix64 started at state 0
    out = raw64(0, np.arange(3))
    assert [hex(int(v)) for v in out] == [
        "0xe220a8397b1dcdaf",
        "0x6e789e6aa1b965f4",
        "0x6c45d188009454f",
    ]


def test_counter_slices_match_full_stream():
    full = raw64(123, np.arange(100))
    assert np.array_equal(full[40:60], raw64(123, np.arange(40, 60)))


def test_uniforms_open_interval():
    u = uniforms(7, np.arange(10_000))
    assert u.min() > 0.0 and u.max() < 1.0


def test_uniforms_mean_and_spread():
    u = uniforms(11, np.arange(200_000))
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.002


def test_normals_moments():
    z = normals(3, np.arange(200_000))
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


def test_gumbels_mean_near_euler_gamma():
    g = gumbels(5, np.arange(200_000))
    assert abs(g.mean() - 0.5772) < 0.01


def test_derive_seed_separates_streams():
    a = uniforms(derive_seed(42, 1), np.arange(1000))
    b = uniforms(derive_seed(42, 2), np.arange(1000))
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_substream_tags_are_distinct():
    tags = {k: v for k, v in vars(rng_module).items() if k.startswith("TAG_")}
    assert len(tags) >= 6
    assert len(set(tags.values())) == len(tags)


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_determinism_any_seed_counter(seed, counter):
    assert raw64(seed, [counter])[0] == raw64(seed, [counter])[0]


def test_mix64_is_a_bijection_sample():
    x = np.arange(100_000, dtype=np.uint64)
    assert np.unique(mix64(x)).size == x.size


# ---------------------------------------------------------------------------
# the chunked kernel against the whole-array formulas it replaced

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _ref_mix64(x):
    z = np.asarray(x, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _ref_raw64(seed, counters):
    c = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _ref_mix64(np.uint64(seed) + (c + np.uint64(1)) * _GOLDEN)


def _ref_uniforms(seed, counters):
    return ((_ref_raw64(seed, counters) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _ref_normals(seed, counters):
    c = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        u1 = _ref_uniforms(seed, c * np.uint64(2))
        u2 = _ref_uniforms(seed, c * np.uint64(2) + np.uint64(1))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _ref_gumbels(seed, counters):
    return -np.log(-np.log(_ref_uniforms(seed, counters)))


_PAIRS = [
    (raw64, _ref_raw64),
    (uniforms, _ref_uniforms),
    (normals, _ref_normals),
    (gumbels, _ref_gumbels),
]
_C = rng_module._CHUNK
_COUNTERS = {
    **{f"n={n}": np.arange(n) for n in (0, 1, _C - 1, _C, _C + 1, 3 * _C + 7)},
    "0-d": np.array(12345),
    "2-d": np.arange(2 * _C + 6).reshape(2, -1),
    "strided": np.arange(3 * _C + 9).reshape(3, -1)[:, ::2],
    "reversed-int64": np.arange(-_C, 2 * _C, dtype=np.int64)[::-3],
    "near-2**64": np.arange(2**64 - _C - 3, 2**64, dtype=np.uint64),
    "list": [0, 7, 2**63, 2**64 - 1],
}


def _same(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 99, 2**64 - 1])
@pytest.mark.parametrize("name", list(_COUNTERS))
def test_kernel_bytes_match_whole_array_formulas(name, seed):
    counters = _COUNTERS[name]
    for fn, ref in _PAIRS:
        _same(fn(seed, counters), ref(seed, counters))


def test_int64_counters_are_taken_as_uint64():
    # int64 counters mixed into uint64 arithmetic would promote to float64
    c = np.arange(2**53, 2**53 + 2 * _C + 1, dtype=np.int64)
    for fn, ref in _PAIRS:
        _same(fn(5, c), ref(5, c.astype(np.uint64)))


def test_mix64_matches_formula_across_chunks():
    x = _ref_raw64(1, np.arange(2 * _C + 3))
    _same(mix64(x), _ref_mix64(x))
    _same(mix64(np.uint64(2**64 - 1)), _ref_mix64(np.uint64(2**64 - 1)))


def test_outputs_do_not_depend_on_chunk_size(monkeypatch):
    c = np.arange(1000)
    want = [fn(3, c) for fn, _ in _PAIRS]
    monkeypatch.setattr(rng_module, "_CHUNK", 7)
    for (fn, _), w in zip(_PAIRS, want):
        _same(fn(3, c), w)


def test_mix64_and_raw64_leave_inputs_unmodified():
    x = np.arange(2 * _C + 5, dtype=np.uint64)
    kept = x.copy()
    mix64(x)
    raw64(11, x)
    assert np.array_equal(x, kept)
    c = np.arange(_C + 5, dtype=np.int64)
    raw64(11, c)
    assert np.array_equal(c, np.arange(_C + 5))

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sscuq import grids
from sscuq.container import (
    FormatError,
    SoftmaxRows,
    TruncationError,
    read_grid,
    write_grid,
)
from sscuq.grids import (
    BinaryOccupancyGrid,
    CameraIntrinsics,
    DepthEstimate,
    GridGeometry,
    GroundTruthDepth,
    LabelGrid,
    ProbOccupancyGrid,
    SoftmaxGrid,
    ValidationError,
    row_blocks,
    row_reduce,
)
from sscuq.conformal import CalibrationSet, score_class
from sscuq.synth import ClassifierSpec, classify_labels


# ---------------------------------------------------------------------------
# type invariants


def test_intrinsics_rejects_bad_focal():
    with pytest.raises(ValidationError):
        CameraIntrinsics(f_u=0, f_v=1, c_h=0, c_w=0, height=2, width=2)


def test_intrinsics_rejects_principal_point_outside():
    with pytest.raises(ValidationError):
        CameraIntrinsics(f_u=1, f_v=1, c_h=5, c_w=0, height=4, width=4)


def test_geometry_rejects_zero_dim():
    with pytest.raises(ValidationError):
        GridGeometry(dims=(0, 1, 1), voxel_edge=0.2, origin=(0, 0, 0))


def test_geometry_rejects_nonpositive_edge():
    with pytest.raises(ValidationError):
        GridGeometry(dims=(1, 1, 1), voxel_edge=0.0, origin=(0, 0, 0))


def test_depth_estimate_requires_positive_sigma_on_valid():
    with pytest.raises(ValidationError):
        DepthEstimate(
            mean=np.ones((2, 2)),
            sigma=np.zeros((2, 2)),
            valid_mask=np.ones((2, 2), bool),
        )


def test_depth_estimate_ignores_invalid_pixels():
    est = DepthEstimate(
        mean=np.array([[1.0, -5.0]]),
        sigma=np.array([[0.1, 0.0]]),
        valid_mask=np.array([[True, False]]),
    )
    assert est.shape == (1, 2)


def test_prob_grid_rejects_out_of_range():
    with pytest.raises(ValidationError):
        ProbOccupancyGrid(np.full((1, 1, 1), 1.5))


def test_binary_grid_rejects_twos():
    with pytest.raises(ValidationError):
        BinaryOccupancyGrid(np.full((1, 1, 1), 2))


def test_softmax_grid_rejects_bad_sum():
    probs = np.full((1, 1, 1, 4), 0.125)
    with pytest.raises(ValidationError):
        SoftmaxGrid(probs)


_SUM_EDGE = [
    ("+0.9e-5", True),
    ("-0.9e-5", True),
    ("+1.1e-5", False),
    ("-1.1e-5", False),
    ("nan", False),
    ("negative", False),
]


def _rows_with(m: int, case: str, at: int) -> np.ndarray:
    """Seven uniform softmax rows; row ``at`` is altered per ``case``."""
    rows = np.full((7, m), 1.0 / m)
    if case == "nan":
        rows[at, 1] = np.nan
    elif case == "negative":
        rows[at, :2] = (-0.01, rows[at, 1] + 0.01 + 1.0 / m)
    else:
        rows[at, -1] += float(case)
    return rows


@pytest.mark.parametrize("case, ok", _SUM_EDGE)
@pytest.mark.parametrize("m", [2, 5, 9])
@pytest.mark.parametrize("at", [0, 6])
def test_softmax_sum_tolerance_edge(m, case, ok, at):
    rows = _rows_with(m, case, at)
    labels = np.ones(rows.shape[0], dtype=np.int64)
    if ok:
        SoftmaxGrid(rows.reshape(1, 1, -1, m))
        CalibrationSet(rows, labels)
    else:
        with pytest.raises(ValidationError):
            SoftmaxGrid(rows.reshape(1, 1, -1, m))
        with pytest.raises(ValidationError):
            CalibrationSet(rows, labels)


@pytest.mark.parametrize("m", range(1, 11))
def test_row_reduce_is_bit_identical_to_numpy(m):
    gen = np.random.default_rng(m)
    a = gen.random((500, m)) ** 4 * 10.0 ** gen.uniform(-12, 6, (500, m))
    a[::3] *= -1
    a[1, :] = -0.0
    a[2, 0] = np.nan
    a[4, -1] = np.inf
    cases = [
        (np.add, a, None),
        (np.add, a.reshape(5, 100, m), None),
        (np.add, a.astype(np.float32), np.float64),
        (np.add, a > 0.5, np.int64),
        (np.maximum, a, None),
        (np.add, a[0], None),
    ]
    for ufunc, x, dtype in cases:
        got = row_reduce(ufunc, x, dtype=dtype)
        want = ufunc.reduce(x, axis=-1, dtype=dtype)
        assert got.dtype == want.dtype and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_label_grid_rejects_zero_label():
    with pytest.raises(ValidationError):
        LabelGrid(np.zeros((1, 1, 1)), class_count=3)


def test_label_grid_rejects_label_above_class_count():
    with pytest.raises(ValidationError):
        LabelGrid(np.full((1, 1, 1), 7), class_count=3)


def test_label_grid_rejects_a_nan_label():
    # a NaN compares false with both range ends; cast to uint16 it became a label
    with pytest.raises(ValidationError) as info:
        LabelGrid(np.array([[[np.nan, 2.0]]]), class_count=3)
    assert str(info.value) == "class nan out of range 1..3"


_LABEL_SITES = {
    "LabelGrid": lambda labels: LabelGrid(labels.reshape(1, 1, -1), class_count=3),
    "CalibrationSet": lambda labels: CalibrationSet(np.full((labels.size, 3), 1 / 3), labels),
    "score_class": lambda labels: score_class(np.full((labels.size, 3), 1 / 3), labels),
    "classify_labels": lambda labels: classify_labels(
        labels, ClassifierSpec(confusion=np.eye(3), sharpness=3.0, temperature=1.0)
    ),
}


@pytest.mark.parametrize("site", sorted(_LABEL_SITES))
@pytest.mark.parametrize("bad", [0, 4, float("nan")])
def test_every_label_outside_1_to_m_gets_the_one_message(site, bad):
    labels = np.array([2, 3, bad, 1])  # M = 3; a NaN makes the array float
    want = f"class {labels[2]} out of range 1..3"
    with pytest.raises(ValidationError) as info:
        _LABEL_SITES[site](labels)
    assert str(info.value) == want


@pytest.mark.parametrize("site", sorted(_LABEL_SITES))
def test_a_label_that_is_no_integer_is_named(site):
    labels = np.array([2, 3, 2.5, 1])  # M = 3: every label is in range
    with pytest.raises(ValidationError) as info:
        _LABEL_SITES[site](labels)
    assert str(info.value) == "class 2.5 is not an integer"


def test_label_grid_does_not_freeze_the_callers_array():
    labels = np.full((1, 2, 2), 2, dtype=np.uint16)
    grid = LabelGrid(labels, class_count=3)
    labels[0, 0, 0] = 3
    assert labels.flags.writeable and grid.labels[0, 0, 0] == 2


def test_grids_are_immutable():
    grid = ProbOccupancyGrid(np.zeros((2, 2, 2), np.float32))
    with pytest.raises(ValueError):
        grid.values[0, 0, 0] = 1.0


def _array_fields():
    """name -> (type, its array fields as fresh C-contiguous arrays of their
    documented dtypes, its other arguments)."""
    depth = np.ones((2, 3))
    return {
        "ProbOccupancyGrid": (ProbOccupancyGrid, {"values": np.zeros((2, 2, 2), np.float32)}, {}),
        "BinaryOccupancyGrid": (BinaryOccupancyGrid, {"values": np.ones((2, 2, 2), np.uint8)}, {}),
        "SoftmaxGrid": (SoftmaxGrid, {"probs": np.full((2, 2, 2, 2), 0.5, np.float32)}, {}),
        "LabelGrid": (LabelGrid, {"labels": np.full((2, 2, 2), 2, np.uint16)}, {"class_count": 3}),
        "DepthEstimate": (
            DepthEstimate,
            {"mean": depth, "sigma": depth.copy(), "valid_mask": np.ones((2, 3), bool)},
            {},
        ),
        "GroundTruthDepth": (
            GroundTruthDepth, {"depth": depth, "valid_mask": np.ones((2, 3), bool)}, {}
        ),
        "GridGeometry": (
            GridGeometry, {"origin": np.zeros(3)}, {"dims": (1, 1, 1), "voxel_edge": 1.0}
        ),
        "CalibrationSet-float32": (
            CalibrationSet,
            {"probs": np.full((3, 2), 0.5, np.float32), "labels": np.array([1, 2, 2], np.int64)},
            {},
        ),
        "CalibrationSet-float64": (
            CalibrationSet,
            {"probs": np.full((3, 2), 0.5), "labels": np.array([1, 2, 2], np.int64)},
            {},
        ),
        "ClassifierSpec": (
            ClassifierSpec, {"confusion": np.eye(2), "sharpness": np.ones(2)}, {"temperature": 1.0}
        ),
    }


@pytest.mark.parametrize("contiguous", [True, False])
@pytest.mark.parametrize("name", sorted(_array_fields()))
def test_constructors_store_read_only_contiguous_arrays(name, contiguous):
    cls, arrays, other = _array_fields()[name]
    given = dict(arrays)
    if not contiguous:  # the same values in a strided view
        for field, a in arrays.items():
            given[field] = np.empty(a.shape + (2,), a.dtype)[..., 0]
            given[field][...] = a
    obj = cls(**given, **other)
    for field, a in given.items():
        stored = getattr(obj, field)
        assert stored.dtype == arrays[field].dtype
        assert stored.flags.c_contiguous and not stored.flags.writeable
        np.testing.assert_array_equal(stored, a)
        if contiguous and cls is not LabelGrid:
            assert stored is a  # frozen in place, not copied
        else:
            assert stored is not a and a.flags.writeable


# ---------------------------------------------------------------------------
# container round trips


def test_label_roundtrip_identity(tmp_path):
    grid = LabelGrid(np.ones((2, 2, 2)), class_count=1)
    path = tmp_path / "g.sscg"
    write_grid(grid, path)
    back = read_grid(path)
    assert isinstance(back, LabelGrid)
    assert back.class_count == 1
    assert np.array_equal(back.labels, grid.labels)


def test_bad_magic_is_format_error(tmp_path):
    path = tmp_path / "bad.sscg"
    path.write_bytes(b"XXXX" + bytes(32))
    with pytest.raises(FormatError):
        read_grid(path)


def test_bad_version_is_format_error(tmp_path):
    path = tmp_path / "bad.sscg"
    grid = LabelGrid(np.ones((1, 1, 1)), class_count=1)
    write_grid(grid, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_grid(path)


def _write_raw(path, header, payload: bytes, head_len=None):
    """Hand-build a container: ``header`` is any JSON value, ``head_len``
    overrides the stored header length."""
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    length = len(head) if head_len is None else head_len
    prefix = b"SSCG" + (1).to_bytes(4, "little") + length.to_bytes(8, "little")
    path.write_bytes(prefix + head + payload)
    return path


def _header(kind, dtype, **extra):
    base = {"kind": kind, "dims": [1, 1, 1], "dtype": dtype, "origin": None, "voxel_edge": None}
    return {**base, **extra}


def test_softmax_invariant_violation_is_validation_error(tmp_path):
    # vectors that sum to 0.5
    payload = np.array([0.25, 0.25], "<f4").tobytes()
    path = _write_raw(tmp_path / "bad.sscg", _header("softmax", "float32", class_count=2), payload)
    with pytest.raises(ValidationError):
        read_grid(path)


@pytest.mark.parametrize(
    "kind, dtype, payload",
    [
        # a NaN label would decode to 0, outside LabelGrid's 1..M
        ("labels", "float32", np.array([np.nan], "<f4").tobytes()),
        ("labels", "float32", np.array([2.7], "<f4").tobytes()),
        ("softmax", "uint8", np.array([0, 1], "<u1").tobytes()),
        ("prob_occupancy", "uint16", np.array([1], "<u2").tobytes()),
    ],
    ids=["labels-nan", "labels-fraction", "softmax-uint8", "prob-uint16"],
)
def test_dtype_other_than_the_kinds_is_format_error(tmp_path, kind, dtype, payload):
    path = _write_raw(tmp_path / "g.sscg", _header(kind, dtype, class_count=2), payload)
    with pytest.raises(FormatError, match=kind):
        read_grid(path)


@pytest.mark.parametrize("kind, dtype", [("labels", "uint16"), ("softmax", "float32")])
@pytest.mark.parametrize("count", [None, "2", 2.0, True, 0])
def test_missing_or_non_integer_class_count_is_format_error(tmp_path, kind, dtype, count):
    extra = {} if count is None else {"class_count": count}
    path = _write_raw(tmp_path / "g.sscg", _header(kind, dtype, **extra), b"")
    with pytest.raises(FormatError, match="class_count"):
        read_grid(path)


@pytest.mark.parametrize(
    "header",
    [
        [_header("labels", "uint16", class_count=1)],
        "labels",
        _header("volume", "uint16"),
        {**_header("labels", "uint16", class_count=1), "dims": [1, 1, 0.5]},
        {**_header("labels", "uint16", class_count=1), "dims": None},
    ],
    ids=["array", "string", "unknown-kind", "fractional-dim", "null-dims"],
)
def test_malformed_header_is_format_error(tmp_path, header):
    path = _write_raw(tmp_path / "g.sscg", header, np.ones(1, "<u2").tobytes())
    with pytest.raises(FormatError):
        read_grid(path)


def test_header_length_past_any_file_is_truncation_error(tmp_path):
    path = _write_raw(tmp_path / "g.sscg", {}, b"", head_len=2**63)
    with pytest.raises(TruncationError):
        read_grid(path)


def test_payload_length_mismatch_is_truncation_error(tmp_path):
    path = tmp_path / "g.sscg"
    write_grid(ProbOccupancyGrid(np.zeros((2, 2, 2), np.float32)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(TruncationError):
        read_grid(path)


def test_a_kind_outside_the_wanted_ones_is_refused_before_the_payload(tmp_path, monkeypatch):
    import builtins

    path = tmp_path / "g.sscg"
    write_grid(ProbOccupancyGrid(np.zeros((2, 2, 2), np.float32)), path)
    path.write_bytes(path.read_bytes()[:-4])  # a payload read would fail
    opened = []
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda *a, **k: opened.append(a[0]) or real_open(*a, **k))
    for kinds, want in ((("labels",), "labels"), (("depth_estimate", "depth"), "depth_estimate or depth")):
        with pytest.raises(ValidationError) as info:
            read_grid(path, *kinds)
        assert str(info.value) == f"{path} holds a prob_occupancy container, not {want}"
    with pytest.raises(TruncationError):
        read_grid(path, "prob_occupancy")
    assert opened == [str(path)] * 3  # one open per read


def test_write_is_deterministic(tmp_path):
    grid = SoftmaxGrid(np.full((2, 1, 1, 4), 0.25, np.float32))
    a, b = tmp_path / "a.sscg", tmp_path / "b.sscg"
    write_grid(grid, a)
    write_grid(grid, b)
    assert a.read_bytes() == b.read_bytes()


def test_single_voxel_prob_payload_is_four_bytes(tmp_path):
    path = tmp_path / "g.sscg"
    write_grid(ProbOccupancyGrid(np.full((1, 1, 1), 0.5, np.float32)), path)
    blob = path.read_bytes()
    head_len = int.from_bytes(blob[8:16], "little")
    payload = blob[16 + head_len :]
    assert payload == np.float32(0.5).tobytes()
    assert len(payload) == 4


def test_geometry_header_roundtrip(tmp_path):
    geom = GridGeometry(dims=(2, 3, 4), voxel_edge=0.25, origin=(-1.0, 0.0, 0.5))
    grid = BinaryOccupancyGrid(np.zeros((2, 3, 4), np.uint8))
    path = tmp_path / "g.sscg"
    write_grid(grid, path, geometry=geom)
    blob = path.read_bytes()
    header = json.loads(blob[16 : 16 + int.from_bytes(blob[8:16], "little")])
    assert header["voxel_edge"] == 0.25
    assert header["origin"] == [-1.0, 0.0, 0.5]
    assert header["dims"] == [2, 3, 4]


def test_write_json_spells_typed_values_through_encode(tmp_path):
    import math

    from sscuq.container import write_json
    from sscuq.grids import encode
    from sscuq.pipeline import _Split

    m = {10: np.float32(0.5), 2: None}
    doc = {"m": m, "q": math.inf, "n": np.int64(3), "s": _Split(3, 0.3)}
    path = tmp_path / "doc.json"
    write_json(path, doc)
    text = path.read_text()
    assert text == json.dumps(encode(doc), sort_keys=True, indent=2) + "\n"
    # int keys as str keys, ordered as json orders them; +inf as decode reads it
    assert text.index('"10"') < text.index('"2"')
    assert json.loads(text) == {
        "m": {"10": 0.5, "2": None}, "q": "inf", "n": 3, "s": {"fraction": 0.3, "seed": 3}
    }
    assert '"n": 3,' in text and '"10": 0.5,' in text  # plain numbers


def test_depth_estimate_roundtrip(tmp_path):
    est = DepthEstimate(
        mean=np.array([[1.5, 0.0], [2.25, 3.5]], np.float32),
        sigma=np.array([[0.5, 0.0], [0.25, 0.125]], np.float32),
        valid_mask=np.array([[True, False], [True, True]]),
    )
    path = tmp_path / "d.sscg"
    write_grid(est, path)
    back = read_grid(path)
    assert isinstance(back, DepthEstimate)
    assert np.array_equal(back.mean, est.mean)
    assert np.array_equal(back.sigma, est.sigma)
    assert np.array_equal(back.valid_mask, est.valid_mask)


def test_ground_truth_depth_roundtrip(tmp_path):
    gt = GroundTruthDepth(
        depth=np.array([[1.0, 0.0]], np.float32),
        valid_mask=np.array([[True, False]]),
    )
    path = tmp_path / "d.sscg"
    write_grid(gt, path)
    back = read_grid(path)
    assert isinstance(back, GroundTruthDepth)
    assert np.array_equal(back.depth, gt.depth)
    assert np.array_equal(back.valid_mask, gt.valid_mask)


@given(
    arrays(
        np.float32,
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        elements=st.floats(0, 1, width=32),
    )
)
@settings(max_examples=25, deadline=None)
def test_prob_roundtrip_bit_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("rt") / "g.sscg"
    grid = ProbOccupancyGrid(values)
    write_grid(grid, path)
    back = read_grid(path)
    assert np.array_equal(
        back.values.view(np.uint32), grid.values.view(np.uint32)
    )  # bitwise, so NaN-free payload equality is exact
    write_grid(back, path.with_suffix(".2"))
    assert path.read_bytes() == path.with_suffix(".2").read_bytes()


@given(
    arrays(
        np.uint16,
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        elements=st.integers(1, 6),
    )
)
@settings(max_examples=25, deadline=None)
def test_label_roundtrip_bit_exact(tmp_path_factory, labels):
    path = tmp_path_factory.mktemp("rt") / "g.sscg"
    grid = LabelGrid(labels, class_count=6)
    write_grid(grid, path)
    back = read_grid(path)
    assert np.array_equal(back.labels, grid.labels)
    assert back.class_count == grid.class_count


def test_header_fully_determines_payload_length(tmp_path):
    # appending a byte must be rejected, not silently ignored
    path = tmp_path / "g.sscg"
    write_grid(BinaryOccupancyGrid(np.ones((1, 1, 1), np.uint8)), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(TruncationError):
        read_grid(path)


# ---------------------------------------------------------------------------
# softmax rows read in blocks from the open file

# a file the reader leaves open fails the test that opened it
closes_its_files = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)


@pytest.fixture
def seven_row_blocks(monkeypatch):
    monkeypatch.setattr(grids, "_BLOCK_ROWS", 7)
    return 7


def _softmax_rows(n: int, m: int = 3) -> np.ndarray:
    f = np.random.default_rng(n).dirichlet(np.ones(m), size=n).astype(np.float32)
    f[:, 0] = 1.0 - f[:, 1:].sum(axis=1)  # sums to 1 within float32 error
    return f


@closes_its_files
def test_blocks_are_the_rows_of_the_whole_read(tmp_path, seven_row_blocks):
    path = tmp_path / "s.sscg"
    write_grid(SoftmaxGrid(_softmax_rows(60).reshape(3, 4, 5, 3)), path)
    whole = read_grid(path)
    with read_grid(path, "softmax", blocks=True) as rows:
        assert (rows.dims, rows.class_count) == (whole.dims, whole.class_count) == ((3, 4, 5), 3)
        assert rows.flat().shape == whole.flat().shape == (60, 3)
        blocks = [rows.flat()[block] for block in row_blocks(60)]
        assert len(blocks) == 9
        for block in blocks:  # each a fresh array of its own
            assert block.dtype == np.float32 and block.flags.owndata and block.flags.writeable
        assert np.concatenate(blocks).tobytes() == whole.probs.tobytes()
    assert rows._fh.closed


@closes_its_files
def test_a_truncated_payload_is_refused_before_any_block_is_read(tmp_path, monkeypatch):
    path = tmp_path / "s.sscg"
    write_grid(SoftmaxGrid(_softmax_rows(60).reshape(3, 4, 5, 3)), path)
    path.write_bytes(path.read_bytes()[:-4])
    monkeypatch.setattr(SoftmaxRows, "__getitem__", lambda *a: pytest.fail("a block was read"))
    with pytest.raises(TruncationError, match="payload of 716 bytes, header implies 720"):
        read_grid(path, "softmax", blocks=True)


@closes_its_files
def test_a_file_that_shrinks_after_it_is_opened_raises_on_the_short_read(tmp_path, seven_row_blocks):
    path = tmp_path / "s.sscg"
    write_grid(SoftmaxGrid(_softmax_rows(60).reshape(3, 4, 5, 3)), path)
    with read_grid(path, "softmax", blocks=True) as rows:
        os.truncate(path, os.path.getsize(path) - 12 * 25)  # rows 35.. are gone
        assert rows.flat()[slice(28, 35)].shape == (7, 3)
        with pytest.raises(TruncationError, match=r"rows 35\.\.41: read 0 of 84 bytes"):
            rows.flat()[slice(35, 42)]
        with pytest.raises(TruncationError, match=r"rows 53\.\.59: read 0 of 84 bytes"):
            rows.flat()[slice(53, 60)]


@closes_its_files
@pytest.mark.parametrize("blocks", [True, False])
def test_a_negative_entry_in_the_last_block_is_reported_ahead_of_a_bad_sum_in_the_first(
    tmp_path, seven_row_blocks, blocks
):
    f = _softmax_rows(30)
    f[0, 0] += 1e-3  # block 0 sums badly
    f[29] = (0.5, -0.25, 0.75)  # block 4 holds a negative entry
    header = _header("softmax", "float32", class_count=3, dims=[2, 3, 5])
    path = _write_raw(tmp_path / "s.sscg", header, f.astype("<f4").tobytes())
    with pytest.raises(ValidationError, match="softmax entries must be non-negative"):
        read_grid(path, *(("softmax",) if blocks else ()), blocks=blocks)
    f[29] = (0.5, 0.25, 0.25)  # the bad sum alone
    path = _write_raw(tmp_path / "s.sscg", header, f.astype("<f4").tobytes())
    with pytest.raises(ValidationError, match="softmax vectors must sum to 1"):
        read_grid(path, *(("softmax",) if blocks else ()), blocks=blocks)


@closes_its_files
@pytest.mark.parametrize(
    "dims, count, message",
    [([2, 3], 3, "4-d array"), ([2, 3, 5, 1], 3, "4-d array"), ([2, 3, 5], 1, "at least 2 classes")],
)
def test_blocks_refuse_the_shapes_a_softmax_grid_refuses(tmp_path, dims, count, message):
    header = _header("softmax", "float32", class_count=count, dims=dims)
    payload = np.full((np.prod(dims), count), 1.0 / count, "<f4").tobytes()
    path = _write_raw(tmp_path / "s.sscg", header, payload)
    for kinds, blocks in ((("softmax",), True), ((), False)):
        with pytest.raises(ValidationError, match=message):
            read_grid(path, *kinds, blocks=blocks)


@closes_its_files
@pytest.mark.parametrize(
    "index", [3, -1, [0, 1], np.arange(7), Ellipsis, (slice(0, 7), 0), slice(0, 8), slice(0, 14, 2)]
)
def test_an_index_that_is_not_one_block_of_rows_is_refused(tmp_path, seven_row_blocks, index):
    path = tmp_path / "s.sscg"
    write_grid(SoftmaxGrid(_softmax_rows(60).reshape(3, 4, 5, 3)), path)
    with read_grid(path, "softmax", blocks=True) as rows:
        error = IndexError if isinstance(index, slice) else TypeError
        with pytest.raises(error, match="softmax rows are read"):
            rows.flat()[index]
        assert rows.flat()[slice(56, 63)].shape == (4, 3)  # the short last block


@closes_its_files
def test_only_a_softmax_container_is_read_in_blocks(tmp_path):
    path = tmp_path / "l.sscg"
    write_grid(LabelGrid(np.ones((1, 1, 2)), class_count=2), path)
    for kinds in ((), ("labels",), ("softmax", "labels")):
        with pytest.raises(ValueError, match="pass the kind 'softmax'"):
            read_grid(path, *kinds, blocks=True)
    with pytest.raises(ValidationError, match="holds a labels container, not softmax"):
        read_grid(path, "softmax", blocks=True)


# ---------------------------------------------------------------------------
# atomic writes


@pytest.mark.parametrize("old", [None, b"old bytes"])
@pytest.mark.parametrize("writer", ["atomic_write", "write_grid", "save_model"])
def test_failed_rename_leaves_target_and_no_temp_file(tmp_path, monkeypatch, writer, old):
    import os

    from sscuq.conformal import ScpModel, save_model
    from sscuq.container import atomic_write

    target = tmp_path / "out"
    if old is not None:
        target.write_bytes(old)
    write = {
        "atomic_write": lambda: atomic_write(target, "new text"),
        "write_grid": lambda: write_grid(LabelGrid(np.ones((2, 2, 2)), class_count=3), target),
        "save_model": lambda: save_model(ScpModel(class_count=3, alpha=0.1, q=0.5), target),
    }[writer]

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        write()
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["out"])
    if old is not None:
        assert target.read_bytes() == old


def test_a_write_into_a_missing_directory_names_the_target(tmp_path):
    from sscuq.container import atomic_write

    target = tmp_path / "missing" / "out"
    with pytest.raises(FileNotFoundError) as info:
        atomic_write(target, b"x")
    assert str(info.value) == f"[Errno 2] No such file or directory: '{target}'"


def test_atomic_write_gives_open_permissions(tmp_path):
    import os

    from sscuq.container import atomic_write

    umask = os.umask(0o027)
    try:
        atomic_write(tmp_path / "a", b"x")
        with open(tmp_path / "b", "wb") as fh:
            fh.write(b"x")
    finally:
        os.umask(umask)
    assert os.stat(tmp_path / "a").st_mode & 0o777 == os.stat(tmp_path / "b").st_mode & 0o777


def test_decode_fills_a_missing_field_from_its_default_factory():
    import dataclasses
    from typing import Mapping

    @dataclasses.dataclass(frozen=True)
    class Section:
        rates: Mapping[int, float] = dataclasses.field(default_factory=lambda: {2: 0.5})
        seed: int = 0

    assert grids.decode(Section, {"seed": 3}, "section") == Section({2: 0.5}, 3)
    assert grids.decode(Section, {"rates": {"4": 1}}, "section").rates == {4: 1.0}

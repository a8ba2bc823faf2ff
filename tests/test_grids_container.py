import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sscuq.container import (
    FormatError,
    TruncationError,
    read_grid,
    read_header,
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
)


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


def test_label_grid_rejects_zero_label():
    with pytest.raises(ValidationError):
        LabelGrid(np.zeros((1, 1, 1)), class_count=3)


def test_label_grid_rejects_label_above_class_count():
    with pytest.raises(ValidationError):
        LabelGrid(np.full((1, 1, 1), 7), class_count=3)


def test_grids_are_immutable():
    grid = ProbOccupancyGrid(np.zeros((2, 2, 2), np.float32))
    with pytest.raises(ValueError):
        grid.values[0, 0, 0] = 1.0


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


def test_softmax_invariant_violation_is_validation_error(tmp_path):
    # hand-build a container whose vectors sum to 0.5
    header = {
        "kind": "softmax",
        "dims": [1, 1, 1],
        "dtype": "float32",
        "class_count": 2,
        "voxel_edge": None,
        "origin": None,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = np.array([0.25, 0.25], "<f4").tobytes()
    path = tmp_path / "bad.sscg"
    path.write_bytes(b"SSCG" + (1).to_bytes(4, "little") + len(head).to_bytes(8, "little") + head + payload)
    with pytest.raises(ValidationError):
        read_grid(path)


def test_payload_length_mismatch_is_truncation_error(tmp_path):
    path = tmp_path / "g.sscg"
    write_grid(ProbOccupancyGrid(np.zeros((2, 2, 2), np.float32)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(TruncationError):
        read_grid(path)


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
    header = read_header(path)
    assert header["voxel_edge"] == 0.25
    assert header["origin"] == [-1.0, 0.0, 0.5]
    assert header["dims"] == [2, 3, 4]


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

"""SSCG binary container: the package's sole persistence format.

Layout, in order:

* 4-byte magic ``SSCG``
* 4-byte little-endian version (currently 1)
* 8-byte little-endian length of the JSON header
* UTF-8 JSON header ``{kind, dims, dtype, voxel_edge, origin, class_count?}``
* raw little-endian payload, row-major, last listed index fastest-varying

Payload dtype per kind: float32 for probabilities and depths, uint16 for
labels, uint8 for binary occupancy.  Depth kinds store consecutive full
planes: ``depth_estimate`` holds mean, sigma, then the validity mask as
0/1 float32; ``depth`` holds the depth plane then the mask.  The header
alone determines the payload length; any mismatch is rejected.  Writes
are deterministic (identical input gives identical bytes) and atomic
(temp file then rename).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .grids import (
    BinaryOccupancyGrid,
    DepthEstimate,
    GridGeometry,
    GroundTruthDepth,
    LabelGrid,
    ProbOccupancyGrid,
    SoftmaxGrid,
    ValidationError,
)

__all__ = ["ContainerError", "FormatError", "TruncationError", "read_grid", "write_grid"]

MAGIC = b"SSCG"
VERSION = 1


class ContainerError(Exception):
    """Base class for container format problems."""


class FormatError(ContainerError):
    """The file is not an SSCG container of a supported version."""


class TruncationError(ContainerError):
    """The payload length does not match the header."""


_DTYPES = {
    "float32": np.dtype("<f4"),
    "uint16": np.dtype("<u2"),
    "uint8": np.dtype("<u1"),
}


def _header_for(grid) -> dict:
    if isinstance(grid, ProbOccupancyGrid):
        return {"kind": "prob_occupancy", "dims": list(grid.dims), "dtype": "float32"}
    if isinstance(grid, BinaryOccupancyGrid):
        return {"kind": "binary_occupancy", "dims": list(grid.dims), "dtype": "uint8"}
    if isinstance(grid, SoftmaxGrid):
        return {
            "kind": "softmax",
            "dims": list(grid.dims),
            "dtype": "float32",
            "class_count": grid.class_count,
        }
    if isinstance(grid, LabelGrid):
        return {
            "kind": "labels",
            "dims": list(grid.dims),
            "dtype": "uint16",
            "class_count": grid.class_count,
        }
    if isinstance(grid, DepthEstimate):
        return {"kind": "depth_estimate", "dims": list(grid.shape), "dtype": "float32"}
    if isinstance(grid, GroundTruthDepth):
        return {"kind": "depth", "dims": list(grid.shape), "dtype": "float32"}
    raise ValidationError(f"unsupported grid type: {type(grid).__name__}")


def _payload_for(grid) -> bytes:
    if isinstance(grid, (ProbOccupancyGrid, BinaryOccupancyGrid)):
        arr = grid.values
    elif isinstance(grid, SoftmaxGrid):
        arr = grid.probs
    elif isinstance(grid, LabelGrid):
        arr = grid.labels
    elif isinstance(grid, DepthEstimate):
        arr = np.stack(
            [grid.mean, grid.sigma, grid.valid_mask.astype(np.float64)]
        )
    elif isinstance(grid, GroundTruthDepth):
        arr = np.stack([grid.depth, grid.valid_mask.astype(np.float64)])
    else:  # pragma: no cover - _header_for already rejects
        raise ValidationError(f"unsupported grid type: {type(grid).__name__}")
    kind = _header_for(grid)["dtype"]
    return np.ascontiguousarray(arr).astype(_DTYPES[kind], copy=False).tobytes()


def write_grid(grid, path, geometry: GridGeometry | None = None) -> None:
    """Serialize a grid object to an SSCG container at ``path``.

    ``geometry`` optionally stamps voxel_edge and origin into the header
    of voxel-grid kinds; it is ignored for depth kinds.  The write is
    atomic (see ``atomic_write``).
    """
    header = _header_for(grid)
    is_voxel = header["kind"] in ("prob_occupancy", "binary_occupancy", "softmax", "labels")
    if geometry is not None and is_voxel:
        header["voxel_edge"] = geometry.voxel_edge
        header["origin"] = [float(c) for c in geometry.origin]
    else:
        header["voxel_edge"] = None
        header["origin"] = None
    payload = _payload_for(grid)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = b"".join(
        [
            MAGIC,
            VERSION.to_bytes(4, "little"),
            len(head).to_bytes(8, "little"),
            head,
            payload,
        ]
    )
    atomic_write(path, blob)


def atomic_write(path, data: bytes | str) -> None:
    """Write ``data`` (str as UTF-8) to a temporary file in the target
    directory, then rename it to ``path``: no partial file is ever visible,
    and a failed write removes the temporary file.  The file gets the
    permissions ``open`` would give it (0o666 less the umask)."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=os.path.dirname(path) or ".")
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _expected_counts(header: dict) -> tuple[tuple[int, ...], int]:
    """Payload array shape and element count implied by a header."""
    kind = header["kind"]
    dims = tuple(int(n) for n in header["dims"])
    if kind == "softmax":
        shape = dims + (int(header["class_count"]),)
    elif kind == "depth_estimate":
        shape = (3,) + dims
    elif kind == "depth":
        shape = (2,) + dims
    else:
        shape = dims
    return shape, int(np.prod(shape))


def read_grid(path):
    """Read an SSCG container and return the validated grid object.

    Raises FormatError for bad magic/version, TruncationError when the
    payload length disagrees with the header, and ValidationError when
    the decoded object would violate its type invariants.
    """
    with open(os.fspath(path), "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise FormatError("not an SSCG container (bad magic)")
    version = int.from_bytes(blob[4:8], "little")
    if version != VERSION:
        raise FormatError(f"unsupported SSCG version {version}")
    head_len = int.from_bytes(blob[8:16], "little")
    if len(blob) < 16 + head_len:
        raise TruncationError("header extends past end of file")
    try:
        header = json.loads(blob[16 : 16 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"malformed JSON header: {exc}") from exc
    try:
        kind = header["kind"]
        dtype = _DTYPES[header["dtype"]]
        shape, count = _expected_counts(header)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"incomplete header: {exc}") from exc

    payload = blob[16 + head_len :]
    if len(payload) != count * dtype.itemsize:
        raise TruncationError(
            f"payload of {len(payload)} bytes, header implies {count * dtype.itemsize}"
        )
    arr = np.frombuffer(payload, dtype=dtype).reshape(shape)

    try:
        if kind == "prob_occupancy":
            return ProbOccupancyGrid(arr)
        if kind == "binary_occupancy":
            return BinaryOccupancyGrid(arr)
        if kind == "softmax":
            return SoftmaxGrid(arr)
        if kind == "labels":
            return LabelGrid(arr, class_count=int(header["class_count"]))
        if kind == "depth_estimate":
            valid = arr[2] != 0
            return DepthEstimate(arr[0], arr[1], valid)
        if kind == "depth":
            return GroundTruthDepth(arr[0], arr[1] != 0)
    except ValidationError:
        raise
    raise FormatError(f"unknown container kind {kind!r}")


def read_header(path) -> dict:
    """Read only the JSON header of an SSCG container."""
    with open(os.fspath(path), "rb") as fh:
        prefix = fh.read(16)
        if len(prefix) < 16 or prefix[:4] != MAGIC:
            raise FormatError("not an SSCG container (bad magic)")
        version = int.from_bytes(prefix[4:8], "little")
        if version != VERSION:
            raise FormatError(f"unsupported SSCG version {version}")
        head_len = int.from_bytes(prefix[8:16], "little")
        head = fh.read(head_len)
    if len(head) < head_len:
        raise TruncationError("header extends past end of file")
    return json.loads(head.decode("utf-8"))

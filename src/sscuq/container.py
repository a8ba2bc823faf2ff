"""SSCG binary container: the package's sole grid persistence format, and
the reader and writer of the package's JSON documents (configs, models,
metrics).

Layout, in order:

* 4-byte magic ``SSCG``
* 4-byte little-endian version (currently 1)
* 8-byte little-endian length of the JSON header
* UTF-8 JSON header ``{kind, dims, dtype, voxel_edge, origin, class_count?}``
* raw little-endian payload, row-major, last listed index fastest-varying

Each kind has one payload dtype (``_KINDS``): float32 for probabilities
and depths, uint16 for labels, uint8 for binary occupancy; the reader
rejects a header whose dtype is not its kind's, and softmax and labels
headers must carry ``class_count``.  Depth kinds store consecutive full
planes: ``depth_estimate`` holds mean, sigma, then the validity mask as
0/1 float32; ``depth`` holds the depth plane then the mask.  The header
alone determines the payload length; any mismatch is rejected.  A
softmax container can also be read one block of rows at a time from the
open file (``SoftmaxRows``), so that its payload is never held whole.
Writes are deterministic (identical input gives identical bytes) and
atomic (temp file then rename).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile

import numpy as np

from . import grids
from .grids import (
    BinaryOccupancyGrid,
    DepthEstimate,
    GridGeometry,
    GroundTruthDepth,
    LabelGrid,
    ProbOccupancyGrid,
    SoftmaxGrid,
    ValidationError,
    check_softmax_grid,
    check_softmax_rows,
    encode,
)

__all__ = [
    "ContainerError", "FormatError", "SoftmaxRows", "TruncationError", "read_grid", "read_header",
    "write_grid",
]

MAGIC = b"SSCG"
VERSION = 1


class ContainerError(Exception):
    """Base class for container format problems."""


class FormatError(ContainerError):
    """The file is not an SSCG container of a supported version."""


class TruncationError(ContainerError):
    """The payload length does not match the header."""


# kind -> (grid type, payload dtype, grid fields stored as payload planes, in order)
_KINDS = {
    "prob_occupancy": (ProbOccupancyGrid, np.dtype("<f4"), ("values",)),
    "binary_occupancy": (BinaryOccupancyGrid, np.dtype("<u1"), ("values",)),
    "softmax": (SoftmaxGrid, np.dtype("<f4"), ("probs",)),
    "labels": (LabelGrid, np.dtype("<u2"), ("labels",)),
    "depth_estimate": (DepthEstimate, np.dtype("<f4"), ("mean", "sigma", "valid_mask")),
    "depth": (GroundTruthDepth, np.dtype("<f4"), ("depth", "valid_mask")),
}
_KIND_OF = {grid_type: kind for kind, (grid_type, _, _) in _KINDS.items()}
# kinds whose header carries class_count: softmax's payload has a trailing
# class axis of that length, and a LabelGrid takes it as an argument
_COUNTED = ("softmax", "labels")


def write_grid(grid, path, geometry: GridGeometry | None = None) -> None:
    """Serialize a grid object to an SSCG container at ``path``.

    ``geometry`` optionally stamps voxel_edge and origin into the header
    of voxel-grid kinds; it is ignored for depth kinds.  The write is
    atomic (see ``atomic_write``).
    """
    kind = _KIND_OF.get(type(grid))
    if kind is None:
        raise ValidationError(f"unsupported grid type: {type(grid).__name__}")
    _, dtype, planes = _KINDS[kind]
    arrays = [getattr(grid, name) for name in planes]
    dims = arrays[0].shape[:3]  # a softmax grid's fourth axis is its classes
    header = {"kind": kind, "dims": dims, "dtype": dtype.name, "voxel_edge": None, "origin": None}
    if kind in _COUNTED:
        header["class_count"] = grid.class_count
    if geometry is not None and len(dims) == 3:  # depth maps (2-d) carry no geometry
        header["voxel_edge"] = geometry.voxel_edge
        header["origin"] = geometry.origin
    head = json.dumps(encode(header), sort_keys=True, separators=(",", ":")).encode("utf-8")
    prefix = MAGIC + VERSION.to_bytes(4, "little") + len(head).to_bytes(8, "little")
    # a plane already in the payload dtype is written from its own buffer
    atomic_write(path, prefix, head, *(a.astype(dtype, copy=False) for a in arrays))


def atomic_write(path, *parts) -> None:
    """Write ``parts`` in order (a str as UTF-8, bytes or an array's buffer
    as is) to a temporary file in the target directory, then rename it to
    ``path``: no partial file is ever visible, and a failed write removes
    the temporary file and raises an OSError that names ``path``.  The file
    gets the permissions ``open`` would give it (0o666 less the umask)."""
    path = os.fspath(path)
    tmp = None
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=os.path.dirname(path) or ".")
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part.encode("utf-8") if isinstance(part, str) else part)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            # name the file the caller asked for, not the temporary one
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def read_json(path, what: str) -> dict:
    """The JSON object in the UTF-8 file at ``path``.  A file that is not
    UTF-8 JSON, or holds a JSON value that is not an object, raises a
    ValidationError naming ``what`` and ``path``."""
    path = os.fspath(path)
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
            raise ValidationError(f"{what} {path} is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} {path} must be a JSON object, got {type(doc).__name__}")
    return doc


def write_json(path, doc) -> None:
    """Write ``grids.encode(doc)`` as JSON with sorted keys, an indent of 2
    and a trailing newline, atomically (see ``atomic_write``)."""
    atomic_write(path, json.dumps(encode(doc), sort_keys=True, indent=2) + "\n")


def _positive_int(value) -> bool:
    return type(value) is int and value >= 1


def read_grid(path, *kinds: str, blocks: bool = False):
    """Read an SSCG container and return the validated grid object.

    Raises FormatError for bad magic or version, a header that is not a
    JSON object, an unknown kind, a dtype that is not the kind's, or
    missing or non-integer dims or class_count (softmax and labels);
    TruncationError when the header runs past the end of the file or the
    payload length disagrees with the header; and ValidationError when
    the decoded object would violate its type invariants.  When ``kinds``
    are given, a container whose header names none of them is refused
    with a ValidationError before its payload is read.  The payload is
    read straight into its array: no copy of the file's bytes is held.

    With ``blocks=True`` and the one kind ``"softmax"``, the payload is
    not read into memory: the result is the container's ``SoftmaxRows``,
    read from the open file one block at a time, once every block has
    passed the checks a ``SoftmaxGrid`` makes.  The caller closes it; it
    is a context manager.
    """
    if blocks and kinds != ("softmax",):
        raise ValueError("only a softmax container is read in blocks: pass the kind 'softmax'")
    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(open(os.fspath(path), "rb"))
        kind, shape, count, start = _read_header(fh, path, kinds)
        grid_type, dtype, planes = _KINDS[kind]
        if blocks:
            check_softmax_grid(shape[1:])
            rows = SoftmaxRows(fh, shape[1:-1], count, start)
            check_softmax_rows(rows)
            stack.pop_all()  # the file stays open for the caller's reads
            return rows
        arr = np.empty(shape, dtype=dtype)
        got = fh.readinto(arr.reshape(-1).view(np.uint8))
        if got != arr.nbytes:  # the file shrank after it was measured
            raise TruncationError(f"payload of {got} bytes, header implies {arr.nbytes}")
    fields = dict(zip(planes, arr))
    if kind == "labels":
        fields["class_count"] = count
    return grid_type(**fields)


def read_header(path, *kinds: str) -> tuple[str, tuple, int | None]:
    """(kind, payload shape, class count) of the SSCG container at ``path``,
    from its header alone: it is checked as ``read_grid`` checks it, and no
    payload byte is read.  The shape leads with the kind's plane count."""
    with open(os.fspath(path), "rb") as fh:
        return _read_header(fh, path, kinds)[:3]


def _read_header(fh, path, kinds) -> tuple[str, tuple, int | None, int]:
    """(kind, payload shape, class count, payload offset) of the container
    open as ``fh``, once its header is checked and the file's length is
    the payload's that the header implies (see ``read_grid``)."""
    file_size = os.fstat(fh.fileno()).st_size
    prefix = fh.read(16)
    if len(prefix) < 16 or prefix[:4] != MAGIC:
        raise FormatError("not an SSCG container (bad magic)")
    version = int.from_bytes(prefix[4:8], "little")
    if version != VERSION:
        raise FormatError(f"unsupported SSCG version {version}")
    start = 16 + int.from_bytes(prefix[8:16], "little")
    if file_size < start:
        raise TruncationError("header extends past end of file")
    try:
        header = json.loads(fh.read(start - 16).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise FormatError(f"malformed JSON header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"JSON header must be an object, got {type(header).__name__}")
    kind = header.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise FormatError(f"unknown container kind {kind!r}")
    _, dtype, planes = _KINDS[kind]
    if header.get("dtype") != dtype.name:
        raise FormatError(
            f"{kind} payload must be {dtype.name}, header says {header.get('dtype')!r}"
        )
    dims = header.get("dims")
    if not isinstance(dims, list) or not all(_positive_int(n) for n in dims):
        raise FormatError(f"header dims must be a list of positive integers, got {dims!r}")
    count = header.get("class_count")
    if kind in _COUNTED and not _positive_int(count):
        raise FormatError(
            f"{kind} header class_count must be a positive integer, got {count!r}"
        )
    if kinds and kind not in kinds:
        raise ValidationError(f"{path} holds a {kind} container, not {' or '.join(kinds)}")
    shape = (len(planes), *dims)
    if kind == "softmax":
        shape += (count,)
    size = math.prod(shape) * dtype.itemsize
    if file_size - start != size:
        raise TruncationError(f"payload of {file_size - start} bytes, header implies {size}")
    return kind, shape, count, start


class SoftmaxRows:
    """The rows of a softmax container, read from its open file one
    ``row_blocks`` block at a time: ``dims`` and ``class_count`` as a
    ``SoftmaxGrid``'s, and ``flat()`` the rows (n, M), which answer
    ``shape`` and ``[block]``.  A block is a fresh array of the payload
    dtype read at its offset; a file that has shrunk since it was opened
    raises TruncationError, and an index that is not a slice of at most
    one block of rows raises rather than reading more."""

    def __init__(self, fh, dims: tuple, class_count: int, start: int):
        self._fh, self._start = fh, start
        self.dims, self.class_count = tuple(dims), class_count
        self.shape = (math.prod(dims), class_count)

    def flat(self) -> "SoftmaxRows":
        return self

    def __getitem__(self, index) -> np.ndarray:
        if not isinstance(index, slice):
            raise TypeError(f"softmax rows are read by a slice of rows, not {index!r}")
        first, stop, step = index.indices(self.shape[0])
        if step != 1 or stop - first > grids._BLOCK_ROWS:
            raise IndexError(f"softmax rows are read one block of rows at a time, not {index}")
        rows = np.empty((max(stop - first, 0), self.class_count), dtype=_KINDS["softmax"][1])
        self._fh.seek(self._start + first * rows.itemsize * self.class_count)
        got = self._fh.readinto(rows.reshape(-1).view(np.uint8))
        if got != rows.nbytes:  # the file shrank after it was opened
            raise TruncationError(f"rows {first}..{stop - 1}: read {got} of {rows.nbytes} bytes")
        return rows

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "SoftmaxRows":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

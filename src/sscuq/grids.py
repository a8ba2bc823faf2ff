"""Domain types: camera model, grid geometry, depth maps, and voxel grids.

All types validate their invariants at construction and hold read-only
arrays, so instances can be shared freely across threads.  A constructor
given a C-contiguous array of the field's dtype stores that array and
makes it read-only in place, so the caller's array is frozen too; any
other input is copied.  ``LabelGrid`` always copies its labels.  Class
labels are 1-based throughout the package; class 1 is the empty class.
"""

from __future__ import annotations

import dataclasses
import math
import reprlib
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NewType, get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "ValidationError",
    "Seed",
    "decode",
    "encode",
    "CameraIntrinsics",
    "GridGeometry",
    "DepthEstimate",
    "GroundTruthDepth",
    "ProbOccupancyGrid",
    "BinaryOccupancyGrid",
    "SoftmaxGrid",
    "LabelGrid",
    "SOFTMAX_SUM_TOL",
]

SOFTMAX_SUM_TOL = 1e-5  # absorbs float32 serialization error
_MAX_CLASS = 65535  # labels are stored as uint16
_BLOCK_ROWS = 16384  # rows per block of the row kernels; no result depends on it


class ValidationError(ValueError):
    """A domain type invariant does not hold."""


# a seed of the rng streams: an integer in [0, 2**64)
Seed = NewType("Seed", int)


def decode(cls, doc, where: str, defaults={}, fixed={}):
    """Decode the JSON value ``doc`` as ``cls``, by annotations.

    ``cls`` is a dataclass, built from the JSON object ``doc`` by the
    type hint of each field, or one such hint.  Each hint reads the form
    ``encode`` writes:

    * ``int`` and ``Seed`` (in [0, 2**64)): an integer, or a float with
      no fraction; not a bool or a string;
    * ``float``: a number that is not a bool or NaN, or ``"inf"`` or
      ``"-inf"``;
    * ``str``: a string;
    * ``np.ndarray`` (float64): a number, or nested arrays of numbers;
    * fixed and ``...`` tuples and ``frozenset``: an array of items,
      each named ``where.field[i]``;
    * ``Mapping[int, ...]``: an object whose keys are spelled as ``str``
      spells an int (``"5"``, not ``"05"``), each value named
      ``where.field[key]``;
    * nested dataclasses: an object.

    Keys that are not fields are ignored.

    A field named in ``fixed`` takes that value and is never read from
    ``doc``.  A field missing from ``doc`` is filled from ``defaults``,
    then from the field's own default or ``default_factory``; failing
    both it is an error.

    Every error is a ValidationError naming what failed: "where.field
    is missing", "where.field[5] is malformed: <value> is not <form>" for
    a value (here a map's entry) of the wrong form, and "where: ..." for a
    ValidationError of the constructor.
    """
    if not dataclasses.is_dataclass(cls):
        try:
            return _value(cls, doc, where)
        except ValidationError:  # a nested dataclass's error names its own field
            raise
        except (ValueError, OverflowError) as exc:
            raise ValidationError(f"{where} is malformed: {exc}") from None
    if not isinstance(doc, Mapping):
        raise ValidationError(f"{where} must be an object, got {type(doc).__name__}")
    hints = get_type_hints(cls)
    values = dict(fixed)
    for f in dataclasses.fields(cls):
        name = f"{where}.{f.name}"
        if f.name in values:
            continue
        if f.name in doc:
            values[f.name] = decode(hints[f.name], doc[f.name], name)
        elif f.name in defaults:
            values[f.name] = defaults[f.name]
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValidationError(f"{name} is missing")
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def encode(value):
    """The JSON value that ``decode`` reads back as ``value``: a dataclass
    becomes an object of its fields, a Mapping an object keyed by
    ``str(key)`` in key order, a frozenset a sorted list, a tuple or array
    a list, a numpy scalar its Python value, and +-inf "inf" or "-inf".
    The package's JSON writers spell every document and summary by it."""
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {str(k): encode(v) for k, v in sorted(value.items())}
    if isinstance(value, (np.ndarray, np.generic)):
        return encode(value.tolist())
    if isinstance(value, (frozenset, tuple, list)):
        return [encode(x) for x in (sorted(value) if isinstance(value, frozenset) else value)]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _value(hint, v, where: str):
    """``v`` decoded as ``hint``; a value of the wrong form raises
    ValueError, or OverflowError for an int too large for a float.  A
    message shows the value through ``reprlib.repr``, so that a large
    value still gives a short message."""
    if hint is int or hint is Seed:
        if not (type(v) is int or type(v) is float and v.is_integer()):
            raise ValueError(f"{reprlib.repr(v)} is not an integer")
        v = int(v)
        if hint is Seed and not 0 <= v < 2**64:
            raise ValueError(f"seeds must lie in [0, 2**64), got {v}")
        return v
    if hint is float:
        return float(v) if v in ("inf", "-inf") else _number(v)
    if hint is str:
        if type(v) is not str:
            raise ValueError(f"{reprlib.repr(v)} is not a string")
        return v
    if hint is np.ndarray:
        return np.asarray(_numbers(v), dtype=np.float64)
    origin, args = get_origin(hint), get_args(hint)
    form, name = (Mapping, "an object") if origin is Mapping else (list, "an array")
    if not isinstance(v, form):
        raise ValueError(f"{reprlib.repr(v)} is not {name}")
    if origin is Mapping:  # its keys are ints
        return {_class_key(k): decode(args[1], x, f"{where}[{k}]") for k, x in v.items()}
    sized = origin is tuple and args[-1] is not Ellipsis
    if sized and len(v) != len(args):
        raise ValueError(f"expected {len(args)} items, got {len(v)}")
    hints = args if sized else (args[0],) * len(v)
    items = (decode(a, x, f"{where}[{i}]") for i, (a, x) in enumerate(zip(hints, v)))
    return frozenset(items) if origin is frozenset else tuple(items)


def _number(v) -> float:
    """``v`` as a float: a JSON number that is not a bool and not NaN."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v != v:
        raise ValueError(f"{reprlib.repr(v)} is not a number")
    return float(v)


def _numbers(v):
    """``v``, one number or nested lists of them, once each passes ``_number``
    (walked with a stack: JSON nests deeper than Python recurses)."""
    todo = [v]
    while todo:
        x = todo.pop()
        if isinstance(x, list):
            todo.extend(reversed(x))
        else:
            _number(x)
    return v


def _class_key(k) -> int:
    """The int whose ``str`` is the object key ``k``."""
    if not (isinstance(k, str) and k.removeprefix("-").isdecimal() and str(int(k)) == k):
        raise ValueError(f"{reprlib.repr(k)} is not an integer key")
    return int(k)


def row_reduce(ufunc, a: np.ndarray, dtype=None) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1, dtype=dtype)`` as one pass per column.

    numpy reduces a row shorter than 8 left to right from the ufunc's
    identity, with a per-row inner loop that dominates when rows are
    this short.  Sweeping whole columns does the same operations in the
    same order, so the result is bit-identical and several times faster;
    wider rows (numpy sums them pairwise) and 1-d input go to numpy.
    """
    m = a.shape[-1]
    if a.ndim < 2 or not 2 <= m < 8:
        return ufunc.reduce(a, axis=-1, dtype=dtype)
    out = ufunc(a[..., 0], a[..., 1], dtype=dtype)
    for j in range(2, m):
        ufunc(out, a[..., j], out=out, dtype=dtype)
    if ufunc is np.add and out.dtype.kind == "f":
        out += 0.0  # numpy starts from +0.0: a row of -0.0 sums to +0.0
    return out


def row_blocks(n: int):
    """Slices of at most ``_BLOCK_ROWS`` consecutive rows covering
    ``range(n)`` in order.  Kernels that convert rows to float64 walk
    their input in these blocks, so none holds a whole-array copy."""
    return (slice(start, min(start + _BLOCK_ROWS, n)) for start in range(0, n, _BLOCK_ROWS))


def map_rows(fn, rows, mask: np.ndarray, outs: tuple) -> tuple:
    """Fill ``outs`` from the rows of ``rows`` that the boolean ``mask``
    selects, one ``row_blocks`` block at a time, and return them.
    ``rows`` is an array, or any object whose ``[block]`` gives one (the
    rows of a softmax container read in blocks).

    ``fn`` is called on each block's selected rows, also when a block
    selects none, and returns one array per output with one entry per row
    along the first axis; these fill the outputs in row order.  Only a
    block of selected rows is ever copied.
    """
    at = 0
    for block in row_blocks(mask.shape[0]):
        selected = rows[block][mask[block]]
        stop = at + selected.shape[0]
        for out, part in zip(outs, fn(selected)):
            out[at:stop] = part
        at = stop
    return outs


def check_softmax_shape(f) -> np.ndarray:
    """``f`` as an array of vectors (..., M), M >= 2; its values unchecked."""
    f = np.asarray(f)
    _check_class_axis(f.shape)
    return f


def _check_class_axis(shape) -> None:
    if not shape or shape[-1] < 2:
        raise ValidationError("softmax vectors need at least 2 classes")


def check_softmax_grid(shape) -> None:
    """Raise ValidationError unless ``shape`` is a softmax grid's: (U, V, D, M)
    with positive dims and M >= 2."""
    if len(shape) != 4 or any(n < 1 for n in shape[:3]):
        raise ValidationError("softmax grid must be a 4-d array with positive dims")
    _check_class_axis(shape)


def check_softmax_rows(rows) -> None:
    """Raise ValidationError unless ``rows`` (n, M) are softmax vectors:
    M >= 2, no negative entry, and each row summing (in float64) to 1
    within ``SOFTMAX_SUM_TOL``.  A negative entry anywhere is reported
    ahead of a bad row sum.

    ``rows`` is read one ``row_blocks`` block at a time, so it is an array
    or any object whose ``shape`` and ``[block]`` answer as one's: the rows
    of a softmax container read in blocks."""
    _check_class_axis(rows.shape)
    bad_sum = False
    for block in row_blocks(rows.shape[0]):
        f = rows[block]
        if np.any(f < 0):
            raise ValidationError("softmax entries must be non-negative")
        sums = row_reduce(np.add, f, dtype=np.float64)
        bad_sum |= not np.all(np.abs(sums - 1.0) <= SOFTMAX_SUM_TOL)
    if bad_sum:
        raise ValidationError(f"softmax vectors must sum to 1 within {SOFTMAX_SUM_TOL}")


def check_class_count(m: int, least: int) -> None:
    """Raise ValidationError unless the class count ``m`` lies in ``least``..65535."""
    if not least <= m <= _MAX_CLASS:
        raise ValidationError(f"class_count must be at least {least} and at most 65535, got {m}")


def check_same_classes(what: str, m: int, other: str, n: int) -> None:
    """Raise ValidationError "<what> has <m> classes, <other> <n>" unless ``m == n``."""
    if m != n:
        raise ValidationError(f"{what} has {m} classes, {other} {n}")


# what a rate or quantile must be -> the test it passes; each test fails a NaN
_BOUNDS = {
    "in (0, 1)": lambda a: 0.0 < a < 1.0,
    "in [0, 1]": lambda a: 0.0 <= a <= 1.0,
    "a number or +inf": lambda a: -math.inf < a,  # a quantile, as calibrators write it
}


def check_rate(name: str, a: float, bounds: str = "in (0, 1)") -> None:
    """Raise a ValidationError naming ``name`` unless ``a`` is ``bounds``,
    a key of ``_BOUNDS``: a rate, a split fraction, or a quantile."""
    if not _BOUNDS[bounds](a):
        raise ValidationError(f"{name} must be {bounds}, got {a}")


def check_labels(labels, class_count: int) -> None:
    """Raise ValidationError naming the first of ``labels`` outside 1..``class_count``
    (NaN too), or else the first that is not an integer."""
    labels = np.asarray(labels)
    # min and max make no mask: only a refusal looks for the first bad label
    if labels.size and not (labels.min() >= 1 and labels.max() <= class_count):  # a NaN fails too
        bad = labels[~((labels >= 1) & (labels <= class_count))]
        raise ValidationError(f"class {bad.flat[0]} out of range 1..{class_count}")
    if labels.dtype.kind not in "biu":  # an integer array holds no fraction
        bad = labels[labels != np.trunc(labels)]
        if bad.size:
            raise ValidationError(f"class {bad.flat[0]} is not an integer")


def set_fields(obj, **values) -> None:
    """Store ``values`` as fields of the frozen dataclass ``obj``, from its
    ``__post_init__``.  An array is stored C-contiguous and read-only: one
    that is already contiguous is frozen in place, not copied, so a caller
    who passes it sees it frozen.  Other values are stored as given."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value)
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera: focal lengths, principal point, image size (pixels)."""

    f_u: float
    f_v: float
    c_h: float
    c_w: float
    height: int
    width: int

    def __post_init__(self):
        if not (0 < self.f_u < np.inf and 0 < self.f_v < np.inf):
            raise ValidationError("focal lengths f_u and f_v must be positive and finite")
        if not (self.height >= 1 and self.width >= 1):
            raise ValidationError("image dimensions must be at least 1")
        if not (0 <= self.c_h < self.height and 0 <= self.c_w < self.width):
            raise ValidationError("principal point must lie inside the image")


@dataclass(frozen=True)
class GridGeometry:
    """Axis-aligned voxel lattice in the camera frame.

    ``dims`` are the voxel counts (U, V, D) along the x, y, z axes and
    ``origin`` is the world position of the grid's minimum corner.
    Voxel (u, v, d) covers the half-open box
    ``[origin + (u,v,d)*edge, origin + (u+1,v+1,d+1)*edge)``.
    """

    dims: tuple[int, int, int]
    voxel_edge: float
    origin: np.ndarray

    def __post_init__(self):
        set_fields(self, dims=tuple(int(n) for n in self.dims),
                   origin=np.asarray(self.origin, dtype=np.float64))
        if len(self.dims) != 3 or any(n < 1 for n in self.dims):
            raise ValidationError("dims must be three positive voxel counts")
        if not (self.voxel_edge > 0 and np.isfinite(self.voxel_edge)):
            raise ValidationError("voxel_edge must be positive and finite")
        if self.origin.shape != (3,) or not np.all(np.isfinite(self.origin)):
            raise ValidationError("origin must be a finite 3-vector")

    @property
    def voxel_count(self) -> int:
        return int(np.prod(self.dims))


def _check_depth_pair(values: np.ndarray, valid: np.ndarray, what: str):
    if values.ndim != 2:
        raise ValidationError(f"{what} must be a 2-d array")
    if valid.shape != values.shape:
        raise ValidationError("valid_mask shape must match the depth map")
    if not np.all(np.isfinite(values[valid])):
        raise ValidationError(f"{what} must be finite on valid pixels")


@dataclass(frozen=True)
class DepthEstimate:
    """Per-pixel depth means and standard deviations with a validity mask."""

    mean: np.ndarray
    sigma: np.ndarray
    valid_mask: np.ndarray

    def __post_init__(self):
        set_fields(
            self,
            mean=np.asarray(self.mean, dtype=np.float64),
            sigma=np.asarray(self.sigma, dtype=np.float64),
            valid_mask=np.asarray(self.valid_mask, dtype=bool),
        )
        mean, sigma, valid = self.mean, self.sigma, self.valid_mask
        _check_depth_pair(mean, valid, "mean")
        if sigma.shape != mean.shape:
            raise ValidationError("sigma shape must match mean")
        if np.any(mean[valid] <= 0):
            raise ValidationError("mean must be positive on valid pixels")
        if np.any(sigma[valid] <= 0) or not np.all(np.isfinite(sigma[valid])):
            raise ValidationError("sigma must be positive and finite on valid pixels")

    @property
    def shape(self) -> tuple[int, int]:
        return self.mean.shape


@dataclass(frozen=True)
class GroundTruthDepth:
    """True per-pixel depths with a validity mask."""

    depth: np.ndarray
    valid_mask: np.ndarray

    def __post_init__(self):
        set_fields(self, depth=np.asarray(self.depth, dtype=np.float64),
                   valid_mask=np.asarray(self.valid_mask, dtype=bool))
        _check_depth_pair(self.depth, self.valid_mask, "depth")
        if np.any(self.depth[self.valid_mask] <= 0):
            raise ValidationError("depth must be positive on valid pixels")

    @property
    def shape(self) -> tuple[int, int]:
        return self.depth.shape


def _check_3d(values: np.ndarray):
    if values.ndim != 3:
        raise ValidationError("voxel grid must be a 3-d array")
    if any(n < 1 for n in values.shape):
        raise ValidationError("voxel grid dims must be positive")


@dataclass(frozen=True)
class ProbOccupancyGrid:
    """Per-voxel occupancy probabilities in [0, 1] (float32 storage)."""

    values: np.ndarray

    def __post_init__(self):
        set_fields(self, values=np.asarray(self.values, dtype=np.float32))
        _check_3d(self.values)
        if not np.all((self.values >= 0.0) & (self.values <= 1.0)):
            raise ValidationError("occupancy probabilities must lie in [0, 1]")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape


@dataclass(frozen=True)
class BinaryOccupancyGrid:
    """Per-voxel occupancy flags in {0, 1} (uint8 storage)."""

    values: np.ndarray

    def __post_init__(self):
        set_fields(self, values=np.asarray(self.values, dtype=np.uint8))
        _check_3d(self.values)
        if not np.all(self.values <= 1):
            raise ValidationError("binary occupancy values must be 0 or 1")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape

    def as_bool(self) -> np.ndarray:
        return self.values.astype(bool)


@dataclass(frozen=True)
class SoftmaxGrid:
    """Per-voxel class probability vectors over all classes including empty.

    ``probs[u, v, d, j]`` is the probability of class ``j + 1``; vectors
    sum to 1 within ``SOFTMAX_SUM_TOL``.
    """

    probs: np.ndarray

    def __post_init__(self):
        set_fields(self, probs=np.asarray(self.probs, dtype=np.float32))
        check_softmax_grid(self.probs.shape)
        check_softmax_rows(self.flat())

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.probs.shape[:3]

    @property
    def class_count(self) -> int:
        return self.probs.shape[3]

    def flat(self) -> np.ndarray:
        """View as an (n_voxels, M) matrix in raster voxel order."""
        return self.probs.reshape(-1, self.probs.shape[3])


@dataclass(frozen=True)
class LabelGrid:
    """Per-voxel class labels in {1..M}; class 1 is empty (uint16 storage)."""

    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        labels, class_count = np.asarray(self.labels), int(self.class_count)
        _check_3d(labels)
        check_class_count(class_count, 1)
        # as given: a -1 is named, not its uint16 cast; labels in 1..65535 fit
        check_labels(labels, class_count)
        # the copy also keeps the grid from freezing the caller's array
        set_fields(self, labels=labels.astype(np.uint16), class_count=class_count)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.labels.shape

    def occupied_mask(self) -> np.ndarray:
        """Boolean grid marking voxels whose label is any nonempty class."""
        return self.labels >= 2

    def flat(self) -> np.ndarray:
        """Labels as a 1-d array in raster voxel order."""
        return self.labels.reshape(-1)


def check_aligned(softmax: SoftmaxGrid, labels: LabelGrid) -> None:
    """Raise ValidationError unless the two grids cover the same voxels
    with the same classes."""
    if softmax.dims != labels.dims:
        raise ValidationError(f"softmax dims {softmax.dims} != label dims {labels.dims}")
    check_same_classes("softmax", softmax.class_count, "labels", labels.class_count)

"""Deterministic synthetic worlds, depth renders, and classifier surrogates.

Everything here is a pure function of (inputs, seed) through the
counter-based generator in :mod:`sscuq.rng`, so grids, depth maps, and
softmax outputs reproduce exactly across runs and platforms.  The
default scene targets the heavy class imbalance of street-scene voxel
datasets (about 93% empty, person well under 1%), which is what makes
the conformal guarantees downstream worth testing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import rng
from .grids import (
    CameraIntrinsics,
    DepthEstimate,
    GridGeometry,
    GroundTruthDepth,
    LabelGrid,
    Seed,
    SoftmaxGrid,
    ValidationError,
    check_class_count,
    check_labels,
    check_same_classes,
    row_blocks,
    row_reduce,
    set_fields,
)
from .projection import _cast_rays

__all__ = [
    "GenerationError",
    "ObjectTemplate",
    "SceneSpec",
    "ClassifierSpec",
    "DepthNoise",
    "default_geometry",
    "default_intrinsics",
    "default_scene_spec",
    "default_classifier_spec",
    "generate_scene",
    "render_depth",
    "synth_classifier",
    "draw_labels",
    "classify_labels",
]

# generate_scene's scalar draws come from blocks of this many counters
_DRAW_BLOCK = 1024


class GenerationError(RuntimeError):
    """The scene spec cannot be realized in the given geometry."""


@dataclass(frozen=True)
class ObjectTemplate:
    """One object family: its class, shape kind, and size ranges in meters.

    ``kind`` is ``slab`` (full-footprint layer at the grid bottom),
    ``box`` (axis-aligned cuboid resting on the support level), or
    ``column`` (1x1-footprint vertical bar on the support level).
    ``size`` gives inclusive (min, max) extents per world axis (x, y, z).
    """

    class_id: int
    kind: str
    size: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        if self.kind not in ("slab", "box", "column"):
            raise ValidationError(f"unknown template kind {self.kind!r}")
        if self.class_id < 2:
            raise ValidationError("templates describe nonempty classes only")
        if len(self.size) != 3:
            raise ValidationError(
                f"size needs one (min, max) pair per axis (x, y, z), got {len(self.size)}"
            )
        for lo, hi in self.size:
            if not (0 < lo <= hi < math.inf):
                raise ValidationError("size ranges must be positive, finite and ordered")


@dataclass(frozen=True)
class SceneSpec:
    """Scene recipe: geometry, target class fractions, object templates.  Every field
    but the geometry defaults to a street-like scene: ground, buildings, cars, persons."""

    geometry: GridGeometry
    class_count: int = 5
    class_mix: Mapping[int, float] = field(default_factory=lambda: {
        2: 0.0156, 3: 0.030, 4: 0.0164, 5: 0.007,
    })
    templates: tuple[ObjectTemplate, ...] = field(default_factory=lambda: (
        ObjectTemplate(2, "slab", ((0.2, 0.2), (12.8, 12.8), (3.2, 3.2))),
        ObjectTemplate(3, "box", ((2.0, 3.0), (1.0, 2.0), (1.0, 2.0))),
        ObjectTemplate(4, "box", ((0.6, 0.8), (1.8, 2.4), (0.8, 1.2))),
        ObjectTemplate(5, "column", ((1.0, 1.8), (0.2, 0.2), (0.2, 0.2))),
    ))
    seed: Seed = 0

    def __post_init__(self):
        check_class_count(self.class_count, 1)
        mix = {int(y): float(f) for y, f in dict(self.class_mix).items()}
        if any(y < 2 or y > self.class_count for y in mix):
            raise ValidationError("class_mix keys must be nonempty classes")
        # written so that a NaN fails it
        if not (all(f >= 0 for f in mix.values()) and sum(mix.values()) <= 1.0):
            raise ValidationError("class_mix fractions must be non-negative with a sum <= 1")
        set_fields(self, class_mix=mix, templates=tuple(self.templates))
        if any(t.class_id > self.class_count for t in self.templates):
            raise ValidationError("template class ids exceed class_count")


@dataclass(frozen=True)
class ClassifierSpec:
    """Surrogate softmax model: confusion-driven target draw plus
    Gumbel-perturbed logits, then temperature scaling.

    For a voxel with true class i, a target class j is drawn from row i
    of ``confusion``; the output is ``softmax((sharpness_i * e_j + g) / T)``
    with i.i.d. standard Gumbel noise g.  ``sharpness`` is a single
    concentration or one per true class; temperatures above 1 soften
    (miscalibrate) every vector without changing its argmax.

    The defaults are an imbalance-shaped surrogate for the default 5-class
    scene.  Empty-class errors leak almost entirely into the ground class;
    the person class is frequently smeared toward car/empty.  Its sharpness
    8.5 goes to whichever class its row draws, so a person voxel drawn as
    empty is as confident in empty as one drawn as person is in person: its
    empty logit gets 8.5 where a true empty voxel's gets 3.0.  Temperature
    1.5 keeps every output miscalibrated so calibration has real work to do.
    """

    confusion: np.ndarray = field(default_factory=lambda: np.array([
        [0.965, 0.020, 0.006, 0.005, 0.004],
        [0.020, 0.940, 0.020, 0.015, 0.005],
        [0.030, 0.030, 0.910, 0.025, 0.005],
        [0.030, 0.020, 0.030, 0.880, 0.040],
        [0.150, 0.050, 0.050, 0.250, 0.500],
    ]))
    sharpness: np.ndarray = (3.0, 3.2, 3.2, 3.2, 8.5)
    temperature: float = 1.5
    seed: Seed = 0

    def __post_init__(self):
        conf = np.asarray(self.confusion, dtype=np.float64)
        if conf.ndim != 2 or conf.shape[0] != conf.shape[1] or conf.shape[0] < 2:
            raise ValidationError("confusion must be a square matrix, M >= 2")
        # each test is written so that a NaN fails it
        if not np.all(conf >= 0) or not np.all(np.abs(conf.sum(axis=1) - 1.0) <= 1e-9):
            raise ValidationError("confusion rows must be probability vectors")
        sharp = np.asarray(self.sharpness, dtype=np.float64)
        if sharp.ndim == 0:
            sharp = np.full(conf.shape[0], float(sharp))
        if sharp.shape != (conf.shape[0],) or not np.all((sharp > 0) & (sharp < np.inf)):
            raise ValidationError("sharpness must be positive and finite, scalar or one per class")
        set_fields(self, confusion=conf, sharpness=sharp)
        if not 0 < self.temperature < math.inf:
            raise ValidationError("temperature must be positive and finite")

    @property
    def class_count(self) -> int:
        return self.confusion.shape[0]


def default_geometry() -> GridGeometry:
    """64 x 64 x 16 voxels of 0.2 m; camera 1.4 m above the ground layer."""
    return GridGeometry(dims=(64, 64, 16), voxel_edge=0.2, origin=(-11.2, -6.4, 0.4))


def default_intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(f_u=24.0, f_v=24.0, c_h=31.5, c_w=31.5, height=64, width=64)


def default_scene_spec(seed: int = 0) -> SceneSpec:
    """Street-like toy scene on the default geometry: ``SceneSpec``'s defaults."""
    return SceneSpec(default_geometry(), seed=seed)


def default_classifier_spec(seed: int = 0) -> ClassifierSpec:
    """Surrogate for the default 5-class scene: ``ClassifierSpec``'s defaults."""
    return ClassifierSpec(seed=seed)


# ---------------------------------------------------------------------------
# scene generation


def _voxels(meters: float, edge: float) -> int:
    if not meters / edge < math.inf:
        raise GenerationError(f"{meters} m spans too many voxels of edge {edge} m to count")
    return max(1, int(round(meters / edge)))


def generate_scene(spec: SceneSpec) -> LabelGrid:
    """Place templates until each class reaches its target voxel fraction.

    Objects rest on the ground layer (or the grid floor when there is no
    slab), are rejected when they would overlap anything, and placement
    stops inside a +/-20% budget window around each class target.
    Deterministic in ``spec.seed``.
    """
    geom = spec.geometry
    u_n, v_n, d_n = geom.dims
    edge = geom.voxel_edge
    total = geom.voxel_count
    labels = np.ones(geom.dims, dtype=np.uint16)
    stream = rng.derive_seed(spec.seed, rng.TAG_SCENE)
    # the scalars in order, one block of counters per rng call: draw k is
    # uniforms(stream, [k]) whatever the block size
    draws = (
        u
        for start in itertools.count(0, _DRAW_BLOCK)
        for u in rng.uniforms(stream, np.arange(start, start + _DRAW_BLOCK)).tolist()
    )
    draw = draws.__next__

    def draw_size(lo: float, hi: float) -> int:
        return _voxels(lo + (hi - lo) * draw(), edge)

    support = u_n - 1  # index of the highest row objects may occupy
    for tpl in spec.templates:
        target = spec.class_mix.get(tpl.class_id, 0.0) * total
        if target <= 0:
            continue
        if tpl.kind == "slab":
            thickness = min(_voxels(tpl.size[0][0], edge), u_n)
            region = labels[u_n - thickness :, :, :]
            if not np.all(region == 1):
                raise GenerationError("ground layer would overlap placed objects")
            region[:] = tpl.class_id
            support = u_n - thickness - 1
            continue

        placed = 0
        budget_lo = 0.9 * target
        budget_hi = 1.2 * target
        # 2000 attempts, or 20 per object of the smallest size the target
        # needs, whichever is more: larger grids need more objects
        h_min, wy_min, wz_min = (_voxels(lo, edge) for lo, _ in tpl.size)
        smallest = h_min if tpl.kind == "column" else h_min * wy_min * wz_min
        max_attempts = max(2000, 20 * math.ceil(budget_lo / smallest))
        attempts = 0
        while placed < budget_lo:
            attempts += 1
            if attempts > max_attempts:
                raise GenerationError(
                    f"template for class {tpl.class_id} cannot fit its target: "
                    f"{placed} of {budget_lo:.0f} voxels placed in {max_attempts} attempts"
                )
            h = draw_size(*tpl.size[0])
            wy = 1 if tpl.kind == "column" else draw_size(*tpl.size[1])
            wz = 1 if tpl.kind == "column" else draw_size(*tpl.size[2])
            if h > support + 1 or wy > v_n or wz > d_n:
                continue
            if placed + h * wy * wz > budget_hi:
                continue
            v0 = int(draw() * (v_n - wy + 1))
            d0 = int(draw() * (d_n - wz + 1))
            u0 = support - h + 1
            region = labels[u0 : support + 1, v0 : v0 + wy, d0 : d0 + wz]
            if not np.all(region == 1):
                continue
            region[:] = tpl.class_id
            placed += h * wy * wz

    for y, frac in spec.class_mix.items():
        if frac < 0.005:
            continue
        realized = np.count_nonzero(labels == y) / total
        if not 0.8 * frac <= realized <= 1.2 * frac:
            raise GenerationError(
                f"class {y} realized fraction {realized:.4f} is outside "
                f"+/-20% of target {frac:.4f}"
            )
    return LabelGrid(labels, class_count=spec.class_count)


# ---------------------------------------------------------------------------
# depth rendering


@dataclass(frozen=True)
class DepthNoise:
    """The depth estimator's noise ``sigma(d) = a + b*d``; ``check_noise`` holds its rule."""

    a: float = 0.03
    b: float = 0.06


def check_noise(noise: DepthNoise) -> None:
    """Raise ValidationError unless ``sigma(d) = a + b*d`` has finite a, b >= 0, a + b > 0."""
    if not (0 <= noise.a < math.inf and 0 <= noise.b < math.inf and noise.a + noise.b > 0):
        raise ValidationError("noise.a and noise.b must be finite and >= 0 with a positive sum")


def render_depth(
    world: LabelGrid,
    intr: CameraIntrinsics,
    geom: GridGeometry,
    noise: DepthNoise,
    seed: int = 0,
    threads: int = 1,
):
    """Ray-cast true depths and simulate a calibrated noisy estimator.

    The true depth of a pixel is the entry depth of the first occupied
    voxel its ray crosses; rays that hit nothing give invalid pixels.
    The estimate adds Gaussian noise with standard deviation
    ``sigma(d) = noise.a + noise.b * d`` and reports exactly that sigma,
    so standardized residuals are standard normal by construction.
    ``threads`` worker threads cast chunks of rays; the result does not
    depend on it.
    """
    check_noise(noise)
    if world.dims != geom.dims:
        raise ValueError(f"world dims {world.dims} != geometry dims {geom.dims}")
    shape = (intr.height, intr.width)
    depth = np.zeros(shape, dtype=np.float64)
    valid = np.zeros(shape, dtype=bool)
    occupied = world.occupied_mask().reshape(-1)

    def first_hits(ray, voxel, z_lo, _):
        hit = occupied[voxel]
        pixels, first = np.unique(ray[hit], return_index=True)
        return pixels, z_lo[hit][first]

    def store(res):
        pixels, z = res
        depth.flat[pixels] = z
        valid.flat[pixels] = True

    _cast_rays(np.ones(shape, dtype=bool), intr, geom, threads, first_hits, store)
    gt = GroundTruthDepth(depth, valid)

    sigma = noise.a + noise.b * depth
    z = rng.normals(rng.derive_seed(seed, rng.TAG_DEPTH), np.arange(depth.size))
    mean = depth + sigma * z.reshape(depth.shape)
    est_valid = valid & (mean > 0)
    mean = np.where(est_valid, mean, 0.0)
    sigma = np.where(est_valid, sigma, 0.0)
    return gt, DepthEstimate(mean, sigma, est_valid)


# ---------------------------------------------------------------------------
# classifier surrogate


def draw_labels(n: int, fractions: Sequence[float], seed: int) -> np.ndarray:
    """IID labels 1..M with the given class probabilities (must sum to 1)."""
    fractions = np.asarray(fractions, dtype=np.float64)
    if np.any(fractions < 0) or abs(fractions.sum() - 1.0) > 1e-9:
        raise ValueError("fractions must be a probability vector")
    u = rng.uniforms(rng.derive_seed(seed, rng.TAG_LABELS), np.arange(n))
    cdf = np.cumsum(fractions)
    return 1 + np.searchsorted(cdf[:-1], u, side="right").astype(np.int64)


def classify_labels(labels: np.ndarray, spec: ClassifierSpec, dtype=np.float64) -> np.ndarray:
    """Softmax vectors (N, M) of ``dtype`` for a flat label array, one
    i.i.d. draw per row.

    Row i draws its confusion target from counter i of the seed's target
    stream and its M logit noises from counters iM..iM+M-1 of its Gumbel
    stream, so rows with the same label are exchangeable by construction,
    which is what the conformal coverage guarantees downstream assume.
    Rows are drawn and computed in float64 one ``row_blocks`` block at a
    time, then written to the output as ``dtype``.
    """
    m = spec.class_count
    check_labels(labels, m)
    labels = np.asarray(labels).reshape(-1)
    target_stream = rng.derive_seed(spec.seed, rng.TAG_TARGET)
    gumbel_stream = rng.derive_seed(spec.seed, rng.TAG_GUMBEL)
    cdf = np.cumsum(spec.confusion, axis=1)
    out = np.empty((labels.size, m), dtype=dtype)
    for block in row_blocks(labels.size):
        rows = labels[block].astype(np.int64) - 1
        u = rng.uniforms(target_stream, np.arange(block.start, block.stop))
        # target = how many entries of the row's confusion CDF lie below u,
        # counted one CDF column at a time (no (N, M) gather of CDF rows)
        target = np.zeros(rows.size, dtype=np.int64)
        for j in range(m - 1):
            target += u > cdf[:, j].take(rows)

        counters = np.arange(block.start * m, block.stop * m)
        logits = rng.gumbels(gumbel_stream, counters).reshape(-1, m)
        logits[np.arange(rows.size), target] += spec.sharpness[rows]
        logits /= spec.temperature
        logits -= row_reduce(np.maximum, logits)[:, None]
        probs = np.exp(logits, out=logits)
        probs /= row_reduce(np.add, probs)[:, None]
        out[block] = probs
    return out


def synth_classifier(world: LabelGrid, spec: ClassifierSpec) -> SoftmaxGrid:
    """Apply the surrogate classifier voxelwise to a label grid."""
    check_same_classes("classifier", spec.class_count, "world", world.class_count)
    probs = classify_labels(world.flat(), spec, np.float32)
    return SoftmaxGrid(probs.reshape(world.dims + (spec.class_count,)))

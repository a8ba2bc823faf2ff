"""Back-projection of depth maps into probabilistic and binary voxel grids.

A pixel (h, w) observed at depth z maps to the camera-frame point

    x = (h - c_h) * z / f_u,   y = (w - c_w) * z / f_v,

so each pixel's ray is the line ``z -> (kx*z, ky*z, z)``.  Rays are
traversed through the voxel lattice exactly: the segment boundaries are
the ray's crossings of the grid planes, parameterized by camera-frame
depth z (not arc length), which makes the per-voxel Gaussian integral
bounds the crossing depths directly.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .depth import _interval_prob
from .grids import (
    BinaryOccupancyGrid,
    CameraIntrinsics,
    DepthEstimate,
    GridGeometry,
    GroundTruthDepth,
    ProbOccupancyGrid,
)

__all__ = [
    "RaySegment",
    "ray_direction",
    "traverse_ray",
    "build_prob_grid",
    "build_binary_grid",
]


class RaySegment(NamedTuple):
    """One voxel crossed by a ray, with entry and exit depths (meters)."""

    voxel: tuple[int, int, int]
    z_entry: float
    z_exit: float


def ray_direction(h, w, intr: CameraIntrinsics) -> np.ndarray:
    """Direction (dx/dz, dy/dz, 1) of the pixel's ray, depth-parameterized.

    ``h`` and ``w`` may be arrays of pixel coordinates; the directions
    then stack along a trailing axis of length 3.
    """
    h = np.asarray(h, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    return np.stack(
        [(h - intr.c_h) / intr.f_u, (w - intr.c_w) / intr.f_v, np.ones_like(h)], axis=-1
    )


def _ray_segments(dirs: np.ndarray, geom: GridGeometry):
    """Exact voxel crossings of the rays ``z -> dirs[r] * z`` within the grid.

    ``dirs`` is an (R, 3) batch of depth-parameterized directions (third
    component 1).  Each ray runs from z = 0 to the grid's far face: it
    is clipped to the grid box by its slab entry and exit depths, and
    its crossings of every grid plane inside that range, found in
    closed form, are sorted into segment bounds.  Returns
    ``(ray, voxel, z_lo, z_hi)``: the ray of each segment, its voxel as
    a C-order flat index into ``geom.dims`` and its depth bounds,
    ordered by ray and then by increasing z, with zero-length segments
    and rays that miss the grid dropped.  No ray lists a voxel twice.
    """
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    origin = geom.origin
    edge = geom.voxel_edge
    dims = geom.dims

    # slab clip.  A ray parallel to an axis gets +-inf or nan slab
    # bounds, which keep (lo, hi) when it lies in that slab and empty it
    # otherwise.  The updates keep the current bound on ties and against
    # nan, as Python's max/min do, so a -0.0 crossing never replaces
    # lo = 0.0 and a nan bound never spreads.
    lo = np.zeros(dirs.shape[0])
    hi = np.full(dirs.shape[0], np.inf)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for ax in range(3):
            za = origin[ax] / dirs[:, ax]
            zb = (origin[ax] + dims[ax] * edge) / dirs[:, ax]
            near = np.where(zb < za, zb, za)
            far = np.where(zb > za, zb, za)
            lo = np.where(near > lo, near, lo)
            hi = np.where(far < hi, far, hi)
        rays = np.flatnonzero(hi > lo)
        dirs, lo, hi = dirs[rays], lo[rays, None], hi[rays, None]

        # a row holds the bounds and every plane crossing; crossings
        # outside (lo, hi), and all of an axis the ray is parallel to
        # (+-inf or nan), become +inf and sort past the bounds
        zs = np.empty((rays.size, 2 + sum(n + 1 for n in dims)))
        zs[:, :1], zs[:, 1:2] = lo, hi
        col = 2
        for ax in range(3):
            zc = zs[:, col : col + dims[ax] + 1]
            np.divide(origin[ax] + edge * np.arange(dims[ax] + 1), dirs[:, ax, None], out=zc)
            zc[~((zc > lo) & (zc < hi))] = np.inf
            col += dims[ax] + 1
    zs.sort(axis=1)
    keep = (zs[:, 1:] > zs[:, :-1]) & (zs[:, 1:] < np.inf)
    z_lo, z_hi = zs[:, :-1][keep], zs[:, 1:][keep]
    seg_ray = np.repeat(np.arange(rays.size), keep.sum(axis=1))
    del zs, keep  # free the (rays, planes) scratch before the per-segment arrays

    # each segment's voxel, from its midpoint, as a C-order flat index
    mids = z_lo + z_hi
    mids *= 0.5
    voxel = np.zeros(mids.size, dtype=np.int64)
    ok = np.ones(mids.size, dtype=bool)
    for ax in range(3):
        coord = dirs[seg_ray, ax]
        coord *= mids
        coord -= origin[ax]
        coord /= edge
        np.floor(coord, out=coord)
        ok &= (coord >= 0) & (coord < dims[ax])
        voxel *= dims[ax]
        voxel += coord.astype(np.int64)
    del mids, coord
    if not ok.all():
        seg_ray, voxel, z_lo, z_hi = seg_ray[ok], voxel[ok], z_lo[ok], z_hi[ok]

    # Plane crossings an ulp apart leave slivers whose midpoints can land
    # in the voxel just left or just entered, listing it twice.  A line
    # meets a convex voxel in one interval, so a sliver between two
    # segments of one voxel is folded into that voxel, and each run of
    # one voxel becomes one segment from its first entry to its last exit.
    split = (seg_ray[2:] == seg_ray[:-2]) & (voxel[2:] == voxel[:-2])
    voxel[1:-1][split] = voxel[:-2][split]
    first = np.ones(voxel.size, dtype=bool)
    first[1:] = (voxel[1:] != voxel[:-1]) | (seg_ray[1:] != seg_ray[:-1])
    if not first.all():
        last = np.append(first[1:], True)
        seg_ray, voxel, z_lo, z_hi = seg_ray[first], voxel[first], z_lo[first], z_hi[last]
    return rays[seg_ray], voxel, z_lo, z_hi


# Rays per kernel call: bounds the (rays, planes) scratch arrays of a chunk.
_CHUNK_RAYS = 1024


def _cast_rays(
    pixels: np.ndarray, intr: CameraIntrinsics, geom: GridGeometry, threads: int, work, fold
) -> None:
    """Cast the ray of every pixel set in ``pixels`` and reduce its segments.

    ``pixels`` is a boolean ``(height, width)`` map; its set pixels are
    cast in raster order, ``_CHUNK_RAYS`` rays per call of
    ``_ray_segments``, and ``fold(work(ray, voxel, z_lo, z_hi))`` runs
    for each chunk, with ``ray`` counting the cast pixels from 0.
    The chunks run in groups of ``threads``: the calling thread works on
    the first chunk of a group while a pool of ``threads - 1`` workers
    takes the rest.  ``fold`` sees the results in chunk order on the
    calling thread, so the outcome never depends on ``threads``.
    """
    if pixels.shape != (intr.height, intr.width):
        raise ValueError(
            f"depth map {pixels.shape} does not match intrinsics "
            f"{(intr.height, intr.width)}"
        )
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    dirs = ray_direction(*np.nonzero(pixels), intr)

    def chunk(start):
        ray, voxel, z_lo, z_hi = _ray_segments(dirs[start : start + _CHUNK_RAYS], geom)
        ray += start
        return work(ray, voxel, z_lo, z_hi)

    starts = range(0, len(dirs), _CHUNK_RAYS)
    # with one thread each group is one chunk and no worker thread starts
    with ThreadPoolExecutor(max_workers=max(threads - 1, 1)) as pool:
        for first in range(0, len(starts), threads):
            group = starts[first : first + threads]
            futures = [pool.submit(chunk, start) for start in group[1:]]
            fold(chunk(group[0]))
            for future in futures:
                fold(future.result())


def traverse_ray(
    h: float, w: float, intr: CameraIntrinsics, geom: GridGeometry
) -> list[RaySegment]:
    """Ordered voxels crossed by pixel (h, w)'s ray, in increasing depth.

    Consecutive segments share their boundary depth, no voxel repeats,
    and corner grazes of zero depth extent are dropped.  A ray that
    misses the grid returns an empty list.
    """
    _, voxel, z_lo, z_hi = _ray_segments(ray_direction([h], [w], intr), geom)
    idx = np.unravel_index(voxel, geom.dims)
    return [
        RaySegment((int(i), int(j), int(k)), float(a), float(b))
        for i, j, k, a, b in zip(*idx, z_lo, z_hi)
    ]


def build_prob_grid(
    est: DepthEstimate,
    intr: CameraIntrinsics,
    geom: GridGeometry,
    threads: int = 1,
) -> ProbOccupancyGrid:
    """Probabilistic occupancy: per voxel, the probability that at least one
    pixel's point lies inside it.

    A ray puts mass ``p_r`` in a voxel, the Gaussian depth mass between
    the ray's entry and exit depths there; rays are independent, so the
    voxel holds ``1 - prod_r (1 - p_r)``.  The ``log1p(-p_r)`` terms are
    accumulated in raster order into a float64 buffer, so the result is
    deterministic and the same for any ``threads`` (worker threads
    traversing chunks of rays).
    """
    pixels = est.valid_mask
    mean, sigma = est.mean[pixels], est.sigma[pixels]

    def work(ray, voxel, z_lo, z_hi):
        p = _interval_prob(z_lo, z_hi, mean[ray], sigma[ray])
        with np.errstate(divide="ignore"):  # a certain hit: log1p(-1) = -inf
            return voxel, np.log1p(-p)

    log_miss = np.zeros(geom.voxel_count, dtype=np.float64)
    _cast_rays(pixels, intr, geom, threads, work, lambda res: np.add.at(log_miss, *res))
    values = 0.0 - np.expm1(log_miss)  # 0.0 - keeps untouched voxels at +0.0
    return ProbOccupancyGrid(values.astype(np.float32).reshape(geom.dims))


def build_binary_grid(
    gt: GroundTruthDepth,
    intr: CameraIntrinsics,
    geom: GridGeometry,
    threads: int = 1,
) -> BinaryOccupancyGrid:
    """Binary occupancy: a voxel is 1 iff some valid pixel's point falls inside it.

    A point belongs to the segment of its ray whose ``[z_lo, z_hi)``
    holds its depth, so a point on a face goes to the voxel the ray
    enters there: the true depth of ``render_depth`` lands in the first
    occupied voxel, and the grid is the sigma -> 0 limit of
    ``build_prob_grid``.  ``threads`` works as there.
    """
    z = gt.depth[gt.valid_mask]

    def work(ray, voxel, z_lo, z_hi):
        d = z[ray]
        return voxel[(z_lo <= d) & (d < z_hi)]

    values = np.zeros(geom.voxel_count, dtype=np.uint8)
    _cast_rays(gt.valid_mask, intr, geom, threads, work, lambda hit: values.put(hit, 1))
    return BinaryOccupancyGrid(values.reshape(geom.dims))

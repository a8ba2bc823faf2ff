import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sscuq.depth import _interval_prob, gaussian_cdf_interval
from sscuq.grids import (
    CameraIntrinsics,
    DepthEstimate,
    GridGeometry,
    GroundTruthDepth,
    LabelGrid,
    ValidationError,
)
from sscuq.projection import (
    _CHUNK_RAYS,
    _cast_rays,
    _ray_segments,
    build_binary_grid,
    build_prob_grid,
    ray_direction,
    traverse_ray,
)
from sscuq.synth import (
    default_geometry,
    default_intrinsics,
    default_scene_spec,
    generate_scene,
    render_depth,
)

ONE_SIGMA_MASS = 0.682689492137086

INTR = CameraIntrinsics(f_u=500.0, f_v=500.0, c_h=250.0, c_w=250.0, height=500, width=500)


def test_principal_ray_point():
    assert tuple(10.0 * ray_direction(250, 250, INTR)) == (0.0, 0.0, 10.0)


def test_point_direct_substitution():
    x, y, z = 10.0 * ray_direction(300, 250, INTR)
    assert (x, y, z) == (1.0, 0.0, 10.0)


# ---------------------------------------------------------------------------
# traversal


def test_principal_ray_axis_aligned_segments():
    geom = GridGeometry(dims=(1, 1, 50), voxel_edge=0.2, origin=(-0.1, -0.1, 0.0))
    segs = traverse_ray(250, 250, INTR, geom)
    assert len(segs) == 50
    for k, seg in enumerate(segs):
        assert seg.voxel == (0, 0, k)
        assert seg.z_entry == pytest.approx(0.2 * k, abs=1e-12)
        assert seg.z_exit == pytest.approx(0.2 * (k + 1), abs=1e-12)


def test_ray_missing_grid_returns_empty():
    geom = GridGeometry(dims=(4, 4, 4), voxel_edge=0.2, origin=(100.0, 100.0, 1.0))
    assert traverse_ray(250, 250, INTR, geom) == []


def _slab_extent(dirs, geom):
    """Independent box-ray oracle: total in-grid depth extent."""
    lo, hi = 0.0, np.inf
    for ax in range(3):
        d = dirs[ax]
        o = geom.origin[ax]
        span = geom.dims[ax] * geom.voxel_edge
        if d == 0.0:
            if not (o <= 0.0 < o + span):
                return 0.0
            continue
        za, zb = o / d, (o + span) / d
        lo, hi = max(lo, min(za, zb)), min(hi, max(za, zb))
    return max(0.0, hi - lo)


@given(
    st.integers(0, 499),
    st.integers(0, 499),
    st.floats(-2.0, 0.5),
    st.floats(-2.0, 0.5),
    st.floats(0.1, 2.0),
)
@example(429, 429, 0.0, 2.220446049250313e-16, 1.0)  # once listed a voxel twice
@settings(max_examples=100, deadline=None)
def test_traversal_extent_matches_slab_oracle(h, w, ox, oy, oz):
    geom = GridGeometry(dims=(6, 5, 8), voxel_edge=0.31, origin=(ox, oy, oz))
    segs = traverse_ray(h, w, INTR, geom)
    total = sum(s.z_exit - s.z_entry for s in segs)
    want = _slab_extent(ray_direction(h, w, INTR), geom)
    assert total == pytest.approx(want, abs=1e-9)
    # contiguity and uniqueness
    for a, b in zip(segs, segs[1:]):
        assert a.z_exit == pytest.approx(b.z_entry, abs=1e-12)
    assert len({s.voxel for s in segs}) == len(segs)


def test_traversal_off_axis_known_crossing():
    # 45-degree ray in the x-z plane crosses x-planes at z = x-boundaries
    intr = CameraIntrinsics(f_u=1.0, f_v=1.0, c_h=1.0, c_w=1.0, height=3, width=3)
    geom = GridGeometry(dims=(2, 1, 2), voxel_edge=1.0, origin=(0.0, -0.5, 0.0))
    segs = traverse_ray(2, 1, intr, geom)  # direction (1, 0, 1)
    assert [s.voxel for s in segs] == [(0, 0, 0), (1, 0, 1)]
    assert segs[0].z_exit == pytest.approx(1.0)
    assert segs[1].z_entry == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the batched kernel against the one-ray-at-a-time traversal


def _oracle_segments(dirs, geom):
    """Reference: one ray's exact voxel crossings, as (idx, z_lo, z_hi)."""
    origin = geom.origin
    edge = geom.voxel_edge
    dims = geom.dims
    empty = (np.empty((0, 3), dtype=np.int64), np.empty(0), np.empty(0))

    lo, hi = 0.0, np.inf
    for ax in range(3):
        d = dirs[ax]
        if d == 0.0:
            if not (origin[ax] <= 0.0 < origin[ax] + dims[ax] * edge):
                return empty
            continue
        za = origin[ax] / d
        zb = (origin[ax] + dims[ax] * edge) / d
        lo = max(lo, min(za, zb))
        hi = min(hi, max(za, zb))
    if not hi > lo:
        return empty

    cuts = [np.array([lo, hi])]
    for ax in range(3):
        d = dirs[ax]
        if d == 0.0:
            continue
        zc = (origin[ax] + edge * np.arange(dims[ax] + 1)) / d
        cuts.append(zc[(zc > lo) & (zc < hi)])
    zs = np.sort(np.concatenate(cuts))
    z_lo, z_hi = zs[:-1], zs[1:]
    keep = z_hi > z_lo
    z_lo, z_hi = z_lo[keep], z_hi[keep]

    mids = 0.5 * (z_lo + z_hi)
    idx = np.floor((dirs[None, :] * mids[:, None] - origin[None, :]) / edge).astype(np.int64)
    ok = np.all((idx >= 0) & (idx < np.array(dims)), axis=1)
    idx, z_lo, z_hi = idx[ok], z_lo[ok], z_hi[ok]

    # a voxel's one segment runs from its first entry to its last exit
    keys = [tuple(v) for v in idx.tolist()]
    runs = []
    i = 0
    while i < len(keys):
        j = len(keys) - 1 - keys[::-1].index(keys[i])
        runs.append((i, j))
        i = j + 1
    first = [i for i, _ in runs]
    last = [j for _, j in runs]
    return idx[first].reshape(-1, 3), z_lo[first], z_hi[last]


def _oracle_prob_grid(est, intr, geom):
    """Reference: the probabilistic grid's union accumulated one ray at a time."""
    log_miss = np.zeros(geom.dims, dtype=np.float64)
    rows, cols = np.nonzero(est.valid_mask)
    for h, w in zip(rows.tolist(), cols.tolist()):
        mean, sigma = est.mean[h, w], est.sigma[h, w]
        idx, z_lo, z_hi = _oracle_segments(ray_direction(h, w, intr), geom)
        log_miss[tuple(idx.T)] += np.log1p(-_interval_prob(z_lo, z_hi, mean, sigma))
    return (0.0 - np.expm1(log_miss)).astype(np.float32)


# exact binary fractions put plane crossings on the slab bounds and on
# each other; 0.0 makes rays parallel to an axis
_COMPONENT = st.one_of(
    st.sampled_from([0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0]),
    st.floats(-1.5, 1.5, allow_nan=False),
)


@given(
    st.lists(st.tuples(_COMPONENT, _COMPONENT), min_size=1, max_size=12),
    # origins on 0 and with the far face on 0 (dims * edge = 1.25, 0.75,
    # 2.5, 1.5) are where rays parallel to an axis graze the box
    st.tuples(
        *[st.sampled_from([-2.5, -1.5, -1.25, -0.75, 0.0, 0.25]) | st.floats(-3.0, 1.0)] * 2
    ),
    st.sampled_from([0.0, 0.5]) | st.floats(0.01, 2.0),
    st.sampled_from([0.25, 0.5]) | st.floats(0.05, 0.6),
)
@settings(max_examples=300, deadline=None)
def test_batched_segments_equal_per_ray_oracle(xy, oxy, oz, edge):
    dirs = np.array([[x, y, 1.0] for x, y in xy])
    geom = GridGeometry(dims=(5, 3, 6), voxel_edge=edge, origin=(*oxy, oz))
    _assert_segments_equal_oracle(dirs, geom)


def test_batched_segments_equal_oracle_on_default_scene():
    # every pixel of the default camera; some midpoints round past the
    # grid's far faces, which exercises dropping out-of-grid segments
    intr, geom = default_intrinsics(), default_geometry()
    dirs = ray_direction(*np.divmod(np.arange(intr.height * intr.width), intr.width), intr)
    _assert_segments_equal_oracle(dirs, geom)


def _assert_segments_equal_oracle(dirs, geom):
    ray, voxel, z_lo, z_hi = _ray_segments(dirs, geom)
    assert np.all(np.diff(ray) >= 0)
    for r in range(dirs.shape[0]):
        with np.errstate(divide="ignore", over="ignore"):
            idx, want_lo, want_hi = _oracle_segments(dirs[r], geom)
        assert np.array_equal(np.unravel_index(voxel[ray == r], geom.dims), idx.T)
        assert z_lo[ray == r].tobytes() == want_lo.tobytes()
        assert z_hi[ray == r].tobytes() == want_hi.tobytes()


@given(
    st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), min_size=1, max_size=64),
    st.sampled_from([0.1, 0.2, 0.3]),
    st.tuples(st.integers(-64, 0), st.integers(-64, 0), st.integers(0, 8)),
)
@settings(max_examples=100, deadline=None)
def test_no_ray_lists_a_voxel_twice(pixels, edge, cells):
    # the default camera's pixel rays and grids on its 0.2 m lattice put
    # crossings of different axes within an ulp of each other
    intr = default_intrinsics()
    geom = GridGeometry(dims=(64, 64, 16), voxel_edge=edge, origin=tuple(edge * c for c in cells))
    ray, voxel, z_lo, z_hi = _ray_segments(ray_direction(*np.array(pixels).T, intr), geom)
    pairs = np.stack([ray, voxel], axis=1)
    assert np.unique(pairs, axis=0).shape[0] == ray.size
    # what is merged keeps its extent: consecutive segments of a ray share bounds
    same = ray[1:] == ray[:-1]
    assert np.array_equal(z_hi[:-1][same], z_lo[1:][same])


@pytest.mark.parametrize("threads", [1, 2, 3, 5])
@pytest.mark.parametrize("n_rays", [0, 1, _CHUNK_RAYS, 4 * _CHUNK_RAYS + 1])
def test_chunks_fold_in_order_whatever_finishes_first(n_rays, threads):
    # a narrow camera in front of a wide grid: every ray has segments, so
    # each chunk's rays name it
    intr = CameraIntrinsics(f_u=1000.0, f_v=1000.0, c_h=32.0, c_w=32.0, height=65, width=64)
    geom = GridGeometry(dims=(4, 4, 4), voxel_edge=1.0, origin=(-2.0, -2.0, 1.0))
    n = intr.height * intr.width
    pixels = np.zeros(n, bool)
    pixels[np.arange(n_rays) * n // max(n_rays, 1)] = True  # spread over the image

    def work(ray, voxel, z_lo, z_hi):
        start, stop = int(ray[0]), int(ray[-1]) + 1
        assert np.array_equal(np.unique(ray), np.arange(start, stop))
        time.sleep(0.002 * (start // _CHUNK_RAYS % 3 == 0))  # chunks 0, 3, 6, ... finish late
        return start, stop

    folded = []
    _cast_rays(pixels.reshape(intr.height, intr.width), intr, geom, threads, work, folded.append)
    bounds = list(range(0, n_rays, _CHUNK_RAYS)) + [n_rays]
    assert folded == list(zip(bounds[:-1], bounds[1:]))


@pytest.mark.parametrize("threads", [0, -1])
def test_ray_casting_refuses_fewer_than_one_thread(threads):
    intr = CameraIntrinsics(f_u=10.0, f_v=10.0, c_h=1.0, c_w=1.0, height=3, width=3)
    geom = GridGeometry(dims=(4, 4, 4), voxel_edge=1.0, origin=(-2.0, -2.0, 0.0))
    ones, valid = np.ones((3, 3)), np.ones((3, 3), bool)
    with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
        build_prob_grid(DepthEstimate(ones, ones, valid), intr, geom, threads=threads)


def test_builders_refuse_a_pixel_map_that_does_not_match_the_intrinsics():
    intr = CameraIntrinsics(f_u=10.0, f_v=10.0, c_h=1.0, c_w=1.0, height=3, width=3)
    geom = GridGeometry(dims=(4, 4, 4), voxel_edge=1.0, origin=(-2.0, -2.0, 0.0))
    ones, valid = np.ones((3, 4)), np.ones((3, 4), bool)
    messages = []
    for build, depth in (
        (build_prob_grid, DepthEstimate(ones, ones, valid)),
        (build_binary_grid, GroundTruthDepth(ones, valid)),
    ):
        with pytest.raises(ValueError) as err:
            build(depth, intr, geom)
        messages.append(str(err.value))
    assert messages == ["depth map (3, 4) does not match intrinsics (3, 3)"] * 2


def _chunk_scene(height, width, c_h):
    """Depth estimate whose valid rays fill ``height * width - 3`` slots.

    Rows above ``c_h`` point away from the grid's +x half-space.
    """
    intr = CameraIntrinsics(f_u=20.0, f_v=20.0, c_h=c_h, c_w=width / 2, height=height, width=width)
    geom = GridGeometry(dims=(10, 12, 9), voxel_edge=0.3, origin=(0.01, -1.8, 0.4))
    n = height * width
    from sscuq.rng import uniforms

    mean = 0.8 + 2.0 * uniforms(77, np.arange(n)).reshape(height, width)
    sigma = 0.05 + 0.4 * uniforms(78, np.arange(n)).reshape(height, width)
    valid = np.ones((height, width), bool)
    valid.flat[[5, n // 2, n - 1]] = False
    est = DepthEstimate(np.where(valid, mean, 0.0), np.where(valid, sigma, 0.0), valid)
    return est, intr, geom


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize(
    "shape, c_h",
    [
        ((40, 40), 20.0),  # 1597 valid rays: the last chunk is partial
        ((64, 48), 30.0),  # rows 0..30 miss the grid, so all of chunk 0 (rows 0..21)
    ],
)
def test_prob_grid_bytes_equal_oracle_across_chunks(shape, c_h, threads):
    est, intr, geom = _chunk_scene(*shape, c_h)
    n_valid = int(est.valid_mask.sum())
    assert n_valid % _CHUNK_RAYS != 0
    if shape == (64, 48):
        first = ray_direction(*np.nonzero(est.valid_mask), intr)[:_CHUNK_RAYS]
        assert _ray_segments(first, geom)[0].size == 0
    want = _oracle_prob_grid(est, intr, geom)
    got = build_prob_grid(est, intr, geom, threads=threads).values
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_render_depth_first_hit_equals_oracle(threads):
    intr = CameraIntrinsics(f_u=20.0, f_v=20.0, c_h=20.0, c_w=20.0, height=41, width=37)
    geom = GridGeometry(dims=(10, 12, 9), voxel_edge=0.3, origin=(-1.5, -1.8, 0.4))
    from sscuq.rng import uniforms

    occupied = uniforms(79, np.arange(10 * 12 * 9)).reshape(geom.dims) < 0.03
    world = LabelGrid(np.where(occupied, 2, 1).astype(np.uint8), class_count=2)
    gt, _ = render_depth(world, intr, geom, 0.05, 0.0, seed=1, threads=threads)
    want = np.zeros((intr.height, intr.width))
    for h in range(intr.height):
        for w in range(intr.width):
            idx, z_lo, _ = _oracle_segments(ray_direction(h, w, intr), geom)
            hit = np.flatnonzero(occupied[tuple(idx.T)])
            if hit.size:
                want[h, w] = z_lo[hit[0]]
    assert 0 < np.count_nonzero(want) < want.size
    assert gt.depth.tobytes() == want.tobytes()
    assert np.array_equal(gt.valid_mask, want > 0)


# ---------------------------------------------------------------------------
# probabilistic grid


def _single_pixel_estimate(intr, mean, sigma):
    m = np.zeros((intr.height, intr.width))
    s = np.zeros((intr.height, intr.width))
    v = np.zeros((intr.height, intr.width), bool)
    h = int(intr.c_h)
    w = int(intr.c_w)
    m[h, w] = mean
    s[h, w] = sigma
    v[h, w] = True
    return DepthEstimate(m, s, v)


def test_prob_grid_one_sigma_voxel():
    intr = CameraIntrinsics(f_u=50.0, f_v=50.0, c_h=4.0, c_w=4.0, height=9, width=9)
    # one voxel spanning z in [mean - sigma, mean + sigma] on the principal ray
    mean, sigma = 5.0, 0.25
    geom = GridGeometry(dims=(1, 1, 1), voxel_edge=2 * sigma, origin=(-0.1, -0.1, mean - sigma))
    grid = build_prob_grid(_single_pixel_estimate(intr, mean, sigma), intr, geom)
    assert grid.values[0, 0, 0] == pytest.approx(ONE_SIGMA_MASS, abs=1e-6)


def _two_ray_estimate(sigmas):
    """Pixels (4, 4) and (4, 5) with mean depth 5.0, whose rays run 0.01
    either side of the axis through one 1 m voxel spanning z in [4.5, 5.5]."""
    intr = CameraIntrinsics(f_u=50.0, f_v=50.0, c_h=4.0, c_w=4.5, height=9, width=9)
    m = np.zeros((9, 9))
    s = np.zeros((9, 9))
    v = np.zeros((9, 9), bool)
    for w, sigma in zip((4, 5), sigmas):
        m[4, w] = 5.0
        s[4, w] = sigma
        v[4, w] = True
    geom = GridGeometry(dims=(1, 1, 1), voxel_edge=1.0, origin=(-0.5, -0.5, 4.5))
    return build_prob_grid(DepthEstimate(m, s, v), intr, geom).values[0, 0, 0]


def test_prob_grid_two_rays_by_hand():
    # the voxel is +-1 sigma of the first ray and +-2 sigma of the second:
    # P(hit) = 0.682689 and 0.954500, so the union is
    # 1 - 0.317311 * 0.045500 = 0.985562, where their sum would be 1.637
    two_sigma_mass = 0.954499736103642
    want = 1.0 - (1.0 - ONE_SIGMA_MASS) * (1.0 - two_sigma_mass)
    assert _two_ray_estimate((0.5, 0.25)) == pytest.approx(want, abs=1e-6)
    assert _two_ray_estimate((0.5, 0.5)) == pytest.approx(1 - (1 - ONE_SIGMA_MASS) ** 2, abs=1e-6)


def test_prob_grid_two_near_certain_rays_give_one():
    # each ray misses the voxel with probability 2 * P(Z > 5) = 5.7e-7
    assert _two_ray_estimate((0.1, 0.1)) == 1.0


def test_prob_grid_near_dirac_matches_binary():
    intr = CameraIntrinsics(f_u=24.0, f_v=24.0, c_h=15.5, c_w=15.5, height=32, width=32)
    geom = GridGeometry(dims=(12, 12, 10), voxel_edge=0.4, origin=(-2.4, -2.4, 0.4))
    n = intr.height * intr.width
    from sscuq.rng import uniforms

    depth = (0.6 + 3.0 * uniforms(4242, np.arange(n)).reshape(32, 32))
    valid = uniforms(4243, np.arange(n)).reshape(32, 32) < 0.7
    est = DepthEstimate(np.where(valid, depth, 0.0), np.where(valid, 1e-7, 0.0), valid)
    prob = build_prob_grid(est, intr, geom)
    binary = build_binary_grid(GroundTruthDepth(depth, valid), intr, geom)
    occupied = binary.as_bool()
    assert np.all(prob.values[occupied] >= 0.999)
    assert np.all(prob.values[~occupied] <= 1e-3)


def test_prob_grid_monotone_in_added_pixel():
    intr = CameraIntrinsics(f_u=24.0, f_v=24.0, c_h=7.5, c_w=7.5, height=16, width=16)
    geom = GridGeometry(dims=(8, 8, 8), voxel_edge=0.4, origin=(-1.6, -1.6, 0.4))
    m = np.full((16, 16), 2.0)
    s = np.full((16, 16), 0.5)
    v = np.zeros((16, 16), bool)
    v[3, 3] = True
    base = build_prob_grid(DepthEstimate(m, s, v), intr, geom)
    v2 = v.copy()
    v2[9, 12] = True
    more = build_prob_grid(DepthEstimate(m, s, v2), intr, geom)
    assert np.all(more.values >= base.values)


def test_prob_grid_monte_carlo_mini_oracle():
    # small version of the acceptance check: 40 pixels, 20k samples each
    intr = CameraIntrinsics(f_u=24.0, f_v=24.0, c_h=15.5, c_w=15.5, height=32, width=32)
    geom = GridGeometry(dims=(10, 10, 8), voxel_edge=0.4, origin=(-2.0, -2.0, 0.4))
    rng = np.random.default_rng(7)
    m = np.zeros((32, 32))
    s = np.zeros((32, 32))
    v = np.zeros((32, 32), bool)
    pix = rng.choice(32 * 32, size=40, replace=False)
    m.flat[pix] = rng.uniform(0.6, 3.4, 40)
    s.flat[pix] = rng.uniform(0.05, 0.5, 40)
    v.flat[pix] = True
    est = DepthEstimate(m, s, v)
    analytic = build_prob_grid(est, intr, geom).values.astype(np.float64)

    samples = 20_000
    miss = np.ones(geom.dims)
    hs, ws = np.nonzero(v)
    for h, w in zip(hs, ws):
        z = rng.normal(m[h, w], s[h, w], samples)
        x = (h - intr.c_h) * z / intr.f_u
        y = (w - intr.c_w) * z / intr.f_v
        idx = np.floor(
            (np.stack([x, y, z], axis=1) - geom.origin[None, :]) / geom.voxel_edge
        ).astype(np.int64)
        ok = np.all((idx >= 0) & (idx < np.array(geom.dims)), axis=1)
        freq = np.zeros(geom.dims)
        np.add.at(freq, tuple(idx[ok].T), 1.0 / samples)
        miss *= 1.0 - freq
    mc = 1.0 - miss
    check = analytic >= 0.05
    assert check.any()
    assert np.max(np.abs(analytic[check] - mc[check])) <= 0.03


# ---------------------------------------------------------------------------
# binary grid


def test_binary_single_point_single_voxel():
    intr = CameraIntrinsics(f_u=10.0, f_v=10.0, c_h=1.0, c_w=1.0, height=3, width=3)
    geom = GridGeometry(dims=(4, 4, 4), voxel_edge=1.0, origin=(-2.0, -2.0, 0.0))
    depth = np.zeros((3, 3))
    depth[1, 1] = 2.5
    grid = build_binary_grid(GroundTruthDepth(depth, depth > 0), intr, geom)
    assert grid.values.sum() == 1
    assert grid.values[2, 2, 2] == 1


def test_binary_all_beyond_far_face():
    intr = CameraIntrinsics(f_u=10.0, f_v=10.0, c_h=1.0, c_w=1.0, height=3, width=3)
    geom = GridGeometry(dims=(4, 4, 4), voxel_edge=1.0, origin=(-2.0, -2.0, 0.0))
    grid = build_binary_grid(
        GroundTruthDepth(np.full((3, 3), 50.0), np.ones((3, 3), bool)), intr, geom
    )
    assert grid.values.sum() == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_binary_grid_refuses_a_non_finite_depth_on_a_valid_pixel(bad):
    intr = CameraIntrinsics(f_u=10.0, f_v=10.0, c_h=1.0, c_w=1.0, height=3, width=3)
    geom = GridGeometry(dims=(4, 4, 4), voxel_edge=1.0, origin=(-2.0, -2.0, 0.0))
    depth = np.full((3, 3), 2.5)
    depth[1, 1] = bad
    valid = np.ones((3, 3), bool)
    with pytest.raises(ValidationError, match="depth must be finite on valid pixels"):
        build_binary_grid(GroundTruthDepth(depth, valid), intr, geom)
    # the raw-array form, which marked nothing for such a pixel and raised
    # no error, is gone
    with pytest.raises(TypeError):
        build_binary_grid(depth, intr, geom, valid=valid)


def test_binary_face_point_goes_to_the_voxel_the_ray_enters():
    # pixel (0, 1) looks along (-0.5, 0, 1): at depth 2.0 its point
    # (-1, 0, 2) sits on the face x = -1, where the ray leaves voxel
    # i = 1 for i = 0.  Flooring the point would pick i = 1, the voxel
    # in front of the surface.
    intr = CameraIntrinsics(f_u=2.0, f_v=2.0, c_h=1.0, c_w=1.0, height=3, width=3)
    geom = GridGeometry(dims=(4, 4, 4), voxel_edge=1.0, origin=(-2.0, -2.5, 0.5))
    depth = np.zeros((3, 3))
    depth[0, 1] = 2.0
    grid = build_binary_grid(GroundTruthDepth(depth, depth > 0), intr, geom)
    assert np.argwhere(grid.values).tolist() == [[0, 2, 1]]


@pytest.mark.parametrize("seed", range(5))
def test_binary_true_depths_land_in_occupied_voxels(seed):
    # render_depth's depth is the entry depth of the first occupied voxel
    intr, geom = default_intrinsics(), default_geometry()
    world = generate_scene(default_scene_spec(seed))
    gt, _ = render_depth(world, intr, geom, 0.03, 0.06, seed=seed)
    grid = build_binary_grid(gt, intr, geom)
    assert grid.values.any()
    assert world.occupied_mask()[grid.as_bool()].all()
    threaded = build_binary_grid(gt, intr, geom, threads=2)
    assert threaded.values.tobytes() == grid.values.tobytes()

"""Depth uncertainty into voxel occupancy.

Walks the geometric half of the package: generate a synthetic street
scene, render a noisy depth estimate of it, and project that estimate
into a probabilistic occupancy grid.  Along the way we sanity-check the
two limiting behaviors that make the probabilistic grid trustworthy:
it collapses onto the point-count binary grid when the noise vanishes,
and it matches a brute-force Monte Carlo simulation when it doesn't.
"""

import numpy as np

from sscuq import (
    DepthEstimate,
    GroundTruthDepth,
    build_binary_grid,
    build_prob_grid,
    default_geometry,
    default_intrinsics,
    default_scene_spec,
    generate_scene,
    kl_loss,
    render_depth,
    traverse_ray,
)

geom = default_geometry()
intr = default_intrinsics()

# ---------------------------------------------------------------------------
# 1. A scene and its noisy depth estimate
# ---------------------------------------------------------------------------
world = generate_scene(default_scene_spec(seed=42))
fractions = {
    y: float(np.mean(world.labels == y)) for y in range(1, world.class_count + 1)
}
print("scene fractions:", {y: round(f, 4) for y, f in fractions.items()})

gt, est = render_depth(world, intr, geom, noise_a=0.03, noise_b=0.06, seed=42)
print(f"rendered {int(est.valid_mask.sum())} valid pixels of {est.mean.size}")

report = kl_loss(gt, est)
print(f"depth model loss on its own render: {report.loss:.4f} "
      "(calibrated noise, so this sits near the entropy floor)")

# ---------------------------------------------------------------------------
# 2. Probabilistic vs binary projection
# ---------------------------------------------------------------------------
prob = build_prob_grid(est, intr, geom)
binary = build_binary_grid(GroundTruthDepth(est.mean, est.valid_mask), intr, geom)
print(f"probabilistic grid mass {prob.values.sum():.1f} spread over "
      f"{int(np.count_nonzero(prob.values > 0.01))} voxels; "
      f"binary grid marks {int(binary.values.sum())} voxels")

# The binary grid forgets how uncertain each point was; the probabilistic
# grid dilutes distant (noisier) hits over more voxels along the ray.
near = est.valid_mask & (gt.depth < 1.5)
far = est.valid_mask & (gt.depth > 2.5)
print(f"mean sigma near {est.sigma[near].mean():.3f} m vs far {est.sigma[far].mean():.3f} m")

# ---------------------------------------------------------------------------
# 3. Vanishing noise: the probabilistic grid becomes the binary grid
# ---------------------------------------------------------------------------
n = intr.height * intr.width
rng = np.random.default_rng(0)
depth = rng.uniform(0.6, 3.4, (intr.height, intr.width))
valid = rng.random((intr.height, intr.width)) < 0.3
sharp = DepthEstimate(
    np.where(valid, depth, 0.0), np.where(valid, 1e-7, 0.0), valid
)
dirac = build_prob_grid(sharp, intr, geom)
points = build_binary_grid(GroundTruthDepth(depth, valid), intr, geom)
occupied = points.as_bool()
print(f"near-zero noise: min probability over binary-marked voxels = "
      f"{dirac.values[occupied].min():.6f} (should be ~1)")

# ---------------------------------------------------------------------------
# 4. Monte Carlo spot check of one voxel
# ---------------------------------------------------------------------------
from sscuq import gaussian_cdf_interval

h, w = map(int, np.argwhere(est.valid_mask)[0])
segs = traverse_ray(h, w, intr, geom)
masses = [
    gaussian_cdf_interval(s.z_entry, s.z_exit, est.mean[h, w], est.sigma[h, w])
    for s in segs
]
best = segs[int(np.argmax(masses))]
samples = rng.normal(est.mean[h, w], est.sigma[h, w], 200_000)
hit = np.mean((samples >= best.z_entry) & (samples < best.z_exit))
print(f"voxel {best.voxel} on pixel ({h},{w})'s ray: analytic mass "
      f"{max(masses):.5f}, Monte Carlo {hit:.5f} (200k samples)")

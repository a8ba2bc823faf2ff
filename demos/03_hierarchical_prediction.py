"""Hierarchical conformal prediction end to end.

Calibrates the two-level model on a synthetic scene: a geometric gate
guarantees the rare class is recalled as occupied at a configured rate,
then per-class semantic quantiles give class-conditional coverage with
error rates split so the two stages compose to the requested targets.
Compares the result against the flat baselines and saves/loads the
model JSON the way the CLI does.
"""

import json
import os
import tempfile

import numpy as np

from sscuq import (
    CalibrationSet,
    HcpConfig,
    avg_size,
    cccp_calibrate,
    class_coverage,
    cov_gap,
    default_classifier_spec,
    default_scene_spec,
    generate_scene,
    hcp_calibrate,
    load_model,
    save_model,
    scp_calibrate,
    split_mask,
    synth_classifier,
)

NAMES = {2: "ground", 3: "building", 4: "car", 5: "person"}
# person's target must stay above its occupied error rate (0.3 below) or
# the semantic split clamps to zero and its guarantee turns vacuous
ALPHA = {2: 0.1, 3: 0.1, 4: 0.1, 5: 0.4}

world = generate_scene(default_scene_spec(seed=1))
softmax = synth_classifier(world, default_classifier_spec(seed=11))
mask = split_mask(world.labels.size, 0.3, seed=1)
cal = CalibrationSet.from_grids(softmax, world, mask=mask)
test_labels = world.flat()[~mask]
test_probs = softmax.flat()[~mask]

cfg = HcpConfig(
    class_count=5,
    rare_set=frozenset({5}),
    alpha_o={5: 0.3},      # demand 70% occupied recall for person
    alpha_target=ALPHA,
    epsilon=0.01,
)
model = hcp_calibrate(cal, cfg)

print("gate quantile q_o[person] =", round(model.q_o[5], 4))
print("empirical gate miss rates alpha_o:",
      {NAMES[y]: round(a, 4) for y, a in model.alpha_o.items()})
print("split semantic rates alpha_s:",
      {NAMES[y]: round(a, 4) for y, a in model.alpha_s.items()})

# ---------------------------------------------------------------------------
# 1. What the gate does
# ---------------------------------------------------------------------------
occ, member = model.predict(test_probs)
print(f"\ngate predicts {int(occ.sum())} of {occ.size} test voxels occupied "
      f"({occ.mean():.1%}; true occupancy {np.mean(test_labels >= 2):.1%})")
for y, name in NAMES.items():
    sel = test_labels == y
    print(f"  {name:9s} occupied recall {occ[sel].mean():.3f}")

# ---------------------------------------------------------------------------
# 2. Class-conditional coverage and set sizes vs the baselines
# ---------------------------------------------------------------------------
# every calibrator returns a model with the same predict(probs) -> (occ, member)
_, scp_member = scp_calibrate(cal, 0.1).predict(test_probs)
_, cccp_member = cccp_calibrate(cal, dict(ALPHA) | {1: 0.1}).predict(test_probs)

print(f"\n{'':12s}{'CovGap':>8s}{'AvgSize':>9s}")
for name, mem in (("SCP", scp_member), ("CCCP", cccp_member), ("HCP", member)):
    print(f"{name:12s}{cov_gap(class_coverage(mem, test_labels), ALPHA):8.3f}"
          f"{avg_size(mem):9.2f}")
print("HCP keeps the per-class coverage of CCCP while gating ~93% of the "
      "voxels to the empty set, which is where the set-size saving lives.")

for y, name in NAMES.items():
    sel = test_labels == y
    print(f"  {name:9s} coverage {member[sel, y - 1].mean():.3f} "
          f"(target {1 - ALPHA[y]:.2f})")

# ---------------------------------------------------------------------------
# 3. Grid application and model persistence
# ---------------------------------------------------------------------------
# predict takes any (..., M) array, so the whole grid goes in at once
occ_grid, member_grid = model.predict(softmax.probs)
print(f"\ngrid prediction: occupancy layer marks {int(occ_grid.sum())} voxels; "
      f"membership array shape {member_grid.shape}")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "model.json")
    save_model(model, path)
    with open(path) as fh:
        print("model JSON keys:", sorted(json.load(fh)))
    assert load_model(path) == model
print("model round-trips through JSON (infinities encoded as the string 'inf')")

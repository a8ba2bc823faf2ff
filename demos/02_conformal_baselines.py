"""Split conformal prediction on a heavily imbalanced voxel benchmark.

Shows why marginal calibration is not enough when 93% of the voxels are
empty: standard conformal prediction (SCP) hits its 90% coverage on
average while quietly starving the rare person class, and per-class
calibration (CCCP) repairs that at the price of larger sets.
"""

import numpy as np

from sscuq import CalibrationSet, cccp_calibrate, scp_calibrate
from sscuq.rng import derive_seed
from sscuq.synth import classify_labels, default_classifier_spec, draw_labels

MIX = [0.9310, 0.0156, 0.0300, 0.0164, 0.0070]  # empty, ground, building, car, person
NAMES = {1: "empty", 2: "ground", 3: "building", 4: "car", 5: "person"}

cal_labels = draw_labels(5000, MIX, seed=derive_seed(0, 1))
test_labels = draw_labels(20_000, MIX, seed=derive_seed(0, 2))
cal_probs = classify_labels(cal_labels, default_classifier_spec(seed=derive_seed(0, 3)))
test_probs = classify_labels(test_labels, default_classifier_spec(seed=derive_seed(0, 4)))
cal = CalibrationSet(cal_probs, cal_labels)

print("calibration class counts:",
      {NAMES[y]: int((cal_labels == y).sum()) for y in range(1, 6)})

# ---------------------------------------------------------------------------
# 1. SCP: one quantile, marginal coverage only
# ---------------------------------------------------------------------------
scp = scp_calibrate(cal, alpha=0.1)
_, member = scp.predict(test_probs)
covered = member[np.arange(test_labels.size), test_labels - 1]
print(f"\nSCP quantile {scp.q:.4f}: marginal coverage {covered.mean():.4f} (target 0.90)")
for y in range(1, 6):
    sel = test_labels == y
    print(f"  {NAMES[y]:9s} coverage {covered[sel].mean():.3f} over {int(sel.sum())} voxels")
print("  -> the marginal average hides a collapsed person-class coverage")

# ---------------------------------------------------------------------------
# 2. CCCP: one quantile per class, fair but bulkier
# ---------------------------------------------------------------------------
alpha = {1: 0.1, 2: 0.1, 3: 0.1, 4: 0.1, 5: 0.2}
cccp = cccp_calibrate(cal, alpha)
_, member_c = cccp.predict(test_probs)
print("\nCCCP per-class quantiles:",
      {NAMES[y]: round(qv, 3) for y, qv in cccp.q.items()})
for y in range(1, 6):
    sel = test_labels == y
    cov = member_c[sel, y - 1].mean()
    print(f"  {NAMES[y]:9s} coverage {cov:.3f} (target {1 - alpha[y]:.2f})")

size_scp = member[:, 1:].sum(axis=1).mean()
size_cccp = member_c[:, 1:].sum(axis=1).mean()
print(f"\nmean nonempty set size: SCP {size_scp:.2f} vs CCCP {size_cccp:.2f}")
print("CCCP buys fairness with rare-class quantiles so loose that person/car "
      "enter almost every set - the gap the hierarchical method closes.")

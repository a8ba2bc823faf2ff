"""Acceptance criteria, one test per criterion, fixed seeds 0..19.

Statistical criteria state a floor on how many of the 20 seeded runs may
miss their tolerance; each test prints a single summary line.  The
standard-error slack for class-conditional checks uses the calibration
class count, which is the dominant noise source (the conformal quantile
over N_y records fluctuates like sqrt(alpha(1-alpha)/N_y); the test-set
binomial term is smaller by construction in every setup used here).
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from sscuq.conformal import (
    CalibrationSet,
    HcpConfig,
    cccp_calibrate,
    hcp_calibrate,
    hcp_predict_batch,
    scp_calibrate,
    conformal_quantile,
    score_kl,
)
from sscuq.depth import kl_loss
from sscuq.grids import DepthEstimate, GridGeometry
from sscuq.metrics import avg_size, class_coverage, cov_gap, recall_iou_sweep
from sscuq.projection import build_prob_grid
from sscuq.rng import normals, uniforms
from sscuq.synth import default_geometry, default_intrinsics
from synth_bench import (
    ALPHA_TARGET,
    RARE,
    default_hcp_config,
    sample_benchmark,
    scene_benchmark,
)

SEEDS = range(20)
C4_TEST_DRAWS = 100_000  # criterion 4's test rows per seed


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 1: analytic probabilistic grid vs Monte Carlo, 10 scenes <= 60 s


_C1_GEOM = default_geometry()
_C1_INTR = default_intrinsics()
_C1_PIXELS = 800
_C1_SAMPLES = 100_000


def _c1_scene(seed: int) -> DepthEstimate:
    """Random sparse depth scene: valid pixels in general position."""
    n = _C1_INTR.height * _C1_INTR.width
    u = uniforms(1000 + seed, np.arange(3 * n)).reshape(3, n)
    order = np.argsort(u[0])
    chosen = order[:_C1_PIXELS]
    valid = np.zeros(n, bool)
    valid[chosen] = True
    mean = np.where(valid, 0.5 + 3.0 * u[1], 0.0)
    sigma = np.where(valid, 0.05 + 0.35 * u[2], 0.0)
    shape = (_C1_INTR.height, _C1_INTR.width)
    return DepthEstimate(mean.reshape(shape), sigma.reshape(shape), valid.reshape(shape))


def _c1_run(seed: int):
    """One scene: analytic grid vs a padded-bincount Monte Carlo oracle.

    The grid holds the probability that at least one ray's point lies in
    a voxel.  Rays are independent, so the oracle estimates each ray's
    frequency per voxel from its own samples and combines them as
    ``1 - prod_r (1 - f_r)``.
    """
    est = _c1_scene(seed)
    analytic = build_prob_grid(est, _C1_INTR, _C1_GEOM).values.astype(np.float64)

    dims = _C1_GEOM.dims
    pad = 8
    pdims = (dims[0] + 2 * pad, dims[1] + 2 * pad, dims[2] + 2 * pad)
    log_miss = np.zeros(int(np.prod(pdims)))
    rng = np.random.default_rng(777_000 + seed)
    hs, ws = np.nonzero(est.valid_mask)
    inv_e = 1.0 / _C1_GEOM.voxel_edge
    ox, oy, oz = _C1_GEOM.origin
    chunk = 128
    for i0 in range(0, hs.size, chunk):
        h = hs[i0 : i0 + chunk]
        w = ws[i0 : i0 + chunk]
        mu = est.mean[h, w].astype(np.float32)[:, None]
        sg = est.sigma[h, w].astype(np.float32)[:, None]
        ax = ((h - _C1_INTR.c_h) / _C1_INTR.f_u * inv_e).astype(np.float32)[:, None]
        ay = ((w - _C1_INTR.c_w) / _C1_INTR.f_v * inv_e).astype(np.float32)[:, None]
        z = rng.standard_normal((h.size, _C1_SAMPLES), dtype=np.float32)
        z *= sg
        z += mu
        # shift by pad so float->int truncation equals floor in range
        ix = (z * ax + np.float32(pad - ox * inv_e)).astype(np.int32)
        iy = (z * ay + np.float32(pad - oy * inv_e)).astype(np.int32)
        iz = (z * np.float32(inv_e) + np.float32(pad - oz * inv_e)).astype(np.int32)
        np.clip(ix, 0, pdims[0] - 1, out=ix)
        np.clip(iy, 0, pdims[1] - 1, out=iy)
        np.clip(iz, 0, pdims[2] - 1, out=iz)
        lin = (ix * np.int32(pdims[1]) + iy) * np.int32(pdims[2]) + iz
        for row in lin:
            counts = np.bincount(row)
            hit = np.flatnonzero(counts)
            with np.errstate(divide="ignore"):  # every sample in one voxel
                log_miss[hit] += np.log1p(counts[hit] / -_C1_SAMPLES)
    miss = np.exp(log_miss).reshape(pdims)
    mc = 1.0 - miss[pad : pad + dims[0], pad : pad + dims[1], pad : pad + dims[2]]

    check = analytic >= 0.05
    dev = float(np.max(np.abs(analytic[check] - mc[check]))) if check.any() else 0.0
    return dev, int(check.sum())


def test_criterion_1_projection_monte_carlo_oracle():
    start = time.monotonic()
    workers = min(2, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_c1_run, range(10)))
    elapsed = time.monotonic() - start
    worst = max(dev for dev, _ in results)
    checked = sum(n for _, n in results)
    ok = worst <= 0.02 and elapsed <= 60.0
    _report(
        1,
        ok,
        f"max |analytic - MC| {worst:.5f} over {checked} voxels "
        f"(tolerance 0.02), {elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: analytic gradients vs central finite differences


def test_criterion_2_gradient_finite_differences():
    from sscuq.grids import GroundTruthDepth

    h = 1e-5
    worst = 0.0
    for seed in range(50):
        n = 16
        d = (1.0 + 9.0 * uniforms(2000 + seed, np.arange(n))).reshape(4, 4)
        mu = np.abs(d + 0.8 * normals(3000 + seed, np.arange(n)).reshape(4, 4)) + 0.1
        sg = (0.5 + 1.5 * uniforms(4000 + seed, np.arange(n))).reshape(4, 4)
        valid = np.ones((4, 4), bool)
        gt = GroundTruthDepth(d, valid)
        est = DepthEstimate(mu, sg, valid)
        rep = kl_loss(gt, est)
        for i in range(4):
            for j in range(4):
                for which, grad in (("mean", rep.grad_mean), ("sigma", rep.grad_sigma)):
                    hi_arr = np.array(mu if which == "mean" else sg)
                    lo_arr = np.array(hi_arr)
                    hi_arr[i, j] += h
                    lo_arr[i, j] -= h
                    if which == "mean":
                        up = DepthEstimate(hi_arr, sg, valid)
                        dn = DepthEstimate(lo_arr, sg, valid)
                    else:
                        up = DepthEstimate(mu, hi_arr, valid)
                        dn = DepthEstimate(mu, lo_arr, valid)
                    fd = (kl_loss(gt, up).loss - kl_loss(gt, dn).loss) / (2 * h)
                    rel = abs(grad[i, j] - fd) / max(abs(fd), 1e-10)
                    worst = max(worst, rel)
    ok = worst <= 1e-5
    _report(2, ok, f"max relative gradient error {worst:.2e} over 50 instances (tol 1e-5)")


# ---------------------------------------------------------------------------
# shared benchmark fixtures


@pytest.fixture(scope="module")
def sample_runs():
    return [sample_benchmark(seed, 5000, 20_000) for seed in SEEDS]


@pytest.fixture(scope="module")
def scene_runs():
    return [scene_benchmark(seed) for seed in SEEDS]


# ---------------------------------------------------------------------------
# criterion 3: SCP marginal coverage


def test_criterion_3_scp_marginal_coverage(sample_runs):
    hits = 0
    coverages = []
    for cal, test_labels, test_probs in sample_runs:
        _, member = scp_calibrate(cal, 0.1).predict(test_probs)
        cov = float(member[np.arange(test_labels.size), test_labels - 1].mean())
        coverages.append(cov)
        hits += 0.885 <= cov <= 0.925
    ok = hits >= 18
    _report(
        3,
        ok,
        f"{hits}/20 seeds in [0.885, 0.925]; mean coverage {np.mean(coverages):.4f}",
    )


# ---------------------------------------------------------------------------
# criterion 4: HCP class-conditional coverage (the Prop-1 composition check)


def test_criterion_4_hcp_class_conditional_coverage():
    # alpha_o for the rare class is set to 0.1 here: demanding 90% rare
    # recall pushes the gate threshold into the score gap between
    # occupied-looking and empty-looking vectors, the regime the
    # composition guarantee is meant for.  The rare class is 0.7% of the
    # draws, so 100,000 test rows give it the 200 records a check needs;
    # a class with fewer is a failure, not a pass.
    cfg = default_hcp_config(alpha_o_rare=0.1)
    per_class_pass = {y: 0 for y in range(2, 6)}
    worst = {y: math.inf for y in range(2, 6)}
    for seed in SEEDS:
        cal, test_labels, test_probs = sample_benchmark(seed, 5000, C4_TEST_DRAWS)
        model = hcp_calibrate(cal, cfg)
        _, member = hcp_predict_batch(test_probs, model)
        for y in range(2, 6):
            sel = test_labels == y
            if int(sel.sum()) < 200:
                continue  # too few records to check: this seed fails the class
            n_cal = int((cal.labels == y).sum())
            a = ALPHA_TARGET[y]
            c_y = float(member[sel, y - 1].mean())
            floor = (1 - a) - 2 * math.sqrt(a * (1 - a) / n_cal)
            per_class_pass[y] += c_y >= floor
            worst[y] = min(worst[y], c_y - floor)
    ok = all(v >= 18 for v in per_class_pass.values())
    detail = ", ".join(
        f"class {y}: {per_class_pass[y]}/20 (worst margin {worst[y]:+.4f})"
        for y in sorted(per_class_pass)
    )
    _report(4, ok, detail)


# ---------------------------------------------------------------------------
# criterion 5: geometric gate recall of the rare class


def test_criterion_5_rare_class_gate_recall(scene_runs):
    hits = 0
    recalls = []
    for world, softmax, cal, mask, test_labels, test_probs in scene_runs:
        q = conformal_quantile(score_kl(cal.probs, 0.01)[cal.labels == RARE], 0.3)
        rec = float((score_kl(test_probs, 0.01)[test_labels == RARE] <= q).mean())
        n_cal = int((cal.labels == RARE).sum())
        n_test = int((test_labels == RARE).sum())
        se = math.sqrt(0.3 * 0.7 / n_cal + 0.3 * 0.7 / n_test)
        recalls.append(rec)
        hits += rec >= 0.7 - 2 * se
    ok = hits >= 18
    _report(5, ok, f"{hits}/20 seeds at recall >= 0.7 - 2*SE; mean recall {np.mean(recalls):.3f}")


# ---------------------------------------------------------------------------
# criterion 6: KL score dominates class/occupied scores at matched recall


def test_criterion_6_kl_score_highest_iou(scene_runs):
    targets = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    cfg = default_hcp_config()
    wins = 0
    worst_margin = 1.0
    for world, softmax, cal, mask, test_labels, test_probs in scene_runs:
        tables = {
            kind: recall_iou_sweep(softmax.flat(), world.flat(), ~mask, cal, cfg, kind, targets)
            for kind in ("kl", "class", "occupied")
        }
        margins = [
            tables["kl"][i].iou - max(tables["class"][i].iou, tables["occupied"][i].iou)
            for i in range(len(targets))
        ]
        worst_margin = min(worst_margin, min(margins))
        wins += all(m >= 0 for m in margins)
    ok = wins >= 16
    _report(6, ok, f"KL best at all 6 targets in {wins}/20 seeds (worst margin {worst_margin:+.3f})")


# ---------------------------------------------------------------------------
# criterion 7: HCP vs baselines on AvgSize and CovGap


def test_criterion_7_hcp_vs_baselines(scene_runs):
    cfg = default_hcp_config()
    wins = 0
    sizes, gaps = [], []
    for world, softmax, cal, mask, test_labels, test_probs in scene_runs:
        _, scp_member = scp_calibrate(cal, 0.1).predict(test_probs)
        _, cccp_member = cccp_calibrate(cal, dict(ALPHA_TARGET) | {1: 0.1}).predict(test_probs)
        model = hcp_calibrate(cal, cfg)
        _, hcp_member = hcp_predict_batch(test_probs, model)

        hcp_size = avg_size(hcp_member)
        cccp_size = avg_size(cccp_member)
        hcp_gap = cov_gap(class_coverage(hcp_member, test_labels), ALPHA_TARGET)
        scp_gap = cov_gap(class_coverage(scp_member, test_labels), ALPHA_TARGET)
        sizes.append((hcp_size, cccp_size))
        gaps.append((hcp_gap, scp_gap))
        wins += hcp_size <= cccp_size and hcp_gap <= scp_gap
    ok = wins >= 16
    mean_sizes = np.mean(sizes, axis=0)
    mean_gaps = np.mean(gaps, axis=0)
    _report(
        7,
        ok,
        f"HCP wins in {wins}/20 seeds; AvgSize {mean_sizes[0]:.2f} vs CCCP "
        f"{mean_sizes[1]:.2f}; CovGap {mean_gaps[0]:.3f} vs SCP {mean_gaps[1]:.3f}",
    )


# ---------------------------------------------------------------------------
# criterion 8: invariant property suites


_INVARIANT_TESTS = {
    "container round-trip": ("test_grids_container", "test_prob_roundtrip_bit_exact"),
    "container header totality": ("test_grids_container", "test_header_fully_determines_payload_length"),
    "cdf monotone/bounded": ("test_depth", "test_cdf_monotone_and_bounded"),
    "cdf additivity": ("test_depth", "test_cdf_additive_over_adjacent_intervals"),
    "loss sigma minimum": ("test_depth", "test_per_pixel_loss_minimized_at_absolute_residual"),
    "traversal extent oracle": ("test_projection", "test_traversal_extent_matches_slab_oracle"),
    "projection monotonicity": ("test_projection", "test_prob_grid_monotone_in_added_pixel"),
    "projection dirac limit": ("test_projection", "test_prob_grid_near_dirac_matches_binary"),
    "quantile alpha monotonicity": ("test_conformal", "test_quantile_monotone_in_alpha"),
    "kl score empty-mass monotonicity": (
        "test_conformal",
        "test_score_kl_increasing_in_empty_mass_along_path",
    ),
    "hcp nesting": ("test_conformal", "test_hcp_nesting_in_alpha_target"),
    "hcp gate consistency": (
        "test_conformal",
        "test_hcp_sets_never_contain_empty_class_and_respect_gate",
    ),
    "hcp/cccp equivalence": ("test_conformal", "test_hcp_reduces_to_cccp_with_open_gate"),
    "gate eps-invariance at constant empty mass": (
        "test_conformal",
        "test_gate_decisions_epsilon_invariant_for_constant_empty_mass",
    ),
    "metrics relabel symmetry": ("test_metrics", "test_geometry_relabel_invariance"),
    "gating shrinks sets": ("test_metrics", "test_gating_never_grows_sets"),
    "synth determinism": ("test_synth", "test_scene_deterministic_in_seed"),
    "depth residual normality": ("test_synth", "test_render_wall_residuals_standard_normal"),
    "cli determinism": ("test_cli", "test_simulate_deterministic_bytes"),
    "thread-count invariance": ("test_cli", "test_threads_flag_output_invariant"),
}


def test_criterion_8_invariant_suites_present():
    # the suites themselves run as part of this pytest invocation; this
    # check pins that every spec invariant keeps a named property test
    import importlib

    missing = []
    for name, (module, func) in _INVARIANT_TESTS.items():
        mod = importlib.import_module(module)
        if not hasattr(mod, func):
            missing.append(f"{name} ({module}.{func})")
    ok = not missing
    _report(8, ok, f"{len(_INVARIANT_TESTS)} invariant property tests wired into the suite"
            if ok else f"missing: {missing}")


# ---------------------------------------------------------------------------
# criterion 9: the rare-class gate guarantee holds at every KL reference floor
#
# score_kl shifts by -f_1*log(eps2/eps1) between floors, which reorders
# vectors with unequal empty mass, so the gate's decisions depend on eps
# (exactly invariant only at constant empty mass; see criterion 8).  What
# eps must not change is the guarantee: rare-class occupied recall
# 1 - alpha_o.  Per seed this is criterion 5's floor; pooled over seeds the
# mean recall is checked on both sides of the mean expected coverage
# k/(n_cal+1), which catches a calibrate/predict mismatch in eps that
# raises recall as surely as one that lowers it.


def test_criterion_9_epsilon_invariance(scene_runs):
    alpha_o = 0.3
    lines = []
    occupied = []
    ok = True
    for eps in (1e-4, 1e-2):
        cfg = default_hcp_config(alpha_o_rare=alpha_o, epsilon=eps)
        hits = 0
        recalls, centres, variances = [], [], []
        for seed, (_, _, cal, _, test_labels, test_probs) in enumerate(scene_runs):
            model = hcp_calibrate(cal, cfg)
            assert model.epsilon == eps
            occ, _ = hcp_predict_batch(test_probs, model)
            if seed == 0:
                occupied.append(occ)
            rec = float(occ[test_labels == RARE].mean())
            n_cal = int((cal.labels == RARE).sum())
            n_test = int((test_labels == RARE).sum())
            var = alpha_o * (1 - alpha_o) * (1 / n_cal + 1 / n_test)
            k = math.ceil((n_cal + 1) * (1 - alpha_o) - 1e-9)
            hits += rec >= 1 - alpha_o - 2 * math.sqrt(var)
            recalls.append(rec)
            centres.append(k / (n_cal + 1))
            variances.append(var)
        pooled_se = math.sqrt(sum(variances)) / len(variances)
        z = (np.mean(recalls) - np.mean(centres)) / pooled_se
        ok = ok and hits >= 18 and abs(z) <= 3.0
        lines.append(
            f"eps={eps:g}: {hits}/20 seeds at recall >= {1 - alpha_o:g} - 2*SE, mean recall "
            f"{np.mean(recalls):.4f} vs centre {np.mean(centres):.4f} (z {z:+.2f}, |z| <= 3)"
        )
    flips = int(np.count_nonzero(occupied[0] != occupied[1]))
    _report(
        9,
        ok,
        "; ".join(lines)
        + f"; seed 0 for information: {flips} of {occupied[0].size} gate decisions "
        f"differ, occupied {int(occupied[0].sum())} at eps=1e-4 vs "
        f"{int(occupied[1].sum())} at eps=1e-2",
    )

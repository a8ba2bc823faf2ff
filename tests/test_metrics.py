import numpy as np
import pytest

from sscuq.conformal import CalibrationSet, HcpConfig, conformal_quantile, score_kl
from sscuq.grids import LabelGrid
from sscuq.metrics import (
    avg_size,
    class_coverage,
    cov_gap,
    geometry_metrics_from_masks,
    occupied_recall_flat,
    recall_iou_sweep,
    semantic_miou_flat,
)
from synth_bench import default_hcp_config, scene_benchmark


def _occ(arr):
    return np.asarray(arr, dtype=bool)


def test_geometry_perfect_prediction():
    gt = np.array([[[1, 2], [3, 1]]])
    pred = _occ([[[0, 1], [1, 0]]])
    assert geometry_metrics_from_masks(pred, gt >= 2) == (1.0, 1.0, 1.0)


def test_geometry_all_empty_prediction():
    gt = np.array([[[1, 2], [3, 1]]])
    pred = _occ([[[0, 0], [0, 0]]])
    got = geometry_metrics_from_masks(pred, gt >= 2)
    assert got.iou == 0.0
    assert got.recall == 0.0
    assert got.precision is None


def test_geometry_counting_case():
    # TP=2, FP=1, FN=1 in a 2x2x1 grid
    gt = np.array([[[2], [3]], [[4], [1]]])
    pred = _occ([[[1], [1]], [[0], [1]]])
    got = geometry_metrics_from_masks(pred, gt >= 2)
    assert got.iou == pytest.approx(0.5)
    assert got.precision == pytest.approx(2 / 3)
    assert got.recall == pytest.approx(2 / 3)


def test_geometry_relabel_invariance():
    gt_a = LabelGrid(np.array([[[1, 2], [3, 2]]]), class_count=4)
    gt_b = LabelGrid(np.array([[[1, 3], [2, 3]]]), class_count=4)  # nonempty classes swapped
    pred = _occ([[[0, 1], [0, 1]]])
    got_a = geometry_metrics_from_masks(pred, gt_a.occupied_mask())
    assert got_a == geometry_metrics_from_masks(pred, gt_b.occupied_mask())


def test_geometry_dim_mismatch():
    with pytest.raises(ValueError):
        geometry_metrics_from_masks(np.zeros((1, 2, 2), bool), np.ones((1, 2, 3), bool))


def test_miou_perfect():
    gt = np.array([1, 2, 3, 4])
    per_class, miou = semantic_miou_flat(gt, gt, 4)
    assert per_class == {2: 1.0, 3: 1.0, 4: 1.0}
    assert miou == 1.0


def test_miou_swapped_classes_zero():
    per_class, miou = semantic_miou_flat([3, 2], [2, 3], 4)
    assert per_class[2] == 0.0 and per_class[3] == 0.0
    assert miou == 0.0


def test_miou_hand_computed_confusion():
    gt = np.array([[[2, 2], [3, 3], [4, 1]]])
    pred = np.array([[[2, 3], [3, 3], [1, 1]]])
    per_class, miou = semantic_miou_flat(pred, gt, 4)
    # class 2: tp=1 fp=0 fn=1 -> 1/2; class 3: tp=2 fp=1 fn=0 -> 2/3
    # class 4: tp=0 fp=0 fn=1 -> 0
    assert per_class[2] == pytest.approx(0.5)
    assert per_class[3] == pytest.approx(2 / 3)
    assert per_class[4] == 0.0
    assert miou == pytest.approx((0.5 + 2 / 3 + 0.0) / 3)


def test_miou_absent_class_excluded():
    per_class, miou = semantic_miou_flat([1, 2], [1, 2], 4)
    assert per_class[3] is None and per_class[4] is None
    assert miou == 1.0


def test_occupied_recall_cases():
    gt = np.array([[[2, 2], [2, 1]]])
    assert occupied_recall_flat(_occ([[[1, 1], [1, 1]]]), gt, 2, 4) == 1.0
    assert occupied_recall_flat(_occ([[[0, 0], [0, 0]]]), gt, 2, 4) == 0.0
    assert occupied_recall_flat(_occ([[[1, 1], [1, 1]]]), gt, 3, 4) is None
    with pytest.raises(ValueError):
        occupied_recall_flat(_occ([[[0, 0], [0, 0]]]), gt, 1, 4)


def test_occupied_recall_fraction():
    labels = np.full(10, 2)
    pred = np.zeros(10, bool)
    pred[:7] = True
    assert occupied_recall_flat(pred, labels, 2, 2) == pytest.approx(0.7)


def test_cov_gap_all_covered_zero_alpha_like():
    member = np.zeros((4, 3), dtype=bool)
    labels = np.array([2, 2, 3, 3])
    member[np.arange(4), labels - 1] = True
    # alpha -> 0 means target coverage 1; every label covered -> gap 0
    coverage = class_coverage(member, labels)
    assert cov_gap(coverage, {2: 1e-9, 3: 1e-9}) == pytest.approx(0.0, abs=1e-8)


def test_cov_gap_two_class_arithmetic():
    labels = np.array([2] * 20 + [3] * 20)
    member = np.zeros((40, 3), dtype=bool)
    member[:17, 1] = True  # class 2 coverage 0.85
    member[20:39, 2] = True  # class 3 coverage 0.95
    got = cov_gap(class_coverage(member, labels), {2: 0.1, 3: 0.1})
    assert got == pytest.approx((abs(0.85 - 0.9) + abs(0.95 - 0.9)) / 2)


def test_cov_gap_single_class_total_miss():
    labels = np.array([2, 2])
    member = np.zeros((2, 2), dtype=bool)
    assert cov_gap(class_coverage(member, labels), {2: 0.1}) == pytest.approx(0.9)


def test_avg_size_examples():
    singleton = np.zeros((5, 4), dtype=bool)
    singleton[:, 2] = True
    assert avg_size(singleton) == 1.0
    assert avg_size(np.zeros((5, 4), dtype=bool)) == 0.0
    half = np.zeros((4, 4), dtype=bool)
    half[:2, 1:3] = True
    assert avg_size(half) == 1.0


def test_avg_size_ignores_empty_class_column():
    member = np.zeros((3, 3), dtype=bool)
    member[:, 0] = True
    assert avg_size(member) == 0.0


def test_sweep_rows_monotone_gate_and_recall():
    world, softmax, cal, mask, test_labels, test_probs = scene_benchmark(3)
    cfg = default_hcp_config()
    targets = [0.3, 0.5, 0.7]
    rows = recall_iou_sweep(softmax.flat(), world.flat(), ~mask, cal, cfg, "kl", targets)
    assert [r.target_recall for r in rows] == targets
    for row in rows:
        n_cal = int((cal.labels == 5).sum())
        n_test = int((test_labels == 5).sum())
        se = np.sqrt(row.target_recall * (1 - row.target_recall) * (1 / n_cal + 1 / n_test))
        assert row.achieved_recall >= row.target_recall - 2.5 * se
        assert 0.0 <= row.iou <= 1.0


@pytest.mark.parametrize("kind", ["kl", "class", "occupied"])
def test_sweep_with_two_rare_classes_matches_a_per_class_oracle(kind):
    # each rare class's gate quantile ranks that class's own calibration
    # records, scored against its own label for the class score
    world, softmax, cal, mask, test_labels, test_probs = scene_benchmark(5)
    cfg = HcpConfig(
        class_count=5, rare_set=frozenset({4, 5}), alpha_o={4: 0.3, 5: 0.3},
        alpha_target=default_hcp_config().alpha_target,
    )
    score = {
        "kl": lambda f, y: score_kl(f, cfg.epsilon),
        "class": lambda f, y: 1.0 - f[:, y - 1].astype(np.float64),
        "occupied": lambda f, y: f[:, 0].astype(np.float64),
    }[kind]
    targets = [0.3, 0.6, 0.9]
    rows = recall_iou_sweep(softmax.flat(), world.flat(), ~mask, cal, cfg, kind, targets)
    for target, row in zip(targets, rows):
        pred = np.zeros(test_labels.size, dtype=bool)
        for y in (4, 5):
            q = conformal_quantile(score(cal.probs[cal.labels == y], y), 1.0 - target)
            pred |= score(test_probs, y) <= q
        recall = min(pred[test_labels == y].mean() for y in (4, 5))
        assert row == (target, recall, geometry_metrics_from_masks(pred, test_labels >= 2).iou)
    # handed only the rare classes' records, as `sweep` does, it ranks the same ones
    rare = np.isin(cal.labels, [4, 5])
    rare_cal = CalibrationSet(cal.probs[rare], cal.labels[rare])
    rare_rows = recall_iou_sweep(softmax.flat(), world.flat(), ~mask, rare_cal, cfg, kind, targets)
    assert rare_rows == rows


def test_sweep_rejects_bad_targets():
    world, softmax, cal, mask, _, _ = scene_benchmark(4)
    cfg = default_hcp_config()
    with pytest.raises(ValueError, match="strictly increasing"):
        recall_iou_sweep(softmax.flat(), world.flat(), ~mask, cal, cfg, "kl", [0.5, 0.4])
    with pytest.raises(ValueError, match="strictly inside"):
        recall_iou_sweep(softmax.flat(), world.flat(), ~mask, cal, cfg, "kl", [0.0, 0.5])
    with pytest.raises(ValueError, match="unknown score kind"):
        recall_iou_sweep(softmax.flat(), world.flat(), ~mask, cal, cfg, "bogus", [0.5])


def test_gating_never_grows_sets():
    from sscuq.conformal import HcpModel, hcp_calibrate, hcp_predict_batch
    import math

    world, softmax, cal, mask, test_labels, test_probs = scene_benchmark(5)
    model = hcp_calibrate(cal, default_hcp_config())
    _, member = hcp_predict_batch(test_probs, model)
    open_gate = HcpModel(
        class_count=model.class_count,
        rare_set=model.rare_set,
        epsilon=model.epsilon,
        q_o={y: math.inf for y in model.rare_set},
        alpha_o=model.alpha_o,
        alpha_s=model.alpha_s,
        q_s=model.q_s,
        alpha_target=model.alpha_target,
    )
    _, member_open = hcp_predict_batch(test_probs, open_gate)
    assert avg_size(member) <= avg_size(member_open)

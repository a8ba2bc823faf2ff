"""Evaluation metrics: geometric IoU, per-class IoU, coverage gap, set size.

Ratios with an empty denominator are reported as None (absent), never 0,
so aggregates skip them.  Prediction sets are passed as boolean
membership arrays with a trailing class axis: ``member[..., y-1]`` is
True iff class y is in the voxel's set.  Metrics take plain arrays, so
they serve a whole grid (``grid.flat()``) and a split subset alike.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

import numpy as np

# conformal_quantile stays importable from this module because
# benchmarks/tracer.py resolves the name here
from .conformal import (  # noqa: F401
    CalibrationSet,
    HcpConfig,
    class_quantiles,
    conformal_quantile,
    score_class,
    score_kl,
    score_occupied,
)
from .grids import check_same_classes, map_rows

__all__ = [
    "GATE_SCORES",
    "GeometryMetrics",
    "SweepRow",
    "geometry_metrics_from_masks",
    "semantic_miou_flat",
    "occupied_recall_flat",
    "class_coverage",
    "cov_gap",
    "avg_size",
    "recall_iou_sweep",
]


class GeometryMetrics(NamedTuple):
    iou: float | None
    precision: float | None
    recall: float | None


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def geometry_metrics_from_masks(pred_occ: np.ndarray, gt_occ: np.ndarray) -> GeometryMetrics:
    """IoU/precision/recall of boolean occupancy predictions."""
    pred_occ = np.asarray(pred_occ, dtype=bool)
    gt_occ = np.asarray(gt_occ, dtype=bool)
    if pred_occ.shape != gt_occ.shape:
        raise ValueError(f"shape mismatch: {pred_occ.shape} vs {gt_occ.shape}")
    tp = int(np.count_nonzero(pred_occ & gt_occ))
    pred, true = int(np.count_nonzero(pred_occ)), int(np.count_nonzero(gt_occ))
    return GeometryMetrics(
        iou=_ratio(tp, pred + true - tp),
        precision=_ratio(tp, pred),
        recall=_ratio(tp, true),
    )


def semantic_miou_flat(pred_labels, gt_labels, class_count: int):
    """Per-nonempty-class IoU and their mean over flat label arrays.

    Classes absent from both prediction and ground truth are excluded
    from the mean and reported as None.
    """
    pred_labels, gt_labels = np.ravel(pred_labels), np.ravel(gt_labels)
    per_class = {
        y: geometry_metrics_from_masks(pred_labels == y, gt_labels == y).iou
        for y in range(2, class_count + 1)
    }
    present = [iou for iou in per_class.values() if iou is not None]
    return per_class, (float(np.mean(present)) if present else None)


def occupied_recall_flat(pred_occ, gt_labels, y: int, class_count: int) -> float | None:
    """Fraction of the class's voxels marked occupied; None if absent."""
    if not 2 <= y <= class_count:  # the empty class 1 has no occupied recall
        raise ValueError(f"class {y} out of range 2..{class_count}")
    return geometry_metrics_from_masks(np.ravel(pred_occ), np.ravel(gt_labels) == y).recall


def _flat_member(member: np.ndarray) -> np.ndarray:
    member = np.asarray(member, dtype=bool)
    return member.reshape(-1, member.shape[-1])


def class_coverage(member: np.ndarray, labels) -> dict[int, float | None]:
    """Per nonempty class y, the fraction of the rows labeled y whose set
    holds y; None for a class absent from the labels.

    ``member`` is a membership array (..., M); ``labels`` the aligned
    true labels.
    """
    member = _flat_member(member)
    labels = np.asarray(labels).reshape(-1)
    if labels.shape[0] != member.shape[0]:
        raise ValueError("labels and membership rows differ")
    coverage = {}
    for y in range(2, member.shape[1] + 1):
        sel = labels == y
        n = int(np.count_nonzero(sel))
        coverage[y] = np.count_nonzero(member[sel, y - 1]) / n if n else None
    return coverage


def cov_gap(
    coverage: Mapping[int, float | None], alpha_target: Mapping[int, float]
) -> float | None:
    """Mean over present classes of |coverage - (1 - target)|, for the
    per-class ``coverage`` map that ``class_coverage`` returns."""
    gaps = []
    for y, c_y in coverage.items():
        if c_y is None:
            continue
        if y not in alpha_target:
            raise ValueError(f"no target rate for present class {y}")
        gaps.append(abs(c_y - (1.0 - alpha_target[y])))
    return float(np.mean(gaps)) if gaps else None


def avg_size(member: np.ndarray) -> float:
    """Mean prediction-set cardinality, never counting the empty class."""
    member = _flat_member(member)
    if member.shape[0] == 0:
        raise ValueError("no prediction sets given")
    # the mean of the per-set counts, without an int64 count per set
    return np.count_nonzero(member[:, 1:]) / member.shape[0]


# gate score name -> score(vectors, rare class or classes, HcpConfig); low
# scores look occupied.  Each entry looks its score up by name when called,
# so a wrapper installed on this module's name sees the call.
GATE_SCORES = {
    "kl": lambda f, y, cfg: score_kl(f, cfg.epsilon),
    "class": lambda f, y, cfg: score_class(f, y),
    "occupied": lambda f, y, cfg: score_occupied(f),
}


class SweepRow(NamedTuple):
    target_recall: float
    achieved_recall: float | None
    iou: float | None


def check_targets(targets: Sequence) -> list[float]:
    """``targets`` as floats, once they are strictly increasing recalls
    inside (0, 1); ValueError otherwise."""
    targets = [float(t) for t in targets]
    if any(not 0.0 < t < 1.0 for t in targets):
        raise ValueError("targets must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(targets, targets[1:])):
        raise ValueError("targets must be strictly increasing")
    return targets


def recall_iou_sweep(
    probs,
    labels: np.ndarray,
    mask: np.ndarray,
    cal: CalibrationSet,
    cfg: HcpConfig,
    score_kind: str,
    targets: Sequence[float],
) -> list[SweepRow]:
    """Geometric-gate trade-off table across occupied-recall targets.

    For each target recall r, the gate is calibrated at error rate 1 - r
    with the chosen score function (a key of ``GATE_SCORES``): each rare
    class's quantile ranks that class's records in ``cal``, whatever else
    it holds.  The gate is then scored on the evaluation rows: the rows of
    ``probs`` (N, M), an array or a container's ``SoftmaxRows``, and their
    true ``labels`` (N,) that the boolean ``mask`` (N,) selects.  Reported: achieved occupied recall of the rare
    class (minimum over the rare set when it has several members) and
    occupancy IoU.  The evaluation rows are scored one block at a time,
    keeping only each row's gate decision at every target.
    """
    if score_kind not in GATE_SCORES:
        raise ValueError(f"unknown score kind {score_kind!r}")
    targets = check_targets(targets)
    check_same_classes("softmax", probs.shape[-1], "config", cfg.class_count)
    check_same_classes("calibration", cal.class_count, "config", cfg.class_count)

    rare = sorted(cfg.rare_set)
    score = GATE_SCORES[score_kind]

    # no score depends on the target: score the calibration records and
    # each evaluation row once
    cal_scores = score(cal.probs, cal.labels, cfg)
    q = [class_quantiles(cal_scores, cal.labels, dict.fromkeys(rare, 1.0 - t)) for t in targets]

    def gate(f):  # (rows, targets): does the row pass the gate at the target?
        passed = np.zeros((f.shape[0], len(targets)), dtype=bool)
        for y in rare:
            passed |= score(f, y, cfg)[:, None] <= [q_t[y] for q_t in q]
        return (passed,)

    labels = labels[mask]
    (pred_occ,) = map_rows(gate, probs, mask, (np.empty((labels.size, len(targets)), bool),))
    gt_occ = labels >= 2
    rows = []
    for target, pred in zip(targets, pred_occ.T):
        recalls = [occupied_recall_flat(pred, labels, y, cfg.class_count) for y in rare]
        recalls = [r for r in recalls if r is not None]
        iou = geometry_metrics_from_masks(pred, gt_occ).iou
        rows.append(SweepRow(target, min(recalls) if recalls else None, iou))
    return rows

"""Evaluation metrics: geometric IoU, per-class IoU, coverage gap, set size.

Ratios with an empty denominator are reported as None (absent), never 0,
so aggregates skip them.  Prediction sets are passed as boolean
membership arrays with a trailing class axis: ``member[..., y-1]`` is
True iff class y is in the voxel's set.  Metrics take plain arrays, so
they serve a whole grid (``grid.flat()``) and a split subset alike.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
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
from .grids import LabelGrid, SoftmaxGrid

__all__ = [
    "GeometryMetrics",
    "MetricsReport",
    "SweepRow",
    "geometry_metrics_from_masks",
    "semantic_miou_flat",
    "occupied_recall_flat",
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
    fp = int(np.count_nonzero(pred_occ & ~gt_occ))
    fn = int(np.count_nonzero(~pred_occ & gt_occ))
    return GeometryMetrics(
        iou=_ratio(tp, tp + fp + fn),
        precision=_ratio(tp, tp + fp),
        recall=_ratio(tp, tp + fn),
    )


def semantic_miou_flat(pred_labels, gt_labels, class_count: int):
    """Per-nonempty-class IoU and their mean over flat label arrays.

    Classes absent from both prediction and ground truth are excluded
    from the mean and reported as None.
    """
    pred_labels = np.asarray(pred_labels).reshape(-1)
    gt_labels = np.asarray(gt_labels).reshape(-1)
    if pred_labels.shape != gt_labels.shape:
        raise ValueError("label arrays differ in size")
    per_class: dict[int, float | None] = {}
    present = []
    for y in range(2, class_count + 1):
        p = pred_labels == y
        g = gt_labels == y
        tp = int(np.count_nonzero(p & g))
        fp = int(np.count_nonzero(p & ~g))
        fn = int(np.count_nonzero(~p & g))
        iou = _ratio(tp, tp + fp + fn)
        per_class[y] = iou
        if iou is not None:
            present.append(iou)
    return per_class, (float(np.mean(present)) if present else None)


def occupied_recall_flat(pred_occ, gt_labels, y: int, class_count: int) -> float | None:
    """Fraction of the class's voxels marked occupied; None if absent."""
    if y == 1:
        raise ValueError("the empty class has no occupied recall")
    if not 2 <= y <= class_count:
        raise ValueError(f"class {y} out of range 2..{class_count}")
    pred_occ = np.asarray(pred_occ, dtype=bool).reshape(-1)
    gt_labels = np.asarray(gt_labels).reshape(-1)
    sel = gt_labels == y
    return _ratio(int(np.count_nonzero(pred_occ & sel)), int(np.count_nonzero(sel)))


def _flat_member(member: np.ndarray) -> np.ndarray:
    member = np.asarray(member, dtype=bool)
    return member.reshape(-1, member.shape[-1])


def cov_gap(member: np.ndarray, labels, alpha_target: Mapping[int, float]) -> float | None:
    """Mean over present nonempty classes of |empirical coverage - target|.

    ``member`` is a membership array (..., M); ``labels`` the aligned
    true labels.  Classes absent from the labels are excluded.
    """
    member = _flat_member(member)
    labels = np.asarray(labels).reshape(-1)
    if labels.shape[0] != member.shape[0]:
        raise ValueError("labels and membership rows differ")
    gaps = []
    for y in range(2, member.shape[1] + 1):
        sel = labels == y
        n = int(np.count_nonzero(sel))
        if n == 0:
            continue
        if y not in alpha_target:
            raise ValueError(f"no target rate for present class {y}")
        c_y = np.count_nonzero(member[sel, y - 1]) / n
        gaps.append(abs(c_y - (1.0 - alpha_target[y])))
    return float(np.mean(gaps)) if gaps else None


def avg_size(member: np.ndarray) -> float:
    """Mean prediction-set cardinality, never counting the empty class."""
    member = _flat_member(member)
    if member.shape[0] == 0:
        raise ValueError("no prediction sets given")
    return float(member[:, 1:].sum(axis=1).mean())


class SweepRow(NamedTuple):
    target_recall: float
    achieved_recall: float | None
    iou: float | None


def recall_iou_sweep(
    grid: SoftmaxGrid,
    gt: LabelGrid,
    cal: CalibrationSet,
    cfg: HcpConfig,
    score_kind: str,
    targets: Sequence[float],
    eval_mask=None,
) -> list[SweepRow]:
    """Geometric-gate trade-off table across occupied-recall targets.

    For each target recall r, the gate is calibrated at error rate 1 - r
    with the chosen score function (``kl``, ``class``, or ``occupied``)
    on the rare classes' calibration records, then scored on the grid's
    voxels (restricted to ``eval_mask`` when given): achieved occupied
    recall of the rare class (minimum over the rare set when it has
    several members) and occupancy IoU.
    """
    if score_kind not in ("kl", "class", "occupied"):
        raise ValueError(f"unknown score kind {score_kind!r}")
    targets = [float(t) for t in targets]
    if any(not 0.0 < t < 1.0 for t in targets):
        raise ValueError("targets must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(targets, targets[1:])):
        raise ValueError("targets must be strictly increasing")
    if grid.dims != gt.dims:
        raise ValueError(f"dims mismatch: {grid.dims} vs {gt.dims}")
    if grid.class_count != cfg.class_count or cal.class_count != cfg.class_count:
        raise ValueError("class counts differ between grid, calibration, and config")

    probs = grid.flat()
    labels = gt.flat()
    if eval_mask is not None:
        eval_mask = np.asarray(eval_mask, dtype=bool).reshape(-1)
        if eval_mask.shape != labels.shape:
            raise ValueError("eval_mask size must match the voxel count")
        probs, labels = probs[eval_mask], labels[eval_mask]
    gt_occ = labels >= 2
    rare = sorted(cfg.rare_set)
    score = {
        "kl": lambda f, y: score_kl(f, cfg.epsilon),
        "class": score_class,
        "occupied": lambda f, y: score_occupied(f),
    }[score_kind]

    rows = []
    for target in targets:
        q = class_quantiles(score, cal, dict.fromkeys(rare, 1.0 - target))
        pred_occ = np.zeros(labels.shape[0], dtype=bool)
        for y in rare:
            pred_occ |= score(probs, y) <= q[y]
        recalls = []
        for y in rare:
            r = occupied_recall_flat(pred_occ, labels, y, cfg.class_count)
            if r is not None:
                recalls.append(r)
        geom = geometry_metrics_from_masks(pred_occ, gt_occ)
        rows.append(
            SweepRow(
                target_recall=target,
                achieved_recall=min(recalls) if recalls else None,
                iou=geom.iou,
            )
        )
    return rows


@dataclass(frozen=True)
class MetricsReport:
    """Everything the evaluation pipeline reports for one model run."""

    iou: float | None
    precision: float | None
    recall: float | None
    per_class_iou: dict
    miou: float | None
    occupied_recall: dict
    cov_gap: float | None
    avg_size: float | None
    per_class_coverage: dict

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        for key in ("per_class_iou", "occupied_recall", "per_class_coverage"):
            doc[key] = {str(y): v for y, v in sorted(doc[key].items())}
        return doc

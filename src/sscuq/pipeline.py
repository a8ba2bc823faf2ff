"""Configuration, deterministic splits, and the end-to-end pipelines.

A single JSON config drives every command; missing sections fall back to
the package defaults, so ``{}`` is a valid config.  The calibration/test
split is a pure function of (seed, voxel index): re-running evaluation
can never touch calibration voxels, and the model file records the split
so later invocations reuse it.
"""

from __future__ import annotations

import csv
import io
import json
import os
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import rng
from .conformal import (
    CalibrationSet,
    DegeneracyWarning,
    HcpConfig,
    cccp_calibrate,
    hcp_calibrate,
    load_model,
    save_model,
    scp_calibrate,
)
from .container import atomic_write, read_grid, write_grid
from .grids import (
    CameraIntrinsics,
    DepthEstimate,
    GridGeometry,
    LabelGrid,
    SoftmaxGrid,
    ValidationError,
)
from .metrics import (
    MetricsReport,
    cov_gap,
    avg_size,
    geometry_metrics_from_masks,
    occupied_recall_flat,
    recall_iou_sweep,
    semantic_miou_flat,
)
from .projection import build_binary_grid, build_prob_grid
from .synth import (
    ClassifierSpec,
    ObjectTemplate,
    SceneSpec,
    default_classifier_spec,
    default_geometry,
    default_intrinsics,
    default_scene_spec,
    generate_scene,
    render_depth,
    synth_classifier,
)

__all__ = [
    "ConfigError",
    "PipelineConfig",
    "split_mask",
    "run_simulate",
    "run_project",
    "run_calibrate",
    "run_evaluate",
    "run_sweep",
]

_TAG_SPLIT = 6


class ConfigError(ValueError):
    """A configuration value is missing or invalid; the message names it."""


def split_mask(n_voxels: int, fraction: float, seed: int) -> np.ndarray:
    """Boolean calibration mask over voxel indices, pure in (seed, index)."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"split_fraction must be in (0, 1), got {fraction}")
    u = rng.uniforms(rng.derive_seed(seed, _TAG_SPLIT), np.arange(n_voxels))
    return u < fraction


@dataclass(frozen=True)
class PipelineConfig:
    """Validated bundle of everything a command needs."""

    geometry: GridGeometry
    intrinsics: CameraIntrinsics
    scene: SceneSpec
    classifier: ClassifierSpec
    hcp: HcpConfig
    noise_a: float
    noise_b: float
    split_fraction: float
    seed: int

    @classmethod
    def default(cls, seed: int = 0) -> "PipelineConfig":
        return cls(
            geometry=default_geometry(),
            intrinsics=default_intrinsics(),
            scene=default_scene_spec(seed),
            classifier=default_classifier_spec(seed),
            hcp=HcpConfig(
                class_count=5,
                rare_set=frozenset({5}),
                alpha_o={5: 0.3},
                alpha_target={2: 0.1, 3: 0.1, 4: 0.1, 5: 0.4},
            ),
            noise_a=0.03,
            noise_b=0.06,
            split_fraction=0.3,
            seed=seed,
        )

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "PipelineConfig":
        """Build a config from a JSON document; absent sections default."""
        seed = _number(doc, "seed", 0, "seed", int)
        base = cls.default(seed)
        try:
            geometry = _parse_geometry(doc["geometry"]) if "geometry" in doc else base.geometry
            intrinsics = (
                _parse_intrinsics(doc["intrinsics"]) if "intrinsics" in doc else base.intrinsics
            )
            scene = (
                _parse_scene(doc["scene"], geometry, seed) if "scene" in doc else base.scene
            )
            classifier = (
                _parse_classifier(doc["classifier"], seed)
                if "classifier" in doc
                else base.classifier
            )
            hcp = _parse_hcp(doc["hcp"], scene.class_count) if "hcp" in doc else base.hcp
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc
        noise = doc.get("noise", {})
        if not isinstance(noise, Mapping):
            raise ConfigError(f"noise must be an object, got {noise!r}")
        noise_a = _number(noise, "a", base.noise_a, "noise.a", float)
        noise_b = _number(noise, "b", base.noise_b, "noise.b", float)
        if noise_a < 0 or noise_b < 0 or noise_a + noise_b <= 0:
            raise ConfigError("noise.a and noise.b must be >= 0 with a positive sum")
        split = _number(doc, "split_fraction", base.split_fraction, "split_fraction", float)
        if not 0.0 < split < 1.0:
            raise ConfigError(f"split_fraction must be in (0, 1), got {split}")
        return cls(
            geometry=geometry,
            intrinsics=intrinsics,
            scene=scene,
            classifier=classifier,
            hcp=hcp,
            noise_a=noise_a,
            noise_b=noise_b,
            split_fraction=split,
            seed=seed,
        )

    @classmethod
    def load(cls, path: str | None, seed_override: int | None = None) -> "PipelineConfig":
        """Load a config file; ``seed_override`` replaces its root seed."""
        if path is None:
            return cls.default(seed_override if seed_override is not None else 0)
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
        if seed_override is not None:
            doc = {**doc, "seed": seed_override}
        return cls.from_json_dict(doc)


def _number(doc: Mapping, key: str, default, name: str, kind) -> float | int:
    value = doc.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def _parse_geometry(doc: Mapping) -> GridGeometry:
    try:
        return GridGeometry(
            dims=tuple(int(n) for n in doc["dims"]),
            voxel_edge=float(doc["voxel_edge"]),
            origin=[float(c) for c in doc["origin"]],
        )
    except KeyError as exc:
        raise ConfigError(f"geometry is missing field {exc}") from exc


def _parse_intrinsics(doc: Mapping) -> CameraIntrinsics:
    try:
        return CameraIntrinsics(
            f_u=float(doc["f_u"]),
            f_v=float(doc["f_v"]),
            c_h=float(doc["c_h"]),
            c_w=float(doc["c_w"]),
            height=int(doc["height"]),
            width=int(doc["width"]),
        )
    except KeyError as exc:
        raise ConfigError(f"intrinsics is missing field {exc}") from exc


def _parse_scene(doc: Mapping, geometry: GridGeometry, seed: int) -> SceneSpec:
    base = default_scene_spec(seed)
    templates = base.templates
    if "templates" in doc:
        templates = tuple(
            ObjectTemplate(
                class_id=int(t["class_id"]),
                kind=str(t["kind"]),
                size=tuple((float(lo), float(hi)) for lo, hi in t["size"]),
            )
            for t in doc["templates"]
        )
    return SceneSpec(
        geometry=geometry,
        class_count=int(doc.get("class_count", base.class_count)),
        class_mix={int(y): float(f) for y, f in doc.get("class_mix", base.class_mix).items()},
        templates=templates,
        seed=int(doc.get("seed", seed)),
    )


def _parse_classifier(doc: Mapping, seed: int) -> ClassifierSpec:
    base = default_classifier_spec(seed)
    return ClassifierSpec(
        confusion=np.asarray(doc.get("confusion", base.confusion), dtype=np.float64),
        sharpness=doc.get("sharpness", base.sharpness),
        temperature=float(doc.get("temperature", base.temperature)),
        seed=int(doc.get("seed", seed)),
    )


def _parse_hcp(doc: Mapping, class_count: int) -> HcpConfig:
    try:
        return HcpConfig(
            class_count=int(doc.get("class_count", class_count)),
            rare_set=frozenset(int(y) for y in doc["rare_set"]),
            alpha_o={int(y): float(a) for y, a in doc["alpha_o"].items()},
            alpha_target={int(y): float(a) for y, a in doc["alpha_target"].items()},
            epsilon=float(doc.get("epsilon", 0.01)),
        )
    except KeyError as exc:
        raise ConfigError(f"hcp is missing field {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def run_simulate(cfg: PipelineConfig, out_dir: str) -> dict:
    """Generate a world, render its depths, classify it, write containers."""
    os.makedirs(out_dir, exist_ok=True)
    world = generate_scene(cfg.scene)
    gt_depth, est = render_depth(
        world, cfg.intrinsics, cfg.geometry, cfg.noise_a, cfg.noise_b, seed=cfg.seed
    )
    softmax = synth_classifier(world, cfg.classifier)

    paths = {
        "labels": os.path.join(out_dir, "labels.sscg"),
        "depth_gt": os.path.join(out_dir, "depth_gt.sscg"),
        "depth_est": os.path.join(out_dir, "depth_est.sscg"),
        "softmax": os.path.join(out_dir, "softmax.sscg"),
    }
    write_grid(world, paths["labels"], geometry=cfg.geometry)
    write_grid(gt_depth, paths["depth_gt"])
    write_grid(est, paths["depth_est"])
    write_grid(softmax, paths["softmax"], geometry=cfg.geometry)

    total = world.labels.size
    fractions = {
        str(y): float(np.count_nonzero(world.labels == y) / total)
        for y in range(1, world.class_count + 1)
    }
    return {
        "command": "simulate",
        "paths": paths,
        "class_fractions": fractions,
        "valid_pixels": int(est.valid_mask.sum()),
    }


def run_project(
    depth_path: str,
    cfg: PipelineConfig,
    out_path: str,
    binary: bool = False,
    sigma_cut: float | None = None,
) -> dict:
    """Build the probabilistic (default) or binary grid from a depth file."""
    est = read_grid(depth_path)
    if binary:
        if isinstance(est, DepthEstimate):
            depth, valid = est.mean, est.valid_mask
        else:
            depth, valid = est.depth, est.valid_mask
        grid = build_binary_grid(depth, cfg.intrinsics, cfg.geometry, valid=valid)
        occupancy = int(grid.values.sum())
    else:
        if not isinstance(est, DepthEstimate):
            raise ValidationError(
                "probabilistic projection needs a depth_estimate container with "
                "sigma; rerun with --binary for plain depths"
            )
        grid = build_prob_grid(est, cfg.intrinsics, cfg.geometry, sigma_cut=sigma_cut)
        occupancy = float(grid.values.sum())
    write_grid(grid, out_path, geometry=cfg.geometry)
    return {
        "command": "project",
        "path": out_path,
        "kind": "binary_occupancy" if binary else "prob_occupancy",
        "total_mass": occupancy,
    }


def _load_pair(softmax_path: str, labels_path: str):
    softmax = read_grid(softmax_path)
    labels = read_grid(labels_path)
    if not isinstance(softmax, SoftmaxGrid):
        raise ValidationError(f"{softmax_path} does not hold a softmax grid")
    if not isinstance(labels, LabelGrid):
        raise ValidationError(f"{labels_path} does not hold a label grid")
    if softmax.dims != labels.dims:
        raise ValidationError("softmax and label grids have different dims")
    if softmax.class_count != labels.class_count:
        raise ValidationError("softmax and label grids have different class counts")
    return softmax, labels


def run_calibrate(
    softmax_path: str,
    labels_path: str,
    cfg: PipelineConfig,
    method: str,
    out_path: str,
) -> dict:
    """Calibrate scp/cccp/hcp on the calibration split and write model JSON."""
    if method not in ("scp", "cccp", "hcp"):
        raise ConfigError(f"method must be scp, cccp, or hcp, got {method!r}")
    softmax, labels = _load_pair(softmax_path, labels_path)
    mask = split_mask(labels.labels.size, cfg.split_fraction, cfg.seed)
    cal = CalibrationSet.from_grids(softmax, labels, mask=mask)

    notes: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegeneracyWarning)
        if method == "scp":
            alphas = set(cfg.hcp.alpha_target.values())
            model = scp_calibrate(cal, alphas.pop() if len(alphas) == 1 else 0.1)
        elif method == "cccp":
            model = cccp_calibrate(cal, {1: 0.1, **cfg.hcp.alpha_target})
        else:
            model = hcp_calibrate(cal, cfg.hcp)
        notes = [str(w.message) for w in caught if issubclass(w.category, DegeneracyWarning)]

    save_model(
        model,
        out_path,
        extra={"split": {"fraction": cfg.split_fraction, "seed": cfg.seed}},
    )
    return {
        "command": "calibrate",
        "method": method,
        "path": out_path,
        "calibration_records": cal.n,
        "warnings": notes,
    }


def run_evaluate(
    model_path: str,
    softmax_path: str,
    labels_path: str,
    out_json: str | None = None,
    out_csv: str | None = None,
) -> dict:
    """Apply a saved model to the test split and report metrics."""
    model = load_model(model_path)
    with open(model_path) as fh:
        split = json.load(fh).get("split", {})
    if not isinstance(split, Mapping):
        raise ConfigError(f"model field 'split' must be an object, got {split!r}")
    fraction = _number(split, "fraction", 0.3, "model field split.fraction", float)
    seed = _number(split, "seed", 0, "model field split.seed", int)

    softmax, labels = _load_pair(softmax_path, labels_path)
    test = ~split_mask(labels.labels.size, fraction, seed)
    probs = softmax.flat()[test]
    labs = labels.flat()[test]
    occ, member = model.predict(probs)

    gt_occ = labs >= 2
    geom = geometry_metrics_from_masks(occ, gt_occ)
    argmax_labels = probs.argmax(axis=1) + 1
    per_class_iou, miou = semantic_miou_flat(argmax_labels, labs, model.class_count)
    recalls = {
        y: occupied_recall_flat(occ, labs, y, model.class_count)
        for y in range(2, model.class_count + 1)
    }
    coverage = {}
    for y in range(2, model.class_count + 1):
        sel = labs == y
        n = int(np.count_nonzero(sel))
        coverage[y] = (np.count_nonzero(member[sel, y - 1]) / n) if n else None

    report = MetricsReport(
        iou=geom.iou,
        precision=geom.precision,
        recall=geom.recall,
        per_class_iou=per_class_iou,
        miou=miou,
        occupied_recall=recalls,
        cov_gap=cov_gap(member, labs, model.target_rates),
        avg_size=avg_size(member),
        per_class_coverage=coverage,
    )
    doc = report.to_json_dict()
    if out_json:
        atomic_write(out_json, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    if out_csv:
        _write_report_csv(report, model.class_count, out_csv)
    return {"command": "evaluate", "test_records": int(test.sum()), "report": doc}


def _write_csv(path: str, rows) -> None:
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    atomic_write(path, text.getvalue())


def _write_report_csv(report: MetricsReport, class_count: int, path: str) -> None:
    per_class = (report.per_class_iou, report.per_class_coverage, report.occupied_recall)
    rows = [["row", "class", "iou", "coverage", "occupied_recall"]]
    for y in range(2, class_count + 1):
        rows.append(["class", y, *(d.get(y) for d in per_class)])
    rows.append(["aggregate", "", report.iou, report.cov_gap, report.avg_size])
    _write_csv(path, rows)


def run_sweep(
    softmax_path: str,
    labels_path: str,
    cfg: PipelineConfig,
    score_kind: str,
    targets: Sequence[float],
    out_csv: str | None = None,
) -> dict:
    """Recall/IoU trade-off of the geometric gate on the test split."""
    softmax, labels = _load_pair(softmax_path, labels_path)
    mask = split_mask(labels.labels.size, cfg.split_fraction, cfg.seed)
    cal = CalibrationSet.from_grids(softmax, labels, mask=mask)
    rows = recall_iou_sweep(
        softmax, labels, cal, cfg.hcp, score_kind, targets, eval_mask=~mask
    )
    if out_csv:
        _write_csv(out_csv, [["target_recall", "achieved_recall", "iou"], *rows])
    return {
        "command": "sweep",
        "score": score_kind,
        "rows": [row._asdict() for row in rows],
        "path": out_csv,
    }

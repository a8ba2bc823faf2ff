"""Configuration, deterministic splits, and the end-to-end pipelines.

A single JSON config drives every command; missing sections fall back to
the package defaults, so ``{}`` is a valid config.  The calibration/test
split is a pure function of (seed, voxel index): re-running evaluation
can never touch calibration voxels, and the model file records the split
so later invocations reuse it.
"""

from __future__ import annotations

import contextlib
import csv
import io
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
from .container import atomic_write, read_grid, read_header, read_json, write_grid, write_json
from .grids import (
    CameraIntrinsics,
    DepthEstimate,
    GridGeometry,
    GroundTruthDepth,
    Seed,
    ValidationError,
    check_aligned,
    check_rate,
    check_same_classes,
    decode,
    map_rows,
    row_blocks,
)
from .metrics import (
    class_coverage,
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
    DepthNoise,
    SceneSpec,
    check_noise,
    default_geometry,
    default_intrinsics,
    generate_scene,
    render_depth,
    synth_classifier,
)

__all__ = [
    "CALIBRATORS",
    "ConfigError",
    "PipelineConfig",
    "split_mask",
    "run_simulate",
    "run_project",
    "run_calibrate",
    "run_evaluate",
    "run_sweep",
]


class ConfigError(ValueError):
    """A configuration value is missing or invalid; the CLI exits 2 on it."""


def split_mask(n_voxels: int, fraction: float, seed: int) -> np.ndarray:
    """Boolean calibration mask over voxel indices, one byte per voxel.

    Voxel i is a calibration voxel iff draw i of the seed's split stream is
    below ``fraction``, so the mask is pure in (seed, index).  The draws are
    made one ``row_blocks`` block of counters at a time.
    """
    check_rate("split_fraction", fraction)
    stream = rng.derive_seed(seed, rng.TAG_SPLIT)
    mask = np.empty(n_voxels, dtype=bool)
    for block in row_blocks(n_voxels):
        u = rng.uniforms(stream, np.arange(block.start, block.stop))
        np.less(u, fraction, out=mask[block])
    return mask


@dataclass(frozen=True)
class PipelineConfig:
    """Validated bundle of everything a command needs; ValidationError names a bad value."""

    intrinsics: CameraIntrinsics
    scene: SceneSpec
    classifier: ClassifierSpec
    hcp: HcpConfig
    noise: DepthNoise
    seed: int
    split_fraction: float = 0.3

    @classmethod
    def default(cls, seed: int = 0) -> "PipelineConfig":
        return cls.from_json_dict({"seed": seed})

    @property
    def geometry(self) -> GridGeometry:
        """The one grid: the scene's, which every command renders and writes through."""
        return self.scene.geometry

    def __post_init__(self):
        check_rate("split_fraction", self.split_fraction)
        check_noise(self.noise)
        # an omitted section's default counts too: it describes the 5-class scene
        m = self.scene.class_count
        for name, part in (("classifier", self.classifier), ("hcp", self.hcp)):
            check_same_classes(name, part.class_count, "scene.class_count", m)

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "PipelineConfig":
        """Build a config from a JSON document.  An absent field takes its
        type's default, and a scene's or classifier's seed the top-level
        seed; geometry, intrinsics and hcp are given whole or default whole."""
        seed = decode(Seed, doc.get("seed", 0), "seed")

        def section(key, kind, default=None, **fixed):
            if key not in doc and default:
                return default()
            return decode(kind, doc.get(key, {}), key, {"seed": seed}, fixed)

        # the top-level geometry is the scene's, the one grid cfg.geometry returns
        geometry = section("geometry", GridGeometry, default_geometry)
        scene = section("scene", SceneSpec, geometry=geometry)
        return cls(
            intrinsics=section("intrinsics", CameraIntrinsics, default_intrinsics),
            scene=scene,
            classifier=section("classifier", ClassifierSpec),
            # the class count is the scene's, as the grid is
            hcp=section("hcp", HcpConfig, _default_hcp, class_count=scene.class_count),
            noise=section("noise", DepthNoise),
            seed=seed,
            split_fraction=decode(
                float, doc.get("split_fraction", cls.split_fraction), "split_fraction"
            ),
        )

    @classmethod
    def load(cls, path: str | None, seed_override: int | None = None) -> "PipelineConfig":
        """Load a config file (the defaults when ``path`` is None);
        ``seed_override`` replaces its root seed."""
        doc = {} if path is None else read_json(path, "config")
        if seed_override is not None:
            doc = {**doc, "seed": seed_override}
        return cls.from_json_dict(doc)


def _default_hcp() -> HcpConfig:
    """The default 5-class scene's rates; person (class 5) is its rare class."""
    return HcpConfig(5, frozenset({5}), {5: 0.3}, {2: 0.1, 3: 0.1, 4: 0.1, 5: 0.4})


# ---------------------------------------------------------------------------
# commands


def run_simulate(cfg: PipelineConfig, out_dir: str, threads: int = 1) -> dict:
    """Generate a world, classify it, render its depths, write containers;
    the output directory is made once they exist."""
    world = generate_scene(cfg.scene)
    softmax = synth_classifier(world, cfg.classifier)
    gt_depth, est = render_depth(
        world, cfg.intrinsics, cfg.geometry, cfg.noise, seed=cfg.seed, threads=threads
    )

    paths = {
        "labels": os.path.join(out_dir, "labels.sscg"),
        "depth_gt": os.path.join(out_dir, "depth_gt.sscg"),
        "depth_est": os.path.join(out_dir, "depth_est.sscg"),
        "softmax": os.path.join(out_dir, "softmax.sscg"),
    }
    os.makedirs(out_dir, exist_ok=True)
    write_grid(world, paths["labels"], geometry=cfg.geometry)
    write_grid(gt_depth, paths["depth_gt"])
    write_grid(est, paths["depth_est"])
    write_grid(softmax, paths["softmax"], geometry=cfg.geometry)

    counts = np.bincount(world.flat(), minlength=world.class_count + 1)
    return {
        "command": "simulate",
        "paths": paths,
        "class_fractions": dict(enumerate(counts[1:] / world.labels.size, start=1)),
        "valid_pixels": est.valid_mask.sum(),
    }


def run_project(
    depth_path: str,
    cfg: PipelineConfig,
    out_path: str,
    binary: bool = False,
    threads: int = 1,
) -> dict:
    """Build the probabilistic (default) or binary grid from a depth file."""
    if binary:
        depth = read_grid(depth_path, "depth_estimate", "depth")
        if isinstance(depth, DepthEstimate):
            depth = GroundTruthDepth(depth.mean, depth.valid_mask)
        grid = build_binary_grid(depth, cfg.intrinsics, cfg.geometry, threads=threads)
    else:
        est = read_grid(depth_path, "depth_estimate")  # the probabilistic grid needs sigma
        grid = build_prob_grid(est, cfg.intrinsics, cfg.geometry, threads=threads)
    write_grid(grid, out_path, geometry=cfg.geometry)
    return {
        "command": "project",
        "path": out_path,
        "kind": "binary_occupancy" if binary else "prob_occupancy",
        "total_mass": grid.values.sum(),
    }


@contextlib.contextmanager
def _load_pair(softmax_path: str, labels_path: str, class_count: int, owner: str = "the config"):
    """Yield the softmax rows, read one block at a time from the open file,
    and the labels of two aligned containers; the softmax file is closed
    when the block ends.  The softmax must have the ``class_count`` of
    ``owner``: the config, or the model its command applies."""
    # the header's class count is compared before any payload byte is read
    _, _, count = read_header(softmax_path, "softmax")
    check_same_classes(softmax_path, count, owner, class_count)
    with read_grid(softmax_path, "softmax", blocks=True) as softmax:
        labels = read_grid(labels_path, "labels")
        check_aligned(softmax, labels)
        yield softmax, labels


@contextlib.contextmanager
def _degeneracies():
    """Yield a list that receives, when the block ends, the messages of the
    DegeneracyWarnings raised in it."""
    notes: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegeneracyWarning)
        yield notes
    notes += [str(w.message) for w in caught if issubclass(w.category, DegeneracyWarning)]


# method -> calibration of a CalibrationSet at the config's rates.  SCP has
# one marginal rate, the strictest class target; CCCP also calibrates the
# empty class, at 0.1.  Each entry looks its calibrator up by name when
# called, so a wrapper installed on this module's name sees the call.
CALIBRATORS = {
    "scp": lambda cal, hcp: scp_calibrate(cal, min(hcp.alpha_target.values())),
    "cccp": lambda cal, hcp: cccp_calibrate(cal, {1: 0.1, **hcp.alpha_target}),
    "hcp": lambda cal, hcp: hcp_calibrate(cal, hcp),
}


@dataclass(frozen=True)
class _Split:
    """The calibration split a model records: ``split_mask(n, fraction, seed)``."""

    seed: Seed
    fraction: float

    def __post_init__(self):
        check_rate("fraction", self.fraction)


def run_calibrate(
    softmax_path: str,
    labels_path: str,
    cfg: PipelineConfig,
    method: str,
    out_path: str,
) -> dict:
    """Calibrate ``method`` (a key of ``CALIBRATORS``) on the calibration
    split and write model JSON."""
    calibrate = CALIBRATORS[method]
    with _load_pair(softmax_path, labels_path, cfg.scene.class_count) as (softmax, labels):
        mask = split_mask(labels.labels.size, cfg.split_fraction, cfg.seed)
        cal = CalibrationSet.from_grids(softmax, labels, mask=mask)

    with _degeneracies() as notes:
        model = calibrate(cal, cfg.hcp)

    save_model(model, out_path, extra={"split": _Split(cfg.seed, cfg.split_fraction)})
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
    extra: dict = {}
    model = load_model(model_path, extra=extra)
    # the split is configuration (exit 2), though a model file records it:
    # without it the test voxels are unknown
    try:
        split = decode(_Split, extra.get("split", {}), "model.split")
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None

    with _load_pair(softmax_path, labels_path, model.class_count, "the model") as (softmax, labels):
        test = ~split_mask(labels.labels.size, split.fraction, split.seed)
        labs = labels.flat()[test]
        n, m = labs.size, model.class_count
        # one block of test rows is predicted at a time; only per-row results stay
        occ, member, argmax_labels = map_rows(
            lambda f: (*model.predict(f), f.argmax(axis=1)),
            softmax.flat(),
            test,
            (np.empty(n, dtype=bool), np.empty((n, m), dtype=bool), np.empty(n, dtype=np.uint16)),
        )
    argmax_labels += 1
    coverage = class_coverage(member, labs)

    geom = geometry_metrics_from_masks(occ, labs >= 2)
    per_class_iou, miou = semantic_miou_flat(argmax_labels, labs, model.class_count)
    classes = range(2, model.class_count + 1)
    # the report: the JSON file, the CSV and the summary all show this one document
    doc = {
        "iou": geom.iou,
        "precision": geom.precision,
        "recall": geom.recall,
        "per_class_iou": per_class_iou,
        "miou": miou,
        "occupied_recall": {y: occupied_recall_flat(occ, labs, y, model.class_count) for y in classes},
        "cov_gap": cov_gap(coverage, model.target_rates),
        "avg_size": avg_size(member),
        "per_class_coverage": coverage,
    }
    if out_json:
        write_json(out_json, doc)
    if out_csv:
        per_class = ("per_class_iou", "per_class_coverage", "occupied_recall")
        rows = [["row", "class", "iou", "coverage", "occupied_recall"]]
        rows += [["class", y, *(doc[key][y] for key in per_class)] for y in classes]
        rows.append(["aggregate", "", doc["iou"], doc["cov_gap"], doc["avg_size"]])
        _write_csv(out_csv, rows)
    return {"command": "evaluate", "split": split, "test_records": test.sum(), "report": doc}


def _write_csv(path: str, rows) -> None:
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    atomic_write(path, text.getvalue())


def run_sweep(
    softmax_path: str,
    labels_path: str,
    cfg: PipelineConfig,
    score_kind: str,
    targets: Sequence[float],
    out_csv: str | None = None,
) -> dict:
    """Recall/IoU trade-off of the geometric gate on the test split."""
    with _load_pair(softmax_path, labels_path, cfg.scene.class_count) as (softmax, labels):
        mask = split_mask(labels.labels.size, cfg.split_fraction, cfg.seed)
        # the gate ranks the rare classes' calibration records only.  With
        # kind="sort", isin compares a few classes one at a time; its default
        # table method builds more arrays per record
        rare = np.isin(labels.flat(), sorted(cfg.hcp.rare_set), kind="sort")
        cal = CalibrationSet.from_grids(softmax, labels, mask=mask & rare)
        with _degeneracies() as notes:
            rows = recall_iou_sweep(
                softmax.flat(), labels.flat(), ~mask, cal, cfg.hcp, score_kind, targets
            )
    if out_csv:
        _write_csv(out_csv, [["target_recall", "achieved_recall", "iou"], *rows])
    return {
        "command": "sweep",
        "score": score_kind,
        "rows": [row._asdict() for row in rows],
        "path": out_csv,
        "warnings": notes,
    }

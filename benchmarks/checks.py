"""Output checks: invariants any correct implementation keeps.

Every command's outputs are checked after it runs; a command that exits
non-zero or fails any check counts as failed.  No check compares against
a stored hash, so a faster implementation that writes the same kind of
result passes.  Byte identity is checked only between repetitions of one
run, which any deterministic implementation keeps.

Containers are decoded here with numpy alone, not with ``sscuq``'s own
reader, so a reader bug cannot hide a writer bug.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

# a rare class's occupied recall must lie within this many binomial standard
# deviations (test sampling plus calibration sampling) of 1 - alpha_o
RECALL_BAND_Z = 4.0

_SSCG_DTYPES = {"float32": "<f4", "uint16": "<u2", "uint8": "<u1"}


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_sscg(path: str):
    """Decode an SSCG container: (header dict, payload array)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"SSCG":
        raise ValueError(f"{path}: bad magic")
    head_len = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + head_len])
    arr = np.frombuffer(blob[16 + head_len :], dtype=_SSCG_DTYPES[header["dtype"]])
    dims = tuple(header["dims"])
    kind = header["kind"]
    if kind == "softmax":
        shape = dims + (header["class_count"],)
    elif kind in ("depth_estimate", "depth"):
        shape = (3 if kind == "depth_estimate" else 2,) + dims
    else:
        shape = dims
    return header, arr.reshape(shape)


class Expectations:
    """What a run's outputs must satisfy: config shapes and split sizes.

    ``split_counts`` asks the package's public ``split_mask`` which voxels
    are calibration voxels, then counts labels per class on each side.
    """

    def __init__(self, config_doc: dict):
        from sscuq import PipelineConfig

        cfg = PipelineConfig.from_json_dict(config_doc)
        self.dims = tuple(cfg.geometry.dims)
        self.image = (cfg.intrinsics.height, cfg.intrinsics.width)
        self.class_count = cfg.scene.class_count
        self.split_fraction = cfg.split_fraction
        self.seed = cfg.seed
        self._splits: dict = {}

    def split_counts(self, labels_path: str, fraction: float, seed: int):
        """Per-class record counts (index y) of the calibration and test splits."""
        key = (sha256_file(labels_path), fraction, seed)
        if key not in self._splits:
            from sscuq import split_mask

            _, labels = read_sscg(labels_path)
            flat = labels.reshape(-1).astype(np.int64)
            cal = split_mask(flat.size, fraction, seed)
            m = self.class_count + 1
            self._splits[key] = (
                np.bincount(flat[cal], minlength=m),
                np.bincount(flat[~cal], minlength=m),
            )
        return self._splits[key]


def _in_unit(values: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(values)) and values.min(initial=0) >= 0 and values.max(initial=0) <= 1)


def _check_grid(path, kind, dtype, dims, errors):
    header, arr = read_sscg(path)
    if header["kind"] != kind:
        errors.append(f"{path}: kind {header['kind']!r}, expected {kind!r}")
    if header["dtype"] != dtype:
        errors.append(f"{path}: dtype {header['dtype']}, expected {dtype}")
    if tuple(header["dims"]) != tuple(dims):
        errors.append(f"{path}: dims {header['dims']}, expected {list(dims)}")
    return arr


def flags_of(op) -> dict[str, str]:
    """``--name value`` pairs of an argv."""
    argv = op.argv
    return {a[2:]: argv[i + 1] for i, a in enumerate(argv[:-1]) if a.startswith("--")}


def check_simulate(op, summary, exp: Expectations, errors):
    out = op.outputs
    labels = _check_grid(out["labels"], "labels", "uint16", exp.dims, errors)
    if labels.size and (labels.min() < 1 or labels.max() > exp.class_count):
        errors.append("labels outside 1..M")
    softmax = _check_grid(out["softmax"], "softmax", "float32", exp.dims, errors)
    if not _in_unit(softmax) or np.abs(softmax.sum(axis=-1, dtype=np.float64) - 1).max() > 1e-4:
        errors.append("softmax rows are not probability vectors")
    depth = _check_grid(out["depth_est"], "depth_estimate", "float32", exp.image, errors)
    valid = depth[2] != 0
    if int(valid.sum()) != summary.get("valid_pixels"):
        errors.append(f"valid_pixels {summary.get('valid_pixels')} != mask count {int(valid.sum())}")
    if np.any(depth[1][valid] <= 0):
        errors.append("non-positive sigma on a valid pixel")
    _check_grid(out["depth_gt"], "depth", "float32", exp.image, errors)


def check_project(op, summary, exp: Expectations, errors):
    grid = _check_grid(op.outputs["grid"], "prob_occupancy", "float32", exp.dims, errors)
    if not _in_unit(grid):
        errors.append("probabilities outside [0, 1]")
    total = float(grid.sum(dtype=np.float64))
    mass = summary.get("total_mass")
    if not isinstance(mass, (int, float)) or not math.isclose(mass, total, rel_tol=1e-5, abs_tol=1e-3):
        errors.append(f"total_mass {mass} != grid sum {total}")


def check_project_binary(op, summary, exp: Expectations, errors):
    grid = _check_grid(op.outputs["grid"], "binary_occupancy", "uint8", exp.dims, errors)
    if grid.size and grid.max() > 1:
        errors.append("binary grid holds values other than 0 and 1")
    if summary.get("total_mass") != int(grid.sum()):
        errors.append(f"total_mass {summary.get('total_mass')} != grid sum {int(grid.sum())}")


def check_calibrate(op, summary, exp: Expectations, errors):
    flags = flags_of(op)
    with open(op.outputs["model"]) as fh:
        model = json.load(fh)
    if model.get("method") != flags["method"] or model.get("class_count") != exp.class_count:
        errors.append(f"model method/class_count {model.get('method')}/{model.get('class_count')}")
    cal, _ = exp.split_counts(flags["labels"], exp.split_fraction, exp.seed)
    if summary.get("calibration_records") != int(cal.sum()):
        errors.append(f"calibration_records {summary.get('calibration_records')} != {int(cal.sum())}")


def recall_band(alpha: float, n_test: int, n_cal: int, binding: bool):
    """Interval that a rare class's test occupied recall must fall in.

    The conformal gate gives recall >= 1 - alpha up to sampling noise.  When
    the class's own quantile sets the gate (``binding``) the recall is also
    at most 1 - alpha + 1/(n_cal + 1), up to the same noise.
    """
    sd = math.sqrt(alpha * (1 - alpha) * (1 / max(n_test, 1) + 1 / (n_cal + 1)))
    lo = 1 - alpha - RECALL_BAND_Z * sd
    hi = 1 - alpha + 1 / (n_cal + 1) + RECALL_BAND_Z * sd if binding else 1.0
    return lo, hi


def check_evaluate(op, summary, exp: Expectations, errors):
    flags = flags_of(op)
    with open(flags["model"]) as fh:
        model = json.load(fh)
    with open(op.outputs["metrics_json"]) as fh:
        report = json.load(fh)
    for key in ("iou", "precision", "recall", "miou"):
        v = report.get(key)
        if v is not None and not 0 <= v <= 1:
            errors.append(f"{key} {v} outside [0, 1]")
    with open(op.outputs["metrics_csv"], newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != exp.class_count + 1 or rows[0][0] != "row":
        errors.append(f"metrics CSV has {len(rows)} rows")
    split = model.get("split", {})
    cal, test = exp.split_counts(flags["labels"], split.get("fraction"), split.get("seed"))
    if summary.get("test_records") != int(test.sum()):
        errors.append(f"test_records {summary.get('test_records')} != {int(test.sum())}")
    if model.get("method") != "hcp":
        return
    q_o = {int(y): float(q) for y, q in model["q_o"].items()}
    gate = max(q_o.values())
    for y in model["rare_set"]:
        recall = report["occupied_recall"].get(str(y))
        lo, hi = recall_band(model["alpha_o"][str(y)], int(test[y]), int(cal[y]), q_o[y] == gate)
        if recall is None or not lo <= recall <= hi:
            errors.append(f"class {y} occupied recall {recall} outside [{lo:.4f}, {hi:.4f}]")


def check_sweep(op, summary, exp: Expectations, errors):
    targets = [float(t) for t in flags_of(op)["targets"].split(",")]
    with open(op.outputs["table"], newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["target_recall", "achieved_recall", "iou"]] or len(rows) != len(targets) + 1:
        errors.append("sweep CSV header or row count is wrong")
        return
    got = [float(r[0]) for r in rows[1:]]
    recalls = [float(r[1]) for r in rows[1:]]
    if got != targets:
        errors.append(f"sweep targets {got} != {targets}")
    if any(b < a for a, b in zip(recalls, recalls[1:])):
        errors.append(f"achieved recall decreases as the target rises: {recalls}")
    if any(not 0 <= float(r[2]) <= 1 for r in rows[1:]):
        errors.append("sweep IoU outside [0, 1]")


CHECKS = {
    "simulate": check_simulate,
    "project": check_project,
    "project_binary": check_project_binary,
    "calibrate": check_calibrate,
    "evaluate": check_evaluate,
    "sweep": check_sweep,
}


def check_op(op, exit_code: int, stdout: str, exp: Expectations, checks=CHECKS) -> list[str]:
    """Errors found in one command's exit code, summary line and outputs."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    lines = stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return ["no JSON summary line on stdout"]
    if summary.get("command") != op.command:
        return [f"summary command {summary.get('command')!r}, expected {op.command!r}"]
    errors: list[str] = []
    try:
        checks[op.name](op, summary, exp, errors)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        errors.append(f"{type(exc).__name__}: {exc}")
    return errors


def output_digests(op, stdout: str) -> dict[str, str]:
    """sha256 of the command's summary line and of every file it wrote."""
    digests = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    for key, path in op.outputs.items():
        digests[key] = sha256_file(path) if os.path.exists(path) else "missing"
    return digests

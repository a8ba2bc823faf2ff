"""Workload definitions: inputs made from the seed, and the command sequence.

Each workload is a closed loop with one client: the benchmark runs one
``python -m sscuq`` command at a time, and each command reads what the
previous ones wrote.  ``make_inputs`` is the set-up step; the benchmark
runs it in a child process (``python benchmarks/workloads.py``) so that
its time includes interpreter start and import, like every command.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass, field
from typing import Callable

SWEEP_TARGETS = "0.5,0.6,0.7,0.8,0.9,0.95"

# Grid of the wide projection: ROADMAP's larger fixed scale.  The principal
# row sits at the top of the image, so the camera looks down the street and
# every ray meets the ground slab: the number of traversed rays (16,384) does
# not depend on the seed's scene layout, only the depths along them do.
WIDE_CONFIG = {
    "geometry": {"dims": [64, 128, 64], "voxel_edge": 0.2, "origin": [-11.2, -12.8, 0.4]},
    "intrinsics": {
        "f_u": 48.0,
        "f_v": 48.0,
        "c_h": 0.5,
        "c_w": 63.5,
        "height": 128,
        "width": 128,
    },
    "scene": {},
}

# 64 x 128 x 128 = 1,048,576 voxels, the largest grid the scene generator
# builds with the default templates; the softmax container is 21 MB.
IMBALANCED_CONFIG = {
    "geometry": {"dims": [64, 128, 128], "voxel_edge": 0.2, "origin": [-11.2, -12.8, 0.4]},
    "scene": {},
}
# hcp's rare classes and their occupied error rates, below their 0.1 and 0.4
# class-conditional targets so that both gate levels do work
IMBALANCED_ALPHA_O = {"car": 0.05, "person": 0.2}


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload, with the files it writes."""

    name: str
    argv: list[str]
    outputs: dict[str, str] = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict | None  # None: the package default config, no --config flag
    build_ops: Callable[["Workload", str, int, int], list[Op]]
    threads: bool = False  # pass --threads <nproc> to every command

    def config_doc(self, seed: int) -> dict:
        """The JSON config the commands read (the package default when None)."""
        return {**(self.config or {}), "seed": seed}

    def ops(self, workdir: str, seed: int, nproc: int) -> list[Op]:
        return self.build_ops(self, workdir, seed, nproc)

    def common(self, workdir: str, seed: int, nproc: int) -> list[str]:
        flags = ["--seed", str(seed)]
        if self.config is not None:
            flags += ["--config", os.path.join(workdir, "config.json")]
        if self.threads:
            flags += ["--threads", str(nproc)]
        return flags


def _simulate_project_ops(wl: Workload, wd: str, seed: int, nproc: int) -> list[Op]:
    common = wl.common(wd, seed, nproc)
    sim = os.path.join(wd, "sim")
    depth = os.path.join(sim, "depth_est.sscg")
    sim_outputs = {
        k: os.path.join(sim, f"{k}.sscg") for k in ("labels", "depth_gt", "depth_est", "softmax")
    }
    prob, binary = os.path.join(wd, "prob.sscg"), os.path.join(wd, "binary.sscg")
    return [
        Op("simulate", ["simulate", *common, "--out-dir", sim], sim_outputs),
        Op("project", ["project", *common, "--depth", depth, "--out", prob], {"grid": prob}),
        Op(
            "project_binary",
            ["project", "--binary", *common, "--depth", depth, "--out", binary],
            {"grid": binary},
        ),
    ]


def _calibrate_op(common, softmax, labels, method, out, extra=()) -> Op:
    argv = ["calibrate", *common, "--softmax", softmax, "--labels", labels]
    argv += ["--method", method, *extra, "--out", out]
    return Op("calibrate", argv, {"model": out})


def _evaluate_op(common, softmax, labels, model, stem) -> Op:
    out_json, out_csv = stem + ".json", stem + ".csv"
    argv = ["evaluate", *common, "--model", model, "--softmax", softmax, "--labels", labels]
    argv += ["--out-json", out_json, "--out-csv", out_csv]
    return Op("evaluate", argv, {"metrics_json": out_json, "metrics_csv": out_csv})


def _sweep_op(common, softmax, labels, score, out) -> Op:
    argv = ["sweep", *common, "--softmax", softmax, "--labels", labels, "--score", score]
    argv += ["--targets", SWEEP_TARGETS, "--out", out]
    return Op("sweep", argv, {"table": out})


def _desk_ops(wl: Workload, wd: str, seed: int, nproc: int) -> list[Op]:
    ops = _simulate_project_ops(wl, wd, seed, nproc)
    common = wl.common(wd, seed, nproc)
    softmax, labels = ops[0].outputs["softmax"], ops[0].outputs["labels"]
    model = os.path.join(wd, "hcp.json")
    return ops + [
        _calibrate_op(common, softmax, labels, "hcp", model),
        _evaluate_op(common, softmax, labels, model, os.path.join(wd, "hcp_metrics")),
        _sweep_op(common, softmax, labels, "kl", os.path.join(wd, "sweep_kl.csv")),
    ]


def _imbalanced_ops(wl: Workload, wd: str, seed: int, nproc: int) -> list[Op]:
    common = wl.common(wd, seed, nproc)
    softmax, labels = os.path.join(wd, "softmax.sscg"), os.path.join(wd, "labels.sscg")
    hcp_flags = ["--rare", ",".join(IMBALANCED_ALPHA_O)]
    for name, rate in IMBALANCED_ALPHA_O.items():
        hcp_flags += ["--alpha-o", f"{name}={rate}"]
    ops = []
    for method in ("hcp", "cccp", "scp"):
        model = os.path.join(wd, f"{method}.json")
        extra = hcp_flags if method == "hcp" else ()
        ops.append(_calibrate_op(common, softmax, labels, method, model, extra))
        ops.append(_evaluate_op(common, softmax, labels, model, os.path.join(wd, f"{method}_metrics")))
    for score in ("kl", "class", "occupied"):
        ops.append(_sweep_op(common, softmax, labels, score, os.path.join(wd, f"sweep_{score}.csv")))
    return ops


WORKLOADS = {
    wl.name: wl
    for wl in (
        # the README path: interpreter start, import and fixed per-call costs dominate
        Workload("desk_default", None, _desk_ops),
        # per-ray traversal dominates; project --binary is the no-traversal control
        Workload("wide_projection", WIDE_CONFIG, _simulate_project_ops, threads=True),
        # container I/O, split, calibration, prediction and sweeps; no ray is traversed
        Workload("imbalanced_calibration", IMBALANCED_CONFIG, _imbalanced_ops),
    )
}


def input_files(name: str, workdir: str) -> dict[str, str]:
    """Files ``make_inputs`` writes for the workload."""
    files = {"config": os.path.join(workdir, "config.json")}
    if name == "imbalanced_calibration":
        files["labels"] = os.path.join(workdir, "labels.sscg")
        files["softmax"] = os.path.join(workdir, "softmax.sscg")
    return files


def make_inputs(name: str, seed: int, workdir: str) -> dict[str, str]:
    """Write the workload's inputs for ``seed`` into ``workdir``.

    The config is validated by the package; the imbalanced workload also
    gets its label and softmax containers from library calls.  Returns the
    written paths.
    """
    import sscuq

    wl = WORKLOADS[name]
    os.makedirs(workdir, exist_ok=True)
    files = input_files(name, workdir)
    doc = wl.config_doc(seed)
    cfg = sscuq.PipelineConfig.from_json_dict(doc)
    with open(files["config"], "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if name == "imbalanced_calibration":
        world = sscuq.generate_scene(cfg.scene)
        sscuq.write_grid(world, files["labels"], geometry=cfg.geometry)
        softmax = sscuq.synth_classifier(world, cfg.classifier)
        sscuq.write_grid(softmax, files["softmax"], geometry=cfg.geometry)
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write one workload's inputs")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir")
    args = parser.parse_args(argv)
    make_inputs(args.workload, args.seed, args.workdir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

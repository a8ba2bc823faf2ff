import argparse
import copy
import csv
import dataclasses
import gc
import json
import math
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sscuq import pipeline
from sscuq.cli import _apply_overrides, build_parser, main
from sscuq.conformal import _MODEL_TYPES, load_model
from sscuq.container import SoftmaxRows, read_grid
from sscuq.grids import BinaryOccupancyGrid, ProbOccupancyGrid, ValidationError, decode, encode
from sscuq.metrics import GATE_SCORES
from sscuq.pipeline import CALIBRATORS, PipelineConfig, _Split, run_calibrate
from sscuq.synth import (
    ClassifierSpec,
    DepthNoise,
    SceneSpec,
    default_classifier_spec,
    default_geometry,
    default_scene_spec,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sscuq", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    r = run_cli("simulate", "--out-dir", str(out), "--seed", "21")
    assert r.returncode == 0, r.stderr
    return out, json.loads(r.stdout)


def test_simulate_writes_outputs_and_summary(sim_dir):
    out, summary = sim_dir
    for key in ("labels", "depth_gt", "depth_est", "softmax"):
        assert (out / f"{key}.sscg").exists()
    fractions = summary["class_fractions"]
    assert 0.85 <= fractions["1"] <= 0.97
    assert summary["valid_pixels"] > 0


def test_simulate_deterministic_bytes(tmp_path, sim_dir):
    out, _ = sim_dir
    again = tmp_path / "again"
    r = run_cli("simulate", "--out-dir", str(again), "--seed", "21")
    assert r.returncode == 0
    for name in ("labels.sscg", "depth_est.sscg", "softmax.sscg"):
        assert (again / name).read_bytes() == (out / name).read_bytes()


def test_invalid_split_is_config_error(tmp_path, sim_dir):
    out, _ = sim_dir
    r = run_cli(
        "calibrate",
        "--softmax", str(out / "softmax.sscg"),
        "--labels", str(out / "labels.sscg"),
        "--out", str(tmp_path / "m.json"),
        "--split", "1.2",
    )
    assert r.returncode == 2
    assert "split" in r.stderr


def test_bad_config_json_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    r = run_cli("simulate", "--out-dir", str(tmp_path / "o"), "--config", str(cfg))
    assert r.returncode == 2


def test_missing_data_file_is_data_error(tmp_path):
    r = run_cli(
        "project",
        "--depth", str(tmp_path / "nope.sscg"),
        "--out", str(tmp_path / "o.sscg"),
    )
    assert r.returncode == 3


def test_project_probabilistic_and_binary(tmp_path, sim_dir):
    out, _ = sim_dir
    prob_path = tmp_path / "prob.sscg"
    bin_path = tmp_path / "bin.sscg"
    r1 = run_cli("project", "--depth", str(out / "depth_est.sscg"), "--out", str(prob_path))
    r2 = run_cli(
        "project", "--depth", str(out / "depth_est.sscg"), "--out", str(bin_path), "--binary"
    )
    assert r1.returncode == 0 and r2.returncode == 0
    prob = read_grid(prob_path)
    binary = read_grid(bin_path)
    assert isinstance(prob, ProbOccupancyGrid)
    assert isinstance(binary, BinaryOccupancyGrid)
    assert prob.values.max() <= 1.0
    assert binary.values.sum() > 0


def test_project_near_dirac_matches_binary(tmp_path):
    # tiny noise, depths strictly inside voxels: every binary voxel
    # carries essentially all of its probabilistic mass
    from sscuq.container import write_grid
    from sscuq.grids import DepthEstimate
    from sscuq.rng import uniforms

    n = 64 * 64
    depth = (0.6 + 2.8 * uniforms(909, np.arange(n)).reshape(64, 64))
    valid = uniforms(910, np.arange(n)).reshape(64, 64) < 0.4
    est = DepthEstimate(
        np.where(valid, depth, 0.0), np.where(valid, 1e-7, 0.0), valid
    )
    depth_path = tmp_path / "d.sscg"
    write_grid(est, depth_path)
    prob_path = tmp_path / "p.sscg"
    bin_path = tmp_path / "b.sscg"
    assert run_cli(
        "project", "--depth", str(depth_path), "--out", str(prob_path)
    ).returncode == 0
    assert run_cli(
        "project", "--depth", str(depth_path), "--out", str(bin_path), "--binary"
    ).returncode == 0
    prob = read_grid(prob_path).values
    occupied = read_grid(bin_path).as_bool()
    assert occupied.any()
    assert np.all(prob[occupied] >= 0.99)


def test_calibrate_then_evaluate_and_split_isolation(tmp_path, sim_dir):
    out, _ = sim_dir
    model_path = tmp_path / "model.json"
    r = run_cli(
        "calibrate",
        "--softmax", str(out / "softmax.sscg"),
        "--labels", str(out / "labels.sscg"),
        "--method", "hcp",
        "--out", str(model_path),
        "--seed", "21",
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(model_path.read_text())
    assert doc["method"] == "hcp"
    assert doc["split"] == {"fraction": 0.3, "seed": 21}
    assert isinstance(doc["q_o"]["5"], float)  # person quantile is finite

    metrics_json = tmp_path / "metrics.json"
    metrics_csv = tmp_path / "metrics.csv"
    r = run_cli(
        "evaluate",
        "--model", str(model_path),
        "--softmax", str(out / "softmax.sscg"),
        "--labels", str(out / "labels.sscg"),
        "--out-json", str(metrics_json),
        "--out-csv", str(metrics_csv),
    )
    assert r.returncode == 0, r.stderr
    summary = json.loads(r.stdout)
    # the summary names the split it used: the model's, whatever --seed says
    assert summary["split"] == doc["split"]
    r = run_cli("evaluate", "--model", str(model_path), "--seed", "9",
                "--softmax", str(out / "softmax.sscg"), "--labels", str(out / "labels.sscg"))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["split"] == doc["split"]
    report = summary["report"]
    assert 0.0 <= report["avg_size"] <= 4.0
    assert report["cov_gap"] is not None
    assert metrics_json.exists() and metrics_csv.exists()
    # calibration + test partition the voxels
    n_total = 64 * 64 * 16
    assert summary["test_records"] + json.loads(
        run_cli(
            "calibrate",
            "--softmax", str(out / "softmax.sscg"),
            "--labels", str(out / "labels.sscg"),
            "--out", str(tmp_path / "m2.json"),
            "--seed", "21",
        ).stdout
    )["calibration_records"] == n_total


def test_calibrate_scp_and_cccp(tmp_path, sim_dir):
    out, _ = sim_dir
    for method in ("scp", "cccp"):
        model_path = tmp_path / f"{method}.json"
        r = run_cli(
            "calibrate",
            "--softmax", str(out / "softmax.sscg"),
            "--labels", str(out / "labels.sscg"),
            "--method", method,
            "--out", str(model_path),
        )
        assert r.returncode == 0, r.stderr
        doc = json.loads(model_path.read_text())
        assert doc["method"] == method
        if method == "scp":
            assert isinstance(doc["q"], (int, float))
        else:
            assert set(doc["q"]) == {"1", "2", "3", "4", "5"}
        r = run_cli(
            "evaluate",
            "--model", str(model_path),
            "--softmax", str(out / "softmax.sscg"),
            "--labels", str(out / "labels.sscg"),
        )
        assert r.returncode == 0, r.stderr


def test_alpha_target_flag_overrides(tmp_path, sim_dir):
    out, _ = sim_dir
    model_path = tmp_path / "m.json"
    r = run_cli(
        "calibrate",
        "--softmax", str(out / "softmax.sscg"),
        "--labels", str(out / "labels.sscg"),
        "--out", str(model_path),
        "--alpha-target", "person=0.72",
        "--alpha-o", "person=0.25",
    )
    assert r.returncode == 0, r.stderr
    doc = json.loads(model_path.read_text())
    assert doc["alpha_target"]["5"] == 0.72
    assert doc["alpha_o"]["5"] == 0.25


def test_strict_escalates_degenerate_rare_class(tmp_path, sim_dir):
    out, _ = sim_dir
    # class 3 as the rare class with a tiny error rate exhausts its records
    r = run_cli(
        "calibrate",
        "--softmax", str(out / "softmax.sscg"),
        "--labels", str(out / "labels.sscg"),
        "--out", str(tmp_path / "m.json"),
        "--rare", "5",
        "--alpha-o", "5=0.0005",
        "--strict",
    )
    assert r.returncode == 4, (r.stdout, r.stderr)
    assert json.loads(r.stdout.splitlines()[-1])["warnings"]


def test_strict_escalates_an_unreachable_hcp_semantic_quantile(tmp_path):
    # alpha_s = 1 - 0.599/0.6 for person needs 599 gate-passing person
    # records; the default scene's calibration split has 68
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--out-dir", str(sim)).returncode == 0
    argv = [
        "calibrate", "--method", "hcp", "--seed", "0",
        "--softmax", str(sim / "softmax.sscg"),
        "--labels", str(sim / "labels.sscg"),
        "--alpha-target", "person=0.401",
        "--alpha-o", "person=0.4",
    ]
    lenient = run_cli(*argv, "--out", str(tmp_path / "lenient.json"))
    assert lenient.returncode == 0, lenient.stderr
    strict = run_cli(*argv, "--out", str(tmp_path / "strict.json"), "--strict")
    assert strict.returncode == 4, (strict.stdout, strict.stderr)
    warnings = json.loads(strict.stdout)["warnings"]
    assert len(warnings) == 1
    assert warnings[0].startswith("class 5 has too few calibration records (68) for alpha=0.00166")
    assert json.loads(lenient.stdout)["warnings"] == warnings
    assert (tmp_path / "strict.json").read_bytes() == (tmp_path / "lenient.json").read_bytes()
    assert json.loads((tmp_path / "strict.json").read_text())["q_s"]["5"] == "inf"


def test_strict_escalates_an_unreachable_scp_quantile(tmp_path, sim_dir):
    # SCP's one rate is the strictest class target: at 1e-5 the rank it
    # needs is past every calibration record
    out, _ = sim_dir
    argv = [
        "calibrate", "--method", "scp", "--seed", "21",
        "--softmax", str(out / "softmax.sscg"),
        "--labels", str(out / "labels.sscg"),
        "--alpha-target", "person=0.00001",
    ]
    lenient = run_cli(*argv, "--out", str(tmp_path / "lenient.json"))
    assert lenient.returncode == 0, lenient.stderr
    strict = run_cli(*argv, "--out", str(tmp_path / "strict.json"), "--strict")
    assert strict.returncode == 4, (strict.stdout, strict.stderr)
    summary = json.loads(strict.stdout)
    assert summary["warnings"] == [
        f"SCP has too few calibration records ({summary['calibration_records']}) "
        "for alpha=1e-05; its quantile is +inf"
    ]
    assert json.loads(lenient.stdout)["warnings"] == summary["warnings"]
    assert (tmp_path / "strict.json").read_bytes() == (tmp_path / "lenient.json").read_bytes()
    assert json.loads((tmp_path / "strict.json").read_text())["q"] == "inf"


@pytest.mark.parametrize("method", ["scp", "cccp", "hcp"])
def test_an_empty_calibration_set_is_a_degeneracy_for_every_method(
    tmp_path, sim_dir, capsys, method
):
    # seed 0 puts none of the 65,536 voxels below this fraction; hcp used
    # to exit 3 with "calibration set is empty"
    out, _ = sim_dir
    data = ["--softmax", str(out / "softmax.sscg"), "--labels", str(out / "labels.sscg")]
    argv = ["calibrate", "--method", method, "--seed", "0", "--split", "0.00001", *data]
    assert main([*argv, "--out", str(tmp_path / "m.json")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["calibration_records"] == 0
    assert summary["warnings"]
    assert main([*argv, "--out", str(tmp_path / "strict.json"), "--strict"]) == 4
    assert json.loads(capsys.readouterr().out)["warnings"] == summary["warnings"]
    # every quantile is +inf, so each prediction set holds every class
    assert main(["evaluate", "--model", str(tmp_path / "m.json"), *data]) == 0
    coverage = json.loads(capsys.readouterr().out)["report"]["per_class_coverage"]
    assert coverage == {str(y): 1.0 for y in range(2, 6)}


def test_an_empty_hcp_calibration_names_each_absent_class_once(tmp_path, sim_dir, capsys):
    # the rare class's gate quantile already says it has no record
    out, _ = sim_dir
    data = ["--softmax", str(out / "softmax.sscg"), "--labels", str(out / "labels.sscg")]
    argv = ["calibrate", "--method", "hcp", "--seed", "0", "--split", "0.00001", *data]
    assert main([*argv, "--out", str(tmp_path / "m.json")]) == 0
    warnings = json.loads(capsys.readouterr().out)["warnings"]
    assert sorted(int(re.match(r"class (\d+) ", w)[1]) for w in warnings) == [2, 3, 4, 5]


def test_strict_escalates_degenerate_sweep_target(tmp_path, sim_dir):
    out, _ = sim_dir
    argv = [
        "sweep",
        "--softmax", str(out / "softmax.sscg"),
        "--labels", str(out / "labels.sscg"),
        "--targets", "0.5,0.999",
        "--seed", "21",
    ]
    lenient = run_cli(*argv, "--out", str(tmp_path / "lenient.csv"))
    assert lenient.returncode == 0, lenient.stderr
    # the rare class has fewer than 999 calibration records: at 0.999 its
    # quantile is +inf and the gate passes every voxel
    strict = run_cli(*argv, "--out", str(tmp_path / "strict.csv"), "--strict")
    assert strict.returncode == 4, (strict.stdout, strict.stderr)
    warnings = json.loads(strict.stdout)["warnings"]
    assert len(warnings) == 1 and warnings[0].startswith("class 5 has too few")
    assert json.loads(lenient.stdout)["warnings"] == warnings
    assert (tmp_path / "strict.csv").read_bytes() == (tmp_path / "lenient.csv").read_bytes()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("evaluate", ["--threads", "2"]),
        ("calibrate", ["--threads", "2"]),
        ("sweep", ["--threads", "2"]),
        ("simulate", ["--strict"]),
        ("project", ["--strict"]),
        ("evaluate", ["--strict"]),
        ("project", ["--sigma-cut", "3"]),
    ],
)
def test_flag_the_command_does_not_read_is_a_usage_error(command, flag):
    required = {
        "simulate": ["--out-dir", "o"],
        "project": ["--depth", "d", "--out", "o"],
        "calibrate": ["--softmax", "s", "--labels", "l", "--out", "o"],
        "evaluate": ["--model", "m", "--softmax", "s", "--labels", "l"],
        "sweep": ["--softmax", "s", "--labels", "l", "--targets", "0.5"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, *required, *flag])
    assert exc.value.code == 2


def test_sweep_writes_csv(tmp_path, sim_dir):
    out, _ = sim_dir
    csv_path = tmp_path / "sweep.csv"
    r = run_cli(
        "sweep",
        "--softmax", str(out / "softmax.sscg"),
        "--labels", str(out / "labels.sscg"),
        "--score", "kl",
        "--targets", "0.3,0.5,0.7",
        "--out", str(csv_path),
        "--seed", "21",
    )
    assert r.returncode == 0, r.stderr
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "target_recall,achieved_recall,iou"
    assert len(lines) == 4
    summary = json.loads(r.stdout)
    assert [row["target_recall"] for row in summary["rows"]] == [0.3, 0.5, 0.7]


@pytest.mark.parametrize(
    "targets, message",
    [
        ("0.5,abc", "could not convert string to float: 'abc'"),
        ("", "could not convert string to float: ''"),
        ("0.5,1.5", "targets must lie strictly inside (0, 1)"),
        ("0.9,0.5", "targets must be strictly increasing"),
    ],
)
def test_malformed_sweep_targets_are_config_errors(sim_dir, capsys, targets, message):
    out, _ = sim_dir
    data = ["--softmax", str(out / "softmax.sscg"), "--labels", str(out / "labels.sscg")]
    code, err = _main(capsys, "sweep", *data, "--targets", targets)
    assert code == 2, err
    error = json.loads(err)["error"]
    assert error.startswith("--targets") and message in error


@pytest.mark.parametrize("command", ["calibrate", "evaluate", "sweep"])
@pytest.mark.parametrize(
    "softmax, labels, wrong, holds",
    [
        ("labels", "softmax", "labels", "labels container, not softmax"),
        ("softmax", "softmax", "softmax", "softmax container, not labels"),
    ],
)
def test_softmax_or_labels_of_the_wrong_kind_names_the_kind_it_holds(
    tmp_path, sim_dir, capsys, command, softmax, labels, wrong, holds
):
    out, _ = sim_dir
    model = tmp_path / "model.json"
    good = ["--softmax", str(out / "softmax.sscg"), "--labels", str(out / "labels.sscg")]
    assert _main(capsys, "calibrate", *good, "--out", str(model))[0] == 0
    required = {
        "calibrate": ["--out", str(tmp_path / "m.json")],
        "evaluate": ["--model", str(model)],
        "sweep": ["--targets", "0.5"],
    }[command]
    data = ["--softmax", str(out / f"{softmax}.sscg"), "--labels", str(out / f"{labels}.sscg")]
    code, err = _main(capsys, command, *data, *required)
    assert code == 3, err
    assert f"{out / f'{wrong}.sscg'} holds a {holds}" in json.loads(err)["error"]


def test_evaluate_csv_matches_its_json_cell_for_cell(tmp_path, sim_dir, capsys):
    out, _ = sim_dir
    data = ["--softmax", str(out / "softmax.sscg"), "--labels", str(out / "labels.sscg")]
    model = tmp_path / "model.json"
    assert _main(capsys, "calibrate", *data, "--out", str(model))[0] == 0
    paths = {"json": tmp_path / "metrics.json", "csv": tmp_path / "metrics.csv"}
    argv = ["evaluate", "--model", str(model), *data]
    assert main([*argv, "--out-json", str(paths["json"]), "--out-csv", str(paths["csv"])]) == 0
    summary = json.loads(capsys.readouterr().out)
    doc = json.loads(paths["json"].read_text())
    assert summary["report"] == doc
    assert sorted(doc) == sorted([
        "iou", "precision", "recall", "per_class_iou", "miou", "occupied_recall",
        "cov_gap", "avg_size", "per_class_coverage",
    ])
    classes = ["2", "3", "4", "5"]
    columns = ("per_class_iou", "per_class_coverage", "occupied_recall")
    assert all(list(doc[key]) == classes for key in columns)
    # the coverage and recall columns must be told apart by their values
    assert any(doc["per_class_coverage"][y] != doc["occupied_recall"][y] for y in classes)

    def cell(value):  # as the csv module writes it
        return "" if value is None else str(value)

    expected = [["row", "class", "iou", "coverage", "occupied_recall"]]
    expected += [["class", y, *(cell(doc[key][y]) for key in columns)] for y in classes]
    expected.append(["aggregate", "", *(cell(doc[k]) for k in ("iou", "cov_gap", "avg_size"))])
    with open(paths["csv"], newline="") as fh:
        assert list(csv.reader(fh)) == expected


def test_threads_flag_output_invariant(tmp_path, sim_dir):
    out, _ = sim_dir
    a = tmp_path / "a.sscg"
    b = tmp_path / "b.sscg"
    assert run_cli(
        "project", "--depth", str(out / "depth_est.sscg"), "--out", str(a), "--threads", "1"
    ).returncode == 0
    assert run_cli(
        "project", "--depth", str(out / "depth_est.sscg"), "--out", str(b), "--threads", "4"
    ).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_threads_flag_simulate_invariant(tmp_path, sim_dir):
    out, _ = sim_dir  # written with the default --threads 1
    again = tmp_path / "t4"
    r = run_cli("simulate", "--out-dir", str(again), "--seed", "21", "--threads", "4")
    assert r.returncode == 0, r.stderr
    for name in ("labels.sscg", "depth_gt.sscg", "depth_est.sscg", "softmax.sscg"):
        assert (again / name).read_bytes() == (out / name).read_bytes()


def test_threads_must_be_positive(tmp_path, sim_dir):
    out, _ = sim_dir
    r = run_cli(
        "project", "--depth", str(out / "depth_est.sscg"),
        "--out", str(tmp_path / "x.sscg"), "--threads", "0",
    )
    assert r.returncode == 2


def test_stdout_is_single_json_line(sim_dir, tmp_path):
    out, _ = sim_dir
    r = run_cli("simulate", "--out-dir", str(tmp_path / "s"), "--seed", "3")
    lines = [ln for ln in r.stdout.splitlines() if ln.strip()]
    assert len(lines) == 1
    json.loads(lines[0])


# ---------------------------------------------------------------------------
# malformed inputs end with a field-naming message, never a traceback


def _hcp_model_doc():
    rates = {"2": 0.1, "3": 0.1, "4": 0.1, "5": 0.4}
    return {
        "method": "hcp",
        "class_count": 5,
        "rare_set": [5],
        "epsilon": 0.01,
        "q_o": {"5": 0.5},
        "alpha_o": {"2": 0.05, "3": 0.05, "4": 0.05, "5": 0.3},
        "alpha_s": {"2": 0.05, "3": 0.05, "4": 0.05, "5": 0.14},
        "q_s": {"2": 0.2, "3": 0.2, "4": 0.2, "5": 0.6},
        "alpha_target": rates,
        "split": {"fraction": 0.3, "seed": 21},
    }


def _without(key):
    doc = _hcp_model_doc()
    del doc[key]
    return doc


def _scp_model_doc():
    return {"method": "scp", "class_count": 5, "alpha": 0.1, "q": 0.5,
            "split": {"fraction": 0.3, "seed": 21}}


def _cccp_model_doc():
    rates = {str(y): 0.1 for y in range(1, 6)}
    return {"method": "cccp", "class_count": 5, "alpha": rates, "q": dict.fromkeys(rates, 0.5),
            "split": {"fraction": 0.3, "seed": 21}}


_MALFORMED_MODELS = {
    "missing-q_s": (_without("q_s"), "q_s", 3),
    "method-list": ({**_hcp_model_doc(), "method": ["x"]}, "method", 3),
    "top-level-array": ([_hcp_model_doc()], "object", 3),
    "q_s-string": ({**_hcp_model_doc(), "q_s": "abc"}, "q_s", 3),
    "q_o-empty": ({**_hcp_model_doc(), "q_o": {}}, "q_o", 3),
    "rare_set-empty": ({**_hcp_model_doc(), "rare_set": [], "q_o": {}}, "rare_set", 3),
    "q_o-not-rare_set": ({**_hcp_model_doc(), "q_o": {"4": 0.5}}, "q_o", 3),
    "class_count-fraction": ({**_hcp_model_doc(), "class_count": 5.7}, "class_count", 3),
    "rare_set-fraction": ({**_hcp_model_doc(), "rare_set": [5.5]}, "rare_set", 3),
    # the recorded split is configuration, like an out-of-range fraction (exit 2)
    "split-string": ({**_hcp_model_doc(), "split": "x"}, "split", 2),
    "split-fraction-string": ({**_hcp_model_doc(), "split": {"fraction": "x"}}, "split", 2),
    "split-seed-negative": ({**_hcp_model_doc(), "split": {"seed": -1}}, "split.seed", 2),
    # a model no calibrator could have written: each rate map is checked as in HcpConfig
    "alpha_target-5": (
        {**_hcp_model_doc(), "alpha_target": {"2": 5.0, "3": 0.1, "4": 0.1, "5": 0.4}},
        "model: alpha_target[2] must be in (0, 1)", 3,
    ),
    "rare_set-9": (
        {**_hcp_model_doc(), "rare_set": [9], "q_o": {"9": 0.5}}, "model: rare_set [9]", 3
    ),
    "epsilon-2": ({**_hcp_model_doc(), "epsilon": 2.0}, "model: epsilon", 3),
    "alpha_s-negative": (
        {**_hcp_model_doc(), "alpha_s": {"2": -0.1, "3": 0.05, "4": 0.05, "5": 0.14}},
        "model: alpha_s[2] must be in [0, 1]", 3,
    ),
    "scp-alpha-7": ({**_scp_model_doc(), "alpha": 7.0}, "model: alpha must be in (0, 1)", 3),
    "cccp-alpha-without-1": (
        {**_cccp_model_doc(), "alpha": {str(y): 0.1 for y in range(2, 6)}},
        "model: alpha must cover exactly classes 1..5, got extra [], missing [1]", 3,
    ),
    "cccp-class_count-1": (
        {**_cccp_model_doc(), "class_count": 1}, "model: class_count must be at least 2", 3
    ),
    # without its split the model's test voxels are unknown
    "split-missing": (_without("split"), "model.split.seed is missing", 2),
    "split-fraction-missing": (
        {**_hcp_model_doc(), "split": {"seed": 21}}, "model.split.fraction is missing", 2
    ),
    "split-seed-missing": (
        {**_hcp_model_doc(), "split": {"fraction": 0.3}}, "model.split.seed is missing", 2
    ),
    "split-seed-string": (
        {**_hcp_model_doc(), "split": {"fraction": 0.3, "seed": "21"}},
        "model.split.seed is malformed: '21' is not an integer", 2,
    ),
    "split-fraction-1.5": (
        {**_hcp_model_doc(), "split": {"fraction": 1.5, "seed": 21}},
        "model.split: fraction must be in (0, 1), got 1.5", 2,
    ),
    # a quantile is a number or +inf: the gate or a set test against -inf
    # or NaN passes nothing
    "q_s-minus-inf": (
        {**_hcp_model_doc(), "q_s": {"2": 0.2, "3": "-inf", "4": 0.2, "5": 0.6}},
        "model: q_s[3] must be a number or +inf, got -inf", 3,
    ),
    "scp-q-minus-inf": (
        {**_scp_model_doc(), "q": "-inf"}, "model: q must be a number or +inf, got -inf", 3
    ),
    "cccp-q-nan": (
        {**_cccp_model_doc(), "q": {**_cccp_model_doc()["q"], "3": math.nan}},
        "model.q[3] is malformed: nan is not a number", 3,
    ),
}


def _main(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(_MALFORMED_MODELS))
def test_malformed_model_json_exits_with_field_message(tmp_path, sim_dir, capsys, case):
    out, _ = sim_dir
    doc, field, exit_code = _MALFORMED_MODELS[case]
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    code, err = _main(
        capsys,
        "evaluate",
        "--model", str(model_path),
        "--softmax", str(out / "softmax.sscg"),
        "--labels", str(out / "labels.sscg"),
    )
    assert code == exit_code, err
    assert field in json.loads(err)["error"]
    assert "Traceback" not in err


_GEOMETRY = {"dims": [64, 64, 16], "voxel_edge": 0.2, "origin": [-11.2, -6.4, 0.4]}

# each JSON form that decode refuses, in a config (exit 2) and in a model
# (exit 3): form -> (config, its field, model, its field)
_REFUSED_FORMS = {
    "bool": ({"seed": True}, "seed", {**_hcp_model_doc(), "q_o": {"5": True}}, "model.q_o[5]"),
    "numeric-string": (
        {"seed": "7"}, "seed", {**_scp_model_doc(), "q": "0.5"}, "model.q"
    ),
    "nan-string": (
        {"noise": {"a": "nan"}}, "noise.a",
        {**_hcp_model_doc(), "q_o": {"5": "nan"}}, "model.q_o[5]",
    ),
    "json-nan": (
        {"split_fraction": math.nan}, "split_fraction",
        {**_hcp_model_doc(), "epsilon": math.nan}, "model.epsilon",
    ),
    "Infinity-string": (
        {"noise": {"b": "Infinity"}}, "noise.b",
        {**_hcp_model_doc(), "q_s": {"2": "Infinity", "3": 0.2, "4": 0.2, "5": 0.6}},
        "model.q_s[2]",
    ),
    "zero-padded-key": (
        {"scene": {"class_mix": {"2": 0.0156, "3": 0.03, "4": 0.0164, "05": 0.007}}},
        "scene.class_mix",
        {**_hcp_model_doc(), "alpha_target": {"2": 0.1, "3": 0.1, "4": 0.1, "05": 0.4}},
        "model.alpha_target",
    ),
    "string-array-element": (
        {"geometry": {**_GEOMETRY, "dims": ["64", 64, 16]}}, "geometry.dims[0]",
        {**_hcp_model_doc(), "rare_set": ["5"]}, "model.rare_set[0]",
    ),
}


@pytest.mark.parametrize("form", sorted(_REFUSED_FORMS))
def test_a_refused_json_form_exits_naming_the_field(tmp_path, sim_dir, capsys, form):
    config, config_field, model, model_field = _REFUSED_FORMS[form]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, err = _main(capsys, "calibrate", "--config", str(cfg), *_required("calibrate", tmp_path))
    assert code == 2, err
    assert json.loads(err)["error"].startswith(f"{config_field} is malformed: "), err
    out, _ = sim_dir
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    data = ["--softmax", str(out / "softmax.sscg"), "--labels", str(out / "labels.sscg")]
    code, err = _main(capsys, "evaluate", "--model", str(path), *data)
    assert code == 3, err
    assert json.loads(err)["error"].startswith(f"{model_field} is malformed: "), err


@pytest.mark.parametrize("method", ["scp", "cccp", "hcp"])
def test_every_model_calibrate_writes_loads(tmp_path, sim_dir, capsys, method):
    out, _ = sim_dir
    model_path = tmp_path / "model.json"
    data = ["--softmax", str(out / "softmax.sscg"), "--labels", str(out / "labels.sscg")]
    code, err = _main(capsys, "calibrate", *data, "--method", method, "--out", str(model_path))
    assert code == 0, err
    extra = {}
    model = load_model(model_path, extra=extra)
    assert type(model).__name__ == f"{method.capitalize()}Model"
    assert extra == {"split": {"fraction": 0.3, "seed": 0}}


def test_config_json_array_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, err = _main(capsys, "simulate", "--out-dir", str(tmp_path / "o"), "--config", str(cfg))
    assert code == 2
    assert "object" in json.loads(err)["error"]


def test_config_non_numeric_noise_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": {"a": "x"}}))
    code, err = _main(capsys, "simulate", "--out-dir", str(tmp_path / "o"), "--config", str(cfg))
    assert code == 2
    assert "noise.a" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"geometry": []}, "geometry"),
        ({"hcp": {"rare_set": [5], "alpha_o": [1], "alpha_target": {}}}, "hcp.alpha_o"),
        ({"hcp": {"rare_set": [5], "alpha_o": [0] * 100_000, "alpha_target": {}}}, "hcp.alpha_o"),
    ],
)
def test_config_section_of_wrong_type_is_config_error(tmp_path, capsys, doc, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, err = _main(capsys, "simulate", "--out-dir", str(tmp_path / "o"), "--config", str(cfg))
    assert code == 2
    assert field in json.loads(err)["error"]
    assert len(err) < 200  # a large value is shown shortened


def _required(command, tmp_path):
    """Required flags of ``command``; its data files do not exist, so only
    the config is read."""
    missing = str(tmp_path / "missing.sscg")
    return {
        "simulate": ["--out-dir", str(tmp_path / "o")],
        "calibrate": ["--softmax", missing, "--labels", missing, "--out", str(tmp_path / "m")],
        "sweep": ["--softmax", missing, "--labels", missing, "--targets", "0.5"],
    }[command]


@pytest.mark.parametrize(
    "command, flags, doc, field",
    [
        ("simulate", ["--seed", "-1"], None, "seed"),
        ("calibrate", ["--seed", "-3"], None, "seed"),
        ("sweep", ["--seed", str(2**64)], None, "seed"),
        ("simulate", [], {"seed": -1}, "seed"),
        ("simulate", [], {"seed": 1e30}, "seed"),
        ("simulate", [], {"scene": {"seed": -5}}, "scene.seed"),
        ("simulate", [], {"classifier": {"seed": 2**64}}, "classifier.seed"),
    ],
)
def test_seed_outside_uint64_is_config_error(tmp_path, capsys, command, flags, doc, field):
    if doc is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        flags = [*flags, "--config", str(cfg)]
    code, err = _main(capsys, command, *flags, *_required(command, tmp_path))
    assert code == 2, err
    assert json.loads(err)["error"].startswith(f"{field} ")


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"seed": 1.5}, "seed"),
        ({"scene": {"seed": 0.5}}, "scene.seed"),
        ({"seed": float("inf")}, "seed"),
        ({"geometry": {"dims": [64.9, 64, 16], "voxel_edge": 0.2}}, "geometry.dims[0]"),
        ({"scene": {"class_count": 5.5}}, "scene.class_count"),
        (
            {"hcp": {"rare_set": [5.5], "alpha_o": {"5": 0.3}, "alpha_target": {}}},
            "hcp.rare_set[0]",
        ),
    ],
)
def test_non_integer_in_integer_field_is_config_error(tmp_path, capsys, doc, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = ["calibrate", "--config", str(cfg), *_required("calibrate", tmp_path)]
    code, err = _main(capsys, *argv)
    assert code == 2, err
    assert json.loads(err)["error"].startswith(f"{field} ")


_NAN_CONFUSION = [*np.eye(5)[:4].tolist(), [float("nan"), 0.05, 0.05, 0.25, 0.5]]
_INF_TEMPLATES = [dataclasses.asdict(t) for t in PipelineConfig.default().scene.templates]
_INF_TEMPLATES[1]["size"] = [[2.0, float("inf")], [1.0, 2.0], [1.0, 2.0]]
_INTRINSICS = {"f_u": 24.0, "f_v": 24.0, "c_h": 31.5, "c_w": 31.5, "height": 64, "width": 64}


@pytest.mark.parametrize(
    "doc, names",
    [
        ({"noise": {"a": "nan"}}, ["noise.a"]),
        ({"noise": {"a": "inf"}}, ["noise.a"]),
        # a NaN row passes a check that its sum is not far from 1
        ({"classifier": {"confusion": _NAN_CONFUSION}}, ["classifier", "confusion"]),
        ({"classifier": {"sharpness": "inf"}}, ["classifier", "sharpness"]),
        ({"classifier": {"temperature": float("inf")}}, ["classifier", "temperature"]),
        # too large for a float
        ({"split_fraction": 10**400}, ["split_fraction"]),
        # a NaN fraction passes checks that it is negative or sums above 1
        (
            {"scene": {"class_mix": {"2": 0.0156, "3": 0.03, "4": 0.0164, "5": float("nan")}}},
            ["scene", "class_mix"],
        ),
        ({"intrinsics": {**_INTRINSICS, "f_u": "inf"}}, ["intrinsics", "f_u"]),
        ({"scene": {"templates": _INF_TEMPLATES}}, ["scene.templates[1]", "size"]),
    ],
)
def test_config_number_that_is_not_a_finite_float_is_config_error(tmp_path, capsys, doc, names):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = ["calibrate", "--config", str(cfg), *_required("calibrate", tmp_path)]
    code, err = _main(capsys, *argv)
    assert code == 2, err
    message = json.loads(err)["error"]
    assert all(name in message for name in names), message


_HCP = {"rare_set": [5], "alpha_o": {"5": 0.3}}


@pytest.mark.parametrize(
    "flags, doc, field",
    [
        ([], {"hcp": {**_HCP, "alpha_target": {"2": 0.1, "3": 0.1, "4": 0.1, "5": 0.4, "9": 0.1}}},
         "hcp: alpha_target"),
        ([], {"hcp": {**_HCP, "alpha_target": {"1": 0.1, "2": 0.1, "3": 0.1, "4": 0.1, "5": 0.4}}},
         "hcp: alpha_target"),
        (["--alpha-target", "9=0.1"], None, "alpha_target"),
    ],
    ids=["config-key-9", "config-key-1", "flag-key-9"],
)
def test_alpha_target_outside_the_nonempty_classes_is_config_error(
    tmp_path, capsys, flags, doc, field
):
    if doc is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        flags = [*flags, "--config", str(cfg)]
    code, err = _main(capsys, "calibrate", *flags, *_required("calibrate", tmp_path))
    assert code == 2, err
    message = json.loads(err)["error"]
    assert message.startswith(field) and "2..5" in message, message


def test_alpha_o_outside_the_rare_set_is_config_error(tmp_path, capsys):
    argv = ["calibrate", *_required("calibrate", tmp_path)]
    code, err = _main(capsys, *argv, "--alpha-o", "car=0.2")
    assert code == 2, err
    assert "[4]" in json.loads(err)["error"]
    # a new rare set still drops the config's rate for the old one
    args = build_parser().parse_args([*argv, "--rare", "car", "--alpha-o", "car=0.2"])
    assert _apply_overrides(PipelineConfig.default(), args).hcp.alpha_o == {4: 0.2}


def test_a_config_whose_classifier_does_not_match_the_scene_exits_before_simulating(
    tmp_path, capsys
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scene": {"class_count": 6}}))
    out = tmp_path / "o"
    code, err = _main(capsys, "simulate", "--config", str(cfg), "--out-dir", str(out))
    assert code == 2, err
    assert json.loads(err)["error"] == "classifier has 5 classes, scene.class_count 6"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["calibrate", "--method", m] for m in ("scp", "cccp", "hcp")]
                         + [["sweep"]])
def test_a_six_class_config_without_hcp_names_the_hcp_default(tmp_path, sim_dir, capsys, argv):
    # scp would run on the default section's 5-class rates, silently missing class 6
    out, _ = sim_dir
    confusion = np.full((6, 6), 0.02) + np.eye(6) * 0.88
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scene": {"class_count": 6}, "classifier": {
        "confusion": confusion.tolist(), "sharpness": 3.0, "temperature": 1.5}}))
    data = ["--softmax", str(out / "softmax.sscg"), "--labels", str(out / "labels.sscg")]
    rest = ["--out", str(tmp_path / "m.json")] if argv[0] == "calibrate" else ["--targets", "0.5"]
    code, err = _main(capsys, *argv, "--config", str(cfg), *data, *rest)
    assert code == 2, err
    assert json.loads(err)["error"] == "hcp has 5 classes, scene.class_count 6"


# ---------------------------------------------------------------------------
# one class-count rule: "<what> has <m> classes, <other> <n>", exit 3

_THREE_CLASS_CONFIG = {
    "scene": {
        "class_count": 3,
        "class_mix": {"2": 0.0156, "3": 0.03},
        "templates": [
            {"class_id": 2, "kind": "slab", "size": [[0.2, 0.2], [12.8, 12.8], [3.2, 3.2]]},
            {"class_id": 3, "kind": "box", "size": [[2.0, 3.0], [1.0, 2.0], [1.0, 2.0]]},
        ],
    },
    "classifier": {
        "confusion": [[0.96, 0.03, 0.01], [0.03, 0.94, 0.03], [0.03, 0.03, 0.94]],
        "sharpness": 3.0,
        "temperature": 1.5,
    },
    "hcp": {"rare_set": [3], "alpha_o": {"3": 0.3}, "alpha_target": {"2": 0.1, "3": 0.1}},
}


@pytest.fixture(scope="module")
def three_class_dir(tmp_path_factory):
    """A 3-class simulate output, its config, and an hcp model of it."""
    out = tmp_path_factory.mktemp("three")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps(_THREE_CLASS_CONFIG))
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    data = ["--softmax", str(out / "softmax.sscg"), "--labels", str(out / "labels.sscg")]
    assert main(["calibrate", "--config", str(cfg), *data, "--out", str(out / "hcp.json")]) == 0
    return out


@pytest.mark.parametrize("argv", [["calibrate", "--method", m] for m in ("scp", "cccp", "hcp")]
                         + [["sweep", "--targets", "0.5,0.9"]])
def test_a_softmax_of_other_classes_than_the_config_exits_3_and_writes_nothing(
    tmp_path, three_class_dir, capsys, argv
):
    # scp used to write a 3-class model at the 5-class config's rate
    softmax = three_class_dir / "softmax.sscg"
    out = tmp_path / "out"
    data = ["--softmax", str(softmax), "--labels", str(three_class_dir / "labels.sscg")]
    code, err = _main(capsys, *argv, *data, "--out", str(out))
    assert code == 3, err
    assert json.loads(err)["error"] == f"{softmax} has 3 classes, the config 5"
    assert not out.exists()


def test_a_model_of_other_classes_than_the_softmax_exits_3_and_writes_nothing(
    tmp_path, sim_dir, three_class_dir, capsys
):
    out, _ = sim_dir
    metrics = tmp_path / "metrics.json"
    code, err = _main(
        capsys,
        "evaluate",
        "--model", str(three_class_dir / "hcp.json"),
        "--softmax", str(out / "softmax.sscg"),
        "--labels", str(out / "labels.sscg"),
        "--out-json", str(metrics),
    )
    assert code == 3, err
    assert json.loads(err)["error"] == f"{out / 'softmax.sscg'} has 5 classes, the model 3"
    assert not metrics.exists()


@pytest.mark.parametrize("argv", [["calibrate", "--method", m] for m in ("scp", "cccp", "hcp")]
                         + [["sweep", "--targets", "0.5,0.9"]])
def test_a_softmax_of_other_classes_is_refused_before_any_row_is_read(
    tmp_path, three_class_dir, capsys, monkeypatch, argv
):
    def unread(self, index):
        raise AssertionError(f"softmax rows {index} were read")

    # the header's class count decides: the refusal is the same, unread
    monkeypatch.setattr(SoftmaxRows, "__getitem__", unread)
    test_a_softmax_of_other_classes_than_the_config_exits_3_and_writes_nothing(
        tmp_path, three_class_dir, capsys, argv
    )


def _guard_cases():
    from sscuq.conformal import CalibrationSet, ScpModel, hcp_calibrate
    from sscuq.grids import LabelGrid, SoftmaxGrid, check_aligned
    from sscuq.metrics import recall_iou_sweep
    from sscuq.synth import default_classifier_spec, synth_classifier

    labels = 1 + np.arange(24) % 3
    probs, five = np.full((24, 3), 1 / 3), np.full((24, 5), 0.2)
    cal = CalibrationSet(probs, labels)
    hcp = PipelineConfig.default().hcp
    world = LabelGrid(labels.reshape(2, 3, 4), class_count=3)
    return {
        "check_aligned": (
            lambda: check_aligned(SoftmaxGrid(probs.reshape(2, 3, 4, 3)),
                                  LabelGrid(labels.reshape(2, 3, 4), class_count=5)),
            "softmax has 3 classes, labels 5",
        ),
        "hcp_calibrate": (lambda: hcp_calibrate(cal, hcp), "calibration has 3 classes, config 5"),
        "model.predict": (
            lambda: ScpModel(class_count=4, alpha=0.1, q=0.5).predict(five),
            "softmax has 5 classes, model 4",
        ),
        "recall_iou_sweep": (
            lambda: recall_iou_sweep(probs, labels, labels > 0, cal, hcp, "kl", [0.5]),
            "softmax has 3 classes, config 5",
        ),
        "synth_classifier": (
            lambda: synth_classifier(world, default_classifier_spec(0)),
            "classifier has 5 classes, world 3",
        ),
    }


@pytest.mark.parametrize("guard", ["check_aligned", "hcp_calibrate", "model.predict",
                                   "recall_iou_sweep", "synth_classifier"])
def test_each_library_class_count_guard_gives_the_one_message(guard):
    from sscuq.grids import ValidationError

    call, message = _guard_cases()[guard]
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
    assert re.fullmatch(r"\w+ has \d+ classes, \w+ \d+", str(info.value))


@pytest.mark.parametrize(
    "text, flags, message",
    [
        ('{"seed": "7"}', [], "seed is malformed: '7' is not an integer"),
        ("[1, 2]", [], "config {cfg} must be a JSON object, got list"),
        ('{"noise": {"a": -1}}', [],
         "noise.a and noise.b must be finite and >= 0 with a positive sum"),
        ("{}", ["--alpha-o", "car=0.2"],
         "alpha_o must cover exactly classes [5], got extra [4], missing []"),
        ("{}", ["--split", "1.2"], "split_fraction must be in (0, 1), got 1.2"),
    ],
    ids=["decode", "read-json", "section-rule", "alpha-o-flag", "split-flag"],
)
def test_a_failure_while_the_config_is_built_exits_2_with_its_message(
    tmp_path, capsys, text, flags, message
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    argv = ["calibrate", "--config", str(cfg), *flags, *_required("calibrate", tmp_path)]
    code, err = _main(capsys, *argv)
    assert json.loads(err) == {"error": message.format(cfg=cfg), "exit": 2}
    assert code == 2


def test_the_library_raises_validation_error_for_a_malformed_config_value():
    with pytest.raises(ValidationError) as info:
        pipeline.split_mask(10, 1.5, 0)
    assert str(info.value) == "split_fraction must be in (0, 1), got 1.5"
    with pytest.raises(ValidationError, match=r"^split_fraction must be in \(0, 1\), got 1.5$"):
        dataclasses.replace(PipelineConfig.default(), split_fraction=1.5)
    with pytest.raises(ValidationError, match=r"^noise\.a and noise\.b must be finite"):
        PipelineConfig.from_json_dict({"noise": {"b": math.inf}})


def test_integral_float_in_integer_field_is_accepted():
    geometry = {"dims": [64.0, 64, 16], "voxel_edge": 0.2, "origin": [0, 0, 0]}
    cfg = PipelineConfig.from_json_dict({"seed": 2.0, "geometry": geometry})
    assert cfg.seed == 2 and type(cfg.seed) is int
    assert cfg.geometry.dims == (64, 64, 16)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_every_config_section_and_the_split_encode_as_they_decode(seed):
    cfg = PipelineConfig.default(seed)
    hints = typing.get_type_hints(PipelineConfig)
    values = [(hints[f.name], getattr(cfg, f.name)) for f in dataclasses.fields(cfg)]
    for hint, value in [*values, (_Split, _Split(seed, 0.3))]:
        doc = encode(value)
        assert json.loads(json.dumps(doc, allow_nan=False)) == doc  # strict JSON
        assert encode(decode(hint, doc, "config")) == doc


def _readme_config() -> dict:
    """The config of README's "Config schema" section, comments removed."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config schema", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    return json.loads(re.sub(r"//.*", "", block))


def _assert_same(a, b, where="config"):
    """Field by field equality of two configs; arrays by value and dtype."""
    assert type(a) is type(b), where
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), where
    elif isinstance(a, tuple):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{i}]")
    else:
        assert a == b, where


def test_documented_config_schema_decodes_to_the_defaults():
    doc = _readme_config()
    _assert_same(PipelineConfig.from_json_dict(doc), PipelineConfig.default())
    # the scene's geometry is the top-level one and the HCP class count the
    # scene's; keys outside the schema are ignored
    other = {"dims": [2, 2, 2], "voxel_edge": 1.0, "origin": [0, 0, 0]}
    doc["scene"]["geometry"] = other
    doc["hcp"]["class_count"] = 9
    for section in (doc, doc["noise"], doc["geometry"], doc["intrinsics"], doc["scene"],
                    *doc["scene"]["templates"], doc["classifier"], doc["hcp"]):
        section["unknown"] = other
    _assert_same(PipelineConfig.from_json_dict(doc), PipelineConfig.default())


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_the_default_config_is_the_decode_of_its_seed_alone(seed):
    cfg = PipelineConfig.default(seed)
    _assert_same(cfg, PipelineConfig.from_json_dict({"seed": seed}))
    # each default is a field default of its section's type
    _assert_same(SceneSpec(default_geometry(), seed=seed), default_scene_spec(seed), "scene")
    _assert_same(ClassifierSpec(seed=seed), default_classifier_spec(seed), "classifier")
    # README's documented values are those defaults at any seed
    doc = _readme_config()
    for section in (doc, doc["scene"], doc["classifier"]):
        section["seed"] = seed
    _assert_same(PipelineConfig.from_json_dict(doc), cfg)


def test_a_noise_section_defaults_field_by_field():
    assert PipelineConfig.from_json_dict({"noise": {"b": 0.1}}).noise == DepthNoise(0.03, 0.1)
    for noise, message in (
        ([], "noise must be an object, got list"),
        ({"a": "x"}, "noise.a is malformed: 'x' is not a number"),
    ):
        with pytest.raises(ValidationError) as info:
            PipelineConfig.from_json_dict({"noise": noise})
        assert str(info.value) == message


def test_simulate_of_the_documented_config_writes_the_default_files(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_readme_config()))
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "doc")]) == 0
    assert main(["simulate", "--out-dir", str(tmp_path / "default")]) == 0
    for name in ("labels.sscg", "depth_gt.sscg", "depth_est.sscg", "softmax.sscg"):
        assert (tmp_path / "doc" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


# 2**59 uint16 labels are 1 EiB, more than any 57-bit address space maps: the
# allocation fails at once whatever the overcommit policy and touches no memory
_UNBUILDABLE_SCENES = {
    "1 EiB of labels": (
        {"dims": [1048576, 1048576, 524288], "voxel_edge": 0.2, "origin": [0, 0, 0]},
        "Unable to allocate 1.00 EiB",
    ),
    "subnormal voxel edge": (
        {"dims": [64, 64, 16], "voxel_edge": 1e-320, "origin": [0, 0, 0]},
        "0.2 m spans too many voxels of edge 1e-320 m",
    ),
    "grid too small": (
        {"dims": [4, 4, 4], "voxel_edge": 0.2, "origin": [0, 0, 0]},
        "template for class 3 cannot fit its target",
    ),
}


@pytest.mark.parametrize("case", sorted(_UNBUILDABLE_SCENES))
def test_a_scene_that_cannot_be_built_exits_3_and_writes_nothing(tmp_path, capsys, case):
    geometry, message = _UNBUILDABLE_SCENES[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geometry": geometry}))
    out = tmp_path / "o"
    code, err = _main(capsys, "simulate", "--config", str(cfg), "--out-dir", str(out))
    assert code == 3, err
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith(message)
    assert not out.exists()


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe{}")
    argv = ["calibrate", "--config", str(cfg), *_required("calibrate", tmp_path)]
    code, err = _main(capsys, *argv)
    assert code == 2, err
    assert str(cfg) in json.loads(err)["error"]


def test_deeply_nested_config_and_model_exit_with_a_message(tmp_path, sim_dir, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = ["calibrate", "--config", str(deep), *_required("calibrate", tmp_path)]
    code, err = _main(capsys, *argv)
    assert code == 2, err
    assert str(deep) in json.loads(err)["error"]
    out, _ = sim_dir
    data = ["--softmax", str(out / "softmax.sscg"), "--labels", str(out / "labels.sscg")]
    code, err = _main(capsys, "evaluate", "--model", str(deep), *data)
    assert code == 3, err
    assert str(deep) in json.loads(err)["error"]
    # an array field that JSON parses but that is nested too deep for an array
    origin = 0.0
    for _ in range(900):
        origin = [origin]
    deep.write_text(json.dumps({"geometry": {**_GEOMETRY, "origin": origin}}))
    code, err = _main(capsys, "calibrate", "--config", str(deep), *_required("calibrate", tmp_path))
    assert code == 2, err
    assert json.loads(err)["error"].startswith("geometry.origin is malformed: ")


def test_config_or_model_that_is_not_an_object_names_its_file(tmp_path, sim_dir, capsys):
    listed = tmp_path / "listed.json"
    listed.write_text("[1]")
    argv = ["calibrate", "--config", str(listed), *_required("calibrate", tmp_path)]
    code, err = _main(capsys, *argv)
    assert code == 2, err
    assert f"config {listed} must be a JSON object, got list" in json.loads(err)["error"]
    out, _ = sim_dir
    data = ["--softmax", str(out / "softmax.sscg"), "--labels", str(out / "labels.sscg")]
    code, err = _main(capsys, "evaluate", "--model", str(listed), *data)
    assert code == 3, err
    assert f"model {listed} must be a JSON object, got list" in json.loads(err)["error"]


@pytest.mark.parametrize("pairs", [1, 2, 4])
def test_template_size_needs_three_pairs(tmp_path, capsys, pairs):
    template = {"class_id": 3, "kind": "box", "size": [[2.0, 3.0]] * pairs}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scene": {"templates": [template]}}))
    code, err = _main(capsys, "simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
    assert code == 2, err
    message = json.loads(err)["error"]
    assert "scene.templates[0]" in message and "size" in message


def test_geometry_alone_builds_the_scene_on_that_geometry(tmp_path, capsys):
    geometry = {"dims": [64, 32, 16], "voxel_edge": 0.2, "origin": [-11.2, -6.4, 0.4]}
    for name, scene in (("alone", {}), ("scene", {"scene": {}})):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"geometry": geometry, **scene}))
        out = str(tmp_path / name)
        code, err = _main(capsys, "simulate", "--config", str(cfg), "--out-dir", out)
        assert code == 0, err
    alone, scene = tmp_path / "alone", tmp_path / "scene"
    assert read_grid(alone / "labels.sscg").dims == (64, 32, 16)
    for name in ("labels.sscg", "depth_gt.sscg", "depth_est.sscg", "softmax.sscg"):
        assert (alone / name).read_bytes() == (scene / name).read_bytes()


def _truncated_copy(src: Path, dst: Path) -> Path:
    """``src`` cut 10 bytes into its payload: reading the payload fails."""
    data = src.read_bytes()
    dst.write_bytes(data[: 16 + int.from_bytes(data[8:16], "little") + 10])
    return dst


@pytest.mark.parametrize("binary", [[], ["--binary"]])
def test_project_of_a_grid_that_is_no_depth_map_names_its_kind(tmp_path, sim_dir, capsys, binary):
    out, _ = sim_dir
    # the header alone decides: a truncated payload would raise TruncationError
    # if the payload of a wrong-kind container were read
    grid = _truncated_copy(out / "softmax.sscg", tmp_path / "grid.sscg")
    out_path = tmp_path / "p.sscg"
    code, err = _main(capsys, "project", *binary, "--depth", str(grid), "--out", str(out_path))
    assert code == 3, err
    wanted = "depth_estimate or depth" if binary else "depth_estimate"
    assert json.loads(err)["error"] == f"{grid} holds a softmax container, not {wanted}"
    assert not out_path.exists()


# a file a command leaves open fails the test that ran it
closes_its_files = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)


def _softmax_commands(data, model, out):
    """argv of calibrate, evaluate and sweep on ``data``, each writing ``out``."""
    return {
        "calibrate": ["calibrate", *data, "--out", out],
        "evaluate": ["evaluate", "--model", model, *data, "--out-json", out],
        "sweep": ["sweep", *data, "--targets", "0.5,0.9", "--out", out],
    }


@closes_its_files
@pytest.mark.parametrize("command", ["calibrate", "evaluate", "sweep"])
def test_a_softmax_that_shrinks_after_it_is_opened_exits_3_and_writes_nothing(
    tmp_path, sim_dir, capsys, monkeypatch, command
):
    out, _ = sim_dir
    softmax = tmp_path / "softmax.sscg"
    softmax.write_bytes((out / "softmax.sscg").read_bytes())
    data = ["--softmax", str(softmax), "--labels", str(out / "labels.sscg")]
    model = str(tmp_path / "hcp.json")
    assert main(["calibrate", *data, "--out", model]) == 0
    opened = pipeline.read_grid

    def read_then_shrink(path, *kinds, **options):
        grid = opened(path, *kinds, **options)
        if kinds == ("softmax",):  # the file is open and checked: cut its last block
            os.truncate(path, os.path.getsize(path) - 100)
        return grid

    monkeypatch.setattr(pipeline, "read_grid", read_then_shrink)
    written = tmp_path / "written"
    code, err = _main(capsys, *_softmax_commands(data, model, str(written))[command])
    assert code == 3, err
    # 64 x 64 x 16 voxels: the fourth block of 16,384 rows is 100 bytes short
    assert json.loads(err)["error"] == "rows 49152..65535: read 327580 of 327680 bytes"
    assert not written.exists()


@closes_its_files
@pytest.mark.parametrize("labels, exit_code", [("labels", 0), ("depth_est", 3), ("missing", 3)])
def test_each_command_closes_the_softmax_file(tmp_path, sim_dir, capsys, labels, exit_code):
    out, _ = sim_dir
    data = ["--softmax", str(out / "softmax.sscg"), "--labels", str(out / f"{labels}.sscg")]
    model = str(tmp_path / "hcp.json")
    good = ["--softmax", str(out / "softmax.sscg"), "--labels", str(out / "labels.sscg")]
    assert main(["calibrate", *good, "--out", model]) == 0
    for command, argv in _softmax_commands(data, model, str(tmp_path / "written")).items():
        code, err = _main(capsys, *argv)
        assert code == exit_code, (command, err)
    gc.collect()  # a file left open in a reference cycle warns here


@pytest.mark.parametrize(
    "case", ["evaluate --model", "calibrate --softmax", "calibrate --config", "calibrate --out"]
)
def test_a_directory_given_as_a_path_is_a_data_error(tmp_path, sim_dir, capsys, case):
    out, _ = sim_dir
    command, flag = case.split()
    flags = {"--softmax": str(out / "softmax.sscg"), "--labels": str(out / "labels.sscg")}
    flags["--model" if command == "evaluate" else "--out"] = str(tmp_path / "m.json")
    flags[flag] = str(tmp_path)  # an existing directory
    code, err = _main(capsys, command, *(item for pair in flags.items() for item in pair))
    assert code == 3, err
    error = json.loads(err)
    assert error["exit"] == 3 and "Is a directory" in error["error"]
    # the path is the one given, not the temporary file of a write, and
    # a failed write leaves no temporary file behind
    assert error["error"] == f"[Errno 21] Is a directory: '{tmp_path}'"
    assert list(tmp_path.iterdir()) == []


_HCP_ONLY = {"--rare": "5", "--alpha-o": "person=0.2", "--epsilon": "0.5"}


@pytest.mark.parametrize("method", ["scp", "cccp"])
@pytest.mark.parametrize("flag", sorted(_HCP_ONLY))
def test_an_hcp_only_flag_with_another_method_is_config_error(tmp_path, capsys, method, flag):
    argv = ["calibrate", "--method", method, flag, _HCP_ONLY[flag]]
    code, err = _main(capsys, *argv, *_required("calibrate", tmp_path))
    assert code == 2, err
    assert json.loads(err)["error"] == f"{flag} applies only to --method hcp, not {method}"
    assert not (tmp_path / "m").exists()


def _choices(command: str, dest: str):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == dest)


def test_method_and_score_choices_are_the_tables_keys():
    assert list(_choices("calibrate", "method")) == list(CALIBRATORS)
    assert list(_choices("sweep", "score")) == list(GATE_SCORES)
    # every method the CLI calibrates, the model codec writes and reads back
    assert CALIBRATORS.keys() == _MODEL_TYPES.keys()
    with pytest.raises(KeyError):  # before any file is read
        run_calibrate("missing.sscg", "missing.sscg", PipelineConfig.default(), "bogus", "m.json")


def test_scp_calibrates_at_the_strictest_class_target(tmp_path, sim_dir, capsys):
    out, _ = sim_dir
    data = ["--softmax", str(out / "softmax.sscg"), "--labels", str(out / "labels.sscg")]
    rates = ["--alpha-target", "2=0.2"]
    for y in (3, 4, 5):
        rates += ["--alpha-target", f"{y}=0.3"]
    for name, flags, alpha in (("mixed", rates, 0.2), ("default", [], 0.1)):
        model = tmp_path / f"{name}.json"
        code, err = _main(capsys, "calibrate", "--method", "scp", *data, *flags, "--out", str(model))
        assert code == 0, err
        assert json.loads(model.read_text())["alpha"] == alpha


def _limited_memory():
    # about 2 GB of address space: a per-class map over 10**9 classes fails
    # inside the child instead of exhausting the machine
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_a_class_count_above_65535_is_refused_before_any_per_class_map(tmp_path, sim_dir):
    out, _ = sim_dir
    data = ["--softmax", str(out / "softmax.sscg"), "--labels", str(out / "labels.sscg")]
    model = tmp_path / "model.json"
    model.write_text(json.dumps({**_hcp_model_doc(), "class_count": 10**9}))
    cfg = tmp_path / "cfg.json"
    hcp = {**_HCP, "alpha_target": {"2": 0.1, "3": 0.1, "4": 0.1, "5": 0.4}}
    cfg.write_text(json.dumps({"scene": {"class_count": 10**9}, "hcp": hcp}))
    for argv, code, field in (
        (["evaluate", "--model", str(model), *data], 3, "model: class_count"),
        (["calibrate", "--config", str(cfg), *data, "--out", str(tmp_path / "m.json")], 2,
         "scene: class_count"),
    ):
        r = subprocess.run([sys.executable, "-m", "sscuq", *argv], capture_output=True,
                           text=True, preexec_fn=_limited_memory)
        assert r.returncode == code, r.stderr
        assert json.loads(r.stderr)["error"].startswith(f"{field} must be at least")


# ---------------------------------------------------------------------------
# fuzzing: one field of a valid input replaced by a small JSON value, deleted,
# or given an unknown sibling.  Sizes stay small (integers within +-100)
# because a valid but huge config, say a 1e12-pixel image, is a real request
# the commands would try to allocate.

_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-100, 100)
    | st.floats(-100, 100)
    | st.sampled_from([float("nan"), float("inf"), float("-inf")])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["1", "2", "5", "x", ""]), inner, max_size=3),
    max_leaves=6,
)

_TINY_CONFIG = {
    "seed": 0,
    "split_fraction": 0.3,
    "noise": {"a": 0.03, "b": 0.06},
    "geometry": {"dims": [4, 4, 4], "voxel_edge": 0.2, "origin": [-0.4, -0.4, 0.4]},
    "intrinsics": {"f_u": 4.0, "f_v": 4.0, "c_h": 1.5, "c_w": 1.5, "height": 4, "width": 4},
    "scene": {
        "class_count": 5,
        "class_mix": {"2": 0.0156, "3": 0.03, "4": 0.0164, "5": 0.007},
        "templates": [
            {"class_id": 2, "kind": "slab", "size": [[0.2, 0.2], [0.8, 0.8], [0.8, 0.8]]},
            {"class_id": 5, "kind": "column", "size": [[0.2, 0.4], [0.2, 0.2], [0.2, 0.2]]},
        ],
        "seed": 0,
    },
    "classifier": {
        "confusion": np.eye(5).tolist(),
        "sharpness": [3.0, 3.2, 3.2, 3.2, 8.5],
        "temperature": 1.5,
        "seed": 0,
    },
    "hcp": {
        "rare_set": [5],
        "alpha_o": {"5": 0.3},
        "alpha_target": {"2": 0.1, "3": 0.1, "4": 0.1, "5": 0.4},
        "epsilon": 0.01,
    },
}


def _paths(doc, prefix=()):
    """Every key path into a JSON document, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutated(doc, path, op, value):
    """``doc`` with the item at ``path`` replaced by ``value``, deleted, or
    given an unknown sibling holding ``value`` (appended, in a list)."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "replace":
        parent[path[-1]] = value
    elif op == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent["unknown"] = value
    else:
        parent.append(value)
    return doc


@given(
    path=st.sampled_from(list(_paths(_TINY_CONFIG))),
    op=st.sampled_from(["replace", "delete", "add"]),
    value=_JSON_VALUES,
)
@settings(max_examples=150, deadline=None)
def test_fuzzed_config_exits_with_a_code(tmp_path_factory, path, op, value):
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(_mutated(_TINY_CONFIG, path, op, value)))
    code = main(["calibrate", "--config", str(cfg), *_required("calibrate", tmp)])
    assert code in (2, 3)  # the data files are missing


@pytest.fixture(scope="module")
def tiny_containers(tmp_path_factory):
    from sscuq.container import write_grid
    from sscuq.grids import DepthEstimate, LabelGrid, SoftmaxGrid
    from sscuq.synth import classify_labels, default_classifier_spec

    out = tmp_path_factory.mktemp("tiny")
    labels = 1 + np.arange(64).reshape(4, 4, 4) % 5
    probs = classify_labels(labels, default_classifier_spec(0)).astype(np.float32)
    depth = np.full((4, 4), 1.0)
    est = DepthEstimate(depth, np.full((4, 4), 0.1), np.ones((4, 4), bool))
    for name, grid in (
        ("labels", LabelGrid(labels, class_count=5)),
        ("softmax", SoftmaxGrid(probs.reshape(4, 4, 4, 5))),
        ("depth_est", est),
    ):
        write_grid(grid, out / f"{name}.sscg")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps({k: _TINY_CONFIG[k] for k in ("geometry", "intrinsics")}))
    return out


def _with_header_field(blob: bytes, key, value) -> bytes:
    head_len = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + head_len])
    head = json.dumps({**header, key: value}).encode()
    return blob[:8] + len(head).to_bytes(8, "little") + head + blob[16 + head_len :]


_HEADER_FIELDS = st.sampled_from(["kind", "dims", "dtype", "class_count", "voxel_edge", "origin"])


@given(name=st.sampled_from(["labels", "depth_est"]), key=_HEADER_FIELDS, value=_JSON_VALUES)
@settings(max_examples=150, deadline=None)
def test_fuzzed_container_header_exits_with_a_code(tiny_containers, name, key, value):
    src = tiny_containers
    bad = src / "fuzzed.sscg"
    bad.write_bytes(_with_header_field((src / f"{name}.sscg").read_bytes(), key, value))
    common = ["--config", str(src / "cfg.json")]
    if name == "labels":
        argv = ["calibrate", *common, "--softmax", str(src / "softmax.sscg"), "--labels", str(bad)]
        argv += ["--out", str(src / "model.json")]
    else:
        argv = ["project", "--binary", *common, "--depth", str(bad), "--out", str(src / "b.sscg")]
    assert main(argv) in (0, 2, 3, 4)


# ---------------------------------------------------------------------------
# start-up: no command loads scipy, the probabilistic projection included

_SCIPY_PROBE = """
import importlib.abc, json, sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import sscuq
from sscuq.cli import _apply_overrides, build_parser, main

print("probe", json.dumps(["import", 0, scipy_modules()]))
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    print("probe", json.dumps([" ".join(argv[:2]), code, scipy_modules()]))
"""


def test_no_command_loads_scipy(tmp_path):
    cfg = tmp_path / "cfg.json"
    geometry = {"dims": [64, 32, 16], "voxel_edge": 0.2, "origin": [-11.2, -6.4, 0.4]}
    camera = {"f_u": 16.0, "f_v": 16.0, "c_h": 7.5, "c_w": 7.5, "height": 16, "width": 16}
    cfg.write_text(json.dumps({"geometry": geometry, "intrinsics": camera}))
    sim, model = tmp_path / "sim", str(tmp_path / "model.json")
    depth = ["--depth", str(sim / "depth_est.sscg")]
    data = ["--softmax", str(sim / "softmax.sscg"), "--labels", str(sim / "labels.sscg")]
    steps = [
        ["simulate", "--out-dir", str(sim)],
        ["project", "--binary", *depth, "--out", str(tmp_path / "binary.sscg")],
        ["calibrate", "--method", "hcp", *data, "--out", model],
        ["evaluate", "--model", model, *data],
        ["sweep", "--score", "kl", "--targets", "0.5,0.8", *data],
        ["project", *depth, "--out", str(tmp_path / "prob.sscg")],
    ]
    steps = [[*step, "--config", str(cfg)] for step in steps]
    r = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(steps)], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    probes = [json.loads(line[6:]) for line in r.stdout.splitlines() if line.startswith("probe ")]
    assert [name for name, _, _ in probes] == [
        "import",
        "simulate --out-dir",
        "project --binary",
        "calibrate --method",
        "evaluate --model",
        "sweep --score",
        "project --depth",
    ]
    for name, code, loaded in probes:
        assert code == 0 and loaded == [], (name, code, loaded)
    assert (tmp_path / "prob.sscg").stat().st_size > 0

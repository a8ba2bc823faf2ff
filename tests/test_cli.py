import json
import subprocess
import sys

import numpy as np
import pytest

from sscuq.container import read_grid
from sscuq.grids import BinaryOccupancyGrid, ProbOccupancyGrid


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


_MALFORMED_MODELS = {
    "missing-q_s": (_without("q_s"), "q_s", 3),
    "method-list": ({**_hcp_model_doc(), "method": ["x"]}, "method", 3),
    "top-level-array": ([_hcp_model_doc()], "object", 3),
    "q_s-string": ({**_hcp_model_doc(), "q_s": "abc"}, "q_s", 3),
    "q_o-empty": ({**_hcp_model_doc(), "q_o": {}}, "q_o", 3),
    "rare_set-empty": ({**_hcp_model_doc(), "rare_set": [], "q_o": {}}, "rare_set", 3),
    "q_o-not-rare_set": ({**_hcp_model_doc(), "q_o": {"4": 0.5}}, "q_o", 3),
    # the recorded split is configuration, like an out-of-range fraction (exit 2)
    "split-string": ({**_hcp_model_doc(), "split": "x"}, "split", 2),
    "split-fraction-string": ({**_hcp_model_doc(), "split": {"fraction": "x"}}, "split", 2),
}


def _main(capsys, *argv):
    from sscuq.cli import main

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

"""The names the benchmark's tracer hooks into still exist in the package.

``benchmarks/tracer.py`` wraps package functions by name and reports a
name that no longer resolves as absent, with its metrics read as 0, and
it counts ray segments, calibration records and gate passes with the
package's public functions.  These tests fail when a change to the
package removes a traced name or breaks one of those counters, so a
per-layer metric cannot silently drop to 0.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402

from sscuq.cli import main  # noqa: E402
from sscuq.container import read_grid  # noqa: E402
from sscuq.grids import row_blocks  # noqa: E402
from sscuq.pipeline import PipelineConfig, split_mask  # noqa: E402
from sscuq.projection import _ray_segments, ray_direction  # noqa: E402


def test_every_traced_name_resolves_but_the_removed_predictors():
    absent = set()
    for path, attr, _, _ in tracer.TARGETS:
        owner = tracer._resolve(path)
        if owner is None or owner.__dict__.get(attr) is None:
            absent.add(f"{path}.{attr}")
    # the per-method predictors became one ``model.predict``, and rendering
    # casts its rays through projection, where ``_ray_segments`` is traced
    assert absent == {f"sscuq.pipeline.{m}_predict_batch" for m in ("scp", "cccp", "hcp")} | {
        "sscuq.synth._ray_segments"
    }


def test_default_simulate_traces_one_ray_segments_span_per_chunk(tmp_path):
    # 64 x 64 pixels, 1,024 rays per chunk: rendering's traversal stays
    # visible as projection.ray_segments, under synth.render_depth
    t = tracer.Tracer()
    assert t.command(tracer.ROOT_SPAN, main, ["simulate", "--out-dir", str(tmp_path)]) == 0
    names = [sp[0] for sp in t.spans]
    render = [i for i, name in enumerate(names) if name == "synth.render_depth"]
    assert len(render) == 1
    segments = [sp for sp in t.spans if sp[0] == "projection.ray_segments"]
    assert len(segments) == 4
    assert all(sp[3] == render[0] for sp in segments)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A default ``simulate`` and an HCP ``calibrate`` on its outputs."""
    out = tmp_path_factory.mktemp("traced")
    assert main(["simulate", "--seed", "3", "--out-dir", str(out / "sim")]) == 0
    sim = out / "sim"
    model = out / "hcp.json"
    data = ["--softmax", str(sim / "softmax.sscg"), "--labels", str(sim / "labels.sscg")]
    assert main(["calibrate", "--seed", "3", *data, "--out", str(model)]) == 0
    return sim, model


def test_segment_counts_match_one_batched_traversal(run):
    sim, _ = run
    cfg = PipelineConfig.default(3)
    rays, segments = tracer.segment_counts(str(sim / "depth_est.sscg"), cfg.intrinsics, cfg.geometry)
    est = read_grid(sim / "depth_est.sscg")
    dirs = ray_direction(*np.nonzero(est.valid_mask), cfg.intrinsics)
    assert rays == int(est.valid_mask.sum()) > 0
    assert segments == _ray_segments(dirs, cfg.geometry)[0].size > 0


def test_calibration_records_and_gate_counts(run):
    sim, model = run
    softmax, labels = str(sim / "softmax.sscg"), str(sim / "labels.sscg")
    records = tracer.calibration_records(softmax, labels, 0.3, 3)
    cal = split_mask(read_grid(labels).labels.size, 0.3, 3)
    assert records.shape == (5,) and np.all(records > 0)
    assert records.sum() == cal.sum()
    passed, tested = tracer.gate_counts(str(model), softmax, labels)
    assert tested == (~cal).sum()
    assert 0 < passed < tested


# the spans each command must open: a layer whose call leaves the namespace
# the tracer wraps would read 0 in the benchmark's per-layer metrics
_LAYERS = {
    "calibrate": {
        "container.read_grid", "pipeline.split_mask", "conformal.from_grids",
        "conformal.hcp_calibrate", "conformal.score_kl", "conformal.conformal_quantile",
        "conformal.save_model",
    },
    "evaluate": {
        "container.read_grid", "pipeline.split_mask", "conformal.load_model",
        "conformal.score_kl", "metrics.report",
    },
    "sweep": {
        "container.read_grid", "pipeline.split_mask", "conformal.from_grids",
        "conformal.score_kl", "conformal.conformal_quantile", "metrics.recall_iou_sweep",
    },
}


def test_each_command_opens_the_spans_of_the_layers_it_runs(run, tmp_path):
    sim, _ = run
    data = ["--softmax", str(sim / "softmax.sscg"), "--labels", str(sim / "labels.sscg")]
    model = str(tmp_path / "hcp.json")
    argvs = {
        "calibrate": ["calibrate", "--seed", "3", *data, "--method", "hcp", "--out", model],
        "evaluate": ["evaluate", "--model", model, *data],
        "sweep": ["sweep", "--seed", "3", *data, "--score", "kl", "--targets", "0.5,0.8"],
    }
    labels = read_grid(sim / "labels.sscg").flat()
    cal = split_mask(labels.size, 0.3, 3)
    blocks = list(row_blocks(labels.size))
    records = {"calibrate": cal.sum(), "sweep": (cal & (labels == 5)).sum() + (~cal).sum()}
    t = tracer.Tracer()
    for command, argv in argvs.items():
        assert t.command(tracer.ROOT_SPAN, main, argv) == 0
        names = [sp[0] for sp in t.spans if sp[4] == t.trace_id]
        assert _LAYERS[command] | {tracer.ROOT_SPAN, f"pipeline.{command}"} <= set(names)
        assert names.count("container.read_grid") == 2  # softmax and labels
        if command == "evaluate":
            # geometry, mIoU, cov_gap, avg_size and one occupied recall per nonempty class
            assert names.count("metrics.report") == 4 + 4
        else:
            # KL is scored once per record, whatever the number of targets:
            # calibrate's records in one call, sweep's rare-class records in
            # one call and its test rows in one call per block of voxels.
            # Quantiles: calibrate's gate and three semantic ones, sweep's
            # gate once per target.
            kl, quantiles = {"calibrate": (1, 4), "sweep": (1 + len(blocks), 2)}[command]
            assert names.count("conformal.score_kl") == kl
            assert names.count("conformal.conformal_quantile") == quantiles
            kl = [sp for sp in t.spans if sp[4] == t.trace_id and sp[0] == "conformal.score_kl"]
            assert sum(sp[5] for sp in kl) == records[command]  # the rows each span scored

"""Allocation bounds of the container reader and writer, the calibration
records, the row kernels and the per-voxel passes of the commands.

``tracemalloc`` sees numpy's array buffers, so these bounds count bytes,
not time: reading a container allocates its payload once and writing one
allocates no copy of it, calibration records keep the grid's uint16
labels, a row kernel allocates its outputs plus a few blocks of float64
rows, never a float64 copy of its whole input, and checking valid
integer labels allocates no mask.  The split mask, the surrogate
classifier, ``evaluate`` and ``sweep`` walk voxels in blocks too: each
allocates its compact outputs plus a few blocks, never a copy of the
test rows.
"""

import tracemalloc

import numpy as np
import pytest

from sscuq.conformal import CalibrationSet, HcpModel, score_kl
from sscuq.container import read_grid, write_grid
from sscuq.grids import _BLOCK_ROWS, LabelGrid, SoftmaxGrid, check_labels
from sscuq.pipeline import PipelineConfig, run_calibrate, run_evaluate, run_sweep, split_mask
from sscuq.synth import default_classifier_spec, draw_labels, synth_classifier

M = 5
MB = 1 << 20
BLOCK = _BLOCK_ROWS * M * 8  # one block of rows in float64
DRAWS = _BLOCK_ROWS * 8  # one block of 8-byte draws or counters


def _peak_allocation(fn, *args):
    """(result of ``fn(*args)``, peak bytes allocated during the call)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _float32_rows(n: int) -> np.ndarray:
    gen = np.random.default_rng(0)
    return gen.dirichlet(np.ones(M), size=n).astype(np.float32)


@pytest.fixture(scope="module")
def rows():
    return _float32_rows(200_000)


def test_read_grid_allocates_the_payload_once(tmp_path):
    dims = (32, 64, 100)  # 204,800 voxels: a 4 MB payload
    write_grid(SoftmaxGrid(_float32_rows(np.prod(dims)).reshape(*dims, M)), tmp_path / "s.sscg")
    payload = np.prod(dims) * M * 4
    grid, peak = _peak_allocation(read_grid, tmp_path / "s.sscg")
    assert grid.probs.nbytes == payload
    assert peak <= payload + MB, peak


def test_write_grid_writes_each_plane_from_its_own_buffer(tmp_path):
    dims = (32, 64, 100)  # 204,800 voxels: a 4 MB payload
    grid = SoftmaxGrid(_float32_rows(np.prod(dims)).reshape(*dims, M))
    _, peak = _peak_allocation(write_grid, grid, tmp_path / "s.sscg")
    assert peak < 64 << 10, peak  # no copy of the payload, whole or in part
    assert read_grid(tmp_path / "s.sscg").probs.tobytes() == grid.probs.tobytes()


def test_score_kl_allocates_its_output_and_a_few_blocks(rows):
    scores, peak = _peak_allocation(score_kl, rows, 0.01)
    assert peak <= scores.nbytes + 4 * BLOCK, peak


def test_hcp_predict_allocates_its_outputs_and_a_few_blocks(rows):
    model = HcpModel(
        class_count=M,
        rare_set=frozenset({5}),
        epsilon=0.01,
        q_o={5: 0.5},
        alpha_o=dict.fromkeys(range(2, M + 1), 0.2),
        alpha_s=dict.fromkeys(range(2, M + 1), 0.1),
        q_s={2: 0.6, 3: 0.7, 4: 0.8, 5: 0.75},
        alpha_target=dict.fromkeys(range(2, M + 1), 0.3),
    )
    (occ, member), peak = _peak_allocation(model.predict, rows)
    gate_scores = rows.shape[0] * 8  # score_kl's float64 output, one per row
    assert peak <= occ.nbytes + member.nbytes + gate_scores + 4 * BLOCK, peak


@pytest.mark.parametrize("dtype", [np.uint16, np.int64])
def test_check_labels_of_valid_integer_labels_builds_no_mask(dtype):
    labels = np.full(1_000_000, 2, dtype=dtype)  # a mask alone would be 1 MB
    _, peak = _peak_allocation(check_labels, labels, 5)
    assert peak < 64 << 10, peak


def test_split_mask_allocates_its_mask_and_a_few_blocks():
    n = 1_000_000
    mask, peak = _peak_allocation(split_mask, n, 0.3, 0)
    assert mask.nbytes == n
    assert peak <= n + 6 * DRAWS, peak


@pytest.fixture(scope="module")
def scene_grids():
    """A 524,288-voxel label grid with the default scene's class mix, and
    the surrogate softmax of it."""
    dims = (64, 64, 128)
    mix = [0.931, 0.0156, 0.030, 0.0164, 0.007]  # the default scene's targets
    labels = LabelGrid(draw_labels(np.prod(dims), mix, 1).reshape(dims), class_count=M)
    return labels, synth_classifier(labels, default_classifier_spec(0))


def test_calibration_set_from_grids_copies_its_rows_and_uint16_labels_once(scene_grids):
    labels, softmax = scene_grids
    mask = np.ones(labels.labels.size, dtype=bool)  # every voxel a record
    cal, peak = _peak_allocation(CalibrationSet.from_grids, softmax, labels, mask)
    assert cal.labels.dtype == np.uint16
    # numpy takes rows by a boolean mask through an index array of one intp
    # per record; the labels are taken once it is freed
    index = cal.n * np.dtype(np.intp).itemsize
    assert peak <= cal.probs.nbytes + max(index, cal.labels.nbytes) + BLOCK, peak
    assert cal.n * (2 + 8) > index + BLOCK  # an int64 copy of the labels would not fit


def test_synth_classifier_allocates_its_float32_output_and_a_few_blocks(scene_grids):
    labels, _ = scene_grids
    softmax, peak = _peak_allocation(synth_classifier, labels, default_classifier_spec(0))
    assert softmax.probs.dtype == np.float32
    assert peak <= softmax.probs.nbytes + 6 * BLOCK, peak


@pytest.fixture(scope="module")
def containers(scene_grids, tmp_path_factory):
    """The grids as containers, an HCP model calibrated on them, the
    payload bytes a command reads, and the numbers of voxels and of test
    voxels."""
    labels, softmax = scene_grids
    out = tmp_path_factory.mktemp("containers")
    paths = str(out / "softmax.sscg"), str(out / "labels.sscg")
    write_grid(softmax, paths[0])
    write_grid(labels, paths[1])
    run_calibrate(*paths, PipelineConfig.default(0), "hcp", str(out / "hcp.json"))
    payload = softmax.probs.nbytes + labels.labels.nbytes
    n = labels.labels.size
    return paths, str(out / "hcp.json"), payload, n, int((~split_mask(n, 0.3, 0)).sum())


def test_evaluate_holds_no_float_copy_of_the_test_rows(containers):
    (softmax, labels), model, payload, n, n_test = containers
    _, peak = _peak_allocation(run_evaluate, model, softmax, labels)
    # the split mask and its negation, and per test row its label (uint16),
    # occupancy, set membership and argmax label (uint16)
    per_row = n_test * (2 + 1 + M + 2)
    assert peak <= payload + 2 * n + per_row + 4 * BLOCK, peak
    assert n_test * M * 4 > 4 * BLOCK  # a float32 copy of the test rows would not fit


@pytest.mark.parametrize("score", ["kl", "class", "occupied"])
def test_sweep_holds_no_float_copy_of_the_test_rows(containers, score):
    (softmax, labels), _, payload, n, n_test = containers
    targets = [0.5, 0.7, 0.9]
    _, peak = _peak_allocation(run_sweep, softmax, labels, PipelineConfig.default(0), score, targets)
    # four masks (the split, the rare classes, the rare calibration voxels
    # and the test voxels), and per test row its label (uint16) and its
    # gate decision at each target
    per_row = n_test * (2 + len(targets))
    assert peak <= payload + 4 * n + per_row + 4 * BLOCK, peak

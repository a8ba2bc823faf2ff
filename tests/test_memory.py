"""Allocation bounds of the container reader and the row kernels.

``tracemalloc`` sees numpy's array buffers, so these bounds count bytes,
not time: reading a container allocates its payload once, a row kernel
allocates its outputs plus a few blocks of float64 rows, never a float64
copy of its whole input, and checking valid integer labels allocates no
mask.
"""

import tracemalloc

import numpy as np
import pytest

from sscuq.conformal import HcpModel, score_kl
from sscuq.container import read_grid, write_grid
from sscuq.grids import _BLOCK_ROWS, SoftmaxGrid, check_labels

M = 5
MB = 1 << 20
BLOCK = _BLOCK_ROWS * M * 8  # one block of rows in float64


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

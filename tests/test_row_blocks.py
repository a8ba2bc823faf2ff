"""Row kernels walk their input in blocks of ``grids._BLOCK_ROWS`` rows and
score in float64 whatever the input's float dtype.

A row's score, set and gate decision must not depend on the block it
falls in, nor on whether its vector arrived as float32 (as the SSCG
containers store it) or float64.  The commands' per-voxel passes (the
split mask, the surrogate classifier, ``evaluate`` and ``sweep``) walk
voxels in the same blocks, and write the same bytes at any block size.
"""

import numpy as np
import pytest

from sscuq import grids, rng
from sscuq.cli import main
from sscuq.conformal import (
    CalibrationSet,
    CccpModel,
    HcpConfig,
    HcpModel,
    ScpModel,
    cccp_calibrate,
    conformal_quantile,
    hcp_calibrate,
    score_class,
    score_kl,
    score_occupied,
    scp_calibrate,
)
from sscuq.container import read_grid, write_grid
from sscuq.grids import _BLOCK_ROWS, LabelGrid, SoftmaxGrid, ValidationError, check_softmax_rows
from sscuq.metrics import GATE_SCORES
from sscuq.pipeline import CALIBRATORS, PipelineConfig, split_mask
from sscuq.synth import ClassifierSpec, classify_labels, draw_labels

M = 5
N = 2 * _BLOCK_ROWS + 7  # two full blocks and a short last one


def _rows(n=N, seed=0) -> np.ndarray:
    gen = np.random.default_rng(seed)
    f = gen.dirichlet(np.ones(M), size=n)
    f[gen.random((n, M)) < 0.05] = 0.0
    f[_BLOCK_ROWS - 1] = (0.0, 1.0, 0.0, 0.0, 0.0)
    f[_BLOCK_ROWS] = (1.0, 0.0, 0.0, 0.0, 0.0)
    f /= f.sum(axis=1, keepdims=True)
    f[2 * _BLOCK_ROWS + 3, 1] = np.nan
    f[_BLOCK_ROWS + 1, 0] = np.nan
    return f


# rows next to each block edge, the short last block, and a random sample
_CHECKED = sorted(
    {0, 1, N - 1}
    | {b + d for b in (_BLOCK_ROWS, 2 * _BLOCK_ROWS) for d in range(-2, 3)}
    | set(range(N - 7, N))
    | set(np.random.default_rng(1).choice(N, 100, replace=False).tolist())
)

_MODELS = {
    "scp": ScpModel(class_count=M, alpha=0.1, q=0.7),
    "cccp": CccpModel(
        class_count=M,
        alpha=dict.fromkeys(range(1, M + 1), 0.1),
        q={1: float("inf"), 2: 0.6, 3: 0.7, 4: 0.8, 5: 0.85},
    ),
    "hcp": HcpModel(
        class_count=M,
        rare_set=frozenset({5}),
        epsilon=0.01,
        q_o={5: 0.5},
        alpha_o=dict.fromkeys(range(2, M + 1), 0.2),
        alpha_s=dict.fromkeys(range(2, M + 1), 0.1),
        q_s={2: 0.6, 3: 0.7, 4: 0.8, 5: 0.75},
        alpha_target=dict.fromkeys(range(2, M + 1), 0.3),
    ),
}


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_scores_equal_a_one_row_oracle_across_block_edges(dtype):
    f = _rows().astype(dtype)
    kernels = {"kl": lambda x: score_kl(x, 0.01), "occupied": score_occupied}
    kernels |= {f"class {y}": (lambda x, y=y: score_class(x, y)) for y in range(1, M + 1)}
    for name, kernel in kernels.items():
        scores = kernel(f)
        assert scores.shape == (N,) and scores.dtype == np.float64, name
        for i in _CHECKED:
            want = kernel(f[i : i + 1].astype(np.float64))
            assert _same_bits(scores[i : i + 1], want), (name, i)
    assert np.isnan(score_kl(f, 0.01)[2 * _BLOCK_ROWS + 3])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("method", sorted(_MODELS))
def test_predict_equals_a_one_row_oracle_across_block_edges(dtype, method):
    model = _MODELS[method]
    f = _rows().astype(dtype)
    occ, member = model.predict(f)
    assert occ.shape == (N,) and member.shape == (N, M)
    assert 0 < occ.sum() < N
    for i in _CHECKED:
        want_occ, want_member = model.predict(f[i : i + 1].astype(np.float64))
        assert _same_bits(occ[i : i + 1], want_occ), i
        assert _same_bits(member[i : i + 1], want_member), i
    # a grid of vectors gets the flat rows' decisions, reshaped
    grid_occ, grid_member = model.predict(f[: N - 7].reshape(2, 8, -1, M))
    assert _same_bits(grid_occ.reshape(-1), occ[: N - 7])
    assert _same_bits(grid_member.reshape(-1, M), member[: N - 7])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_check_softmax_rows_sees_the_last_block(dtype):
    f = _rows(seed=2)
    f = np.nan_to_num(f, nan=0.0)
    f /= f.sum(axis=1, keepdims=True)
    check_softmax_rows(f.astype(dtype))

    negative = f.copy()
    negative[N - 2, 1:3] = (-0.25, negative[N - 2, 1] + negative[N - 2, 2] + 0.25)
    with pytest.raises(ValidationError, match="non-negative"):
        check_softmax_rows(negative.astype(dtype))

    bad_sum = f.copy()
    bad_sum[N - 1, 0] += 1e-3
    with pytest.raises(ValidationError, match="sum to 1"):
        check_softmax_rows(bad_sum.astype(dtype))

    # a negative entry is reported ahead of a bad sum in an earlier block
    both = bad_sum.copy()
    both[0, 0] += 1e-3
    both[N - 2] = negative[N - 2]
    with pytest.raises(ValidationError, match="non-negative"):
        check_softmax_rows(both.astype(dtype))


# ---------------------------------------------------------------------------
# float32 calibration sets score in float64


def _float32_calibration(n=400, seed=3) -> CalibrationSet:
    """Records whose true-class entry is a float32 in (0.05, 0.45) with its
    last mantissa bit set: ``1 - f`` then needs a finer step than float32
    has, so float32 arithmetic rounds it away from its exact value."""
    gen = np.random.default_rng(seed)
    labels = np.arange(n) % M + 1
    true = gen.uniform(0.05, 0.45, n).astype(np.float32)
    true = (true.view(np.uint32) | 1).view(np.float32).astype(np.float64)
    probs = gen.uniform(0.5, 1.5, (n, M))
    probs[np.arange(n), labels - 1] = 0.0
    probs *= ((1.0 - true) / probs.sum(axis=1))[:, None]
    probs[np.arange(n), labels - 1] = true
    return CalibrationSet(probs.astype(np.float32), labels)


def _true_entries(probs, labels, dtype):
    return probs.astype(dtype)[np.arange(labels.size), labels - 1]


def test_scp_and_cccp_quantiles_of_float32_rows_are_float64():
    cal = _float32_calibration()
    assert cal.probs.dtype == np.float32
    alpha = 0.1
    want = conformal_quantile(1.0 - _true_entries(cal.probs, cal.labels, np.float64), alpha)
    rounded = conformal_quantile(1.0 - _true_entries(cal.probs, cal.labels, np.float32), alpha)
    assert rounded != want  # the data tells float32 arithmetic apart
    assert scp_calibrate(cal, alpha).q == want

    rates = dict.fromkeys(range(1, M + 1), 0.2)
    model = cccp_calibrate(cal, rates)
    differs = 0
    for y in range(1, M + 1):
        f_y = cal.probs[cal.labels == y, y - 1]
        want = conformal_quantile(1.0 - f_y.astype(np.float64), rates[y])
        assert model.q[y] == want, y
        differs += conformal_quantile(1.0 - f_y, rates[y]) != want
    assert differs == M


def test_hcp_quantiles_of_float32_rows_are_float64():
    cal = _float32_calibration()
    cfg = HcpConfig(
        class_count=M,
        rare_set=frozenset({5}),
        alpha_o={5: 0.3},
        alpha_target=dict.fromkeys(range(2, M + 1), 0.6),
    )
    model = hcp_calibrate(cal, cfg)
    f64 = cal.probs.astype(np.float64)
    rare = cal.labels == 5
    q_o = conformal_quantile(score_kl(f64[rare], cfg.epsilon), cfg.alpha_o[5])
    assert model.q_o == {5: q_o}
    gated = score_kl(f64, cfg.epsilon) <= q_o
    differs = 0
    for y in range(2, M + 1):
        sel = (cal.labels == y) & gated
        assert 0.0 < model.alpha_s[y] < 1.0
        want = conformal_quantile(1.0 - f64[sel, y - 1], model.alpha_s[y])
        assert model.q_s[y] == want, y
        differs += conformal_quantile(1.0 - cal.probs[sel, y - 1], model.alpha_s[y]) != want
    assert differs == M - 1


def test_calibration_on_a_float32_container_matches_float64_rows(tmp_path):
    cal = _float32_calibration(n=4 * 8 * 10)
    dims = (4, 8, 10)
    write_grid(SoftmaxGrid(cal.probs.reshape(*dims, M)), tmp_path / "softmax.sscg")
    write_grid(LabelGrid(cal.labels.reshape(dims), class_count=M), tmp_path / "labels.sscg")
    softmax, labels = read_grid(tmp_path / "softmax.sscg"), read_grid(tmp_path / "labels.sscg")
    assert softmax.probs.dtype == np.float32
    mask = np.arange(cal.n) % 3 != 0
    read = CalibrationSet.from_grids(softmax, labels, mask)
    assert read.probs.dtype == np.float32
    assert np.array_equal(read.probs, cal.probs[mask])
    wide = CalibrationSet(read.probs.astype(np.float64), read.labels)
    assert wide.probs.dtype == np.float64
    cfg = HcpConfig(
        class_count=M,
        rare_set=frozenset({5}),
        alpha_o={5: 0.3},
        alpha_target=dict.fromkeys(range(2, M + 1), 0.6),
    )
    assert scp_calibrate(read, 0.1) == scp_calibrate(wide, 0.1)
    rates = dict.fromkeys(range(1, M + 1), 0.2)
    assert cccp_calibrate(read, rates) == cccp_calibrate(wide, rates)
    assert hcp_calibrate(read, cfg) == hcp_calibrate(wide, cfg)


def test_calibration_set_widens_other_dtypes_to_float64():
    labels = np.arange(1, M + 1)
    for dtype in (np.float16, np.float64, np.int64):
        assert CalibrationSet(np.eye(M, dtype=dtype), labels).probs.dtype == np.float64


# ---------------------------------------------------------------------------
# the per-voxel passes of the commands: no byte depends on the block size

# odd, and small enough that some block of the default split holds no test voxel
_SMALL_BLOCK = 7


def _command_outputs(root) -> dict:
    """Every file that simulate, then calibrate and evaluate with each
    method and sweep with each score on its outputs, write under ``root``."""
    sim = root / "sim"
    assert main(["simulate", "--out-dir", str(sim)]) == 0
    data = ["--softmax", str(sim / "softmax.sscg"), "--labels", str(sim / "labels.sscg")]
    for method in CALIBRATORS:
        model = str(root / f"{method}.json")
        assert main(["calibrate", "--method", method, *data, "--out", model]) == 0
        metrics = ["--out-json", str(root / f"{method}.metrics.json")]
        metrics += ["--out-csv", str(root / f"{method}.metrics.csv")]
        assert main(["evaluate", "--model", model, *data, *metrics]) == 0
    for score in GATE_SCORES:
        out = str(root / f"sweep_{score}.csv")
        argv = ["sweep", "--score", score, *data, "--targets", "0.5,0.7,0.9", "--out", out]
        assert main(argv) == 0
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_every_command_writes_the_same_bytes_at_any_block_size(tmp_path, monkeypatch, capsys):
    want = _command_outputs(tmp_path / "default")
    monkeypatch.setattr(grids, "_BLOCK_ROWS", _SMALL_BLOCK)
    test = ~split_mask(PipelineConfig.default().geometry.voxel_count, 0.3, 0)
    assert not all(test[block].any() for block in grids.row_blocks(test.size))
    got = _command_outputs(tmp_path / "small")
    capsys.readouterr()
    assert got.keys() == want.keys() and len(want) == 16
    assert [name for name in want if got[name] != want[name]] == []


@pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, N])
@pytest.mark.parametrize("seed", [0, 7])
def test_split_mask_is_one_draw_per_voxel(n, seed):
    u = rng.uniforms(rng.derive_seed(seed, rng.TAG_SPLIT), np.arange(n))
    assert _same_bits(split_mask(n, 0.3, seed), u < 0.3)


def test_classify_labels_of_wide_rows_does_not_depend_on_the_block_size(monkeypatch):
    # 12 classes: numpy reduces rows of 8 or more, not row_reduce's columns
    m = 12
    confusion = np.full((m, m), 0.2 / (m - 1)) + np.eye(m) * (0.8 - 0.2 / (m - 1))
    spec = ClassifierSpec(confusion, 4.0, 1.5, seed=3)
    labels = draw_labels(4099, [1.0 / m] * m, seed=4)
    want = classify_labels(labels, spec)
    monkeypatch.setattr(grids, "_BLOCK_ROWS", _SMALL_BLOCK)
    assert _same_bits(classify_labels(labels, spec), want)
    assert _same_bits(classify_labels(labels, spec, np.float32), want.astype(np.float32))

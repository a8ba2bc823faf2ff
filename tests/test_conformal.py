import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sscuq.conformal import (
    CalibrationSet,
    CccpModel,
    DegeneracyWarning,
    HcpConfig,
    HcpModel,
    ScpModel,
    cccp_calibrate,
    class_quantiles,
    conformal_quantile,
    hcp_calibrate,
    hcp_predict_batch,
    load_model,
    save_model,
    score_class,
    score_kl,
    score_occupied,
    scp_calibrate,
    split_alpha,
)
from sscuq.grids import SoftmaxGrid, ValidationError
from synth_bench import ALPHA_TARGET, default_hcp_config, sample_benchmark


# ---------------------------------------------------------------------------
# scores


def test_score_class_one_hot_is_zero():
    f = np.array([0.0, 1.0, 0.0])
    assert score_class(f, 2) == 0.0


def test_score_class_uniform():
    f = np.full(4, 0.25)
    for y in range(1, 5):
        assert score_class(f, y) == pytest.approx(0.75)


def test_score_class_arithmetic():
    assert score_class(np.array([0.7, 0.2, 0.1]), 2) == pytest.approx(0.8)


def test_score_class_rejects_out_of_range():
    with pytest.raises(ValueError):
        score_class(np.array([0.5, 0.5]), 3)


def test_score_occupied_cases():
    assert score_occupied(np.array([1.0, 0.0, 0.0])) == 1.0
    assert score_occupied(np.array([0.0, 0.6, 0.4])) == 0.0
    assert score_occupied(np.array([0.3, 0.5, 0.2])) == pytest.approx(0.3)


def test_score_kl_point_mass_on_nonempty():
    f = np.array([0.0, 1.0, 0.0, 0.0])
    assert score_kl(f, 0.01) == 0.0


def test_score_kl_point_mass_on_empty():
    f = np.array([1.0, 0.0, 0.0])
    assert score_kl(f, 0.01) == pytest.approx(math.log(100.0), rel=1e-12)


def test_score_kl_mixed_vector():
    f = np.array([0.5, 0.25, 0.25])
    want = 0.5 * math.log(50.0) + 0.5 * math.log(0.25)
    assert score_kl(f, 0.01) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(1.262864, abs=1e-6)


def test_score_kl_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        score_kl(np.array([0.5, 0.5]), 1.5)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_score_kl_increasing_in_empty_mass_along_path(seed):
    # moving mass from a nonempty-supported vector toward pure-empty raises the score
    from sscuq.rng import uniforms

    g = uniforms(seed, np.arange(4))
    g = np.concatenate([[0.0], g / g.sum()])  # no empty mass
    ts = np.linspace(0.0, 0.95, 12)
    e1 = np.zeros(5)
    e1[0] = 1.0
    scores = [score_kl((1 - t) * g + t * e1, 0.01) for t in ts]
    assert all(b > a for a, b in zip(scores, scores[1:]))


# ---------------------------------------------------------------------------
# quantile


def test_quantile_single_score():
    assert conformal_quantile([0.3], 0.5) == 0.3


def test_quantile_formula_ten_scores():
    scores = list(range(1, 11))
    assert conformal_quantile(scores, 0.1) == 10


def test_quantile_insufficient_data_is_inf():
    assert conformal_quantile([1.0, 2.0, 3.0], 0.05) == math.inf


def test_quantile_empty_scores_is_inf():
    assert conformal_quantile([], 0.5) == math.inf


def test_quantile_rejects_bad_alpha():
    with pytest.raises(ValueError):
        conformal_quantile([1.0], 0.0)


def test_quantile_integer_rank_float_noise():
    # (N+1)(1-alpha) = 19.0000000000000004 must keep rank 19, not jump to 20
    scores = np.arange(1.0, 20.0)
    assert conformal_quantile(scores, 0.05) == 19.0


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=60),
    st.floats(0.01, 0.99),
    st.floats(0.01, 0.99),
)
@settings(max_examples=100, deadline=None)
def test_quantile_monotone_in_alpha(scores, a1, a2):
    lo, hi = min(a1, a2), max(a1, a2)
    assert conformal_quantile(scores, lo) >= conformal_quantile(scores, hi)


# Adding an arbitrary score can lower the quantile when the rank
# ceil((N+1)(1-alpha)) does not bump with N (e.g. {1.0} + 0.0 at alpha=0.75),
# so the monotone-growth property holds for scores at or above the quantile.
@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=60),
    st.floats(0, 100),
    st.floats(0.01, 0.99),
)
@settings(max_examples=100, deadline=None)
def test_quantile_monotone_under_adding_high_score(scores, bump, alpha):
    q = conformal_quantile(scores, alpha)
    extra = min(q, 100.0) + bump if q != math.inf else bump
    assert conformal_quantile(scores + [extra], alpha) >= q or q == math.inf


@given(st.integers(1, 200), st.floats(0.01, 0.99))
@settings(max_examples=100, deadline=None)
def test_quantile_rank_monotone_in_sample_size(n, alpha):
    k_n = math.ceil((n + 1) * (1 - alpha) - 1e-9)
    k_n1 = math.ceil((n + 2) * (1 - alpha) - 1e-9)
    assert k_n <= k_n1 <= k_n + 1


# ---------------------------------------------------------------------------
# alpha splitting


def test_split_alpha_example():
    assert split_alpha(0.19, 0.10) == pytest.approx(0.10)


def test_split_alpha_equal_rates_gives_zero():
    assert split_alpha(0.1, 0.1) == 0.0


def test_split_alpha_clamps_negative():
    assert split_alpha(0.10, 0.20) == 0.0


def test_split_alpha_rejects_out_of_range():
    with pytest.raises(ValueError):
        split_alpha(0.0, 0.5)
    with pytest.raises(ValueError):
        split_alpha(0.5, 1.0)


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
@settings(max_examples=200, deadline=None)
def test_split_alpha_composition_identity(target, a_o):
    a_s = split_alpha(target, a_o)
    assert 0.0 <= a_s < 1.0
    if a_s > 0.0:
        assert (1 - a_s) * (1 - a_o) == pytest.approx(1 - target, rel=1e-12)


# ---------------------------------------------------------------------------
# SCP


def _one_hot_set(n, m, seed=0):
    from sscuq.rng import uniforms

    labels = 1 + (uniforms(seed, np.arange(n)) * m).astype(int)
    probs = np.zeros((n, m))
    probs[np.arange(n), labels - 1] = 1.0
    return CalibrationSet(probs, labels)


def _members(member_row) -> set[int]:
    return set((np.nonzero(member_row)[0] + 1).tolist())


def test_scp_perfect_classifier_gives_zero_quantile():
    cal = _one_hot_set(50, 4)
    model = scp_calibrate(cal, 0.1)
    assert model.q == 0.0
    occ, member = model.predict(np.array([[0.0, 1.0, 0.0, 0.0]]))
    assert _members(member[0]) == {2}
    assert occ[0]


def test_scp_infinite_quantile_gives_full_set():
    model = ScpModel(class_count=3, alpha=0.1, q=math.inf)
    _, member = model.predict(np.array([[0.2, 0.3, 0.5]]))
    assert _members(member[0]) == {1, 2, 3}


def test_scp_marginal_coverage_statistical():
    cal, test_labels, test_probs = sample_benchmark(0, 4000, 10_000)
    _, member = scp_calibrate(cal, 0.1).predict(test_probs)
    covered = member[np.arange(test_labels.size), test_labels - 1]
    assert 0.88 <= covered.mean() <= 0.93


# ---------------------------------------------------------------------------
# CCCP


def test_cccp_single_class_present():
    m = 3
    probs = np.tile(np.array([[0.1, 0.8, 0.1]]), (20, 1))
    cal = CalibrationSet(probs, np.full(20, 2))
    with pytest.warns(DegeneracyWarning):
        qs = cccp_calibrate(cal, 0.2).q
    assert math.isfinite(qs[2])
    assert qs[1] == math.inf and qs[3] == math.inf


def test_cccp_equals_scp_for_exchangeable_scores():
    # identical per-class score distributions: same quantile per class
    from sscuq.rng import uniforms

    n, m = 300, 3
    labels = 1 + (uniforms(9, np.arange(n)) * m).astype(int)
    # score of the true class is the same uniform draw regardless of class
    u = uniforms(10, np.arange(n))
    probs = np.full((n, m), 0.0)
    probs[np.arange(n), labels - 1] = 1.0 - u
    rest = u / (m - 1)
    for j in range(m):
        col = probs[:, j]
        col[col == 0.0] = rest[col == 0.0]
    cal = CalibrationSet(probs, labels)
    qs = cccp_calibrate(cal, 0.25).q
    q_scp = scp_calibrate(cal, 0.25).q
    for y, q in qs.items():
        # same continuous distribution, so per-class quantiles agree within noise
        assert abs(q - q_scp) < 0.12


def test_cccp_conditional_coverage_statistical():
    cal, test_labels, test_probs = sample_benchmark(1, 6000, 20_000)
    _, member = cccp_calibrate(cal, dict(ALPHA_TARGET) | {1: 0.1}).predict(test_probs)
    for y in (2, 3, 4):
        sel = test_labels == y
        n_cal = int((cal.labels == y).sum())
        cov = member[sel, y - 1].mean()
        floor = (1 - ALPHA_TARGET[y]) - 2 * math.sqrt(
            ALPHA_TARGET[y] * (1 - ALPHA_TARGET[y]) / n_cal
        )
        assert cov >= floor


# ---------------------------------------------------------------------------
# HCP


def test_hcp_config_validation():
    with pytest.raises(ValidationError):
        HcpConfig(class_count=5, rare_set=frozenset(), alpha_o={}, alpha_target=ALPHA_TARGET)
    with pytest.raises(ValidationError):
        HcpConfig(
            class_count=5,
            rare_set=frozenset({1}),
            alpha_o={1: 0.3},
            alpha_target=ALPHA_TARGET,
        )
    with pytest.raises(ValidationError):
        HcpConfig(
            class_count=5,
            rare_set=frozenset({5}),
            alpha_o={5: 0.3},
            alpha_target={2: 0.1},
        )


def test_hcp_one_hot_nonempty_records():
    # confident correct nonempty classifier: all rare scores 0, gate passes all
    m = 4
    labels = np.array([2, 3, 4, 2, 3, 4, 4, 4, 4, 4])
    probs = np.zeros((labels.size, m))
    probs[np.arange(labels.size), labels - 1] = 1.0
    cal = CalibrationSet(probs, labels)
    cfg = HcpConfig(
        class_count=m,
        rare_set=frozenset({4}),
        alpha_o={4: 0.3},
        alpha_target={2: 0.2, 3: 0.2, 4: 0.2},
    )
    model = hcp_calibrate(cal, cfg)
    assert model.q_o[4] == 0.0
    assert all(model.alpha_o[y] == 0.0 for y in (2, 3))


def test_hcp_all_empty_calibration_degenerates_to_accept_all():
    m = 3
    probs = np.tile(np.array([[0.9, 0.05, 0.05]]), (30, 1))
    cal = CalibrationSet(probs, np.ones(30, dtype=int))
    cfg = HcpConfig(
        class_count=m,
        rare_set=frozenset({3}),
        alpha_o={3: 0.3},
        alpha_target={2: 0.1, 3: 0.1},
    )
    with pytest.warns(DegeneracyWarning):
        model = hcp_calibrate(cal, cfg)
    assert model.q_o[3] == math.inf
    occ, member = hcp_predict_batch(np.array([[0.999, 0.0005, 0.0005]]), model)
    assert occ[0]  # gate accepts everything
    assert member[0, 1] and member[0, 2]


def test_hcp_predict_gate_rejects_confident_empty():
    cal, _, _ = sample_benchmark(2, 4000, 10)
    model = hcp_calibrate(cal, default_hcp_config())
    assert math.isfinite(model.gate_threshold)
    f = np.zeros(5)
    f[0] = 1.0
    assert model.gate_threshold < math.log(1.0 / model.epsilon)
    occ, member = model.predict(f[None, :])
    assert not occ[0] and not member[0].any()


def test_hcp_model_with_infinite_quantiles_returns_all_nonempty():
    model = HcpModel(
        class_count=4,
        rare_set=frozenset({4}),
        epsilon=0.01,
        q_o={4: math.inf},
        alpha_o={2: 0.1, 3: 0.1, 4: 0.3},
        alpha_s={2: 0.0, 3: 0.0, 4: 0.0},
        q_s={2: math.inf, 3: math.inf, 4: math.inf},
        alpha_target={2: 0.1, 3: 0.1, 4: 0.3},
    )
    _, member = model.predict(np.array([[0.97, 0.01, 0.01, 0.01]]))
    assert _members(member[0]) == {2, 3, 4}


def test_hcp_sets_never_contain_empty_class_and_respect_gate():
    cal, test_labels, test_probs = sample_benchmark(3, 5000, 5000)
    model = hcp_calibrate(cal, default_hcp_config())
    occ, member = hcp_predict_batch(test_probs, model)
    assert not member[:, 0].any()
    assert not member[~occ].any()


def test_hcp_nesting_in_alpha_target():
    cal, _, test_probs = sample_benchmark(4, 5000, 2000)
    lo = dict(ALPHA_TARGET)
    hi = dict(ALPHA_TARGET)
    hi[3] = 0.02  # demand more coverage for class 3
    cfg_lo = default_hcp_config()
    cfg_hi = HcpConfig(
        class_count=5, rare_set=frozenset({5}), alpha_o={5: 0.3}, alpha_target=hi
    )
    m_lo = hcp_calibrate(cal, cfg_lo)
    m_hi = hcp_calibrate(cal, cfg_hi)
    _, member_lo = hcp_predict_batch(test_probs, m_lo)
    _, member_hi = hcp_predict_batch(test_probs, m_hi)
    assert np.all(member_hi[:, 2] >= member_lo[:, 2])


def test_hcp_reduces_to_cccp_with_open_gate():
    # rare set = all nonempty classes at a tiny occupied error rate: the gate
    # quantiles exhaust the data (+inf), every record is gated in, and the
    # semantic stage equals CCCP at the same targets
    import warnings as _warnings

    cal, _, test_probs = sample_benchmark(5, 400, 1500)
    targets = {2: 0.1, 3: 0.1, 4: 0.1, 5: 0.1}
    cfg = HcpConfig(
        class_count=5,
        rare_set=frozenset({2, 3, 4, 5}),
        alpha_o={y: 1e-12 for y in (2, 3, 4, 5)},
        alpha_target=targets,
    )
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", DegeneracyWarning)
        model = hcp_calibrate(cal, cfg)
        assert model.gate_threshold == math.inf
        occ, member = hcp_predict_batch(test_probs, model)
        assert occ.all()
        _, cccp_member = cccp_calibrate(cal, dict(targets) | {1: 0.1}).predict(test_probs)
    assert np.array_equal(member[:, 1:], cccp_member[:, 1:])


def test_hcp_grid_predict_matches_vector_predict():
    # predicting on the grid's (U, V, D, M) array equals reshaping the flat
    # prediction, and each voxel equals its own one-vector prediction
    cal, _, test_probs = sample_benchmark(6, 3000, 64)
    model = hcp_calibrate(cal, default_hcp_config())
    grid = SoftmaxGrid(test_probs.reshape(4, 4, 4, 5).astype(np.float32))
    occ_grid, member = model.predict(grid.probs)
    flat_probs = grid.flat()
    flat_occ, flat_member = model.predict(flat_probs)
    assert np.array_equal(occ_grid.reshape(-1), flat_occ)
    assert np.array_equal(member.reshape(-1, 5), flat_member)
    for i in (0, 7, 23, 63):
        _, one = model.predict(flat_probs[i][None, :])
        u, v, d = np.unravel_index(i, (4, 4, 4))
        got = _members(member[u, v, d])
        assert got == _members(one[0])
        # a voxel the gate rejects gets the empty set
        assert bool(occ_grid[u, v, d]) or not got
    # occupancy layer equals thresholding the KL score at the gate
    skl = score_kl(flat_probs, model.epsilon)
    assert np.array_equal(occ_grid.reshape(-1), skl <= model.gate_threshold)


def test_hcp_grid_predict_rejects_class_mismatch():
    cal, _, _ = sample_benchmark(7, 2000, 10)
    model = hcp_calibrate(cal, default_hcp_config())
    grid = SoftmaxGrid(np.full((1, 1, 1, 3), 1 / 3, np.float32))
    with pytest.raises(ValidationError):
        model.predict(grid.flat())


def test_hcp_class_conditional_coverage_statistical():
    cal, test_labels, test_probs = sample_benchmark(8, 5000, 20_000)
    model = hcp_calibrate(cal, default_hcp_config())
    _, member = hcp_predict_batch(test_probs, model)
    for y in (2, 3, 4):
        sel = test_labels == y
        n_cal = int((cal.labels == y).sum())
        cov = member[sel, y - 1].mean()
        a = ALPHA_TARGET[y]
        assert cov >= (1 - a) - 2 * math.sqrt(a * (1 - a) / n_cal)


# ---------------------------------------------------------------------------
# epsilon invariance holds exactly when the empty mass is constant


def test_gate_decisions_epsilon_invariant_for_constant_empty_mass():
    from sscuq.rng import uniforms

    n, m = 400, 5
    p1 = 0.2
    rest = uniforms(77, np.arange(n * (m - 1))).reshape(n, m - 1)
    rest = (1 - p1) * rest / rest.sum(axis=1, keepdims=True)
    probs = np.concatenate([np.full((n, 1), p1), rest], axis=1)
    labels = 1 + (uniforms(78, np.arange(n)) * m).astype(int)
    cal = CalibrationSet(probs[:200], labels[:200])
    test = probs[200:]
    decisions = []
    for eps in (1e-4, 1e-2):
        cfg = HcpConfig(
            class_count=m,
            rare_set=frozenset({5}),
            alpha_o={5: 0.3},
            alpha_target=ALPHA_TARGET,
            epsilon=eps,
        )
        model = hcp_calibrate(cal, cfg)
        occ, _ = hcp_predict_batch(test, model)
        decisions.append(occ)
    assert np.array_equal(decisions[0], decisions[1])


# ---------------------------------------------------------------------------
# serialization


def test_hcp_model_json_roundtrip(tmp_path):
    cal, _, _ = sample_benchmark(9, 3000, 10)
    model = hcp_calibrate(cal, default_hcp_config())
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back == model


def test_model_json_serializes_infinity_as_string(tmp_path):
    import json

    model = HcpModel(
        class_count=3,
        rare_set=frozenset({3}),
        epsilon=0.01,
        q_o={3: math.inf},
        alpha_o={2: 0.1, 3: 0.3},
        alpha_s={2: 0.0, 3: 0.0},
        q_s={2: math.inf, 3: 0.5},
        alpha_target={2: 0.1, 3: 0.3},
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert doc["q_o"]["3"] == "inf"
    assert doc["q_s"]["2"] == "inf"
    assert load_model(path) == model


def _calibrated_models():
    cal, _, _ = sample_benchmark(10, 3000, 10)
    with pytest.warns(DegeneracyWarning):  # class 5 at alpha 1e-4 exhausts its records
        cccp = cccp_calibrate(cal, {1: 0.1, 2: 0.1, 3: 0.1, 4: 0.1, 5: 1e-4})
    return [scp_calibrate(cal, 0.1), cccp, hcp_calibrate(cal, default_hcp_config())]


_CODEC_MODELS = {
    "scp-inf": ScpModel(class_count=4, alpha=0.1, q=math.inf),
    "cccp-inf": CccpModel(
        class_count=3, alpha={1: 0.1, 2: 0.1, 3: 0.2}, q={1: 0.5, 2: math.inf, 3: 0.25}
    ),
    "hcp-inf": HcpModel(
        class_count=3,
        rare_set=frozenset({3}),
        epsilon=0.01,
        q_o={3: math.inf},
        alpha_o={2: 0.1, 3: 0.3},
        alpha_s={2: 0.0, 3: 0.0},
        q_s={2: math.inf, 3: 0.5},
        alpha_target={2: 0.1, 3: 0.3},
    ),
}


@pytest.mark.parametrize("name", [*_CODEC_MODELS, "calibrated"])
def test_model_codec_roundtrip_is_byte_stable(tmp_path, name):
    models = [_CODEC_MODELS[name]] if name in _CODEC_MODELS else _calibrated_models()
    if name == "calibrated":
        assert math.isinf(models[1].q[5])
    for i, model in enumerate(models):
        first, second = tmp_path / f"{i}a.json", tmp_path / f"{i}b.json"
        save_model(model, first, extra={"split": {"fraction": 0.3, "seed": 4}})
        back = load_model(first)
        assert type(back) is type(model) and back == model
        save_model(back, second, extra={"split": {"fraction": 0.3, "seed": 4}})
        assert second.read_bytes() == first.read_bytes()


def test_class_quantiles_use_each_class_own_records():
    cal, _, _ = sample_benchmark(11, 3000, 10)
    rates = {2: 0.1, 3: 0.2, 5: 0.3}
    got = class_quantiles(score_class, cal, rates)
    for y, a in rates.items():
        assert got[y] == conformal_quantile(1.0 - cal.probs[cal.labels == y, y - 1], a)
    kl = class_quantiles(lambda f, y: score_kl(f, 0.01), cal, {5: 0.3})
    assert kl[5] == conformal_quantile(score_kl(cal.probs, 0.01)[cal.labels == 5], 0.3)
    assert kl == hcp_calibrate(cal, default_hcp_config()).q_o

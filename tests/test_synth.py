import dataclasses
import math

import numpy as np
import pytest

from sscuq import rng, synth
from sscuq.grids import GridGeometry, LabelGrid, ValidationError
from sscuq.synth import (
    ClassifierSpec,
    DepthNoise,
    GenerationError,
    ObjectTemplate,
    SceneSpec,
    classify_labels,
    default_classifier_spec,
    default_geometry,
    default_intrinsics,
    default_scene_spec,
    draw_labels,
    generate_scene,
    render_depth,
    synth_classifier,
)


def test_empty_spec_gives_all_empty_grid():
    spec = SceneSpec(
        geometry=default_geometry(),
        class_count=5,
        class_mix={},
        templates=default_scene_spec().templates,
    )
    world = generate_scene(spec)
    assert np.all(world.labels == 1)


def test_scene_deterministic_in_seed():
    a = generate_scene(default_scene_spec(seed=11))
    b = generate_scene(default_scene_spec(seed=11))
    c = generate_scene(default_scene_spec(seed=12))
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.labels, c.labels)


def test_scene_fractions_within_band():
    spec = default_scene_spec(seed=0)
    world = generate_scene(spec)
    total = world.labels.size
    empty = np.count_nonzero(world.labels == 1) / total
    assert 0.85 <= empty <= 0.97
    for y, frac in spec.class_mix.items():
        if frac < 0.005:
            continue
        realized = np.count_nonzero(world.labels == y) / total
        assert 0.8 * frac <= realized <= 1.2 * frac


def test_scene_ground_plane_at_bottom_layer():
    world = generate_scene(default_scene_spec(seed=0))
    assert np.all(world.labels[-1, :, :] == 2)


def test_scene_impossible_template_raises():
    geom = default_geometry()
    spec = SceneSpec(
        geometry=geom,
        class_count=3,
        class_mix={3: 0.2},
        templates=(ObjectTemplate(3, "box", ((50.0, 60.0), (50.0, 60.0), (50.0, 60.0))),),
    )
    # 2000 attempts of three draws each: the draws cross five blocks
    with pytest.raises(
        GenerationError,
        match=r"^template for class 3 cannot fit its target: "
        r"0 of 11796 voxels placed in 2000 attempts$",
    ):
        generate_scene(spec)


_BLOCK = synth._DRAW_BLOCK


def _wide_scene_spec(seed):
    geom = GridGeometry(dims=(64, 128, 64), voxel_edge=0.2, origin=(-11.2, -12.8, 0.4))
    return dataclasses.replace(default_scene_spec(seed), geometry=geom)


@pytest.mark.parametrize("block", [1, 7])
def test_scene_block_draws_match_one_draw_per_call(monkeypatch, block):
    spec = _wide_scene_spec(seed=3)
    blocked = generate_scene(spec)
    calls = []
    uniforms = rng.uniforms

    def counted(seed, counters):
        calls.append(np.size(counters))
        return uniforms(seed, counters)

    monkeypatch.setattr(rng, "uniforms", counted)
    monkeypatch.setattr(synth, "_DRAW_BLOCK", block)
    oracle = generate_scene(spec)
    assert np.array_equal(oracle.labels, blocked.labels)
    assert sum(calls) > 2 * _BLOCK  # the draws cross at least two blocks
    assert set(calls) == {block}


# ---------------------------------------------------------------------------
# depth rendering


def test_render_empty_world_all_invalid():
    geom = default_geometry()
    world = LabelGrid(np.ones(geom.dims), class_count=5)
    gt, est = render_depth(world, default_intrinsics(), geom, DepthNoise(0.1, 0.0), seed=1)
    assert not gt.valid_mask.any()
    assert not est.valid_mask.any()


def test_render_tiny_noise_estimate_matches_truth():
    world = generate_scene(default_scene_spec(seed=2))
    geom = default_geometry()
    gt, est = render_depth(world, default_intrinsics(), geom, DepthNoise(1e-9, 0.0), seed=3)
    assert gt.valid_mask.any()
    sel = est.valid_mask
    assert np.allclose(est.mean[sel], gt.depth[sel], atol=1e-7)


def test_render_rejects_zero_noise():
    world = generate_scene(default_scene_spec(seed=2))
    with pytest.raises(ValueError):
        render_depth(world, default_intrinsics(), default_geometry(), DepthNoise(0.0, 0.0))


@pytest.mark.parametrize(
    "noise", [(math.nan, 0.06), (0.03, math.nan), (math.inf, 0.06), (0.03, math.inf)]
)
def test_render_refuses_noise_that_is_not_finite(noise):
    # a NaN used to render an estimate with no valid pixel, and no error
    world = generate_scene(default_scene_spec(seed=0))
    with pytest.raises(ValidationError) as info:
        render_depth(world, default_intrinsics(), default_geometry(), DepthNoise(*noise))
    assert str(info.value) == "noise.a and noise.b must be finite and >= 0 with a positive sum"


def test_render_wall_residuals_standard_normal():
    # single wall: occupied slab at a fixed depth, constant sigma
    geom = default_geometry()
    labels = np.ones(geom.dims, dtype=np.uint16)
    labels[:, :, 10] = 3  # wall at z in [2.4, 2.6)
    world = LabelGrid(labels, class_count=5)
    gt, est = render_depth(world, default_intrinsics(), geom, DepthNoise(0.2, 0.0), seed=4)
    sel = est.valid_mask
    p = int(sel.sum())
    assert p > 1000
    resid = (est.mean[sel] - gt.depth[sel]) / 0.2
    assert abs(resid.mean()) <= 3.0 / np.sqrt(p)
    assert abs(resid.var() - 1.0) <= 5.0 / np.sqrt(p)


def test_render_first_hit_depth_is_wall_entry():
    geom = default_geometry()
    labels = np.ones(geom.dims, dtype=np.uint16)
    labels[:, :, 10] = 3
    world = LabelGrid(labels, class_count=5)
    gt, _ = render_depth(world, default_intrinsics(), geom, DepthNoise(0.05, 0.0), seed=5)
    h = int(default_intrinsics().c_h)
    w = int(default_intrinsics().c_w)
    # principal-ish ray enters the wall slab at z = 0.4 + 10 * 0.2
    assert gt.valid_mask[h, w]
    assert gt.depth[h, w] == pytest.approx(2.4, abs=1e-9)


# ---------------------------------------------------------------------------
# classifier surrogate


def test_classifier_identity_high_sharpness_matches_truth():
    labels = draw_labels(2000, [0.5, 0.3, 0.2], seed=6)
    spec = ClassifierSpec(confusion=np.eye(3), sharpness=60.0, temperature=1.0, seed=7)
    probs = classify_labels(labels, spec)
    assert np.array_equal(probs.argmax(axis=1) + 1, labels)


def test_classifier_uniform_confusion_chance_accuracy():
    m = 5
    labels = draw_labels(20_000, [0.2] * 5, seed=8)
    spec = ClassifierSpec(
        confusion=np.full((m, m), 1.0 / m), sharpness=4.0, temperature=1.0, seed=9
    )
    probs = classify_labels(labels, spec)
    acc = np.mean(probs.argmax(axis=1) + 1 == labels)
    se = np.sqrt(0.2 * 0.8 / labels.size)
    assert abs(acc - 0.2) <= 4 * se


def test_classifier_temperature_softens_but_keeps_argmax():
    labels = draw_labels(500, [0.4, 0.3, 0.3], seed=10)
    confusion = np.eye(3) * 0.85 + 0.05
    spec1 = ClassifierSpec(confusion, 4.0, temperature=1.0, seed=11)
    spec2 = ClassifierSpec(confusion, 4.0, temperature=2.0, seed=11)
    p1 = classify_labels(labels, spec1)
    p2 = classify_labels(labels, spec2)
    assert np.array_equal(p1.argmax(axis=1), p2.argmax(axis=1))
    assert np.all(p2.max(axis=1) < p1.max(axis=1))


def test_classifier_deterministic_and_exchangeable_by_counter():
    labels = draw_labels(100, [0.5, 0.5], seed=12)
    spec = ClassifierSpec(np.eye(2), 3.0, 1.5, seed=13)
    a = classify_labels(labels, spec)
    b = classify_labels(labels, spec)
    assert np.array_equal(a, b)


def test_synth_classifier_grid_shape_and_sum():
    world = generate_scene(default_scene_spec(seed=14))
    grid = synth_classifier(world, default_classifier_spec(seed=15))
    assert grid.dims == world.dims
    assert grid.class_count == 5


def test_classifier_rejects_bad_confusion():
    with pytest.raises(ValidationError):
        ClassifierSpec(np.array([[0.5, 0.4], [0.5, 0.5]]), 3.0, 1.0)


def test_draw_labels_matches_fractions():
    mix = [0.9, 0.07, 0.03]
    labels = draw_labels(50_000, mix, seed=16)
    for y, f in enumerate(mix, start=1):
        got = np.mean(labels == y)
        assert abs(got - f) <= 4 * np.sqrt(f * (1 - f) / labels.size)


def _classify_reference(labels, spec):
    """classify_labels as written with numpy's axis reductions."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, m = labels.size, spec.class_count
    u = rng.uniforms(rng.derive_seed(spec.seed, rng.TAG_TARGET), np.arange(n))
    cdf = np.cumsum(spec.confusion, axis=1)[labels - 1]
    target = (u[:, None] > cdf[:, :-1]).sum(axis=1)
    logits = rng.gumbels(
        rng.derive_seed(spec.seed, rng.TAG_GUMBEL), np.arange(n * m)
    ).reshape(n, m)
    logits[np.arange(n), target] += spec.sharpness[labels - 1]
    logits /= spec.temperature
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


@pytest.mark.parametrize("n", [0, 1, 4097])
@pytest.mark.parametrize("m", [2, 5])
def test_classify_labels_matches_axis_reductions(m, n):
    if m == 5:
        spec = default_classifier_spec(seed=17)
    else:
        spec = ClassifierSpec(np.array([[0.7, 0.3], [0.2, 0.8]]), (2.0, 5.0), 1.3, seed=17)
    labels = draw_labels(n, [1.0 / m] * m, seed=18)
    got = classify_labels(labels, spec)
    want = _classify_reference(labels, spec)
    assert got.shape == want.shape == (n, m)
    assert got.tobytes() == want.tobytes()

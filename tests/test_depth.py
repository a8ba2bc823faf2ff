import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sscuq.depth import _erf, _erfc_pos, _interval_prob, gaussian_cdf_interval, kl_loss
from sscuq.grids import DepthEstimate, GroundTruthDepth
from sscuq.rng import normals, uniforms

# erf oracle: P(|Z| <= 1) = erf(1/sqrt(2))
ONE_SIGMA_MASS = 0.682689492137086


def test_cdf_half_mass_below_mean():
    assert gaussian_cdf_interval(-math.inf, 5.0, 5.0, 2.0) == pytest.approx(0.5, abs=1e-15)


def test_cdf_one_sigma_interval():
    got = gaussian_cdf_interval(4.0, 6.0, 5.0, 1.0)
    assert got == pytest.approx(ONE_SIGMA_MASS, abs=1e-12)


def test_cdf_zero_width_interval():
    assert gaussian_cdf_interval(3.0, 3.0, 5.0, 1.0) == 0.0


def test_cdf_whole_line():
    assert gaussian_cdf_interval(-math.inf, math.inf, 0.0, 1.0) == 1.0


def test_cdf_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gaussian_cdf_interval(0.0, 1.0, 0.0, 0.0)


def test_cdf_rejects_reversed_interval():
    with pytest.raises(ValueError):
        gaussian_cdf_interval(1.0, 0.0, 0.0, 1.0)


def test_cdf_far_tail_accuracy():
    # 8..9 sigma tail: difference of the survival function, no cancellation
    from scipy.stats import norm

    got = gaussian_cdf_interval(8.0, 9.0, 0.0, 1.0)
    want = norm.sf(8.0) - norm.sf(9.0)
    assert got == pytest.approx(want, rel=1e-10)
    assert got > 0


# ---------------------------------------------------------------------------
# numpy erf/erfc against the correctly rounded math module

_TINY = np.finfo(np.float64).tiny  # below it a float carries no relative accuracy


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.maximum(np.abs(want), _TINY))


def test_erfc_within_8_ulp_of_math():
    # Cody's three ranges meet at 0.46875 and 4; erfc is subnormal past 26.55
    rng = np.random.default_rng(11)
    x = np.concatenate([np.linspace(0.0, 26.5, 100_001), rng.uniform(0.0, 6.0, 50_000)])
    want = np.array([math.erfc(v) for v in x.tolist()])
    assert _ulps(_erfc_pos(x), want).max() <= 8
    x = np.array([26.5, 26.7, 27.0, 27.3, 27.5, 40.0, math.inf])
    want = np.array([math.erfc(v) for v in x.tolist()])
    assert np.all(np.abs(_erfc_pos(x) - want) <= _TINY)
    assert _erfc_pos(np.array([math.inf]))[0] == 0.0


def test_erf_within_4_ulp_of_math():
    x = np.concatenate([np.linspace(-7.0, 7.0, 100_001), [-math.inf, -0.0, 0.0, math.inf]])
    want = np.array([math.erf(v) for v in x.tolist()])
    assert _ulps(_erf(x), want).max() <= 4


def _reference_interval(z_lo, z_hi, mean, sigma):
    """(P, larger term) in the code's branch, from math.erf/math.erfc."""
    a = (z_lo - mean) / (sigma * math.sqrt(2.0))
    b = (z_hi - mean) / (sigma * math.sqrt(2.0))
    if a >= 0:
        terms = (math.erfc(a), math.erfc(b))
    elif b <= 0:
        terms = (math.erfc(-b), math.erfc(-a))
    else:
        terms = (math.erf(b), math.erf(a))
    return 0.5 * (terms[0] - terms[1]), 0.5 * max(abs(t) for t in terms)


# standardized bounds (a, b): zero widths, infinite endpoints, far tails on
# both sides, the branch edges a = 0 and b = 0, and Cody's range edges
_SPECIAL_BOUNDS = [
    (0.0, 0.0), (3.0, 3.0), (-3.0, -3.0), (30.0, 30.0),
    (-math.inf, 0.0), (0.0, math.inf), (-math.inf, math.inf), (-math.inf, -math.inf),
    (math.inf, math.inf), (5.0, math.inf), (-math.inf, -5.0), (-math.inf, 2.0), (-2.0, math.inf),
    (8.0, 9.0), (20.0, 20.5), (26.0, 27.0), (-27.0, -26.0), (-40.0, -30.0), (30.0, 40.0),
    (-1e-3, 1e-3), (-0.4, 0.46875), (-5.0, 5.0), (-0.46875, 4.0), (0.46875, 4.0), (-4.0, -0.46875),
]


def test_interval_prob_matches_math_reference():
    # two function values per interval, each within 8 ulp: the difference
    # is held to 16 ulp of the larger one, since differences of tails cancel
    rng = np.random.default_rng(12)
    n = 20_000
    mean = rng.uniform(-5.0, 5.0, n)
    sigma = np.exp(rng.uniform(-4.0, 2.0, n))
    z_lo = mean + sigma * rng.normal(0.0, 8.0, n)
    z_hi = z_lo + sigma * rng.exponential(1.0, n) * np.where(rng.random(n) < 0.3, 0.01, 1.0)
    a, b = np.array(_SPECIAL_BOUNDS).T
    z_lo = np.concatenate([z_lo, a * math.sqrt(2.0)])
    z_hi = np.concatenate([z_hi, b * math.sqrt(2.0)])
    mean = np.concatenate([mean, np.zeros(a.size)])
    sigma = np.concatenate([sigma, np.ones(a.size)])

    got = _interval_prob(z_lo, z_hi, mean, sigma)
    ref = [_reference_interval(*args) for args in zip(z_lo.tolist(), z_hi.tolist(), mean, sigma)]
    want, larger = np.array(ref).T
    assert np.all(np.abs(got - want) <= 16 * np.spacing(np.maximum(larger, _TINY)))
    straddle = (z_lo < mean) & (z_hi > mean)
    assert straddle.any() and (z_lo >= mean).any() and (z_hi <= mean).any()


@given(
    st.floats(-50, 50),
    st.floats(-50, 50),
    st.floats(-10, 10),
    st.floats(0.01, 20),
)
@settings(max_examples=200, deadline=None)
def test_cdf_monotone_and_bounded(a, b, mean, sigma):
    lo, hi = min(a, b), max(a, b)
    p = gaussian_cdf_interval(lo, hi, mean, sigma)
    assert 0.0 <= p <= 1.0
    wider = gaussian_cdf_interval(lo - 1.0, hi + 1.0, mean, sigma)
    assert wider >= p - 1e-15


@given(
    st.floats(-20, 20),
    st.floats(0.1, 10),
    st.floats(-30, 30),
    st.floats(0, 30),
    st.floats(0, 30),
)
@settings(max_examples=200, deadline=None)
def test_cdf_additive_over_adjacent_intervals(mean, sigma, start, len1, len2):
    mid = start + len1
    end = mid + len2
    whole = gaussian_cdf_interval(start, end, mean, sigma)
    parts = gaussian_cdf_interval(start, mid, mean, sigma) + gaussian_cdf_interval(
        mid, end, mean, sigma
    )
    assert abs(whole - parts) <= 1e-12


# ---------------------------------------------------------------------------
# loss


def _maps(depth, mean, sigma, valid=None):
    depth = np.asarray(depth, dtype=np.float64)
    if valid is None:
        valid = np.ones(depth.shape, bool)
    gt = GroundTruthDepth(depth, valid)
    est = DepthEstimate(np.asarray(mean, np.float64), np.asarray(sigma, np.float64), valid)
    return gt, est


def test_loss_zero_residual_unit_sigma():
    d = np.full((3, 3), 4.0)
    gt, est = _maps(d, d, np.ones_like(d))
    rep = kl_loss(gt, est)
    assert rep.loss == 0.0
    assert np.all(rep.grad_mean == 0.0)
    assert np.allclose(rep.grad_sigma, 1.0 / 9.0)


def test_loss_single_pixel_unit_residual():
    gt, est = _maps([[5.0]], [[4.0]], [[1.0]])
    assert kl_loss(gt, est).loss == pytest.approx(0.5)


def test_loss_single_pixel_log_term():
    gt, est = _maps([[5.0]], [[5.0]], [[math.e]])
    assert kl_loss(gt, est).loss == pytest.approx(1.0)


def test_loss_requires_matching_shapes():
    gt = GroundTruthDepth(np.ones((2, 2)), np.ones((2, 2), bool))
    est = DepthEstimate(np.ones((3, 3)), np.ones((3, 3)), np.ones((3, 3), bool))
    with pytest.raises(ValueError):
        kl_loss(gt, est)


def test_loss_requires_a_valid_pixel():
    gt, est = _maps([[1.0]], [[1.0]], [[1.0]], valid=np.zeros((1, 1), bool))
    with pytest.raises(ValueError):
        kl_loss(gt, est)


def test_loss_masked_mean_matches_manual():
    valid = np.array([[True, False], [True, True]])
    d = np.array([[2.0, 9.0], [3.0, 4.0]])
    mu = np.array([[2.5, 1.0], [3.0, 3.0]])
    sg = np.array([[0.5, 1.0], [2.0, 1.5]])
    gt, est = _maps(d, mu, sg, valid)
    per_pixel = (d - mu) ** 2 / (2 * sg**2) + np.log(sg)
    assert kl_loss(gt, est).loss == pytest.approx(per_pixel[valid].mean())


def _random_instance(seed, shape=(4, 4)):
    n = shape[0] * shape[1]
    d = 1.0 + 9.0 * uniforms(seed, np.arange(n)).reshape(shape)
    mu = d + 0.8 * normals(seed + 1, np.arange(n)).reshape(shape)
    mu = np.abs(mu) + 0.1
    sg = 0.5 + 1.5 * uniforms(seed + 2, np.arange(n)).reshape(shape)
    return _maps(d, mu, sg)


def _fd_gradients(gt, est, h=1e-5):
    grad_mean = np.zeros(est.shape)
    grad_sigma = np.zeros(est.shape)
    for i in range(est.shape[0]):
        for j in range(est.shape[1]):
            for target, out in ((est.mean, grad_mean), (est.sigma, grad_sigma)):
                hi = np.array(target)
                lo = np.array(target)
                hi[i, j] += h
                lo[i, j] -= h
                if target is est.mean:
                    up = DepthEstimate(hi, est.sigma, est.valid_mask)
                    dn = DepthEstimate(lo, est.sigma, est.valid_mask)
                else:
                    up = DepthEstimate(est.mean, hi, est.valid_mask)
                    dn = DepthEstimate(est.mean, lo, est.valid_mask)
                out[i, j] = (kl_loss(gt, up).loss - kl_loss(gt, dn).loss) / (2 * h)
    return grad_mean, grad_sigma


def test_gradients_match_finite_differences():
    for seed in range(5):
        gt, est = _random_instance(100 + 10 * seed)
        rep = kl_loss(gt, est)
        fd_mean, fd_sigma = _fd_gradients(gt, est)
        assert np.allclose(rep.grad_mean, fd_mean, rtol=1e-5, atol=1e-10)
        assert np.allclose(rep.grad_sigma, fd_sigma, rtol=1e-5, atol=1e-10)


def test_per_pixel_loss_minimized_at_absolute_residual():
    # scan sigma for a fixed residual; the minimum sits at |d - mean|
    d, mu = 5.0, 3.5
    resid = abs(d - mu)
    sigmas = np.linspace(0.3, 4.0, 400)
    losses = (d - mu) ** 2 / (2 * sigmas**2) + np.log(sigmas)
    best = sigmas[np.argmin(losses)]
    assert best == pytest.approx(resid, abs=sigmas[1] - sigmas[0])

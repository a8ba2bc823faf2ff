"""Heteroscedastic depth-regression loss and Gaussian interval probabilities.

The loss treats each pixel's estimated depth as a Gaussian with the
predicted mean and standard deviation and the true depth as a point
mass; evaluating (not training) that objective and its analytic
gradients is all this module does.  The interval CDF helper is shared
with the geometric projection, which integrates the same per-pixel
Gaussians over ray/voxel crossings.

The interval CDF needs ``erf`` and ``erfc``, which this module computes
with numpy alone from W. J. Cody's rational Chebyshev approximations
("Rational Chebyshev approximations for the error function", Math.
Comp. 23, 1969): three ranges, each a ratio of two polynomials, with
``exp(-x*x)`` split so that the square of a large argument loses no
accuracy.  Against a correctly rounded reference ``erfc`` is within
8 ulp and ``erf`` within 4 ulp; the package imports no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import DepthEstimate, GroundTruthDepth

__all__ = ["KlLossReport", "gaussian_cdf_interval", "kl_loss"]

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class KlLossReport:
    """Scalar loss plus per-pixel gradients wrt depth mean and sigma."""

    loss: float
    grad_mean: np.ndarray
    grad_sigma: np.ndarray


# Coefficients of Cody's CALERF, each tuple from the highest degree down.
# erf(x) = x * P(x^2) / Q(x^2) for |x| <= 0.46875
_ERF_NUM = (
    1.85777706184603153e-1,
    3.16112374387056560e00,
    1.13864154151050156e02,
    3.77485237685302021e02,
    3.20937758913846947e03,
)
_ERF_DEN = (
    1.0,
    2.36012909523441209e01,
    2.44024637934444173e02,
    1.28261652607737228e03,
    2.84423683343917062e03,
)
# erfc(x) = exp(-x^2) * P(x) / Q(x) for 0.46875 < x <= 4
_ERFC_NUM = (
    2.15311535474403846e-8,
    5.64188496988670089e-1,
    8.88314979438837594e00,
    6.61191906371416295e01,
    2.98635138197400131e02,
    8.81952221241769090e02,
    1.71204761263407058e03,
    2.05107837782607147e03,
    1.23033935479799725e03,
)
_ERFC_DEN = (
    1.0,
    1.57449261107098347e01,
    1.17693950891312499e02,
    5.37181101862009858e02,
    1.62138957456669019e03,
    3.29079923573345963e03,
    4.36261909014324716e03,
    3.43936767414372164e03,
    1.23033935480374942e03,
)
# erfc(x) = exp(-x^2) / x * (1/sqrt(pi) - s * P(s) / Q(s)), s = 1/x^2, for x > 4
_TAIL_NUM = (
    1.63153871373020978e-2,
    3.05326634961232344e-1,
    3.60344899949804439e-1,
    1.25781726111229246e-1,
    1.60837851487422766e-2,
    6.58749161529837803e-4,
)
_TAIL_DEN = (
    1.0,
    2.56852019228982242e00,
    1.87295284992346725e00,
    5.27905102951428412e-1,
    6.05183413124413191e-2,
    2.33520497626869185e-3,
)
_INV_SQRT_PI = 5.6418958354775628695e-1
_SMALL = 0.46875
_MID = 4.0
# erfc underflows to 0 past 27.3; clipping there keeps +inf out of the ratio
_FAR = 27.5


def _horner(x, coeffs):
    """The polynomial with ``coeffs`` (highest degree first) at ``x``."""
    y = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        y *= x
        y += c
    return y


def _erf_small(x):
    """erf(x) for |x| <= 0.46875."""
    x2 = x * x
    return x * _horner(x2, _ERF_NUM) / _horner(x2, _ERF_DEN)


def _exp_neg_square(x):
    """exp(-x*x), with x split at a multiple of 1/16 whose square is exact."""
    k = np.trunc(x * 16.0) / 16.0
    return np.exp(-k * k) * np.exp(-(x - k) * (x + k))


def _erfc_pos(x):
    """erfc(x) for x >= 0, +inf included, elementwise on a float64 array."""
    out = np.empty_like(x)
    small = x <= _SMALL
    far = x > _MID
    mid = ~(small | far)
    out[small] = 1.0 - _erf_small(x[small])
    y = x[mid]
    out[mid] = _horner(y, _ERFC_NUM) / _horner(y, _ERFC_DEN) * _exp_neg_square(y)
    y = np.minimum(x[far], _FAR)
    s = 1.0 / (y * y)
    tail = _INV_SQRT_PI - s * _horner(s, _TAIL_NUM) / _horner(s, _TAIL_DEN)
    out[far] = tail / y * _exp_neg_square(y)
    return out


def _erf(x):
    """erf(x), elementwise on a float64 array."""
    ax = np.abs(x)
    out = np.empty_like(x)
    small = ax <= _SMALL
    out[small] = _erf_small(x[small])
    big = ~small
    out[big] = np.copysign(1.0 - _erfc_pos(ax[big]), x[big])
    return out


def _interval_prob(z_lo, z_hi, mean, sigma):
    """P(z_lo <= Z <= z_hi) for Z ~ N(mean, sigma^2), elementwise.

    Each interval takes the one form that keeps its accuracy, two
    function values per interval: one wholly above the mean as
    erfc(a) - erfc(b), one wholly below it mirrored onto the upper half,
    and one that straddles it as erf(b) - erf(a).  Far tails
    (|z - mean| >> sigma) so keep absolute accuracy instead of
    cancelling; the projection sums many such tail slivers.
    """
    scale = sigma * _SQRT2
    a, b = np.broadcast_arrays((z_lo - mean) / scale, (z_hi - mean) / scale)
    p = np.empty(a.shape)
    upper = a >= 0
    p[upper] = _erfc_pos(a[upper]) - _erfc_pos(b[upper])
    lower = (b <= 0) & ~upper
    p[lower] = _erfc_pos(-b[lower]) - _erfc_pos(-a[lower])
    straddle = ~(upper | lower)
    p[straddle] = _erf(b[straddle]) - _erf(a[straddle])
    p *= 0.5
    return np.clip(p, 0.0, 1.0, out=p)


def gaussian_cdf_interval(z_lo: float, z_hi: float, mean: float, sigma: float) -> float:
    """Probability that N(mean, sigma^2) lands in [z_lo, z_hi].

    Infinite endpoints are allowed.  Raises ValueError when sigma <= 0
    or the interval is reversed.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if z_lo > z_hi:
        raise ValueError(f"interval is reversed: [{z_lo}, {z_hi}]")
    return float(_interval_prob(z_lo, z_hi, mean, sigma))


def kl_loss(gt: GroundTruthDepth, est: DepthEstimate) -> KlLossReport:
    """Gaussian negative-log-likelihood style depth loss and its gradients.

    Averages ``(d - mean)^2 / (2 sigma^2) + log(sigma)`` over the pixels
    valid in both maps (count P).  Gradients are zero on excluded
    pixels; on valid pixels:

    * d/d(mean):  -(d - mean) / (sigma^2 * P)
    * d/d(sigma): (-(d - mean)^2 / sigma^3 + 1 / sigma) / P
    """
    if gt.shape != est.shape:
        raise ValueError(f"shape mismatch: gt {gt.shape} vs estimate {est.shape}")
    valid = gt.valid_mask & est.valid_mask
    p = int(valid.sum())
    if p == 0:
        raise ValueError("no pixel is valid in both depth maps")

    d = gt.depth[valid]
    mu = est.mean[valid]
    sg = est.sigma[valid]
    resid = d - mu
    loss = float(np.sum(resid**2 / (2.0 * sg**2) + np.log(sg)) / p)

    grad_mean = np.zeros(est.shape, dtype=np.float64)
    grad_sigma = np.zeros(est.shape, dtype=np.float64)
    grad_mean[valid] = -resid / (sg**2 * p)
    grad_sigma[valid] = (-(resid**2) / sg**3 + 1.0 / sg) / p
    return KlLossReport(loss=loss, grad_mean=grad_mean, grad_sigma=grad_sigma)

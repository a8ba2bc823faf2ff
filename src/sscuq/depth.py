"""Heteroscedastic depth-regression loss and Gaussian interval probabilities.

The loss treats each pixel's estimated depth as a Gaussian with the
predicted mean and standard deviation and the true depth as a point
mass; evaluating (not training) that objective and its analytic
gradients is all this module does.  The interval CDF helper is shared
with the geometric projection, which integrates the same per-pixel
Gaussians over ray/voxel crossings.

The interval CDF is the package's only use of scipy (``erf``/``erfc``).
It imports ``scipy.special`` when first called, so only the
probabilistic projection loads scipy; importing the package does not.
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


def _interval_prob(z_lo, z_hi, mean, sigma):
    """P(z_lo <= Z <= z_hi) for Z ~ N(mean, sigma^2), elementwise.

    Evaluated through erf/erfc with same-sign reduction so that far
    tails (|z - mean| >> sigma) keep absolute accuracy instead of
    cancelling; the projection sums many such tail slivers.
    """
    from scipy import special

    a = (z_lo - mean) / (sigma * _SQRT2)
    b = (z_hi - mean) / (sigma * _SQRT2)
    with np.errstate(invalid="ignore"):
        both_pos = special.erfc(a) - special.erfc(b)
        both_neg = special.erfc(-b) - special.erfc(-a)
        mixed = special.erf(b) - special.erf(a)
    p = 0.5 * np.where(a >= 0, both_pos, np.where(b <= 0, both_neg, mixed))
    return np.clip(p, 0.0, 1.0)


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

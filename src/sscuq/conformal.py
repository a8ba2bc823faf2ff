"""Split conformal prediction for voxel classification, flat and hierarchical.

Three calibration schemes share the same scores and quantile rule.  Each
calibrator returns a model whose ``predict(probs)`` gives (occupied
flags, membership matrix), and ``save_model``/``load_model`` persist any
of the three models as JSON:

* SCP: one quantile of ``1 - f_y`` over all calibration records, giving
  marginal coverage.
* CCCP: one quantile per class over that class's records, giving
  class-conditional coverage.
* HCP: a two-level scheme.  A geometric gate thresholds a KL-based
  occupancy score against per-rare-class quantiles and decides
  occupied/empty; gated voxels then receive a prediction set from
  per-class semantic quantiles whose error rates are split so the two
  stages compose to the requested class-conditional coverage.

Class labels are 1-based; class 1 is the empty class and never appears
in an HCP prediction set (the empty set itself encodes "empty").
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np
from scipy import special

from .container import atomic_write
from .grids import LabelGrid, SoftmaxGrid, SOFTMAX_SUM_TOL, ValidationError

__all__ = [
    "DegeneracyWarning",
    "CalibrationSet",
    "HcpConfig",
    "HcpModel",
    "ScpModel",
    "CccpModel",
    "score_class",
    "score_occupied",
    "score_kl",
    "conformal_quantile",
    "class_quantiles",
    "split_alpha",
    "scp_calibrate",
    "cccp_calibrate",
    "hcp_calibrate",
    "hcp_predict_batch",
    "save_model",
    "load_model",
]


class DegeneracyWarning(UserWarning):
    """A class had too little calibration data for a meaningful quantile."""


# ---------------------------------------------------------------------------
# scores


def _check_softmax(f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.shape[-1] < 2:
        raise ValueError("softmax vectors need at least 2 classes")
    return f


def score_class(f, y: int):
    """Disagreement of the vector with class y: ``1 - f_y``."""
    f = _check_softmax(f)
    if not 1 <= y <= f.shape[-1]:
        raise ValueError(f"class {y} out of range 1..{f.shape[-1]}")
    return 1.0 - f[..., y - 1]


def score_occupied(f):
    """Disagreement with "occupied": one minus the nonempty mass = f_1."""
    f = _check_softmax(f)
    return f[..., 0]


def score_kl(f, epsilon: float = 0.01):
    """KL divergence of the vector from the occupancy reference {eps, 1, .., 1}.

    Equals ``p1*log(p1/eps) + sum_{i>=2} p_i*log(p_i)`` with the
    0*log(0) = 0 convention.  Low scores mean occupied-looking vectors:
    little empty mass, nonempty mass spread widely.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    f = _check_softmax(f)
    return special.xlogy(f, f).sum(axis=-1) - f[..., 0] * math.log(epsilon)


# ---------------------------------------------------------------------------
# quantile rule


def conformal_quantile(scores, alpha: float) -> float:
    """The ceil((N+1)(1-alpha))-th smallest score, or +inf when that rank
    exceeds N (insufficient data: accept everything).

    A 1e-9 slack guards the ceiling against float noise when
    (N+1)(1-alpha) is an exact integer.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    scores = np.asarray(scores, dtype=np.float64).ravel()
    n = scores.size
    k = math.ceil((n + 1) * (1.0 - alpha) - 1e-9)
    if n == 0 or k > n:
        return math.inf
    return float(np.partition(scores, k - 1)[k - 1])


def split_alpha(alpha_target: float, alpha_o: float) -> float:
    """Semantic error rate solving (1-target) = (1-result)(1-alpha_o).

    Clamped to 0 when the identity has no nonnegative solution (that is,
    when alpha_o >= alpha_target), which makes the semantic quantile
    +inf and keeps the coverage direction vacuously intact.
    """
    if not 0.0 < alpha_target < 1.0:
        raise ValueError(f"alpha_target must be in (0, 1), got {alpha_target}")
    if not 0.0 < alpha_o < 1.0:
        raise ValueError(f"alpha_o must be in (0, 1), got {alpha_o}")
    return max(0.0, 1.0 - (1.0 - alpha_target) / (1.0 - alpha_o))


# ---------------------------------------------------------------------------
# data containers


@dataclass(frozen=True)
class CalibrationSet:
    """Labeled softmax vectors: probs (N, M) with labels in {1..M}."""

    probs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        probs = np.ascontiguousarray(np.asarray(self.probs, dtype=np.float64))
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if probs.ndim != 2 or probs.shape[1] < 2:
            raise ValidationError("probs must be (N, M) with M >= 2")
        if labels.shape != (probs.shape[0],):
            raise ValidationError("labels must be a vector matching probs rows")
        if np.any(probs < 0):
            raise ValidationError("softmax entries must be non-negative")
        if probs.shape[0]:
            sums = probs.sum(axis=1)
            if not np.all(np.abs(sums - 1.0) <= SOFTMAX_SUM_TOL):
                raise ValidationError("softmax vectors must sum to 1")
            if labels.min() < 1 or labels.max() > probs.shape[1]:
                raise ValidationError("labels out of range")
        probs.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def class_count(self) -> int:
        return self.probs.shape[1]

    @classmethod
    def from_grids(cls, grid: SoftmaxGrid, labels: LabelGrid, mask=None) -> "CalibrationSet":
        """Collect (vector, label) records from aligned grids.

        ``mask`` selects voxels (boolean grid or flat boolean array);
        all voxels by default.
        """
        if grid.dims != labels.dims:
            raise ValidationError(f"grid dims {grid.dims} != label dims {labels.dims}")
        if grid.class_count != labels.class_count:
            raise ValidationError("class counts differ between grids")
        probs = grid.flat()
        labs = labels.flat()
        if mask is not None:
            mask = np.asarray(mask, dtype=bool).reshape(-1)
            if mask.shape != labs.shape:
                raise ValidationError("mask size must match the voxel count")
            probs, labs = probs[mask], labs[mask]
        return cls(probs, labs)


def class_quantiles(score, cal: CalibrationSet, alpha: Mapping[int, float]) -> dict[int, float]:
    """For each class y in ``alpha``, the conformal quantile at rate
    ``alpha[y]`` of ``score(f, y)`` over the vectors f labeled y.

    A class with too few records gets +inf and raises a DegeneracyWarning.
    """
    quantiles = {}
    for y, a in alpha.items():
        scores = score(cal.probs[cal.labels == y], y)
        quantiles[y] = conformal_quantile(scores, a)
        if quantiles[y] == math.inf:
            warnings.warn(
                f"class {y} has too few calibration records ({scores.size}) for "
                f"alpha={a}; its quantile is +inf",
                DegeneracyWarning,
                stacklevel=3,
            )
    return quantiles


# ---------------------------------------------------------------------------
# calibrated models
#
# A model's dataclass fields are its whole persistent state: save_model and
# load_model derive the JSON document from the field annotations.


def _require_classes(name: str, values: Mapping[int, float], classes) -> None:
    if set(values) != set(classes):
        raise ValidationError(f"model field {name!r} must cover exactly classes {sorted(classes)}")


def _quantile_row(quantiles: Mapping[int, float], class_count: int) -> np.ndarray:
    row = np.full(class_count, -np.inf)
    for y, q in quantiles.items():
        row[y - 1] = q
    return row


@dataclass(frozen=True)
class _Model:
    class_count: int

    def _probs(self, probs) -> np.ndarray:
        probs = _check_softmax(probs)
        if probs.shape[-1] != self.class_count:
            raise ValidationError(
                f"vectors have {probs.shape[-1]} classes, model {self.class_count}"
            )
        return probs

    def predict(self, probs):
        """(occupied, member) for vectors (..., M): class y, the empty class
        included, is in a set iff ``1 - f_y`` is within its quantile, and a
        vector is occupied iff its set holds a nonempty class."""
        member = 1.0 - self._probs(probs) <= self._quantiles()
        return member[..., 1:].any(axis=-1), member


@dataclass(frozen=True)
class ScpModel(_Model):
    """SCP: one marginal quantile ``q`` of 1 - f_y at error rate ``alpha``."""

    alpha: float
    q: float

    def _quantiles(self):
        return self.q

    @property
    def target_rates(self) -> dict[int, float]:
        return {y: self.alpha for y in range(2, self.class_count + 1)}


@dataclass(frozen=True)
class CccpModel(_Model):
    """CCCP: a quantile ``q[y]`` of 1 - f_y at rate ``alpha[y]`` per class 1..M."""

    alpha: Mapping[int, float]
    q: Mapping[int, float]

    def __post_init__(self):
        _require_classes("q", self.q, range(1, self.class_count + 1))

    def _quantiles(self):
        return _quantile_row(self.q, self.class_count)

    @property
    def target_rates(self) -> dict[int, float]:
        return {y: a for y, a in self.alpha.items() if y >= 2}


@dataclass(frozen=True)
class HcpModel(_Model):
    """Calibrated hierarchical model: gate quantiles plus semantic state."""

    rare_set: frozenset[int]
    epsilon: float
    q_o: Mapping[int, float]
    alpha_o: Mapping[int, float]
    alpha_s: Mapping[int, float]
    q_s: Mapping[int, float]
    alpha_target: Mapping[int, float]

    def __post_init__(self):
        if not self.rare_set:
            raise ValidationError("model field 'rare_set' must be non-empty")
        _require_classes("q_o", self.q_o, self.rare_set)
        _require_classes("q_s", self.q_s, range(2, self.class_count + 1))

    @property
    def gate_threshold(self) -> float:
        """A vector is predicted occupied iff its KL score is <= this."""
        return max(self.q_o.values())

    @property
    def target_rates(self) -> dict[int, float]:
        """Target error rate of each nonempty class."""
        return {y: a for y, a in self.alpha_target.items() if y >= 2}

    def predict(self, probs):
        """(occupied, member) for vectors (..., M): a vector whose KL score
        passes the gate gets ``{y >= 2: 1 - f_y <= q_s[y]}``, any other
        vector the empty set."""
        probs = self._probs(probs)
        occ = score_kl(probs, self.epsilon) <= self.gate_threshold
        member = 1.0 - probs <= _quantile_row(self.q_s, self.class_count)
        member[..., 0] = False
        member &= occ[..., None]
        return occ, member


# ---------------------------------------------------------------------------
# SCP / CCCP baselines


def scp_calibrate(cal: CalibrationSet, alpha: float) -> ScpModel:
    """Marginal quantile of true-class scores 1 - f_Y."""
    scores = 1.0 - cal.probs[np.arange(cal.n), cal.labels - 1]
    return ScpModel(class_count=cal.class_count, alpha=alpha, q=conformal_quantile(scores, alpha))


def _alpha_map(alpha, classes) -> dict[int, float]:
    if isinstance(alpha, Mapping):
        missing = [y for y in classes if y not in alpha]
        if missing:
            raise ValueError(f"no error rate given for classes {missing}")
        return {y: float(alpha[y]) for y in classes}
    return {y: float(alpha) for y in classes}


def cccp_calibrate(cal: CalibrationSet, alpha) -> CccpModel:
    """Per-class quantiles of 1 - f_y over each class's own records.

    ``alpha`` is a single rate or a mapping {class: rate} covering every
    class 1..M.  Classes without calibration records get quantile +inf
    (always included) and raise a DegeneracyWarning.
    """
    rates = _alpha_map(alpha, range(1, cal.class_count + 1))
    quantiles = class_quantiles(score_class, cal, rates)
    return CccpModel(class_count=cal.class_count, alpha=rates, q=quantiles)


# ---------------------------------------------------------------------------
# hierarchical conformal prediction


@dataclass(frozen=True)
class HcpConfig:
    """Rates and reference floor for hierarchical calibration.

    ``alpha_o`` gives the occupied error rate for each rare class;
    ``alpha_target`` the desired class-conditional error rate for every
    nonempty class; ``epsilon`` the empty-class floor of the occupancy
    reference distribution.
    """

    class_count: int
    rare_set: frozenset[int]
    alpha_o: Mapping[int, float]
    alpha_target: Mapping[int, float]
    epsilon: float = 0.01

    def __post_init__(self):
        m = int(self.class_count)
        if m < 2:
            raise ValidationError("need at least 2 classes")
        object.__setattr__(self, "class_count", m)
        rare = frozenset(int(y) for y in self.rare_set)
        if not rare:
            raise ValidationError("rare class set must be non-empty")
        if any(y < 2 or y > m for y in rare):
            raise ValidationError("rare classes must be nonempty classes in 2..M")
        object.__setattr__(self, "rare_set", rare)
        alpha_o = {int(y): float(a) for y, a in dict(self.alpha_o).items()}
        if set(alpha_o) != rare:
            raise ValidationError("alpha_o must give a rate for exactly the rare classes")
        alpha_t = {int(y): float(a) for y, a in dict(self.alpha_target).items()}
        if not set(alpha_t) >= set(range(2, m + 1)):
            raise ValidationError("alpha_target must cover every nonempty class")
        for a in list(alpha_o.values()) + list(alpha_t.values()):
            if not 0.0 < a < 1.0:
                raise ValidationError(f"error rates must be in (0, 1), got {a}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValidationError(f"epsilon must be in (0, 1), got {self.epsilon}")
        object.__setattr__(self, "alpha_o", alpha_o)
        object.__setattr__(self, "alpha_target", alpha_t)


def hcp_calibrate(cal: CalibrationSet, cfg: HcpConfig) -> HcpModel:
    """Two-level calibration.

    Geometric level: per rare class, the conformal quantile of the KL
    occupancy score over that class's records.  A record is "predicted
    occupied" when its score passes the loosest rare-class quantile.

    Semantic level: per nonempty class, the empirical gate miss rate
    replaces the occupied error rate for non-rare classes, the target
    rate is split against it, and the class's semantic quantile is the
    conformal quantile of 1 - f_y over its gate-passing records.
    """
    if cal.n == 0:
        raise ValueError("calibration set is empty")
    if cal.class_count != cfg.class_count:
        raise ValidationError(
            f"calibration has {cal.class_count} classes, config {cfg.class_count}"
        )
    q_o = class_quantiles(
        lambda f, y: score_kl(f, cfg.epsilon), cal, dict(sorted(cfg.alpha_o.items()))
    )
    gated = score_kl(cal.probs, cfg.epsilon) <= max(q_o.values())

    alpha_o: dict[int, float] = {}
    alpha_s: dict[int, float] = {}
    q_s: dict[int, float] = {}
    for y in range(2, cfg.class_count + 1):
        sel = cal.labels == y
        tp = int(np.count_nonzero(sel & gated))
        fn = int(np.count_nonzero(sel & ~gated))
        if tp + fn == 0:
            warnings.warn(
                f"class {y} absent from calibration; semantic quantile is +inf",
                DegeneracyWarning,
                stacklevel=2,
            )
            alpha_o[y] = 1.0
            alpha_s[y] = 0.0
            q_s[y] = math.inf
            continue
        a_o = cfg.alpha_o[y] if y in cfg.rare_set else 1.0 - tp / (tp + fn)
        alpha_o[y] = a_o
        target = cfg.alpha_target[y]
        if a_o <= 0.0:
            a_s = target
        elif a_o >= 1.0:
            a_s = 0.0
        else:
            a_s = split_alpha(target, a_o)
        alpha_s[y] = a_s
        scores = 1.0 - cal.probs[sel & gated, y - 1]
        q_s[y] = math.inf if a_s == 0.0 else conformal_quantile(scores, a_s)

    return HcpModel(
        class_count=cfg.class_count,
        rare_set=cfg.rare_set,
        epsilon=cfg.epsilon,
        q_o=q_o,
        alpha_o=alpha_o,
        alpha_s=alpha_s,
        q_s=q_s,
        alpha_target=dict(cfg.alpha_target),
    )


def hcp_predict_batch(probs: np.ndarray, model: HcpModel):
    """``model.predict(probs)``: (occupied flags, membership matrix)."""
    return model.predict(probs)


# ---------------------------------------------------------------------------
# JSON persistence: one codec for every model, driven by its field annotations


def _encode_value(v: float):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _encode_rates(d: Mapping[int, float]) -> dict:
    return {str(y): _encode_value(v) for y, v in sorted(d.items())}


def _decode_value(v) -> float:
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return float(v)


def _decode_rates(d: Mapping) -> dict[int, float]:
    return {int(y): _decode_value(v) for y, v in d.items()}


# field annotation (a string under postponed evaluation) -> (encode, decode)
_FIELD_CODECS = {
    "int": (int, int),
    "float": (_encode_value, _decode_value),
    "frozenset[int]": (sorted, lambda v: frozenset(int(y) for y in v)),
    "Mapping[int, float]": (_encode_rates, _decode_rates),
}
_MODEL_TYPES = {"hcp": HcpModel, "scp": ScpModel, "cccp": CccpModel}
_METHODS = {cls: method for method, cls in _MODEL_TYPES.items()}


def save_model(model, path, extra: dict | None = None) -> None:
    """Write a model (HCP, SCP, or CCCP) as a JSON document.

    ``extra`` keys are merged into the document; the write is atomic.
    """
    doc = {"method": _METHODS[type(model)]}
    for f in fields(model):
        doc[f.name] = _FIELD_CODECS[f.type][0](getattr(model, f.name))
    doc.update(extra or {})
    atomic_write(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def load_model(path):
    """Read a model JSON document written by save_model.

    A malformed document raises ValidationError naming the field.
    """
    with open(os.fspath(path)) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError(f"model JSON must be an object, got {type(doc).__name__}")
    method = doc.get("method")
    cls = _MODEL_TYPES.get(method) if isinstance(method, str) else None
    if cls is None:
        raise ValidationError(
            f"model field 'method' must be one of {sorted(_MODEL_TYPES)}, got {method!r}"
        )
    values = {}
    for f in fields(cls):
        if f.name not in doc:
            raise ValidationError(f"model field {f.name!r} is missing")
        try:
            values[f.name] = _FIELD_CODECS[f.type][1](doc[f.name])
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValidationError(f"model field {f.name!r} is malformed: {exc}") from None
    return cls(**values)

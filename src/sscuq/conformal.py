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

import math
import warnings
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .container import read_json, write_json
from .grids import (
    LabelGrid, SoftmaxGrid, ValidationError, check_aligned, check_class_count, check_labels,
    check_rate, check_same_classes, check_softmax_rows, check_softmax_shape, decode, encode,
    map_rows, row_blocks, row_reduce, set_fields,
)

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
#
# Vectors may come in any float dtype (the containers store float32); every
# score is computed in float64.  A kernel that reads whole rows converts
# them one ``row_blocks`` block at a time, so it never holds a float64 copy
# of its input.  Note that ``1.0 - f`` keeps a float32 ``f`` float32, so
# each column is converted before it is subtracted.


def score_class(f, y):
    """Disagreement ``1 - f_y`` of each vector with class y, which is one class
    or one class per vector: ``score_class(probs, labels)`` scores each
    record against its own label.  Only the selected entries become float64."""
    f = check_softmax_shape(f)
    y = np.asarray(y)
    check_labels(y, f.shape[-1])
    # float64 in the ufunc's loop: the only float64 array made is the result
    if y.ndim == 0:
        return np.subtract(1.0, f[..., int(y) - 1], dtype=np.float64)
    if y.shape != f.shape[:-1]:
        raise ValidationError(f"labels {y.shape} do not match vectors {f.shape}")
    rows, labels = f.reshape(-1, f.shape[-1]), y.reshape(-1)
    out = np.empty(labels.size)
    for block in row_blocks(labels.size):  # each block indexes its own label column
        column = np.take_along_axis(rows[block], (labels[block] - 1)[:, None], axis=1)[:, 0]
        np.subtract(1.0, column, dtype=np.float64, out=out[block])
    return out.reshape(y.shape)


def score_occupied(f):
    """Disagreement with "occupied": one minus the nonempty mass = f_1."""
    return check_softmax_shape(f)[..., 0].astype(np.float64)


def score_kl(f, epsilon: float):
    """KL divergence of the vector from the occupancy reference {eps, 1, .., 1}.

    Equals ``p1*log(p1/eps) + sum_{i>=2} p_i*log(p_i)`` with the
    0*log(0) = 0 convention; a NaN entry gives a NaN score.  Low scores
    mean occupied-looking vectors: little empty mass, nonempty mass
    spread widely.  Computed with numpy alone (no scipy), it agrees with
    ``scipy.special.xlogy(f, f)`` to within a few ulp.
    """
    check_rate("epsilon", epsilon)
    f = check_softmax_shape(f)
    rows = f.reshape(-1, f.shape[-1])
    out = np.empty(rows.shape[0])
    log_eps = math.log(epsilon)
    for block in row_blocks(rows.shape[0]):
        fb = np.asarray(rows[block], dtype=np.float64)
        # f*log(f), 0 where f == 0 (as xlogy); a negative entry gives NaN
        with np.errstate(invalid="ignore"):
            xlogx = np.log(fb, out=np.zeros_like(fb), where=fb != 0)
        xlogx *= fb
        out[block] = row_reduce(np.add, xlogx) - fb[:, 0] * log_eps
    return out.reshape(f.shape[:-1])[()]  # one vector gives a scalar


# ---------------------------------------------------------------------------
# rates and the quantile rule


def _class_map(name: str, values: Mapping, classes, bounds: str = "in (0, 1)") -> dict:
    """``values`` as ``{int: float}`` once its keys are exactly ``classes``
    (a range, shown as "a..b", or a set) and each value passes
    ``check_rate`` with ``bounds``."""
    out, want = {int(y): float(v) for y, v in values.items()}, set(classes)
    if out.keys() != want:
        shown = f"{classes[0]}..{classes[-1]}" if isinstance(classes, range) else sorted(want)
        raise ValidationError(
            f"{name} must cover exactly classes {shown}, got extra "
            f"{sorted(out.keys() - want)}, missing {sorted(want - out.keys())}"
        )
    for y, a in out.items():
        check_rate(f"{name}[{y}]", a, bounds)
    return out


def conformal_quantile(scores, alpha: float) -> float:
    """The ceil((N+1)(1-alpha))-th smallest score, or +inf when that rank
    exceeds N (insufficient data: accept everything).

    A 1e-9 slack guards the ceiling against float noise when
    (N+1)(1-alpha) is an exact integer.
    """
    check_rate("alpha", alpha)
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
    check_rate("alpha_target", alpha_target)
    check_rate("alpha_o", alpha_o)
    return max(0.0, 1.0 - (1.0 - alpha_target) / (1.0 - alpha_o))


# ---------------------------------------------------------------------------
# data containers


@dataclass(frozen=True)
class CalibrationSet:
    """Labeled softmax vectors: probs (N, M) with labels in {1..M}.  Integer
    labels keep their dtype (the grid's uint16, through ``from_grids``)."""

    probs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        # float32 rows (from_grids passes the container's) are kept as they
        # are: every score converts what it reads to float64
        probs, labels = np.asarray(self.probs), np.asarray(self.labels)
        if probs.dtype != np.float32:
            probs = probs.astype(np.float64, copy=False)
        if probs.ndim != 2:
            raise ValidationError("probs must be (N, M)")
        check_softmax_rows(probs)
        if labels.shape != (probs.shape[0],):
            raise ValidationError("labels must be a vector matching probs rows")
        check_labels(labels, probs.shape[1])  # before any int64 cast, which makes a NaN a number
        # integral floats, and uint64, which np.intp cannot hold safely, become int64
        labels = labels if np.can_cast(labels.dtype, np.intp) else labels.astype(np.int64)
        set_fields(self, probs=probs, labels=labels)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def class_count(self) -> int:
        return self.probs.shape[1]

    @classmethod
    def from_grids(cls, grid: SoftmaxGrid, labels: LabelGrid, mask) -> "CalibrationSet":
        """Collect (vector, label) records of the voxels that ``mask`` (a
        flat boolean array in raster voxel order) selects from aligned grids.
        ``grid`` is a ``SoftmaxGrid`` or a container's ``SoftmaxRows``: its
        rows are gathered one ``row_blocks`` block at a time into one
        float32 array, with no index array over the whole selection."""
        check_aligned(grid, labels)
        labs = labels.flat()
        if mask.shape != labs.shape:
            raise ValidationError("mask size must match the voxel count")
        rows = np.empty((np.count_nonzero(mask), grid.class_count), dtype=np.float32)
        return cls(map_rows(lambda f: (f,), grid.flat(), mask, (rows,))[0], labs[mask])


def class_quantiles(scores, labels, alpha: Mapping[int, float]) -> dict[int, float]:
    """For each class y in ``alpha``, the conformal quantile at rate
    ``alpha[y]`` of the ``scores`` of the records labeled y (one score and
    one label per record).

    A class with too few records gets +inf and raises a DegeneracyWarning.
    """
    quantiles = {}
    for y, a in alpha.items():
        quantiles[y] = _reachable_quantile(scores[labels == y], a, f"class {y}", stacklevel=4)
    return quantiles


def _reachable_quantile(scores: np.ndarray, alpha: float, owner: str, stacklevel: int) -> float:
    """``conformal_quantile``, with a DegeneracyWarning naming ``owner`` when it is +inf."""
    q = conformal_quantile(scores, alpha)
    if q == math.inf:
        warnings.warn(f"{owner} has too few calibration records ({scores.size}) for "
                      f"alpha={alpha}; its quantile is +inf", DegeneracyWarning, stacklevel)
    return q


# ---------------------------------------------------------------------------
# calibrated models
#
# A model's dataclass fields are its whole persistent state: save_model
# writes grids.encode of them, and load_model decodes them by their
# annotations.  Each model checks its fields as HcpConfig does, so a model
# file that no calibrator could have written is refused when it is loaded.


def _check_hcp(obj) -> frozenset[int]:
    """Check and normalize the rare set, epsilon and alpha_target of an
    HcpConfig or HcpModel; returns the rare set."""
    m = obj.class_count
    check_class_count(m, 2)  # before any per-class map is built
    rare = frozenset(int(y) for y in obj.rare_set)
    if not rare:
        raise ValidationError("rare_set must be non-empty")
    if any(y < 2 or y > m for y in rare):
        raise ValidationError(f"rare_set {sorted(rare)} must hold nonempty classes in 2..{m}")
    check_rate("epsilon", obj.epsilon)
    alpha_target = _class_map("alpha_target", obj.alpha_target, range(2, m + 1))
    set_fields(obj, rare_set=rare, alpha_target=alpha_target)
    return rare


def _quantile_row(quantiles: Mapping[int, float], class_count: int) -> np.ndarray:
    row = np.full(class_count, -np.inf)
    for y, q in quantiles.items():
        row[y - 1] = q
    return row


@dataclass(frozen=True)
class _Model:
    class_count: int

    def __post_init__(self):
        check_class_count(self.class_count, 2)  # before any per-class map is built

    def _probs(self, probs) -> np.ndarray:
        probs = check_softmax_shape(probs)
        check_same_classes("softmax", probs.shape[-1], "model", self.class_count)
        return probs

    def _member(self, probs: np.ndarray, quantiles) -> np.ndarray:
        """``1 - f_y <= quantiles[y - 1]`` for vectors (..., M), in float64,
        one block of rows at a time."""
        rows = probs.reshape(-1, self.class_count)
        member = np.empty(rows.shape, dtype=bool)
        for block in row_blocks(rows.shape[0]):
            np.less_equal(1.0 - np.asarray(rows[block], dtype=np.float64), quantiles,
                          out=member[block])
        return member.reshape(probs.shape)

    def predict(self, probs):
        """(occupied, member) for vectors (..., M): class y, the empty class
        included, is in a set iff ``1 - f_y`` is within its quantile, and a
        vector is occupied iff its set holds a nonempty class."""
        member = self._member(self._probs(probs), self._quantiles())
        return member[..., 1:].any(axis=-1), member


@dataclass(frozen=True)
class ScpModel(_Model):
    """SCP: one marginal quantile ``q`` of 1 - f_y at error rate ``alpha``."""

    alpha: float
    q: float

    def __post_init__(self):
        super().__post_init__()
        check_rate("alpha", self.alpha)
        check_rate("q", self.q, "a number or +inf")

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
        super().__post_init__()
        classes = range(1, self.class_count + 1)
        set_fields(self, alpha=_class_map("alpha", self.alpha, classes),
                   q=_class_map("q", self.q, classes, "a number or +inf"))

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
        super().__post_init__()
        rare, nonempty = _check_hcp(self), range(2, self.class_count + 1)
        set_fields(
            self,
            q_o=_class_map("q_o", self.q_o, rare, "a number or +inf"),
            alpha_o=_class_map("alpha_o", self.alpha_o, nonempty, "in [0, 1]"),
            alpha_s=_class_map("alpha_s", self.alpha_s, nonempty, "in [0, 1]"),
            q_s=_class_map("q_s", self.q_s, nonempty, "a number or +inf"),
        )

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
        member = self._member(probs, _quantile_row(self.q_s, self.class_count))
        member[..., 0] = False
        member &= occ[..., None]
        return occ, member


# ---------------------------------------------------------------------------
# SCP / CCCP baselines


def scp_calibrate(cal: CalibrationSet, alpha: float) -> ScpModel:
    """Marginal quantile of true-class scores 1 - f_Y; too few records for
    ``alpha`` give +inf and raise a DegeneracyWarning."""
    q = _reachable_quantile(score_class(cal.probs, cal.labels), alpha, "SCP", stacklevel=3)
    return ScpModel(class_count=cal.class_count, alpha=alpha, q=q)


def cccp_calibrate(cal: CalibrationSet, alpha: Mapping[int, float]) -> CccpModel:
    """Per-class quantiles of 1 - f_y over each class's own records.

    ``alpha`` maps every class 1..M to its error rate.  Classes without
    calibration records get quantile +inf (always included) and raise a
    DegeneracyWarning.
    """
    rates = _class_map("alpha", alpha, range(1, cal.class_count + 1))
    quantiles = class_quantiles(score_class(cal.probs, cal.labels), cal.labels, rates)
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
        set_fields(self, alpha_o=_class_map("alpha_o", self.alpha_o, _check_hcp(self)))


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
    check_same_classes("calibration", cal.class_count, "config", cfg.class_count)
    kl = score_kl(cal.probs, cfg.epsilon)
    q_o = class_quantiles(kl, cal.labels, dict(sorted(cfg.alpha_o.items())))
    gated = kl <= max(q_o.values())
    records = np.bincount(cal.labels, minlength=cfg.class_count + 1)
    passed = np.bincount(cal.labels[gated], minlength=cfg.class_count + 1)

    alpha_o, alpha_s = {}, {}
    for y in range(2, cfg.class_count + 1):
        if records[y] == 0:
            if y not in cfg.rare_set:  # a rare class's gate quantile has warned already
                warnings.warn(f"class {y} absent from calibration; semantic quantile is +inf",
                              DegeneracyWarning, stacklevel=2)
            alpha_o[y], alpha_s[y] = 1.0, 0.0
            continue
        a_o = float(cfg.alpha_o[y] if y in cfg.rare_set else 1.0 - passed[y] / records[y])
        target = cfg.alpha_target[y]
        alpha_o[y] = a_o
        alpha_s[y] = target if a_o <= 0.0 else split_alpha(target, a_o) if a_o < 1.0 else 0.0

    # the semantic level: CCCP's rule on the gate-passing records; a class
    # whose semantic rate is 0 accepts every vector
    labels = cal.labels[gated]
    q_s = dict.fromkeys(alpha_s, math.inf)
    q_s |= class_quantiles(
        score_class(cal.probs[gated], labels), labels, {y: a for y, a in alpha_s.items() if a > 0}
    )

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
# JSON persistence: every model is the object grids.encode makes of its fields


_MODEL_TYPES = {"hcp": HcpModel, "scp": ScpModel, "cccp": CccpModel}
_METHODS = {cls: method for method, cls in _MODEL_TYPES.items()}


def save_model(model, path, extra: dict | None = None) -> None:
    """Write a model (HCP, SCP, or CCCP) as a JSON document.

    ``extra`` keys are merged into the document; the write is atomic.
    """
    write_json(path, {"method": _METHODS[type(model)], **encode(model), **(extra or {})})


def load_model(path, extra: dict | None = None):
    """Read a model JSON document written by save_model.

    A malformed document raises ValidationError naming the field.  When
    ``extra`` is given, the document's keys that are not model fields
    (those save_model's ``extra`` wrote) are copied into it.
    """
    doc = read_json(path, "model")
    method = doc.get("method")
    cls = _MODEL_TYPES.get(method) if isinstance(method, str) else None
    if cls is None:
        raise ValidationError(
            f"model.method must be one of {sorted(_MODEL_TYPES)}, got {method!r}"
        )
    model = decode(cls, doc, "model")
    if extra is not None:
        names = {f.name for f in fields(cls)}
        extra.update((k, v) for k, v in doc.items() if k != "method" and k not in names)
    return model

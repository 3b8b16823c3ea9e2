"""Training objectives with forward values and hand-derived gradients.

Covers the asymmetric multi-label loss, log-sum-exp pooling for
multiple-instance training, the fixed-matching detection loss (presence
cross-entropy + L1 + GIoU box regression), the region-level and
image-level classification losses built from them, and a central
finite-difference checker used to validate every analytic gradient.

The detection, region-level and image-level losses have one batched
implementation on ``(B, R, ...)`` arrays, :func:`detection_terms`,
:func:`loc_terms` and :func:`mil_terms`, each returning the value and,
on request, its gradients. Training calls them on whole batches; the
per-image losses (``fixed_match_detection_loss``, ``loc_loss``,
``mil_loss`` and their ``_grad`` forms) call them with a batch of one.
What they need of the targets besides the labels (present rows, per-sample
weights and counts, clamped target corners) comes in a
:class:`RegionTargets`, which training derives once per dataset.

Conventions shared by all losses here:

* probabilities arrive already squashed into [0, 1] (sigmoid happens in
  the model, not the loss);
* log arguments are clamped at 1e-8 so values are reproducible
  bit-for-bit;
* reductions are means, taken only over regions that are present.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .geometry import center_to_corner_batch, giou_batch, giou_gradient_batch

logger = logging.getLogger(__name__)

_LOG_EPS = 1e-8


# ---------------------------------------------------------------------------
# asymmetric loss
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AslParams:
    """Asymmetric-loss hyperparameters.

    ``gamma_pos``/``gamma_neg`` are the focusing exponents for positive and
    negative targets, ``clip`` the probability margin subtracted from
    negatives before focusing, ``eps`` the log-argument floor.
    """

    gamma_pos: float = 0.0
    gamma_neg: float = 4.0
    clip: float = 0.05
    eps: float = 1e-8

    def __post_init__(self):
        if self.gamma_pos < 0 or self.gamma_neg < 0:
            raise ConfigError("focusing exponents must be >= 0")
        if not 0.0 <= self.clip < 1.0:
            raise ConfigError("clip must lie in [0, 1)")
        if self.eps <= 0:
            raise ConfigError("eps must be positive")


def asl(p, y, params: AslParams = AslParams()):
    """Asymmetric loss on probabilities ``p`` against binary targets ``y``.

    Positive targets: ``(1 - p)^gamma_pos * (-log max(p, eps))``.
    Negative targets shift the probability by the clip first,
    ``p_m = max(p - clip, 0)``, then ``p_m^gamma_neg * (-log max(1 - p_m, eps))``.

    Elementwise over broadcastable arrays; scalars in, scalar out. With
    ``gamma_pos = gamma_neg = clip = 0`` this is exactly binary
    cross-entropy.
    """
    p_arr = np.asarray(p, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)
    pos = (1.0 - p_arr) ** params.gamma_pos * (-np.log(np.maximum(p_arr, params.eps)))
    pm = np.maximum(p_arr - params.clip, 0.0)
    neg = pm**params.gamma_neg * (-np.log(np.maximum(1.0 - pm, params.eps)))
    out = np.where(y_arr > 0.5, pos, neg)
    if np.ndim(p) == 0 and np.ndim(y) == 0:
        return float(out)
    return out


def asl_grad(p, y, params: AslParams = AslParams()):
    """d asl / d p, elementwise. Nonsmooth exactly at ``p == clip`` (negatives)."""
    p_arr = np.asarray(p, dtype=np.float64)
    y_arr = np.asarray(y, dtype=np.float64)

    pc = np.maximum(p_arr, params.eps)
    log_active = p_arr > params.eps
    pos = (1.0 - p_arr) ** params.gamma_pos * np.where(log_active, -1.0 / pc, 0.0)
    if params.gamma_pos > 0:
        pos = pos - params.gamma_pos * (1.0 - p_arr) ** (params.gamma_pos - 1.0) * (
            -np.log(pc)
        )

    pm = np.maximum(p_arr - params.clip, 0.0)
    one_m = np.maximum(1.0 - pm, params.eps)
    neg_log_active = (1.0 - pm) > params.eps
    in_slope = p_arr > params.clip
    neg = pm**params.gamma_neg * np.where(neg_log_active, 1.0 / one_m, 0.0)
    if params.gamma_neg > 0:
        # pm > 0 wherever in_slope holds, so the power is finite
        neg = neg + params.gamma_neg * np.where(in_slope, pm, 1.0) ** (
            params.gamma_neg - 1.0
        ) * (-np.log(one_m))
    neg = np.where(in_slope, neg, 0.0)

    out = np.where(y_arr > 0.5, pos, neg)
    if np.ndim(p) == 0 and np.ndim(y) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# log-sum-exp pooling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LsePoolParams:
    """Sharpness of the log-sum-exp pool; larger r approaches max pooling."""

    r: float = 10.0

    def __post_init__(self):
        if self.r <= 0:
            raise ConfigError("pooling sharpness r must be > 0")


def _one_column(values) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    if x.size == 0:
        raise ValueError("lse_pool requires a non-empty input")
    return x


def lse_pool(values, params: LsePoolParams = LsePoolParams()) -> float:
    """``(1/r) * log(mean(exp(r * x)))`` with max-subtraction for overflow safety.

    Bounds: ``mean(x) <= lse_pool(x) <= max(x)`` and
    ``lse_pool(x) >= max(x) - log(N)/r``.
    """
    x = _one_column(values)
    pooled, _ = _lse_pool_masked(x, np.ones(len(x), dtype=bool), params.r, len(x))
    return float(pooled[0])


def lse_pool_grad(values, params: LsePoolParams = LsePoolParams()) -> np.ndarray:
    """Gradient of :func:`lse_pool`: the softmax of ``r * x`` (sums to 1)."""
    x = _one_column(values)
    _, weights = _lse_pool_masked(x, np.ones(len(x), dtype=bool), params.r, len(x))
    return weights[:, 0].reshape(np.shape(values))


def _lse_pool_masked(probs, present, r: float, n_present) -> tuple[np.ndarray, np.ndarray]:
    """Pool ``(..., R, C)`` probabilities over the region axis, present rows only.

    Returns ``(pooled, weights)`` with pooled shaped ``(..., C)`` and
    weights shaped like ``probs`` (softmax over present rows, zero
    elsewhere). ``n_present`` is the per-sample count of present rows;
    every sample must have at least one.
    """
    present = np.asarray(present, dtype=bool)
    mask = present[..., None]
    z = r * probs
    # a maximum is exact in any order, so it can run over contiguous region rows;
    # the sum keeps numpy's order on the (..., R, C) layout
    m = np.max(np.moveaxis(np.where(mask, z, -np.inf), -2, 0).copy(), axis=0)[..., None, :]
    e = np.where(mask, np.exp(z - m), 0.0)
    denom = np.sum(e, axis=-2, keepdims=True)
    pooled = (m[..., 0, :] + np.log(denom[..., 0, :] / np.asarray(n_present)[..., None])) / r
    weights = e / denom
    return pooled, weights


# ---------------------------------------------------------------------------
# fixed-matching detection loss
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectionLossParams:
    """Weights of the detection loss terms: L1 box, GIoU box, presence BCE."""

    l1_weight: float = 5.0
    giou_weight: float = 2.0
    presence_weight: float = 1.0

    def __post_init__(self):
        if min(self.l1_weight, self.giou_weight, self.presence_weight) < 0:
            raise ConfigError("loss weights must be nonnegative")


@dataclass(frozen=True)
class DetectionLossValue:
    """Total plus per-component (unweighted mean) breakdown."""

    total: float
    presence_bce: float
    l1: float
    giou_penalty: float


# ---------------------------------------------------------------------------
# the batched core behind training and the per-image losses
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RegionTargets:
    """Per-sample constants of the region targets of a stack of samples.

    Training derives them once for the whole dataset and takes each
    batch's samples with :meth:`take`; the per-image losses derive them
    for a batch of one. Weights are 0 on absent rows. On present rows the
    box weight is ``1 / (batch * n_present)`` and the loc weight divides
    that by the class count too, so a weighted sum over a batch is the
    mean over its samples of their per-sample means.
    """

    present: np.ndarray  # (B, R) bool
    rows: np.ndarray  # flat indices of the present (sample, region) rows
    n_present: np.ndarray  # (B,) present regions per sample
    box_weight: np.ndarray  # (B, R)
    loc_weight: np.ndarray  # (B, R)
    boxes: np.ndarray  # (B, R, 4) center/size
    corners: np.ndarray  # (B, R, 4) target corners clamped to the unit square

    def take(self, idx: np.ndarray) -> "RegionTargets":
        """The targets of samples ``idx``, weights as derived."""
        present = self.present.take(idx, axis=0)
        return RegionTargets(
            present,
            np.flatnonzero(present),
            *(
                a.take(idx, axis=0)
                for a in (self.n_present, self.box_weight, self.loc_weight, self.boxes, self.corners)
            ),
        )


def region_targets(present, target_boxes, n_classes: int, batch_size: int | None = None) -> RegionTargets:
    """Derive :class:`RegionTargets` from ``(B, R)`` presence flags.

    ``target_boxes`` are ``(B, R, 4)`` center/size boxes and ``n_classes``
    is the class count of the loc weight. ``batch_size`` is the number of
    samples a loss averages over: ``B`` by default, the batch size when
    batches are taken from these targets.
    """
    present = np.asarray(present, dtype=bool)
    if present.ndim != 2:
        raise ValueError("region targets: presence flags must be (B, R)")
    n_present = present.sum(axis=1)
    per_sample = (len(present) if batch_size is None else batch_size) * np.maximum(n_present, 1)
    box_weight = np.where(present, (1.0 / per_sample)[:, None], 0.0)
    loc_weight = np.where(present, (1.0 / (per_sample * n_classes))[:, None], 0.0)
    boxes = np.asarray(target_boxes, dtype=np.float64)
    if boxes.shape != present.shape + (4,):
        raise ValueError("region targets: boxes must be (B, R, 4) for (B, R) presence flags")
    corners = center_to_corner_batch(boxes.reshape(-1, 4))[0].reshape(boxes.shape)
    return RegionTargets(present, np.flatnonzero(present), n_present, box_weight, loc_weight, boxes, corners)


def detection_terms(p_pres, boxes, targets: RegionTargets, params: DetectionLossParams, want_grads: bool):
    """Fixed-matching detection loss over a batch: ``(value, d_pres, d_boxes)``.

    Takes ``(B, R)`` presence probabilities and ``(B, R, 4)`` predicted
    center/size boxes. The presence BCE is the mean over all rows; the L1
    and GIoU terms are per-sample means over present regions (0 for a
    sample without any), averaged over the batch. The gradients of the
    total are None without ``want_grads``.
    """
    present = targets.present
    if boxes.shape != targets.boxes.shape or p_pres.shape != present.shape:
        raise ValueError("detection loss: region counts of inputs disagree")
    b, r = present.shape
    # the BCE target is 1 on present rows and 0 elsewhere, so each row needs one log
    q = np.where(present, p_pres, 1.0 - p_pres)
    presence_bce = float(np.mean(-np.log(np.maximum(q, _LOG_EPS))))

    w_box = targets.box_weight
    diff = boxes - targets.boxes
    dist = np.abs(diff)
    # left to right over the four coordinates, as np.sum(dist, axis=2) adds them
    l1 = float(np.sum(w_box * (((dist[..., 0] + dist[..., 1]) + dist[..., 2]) + dist[..., 3])))

    # GIoU is taken on the corner boxes clamped to the unit square
    rows = targets.rows
    corners_pred, passthrough = center_to_corner_batch(boxes.reshape(-1, 4).take(rows, axis=0))
    corners_tgt = targets.corners.reshape(-1, 4).take(rows, axis=0)
    w_rows = w_box.reshape(-1).take(rows)
    giou_penalty = float(np.sum(w_rows * (1.0 - giou_batch(corners_pred, corners_tgt))))

    total = (
        params.presence_weight * presence_bce
        + params.l1_weight * l1
        + params.giou_weight * giou_penalty
    )
    value = DetectionLossValue(total, presence_bce, l1, giou_penalty)
    if not want_grads:
        return value, None, None

    d_bce = np.where(q > _LOG_EPS, np.where(present, -1.0, 1.0) / np.maximum(q, _LOG_EPS), 0.0)
    d_pres = params.presence_weight * (d_bce / (b * r))
    d_boxes = params.l1_weight * np.sign(diff) * w_box[:, :, None]
    g_corner, _ = giou_gradient_batch(corners_pred, corners_tgt)
    g_corner = np.where(passthrough, -params.giou_weight * g_corner * w_rows[:, None], 0.0)
    # chain rule through (x1, y1) = (cx, cy) - (w, h) / 2 and (x2, y2) = (cx, cy) + (w, h) / 2,
    # on coordinate rows (contiguous, as the geometry functions return them)
    lo, hi = g_corner.T[:2], g_corner.T[2:]
    d_rows = np.concatenate([lo + hi, 0.5 * (hi - lo)])
    d_all = np.zeros((b * r, 4))
    d_all[rows] = d_rows.T
    d_boxes += d_all.reshape(b, r, 4)
    return value, d_pres, d_boxes


def loc_terms(probs, labels, targets: RegionTargets, params: AslParams, want_grads: bool):
    """Region-level ASL over ``(B, R, C)`` probabilities and labels: ``(value, d_probs)``.

    Per sample, the mean over its (present region, class) pairs, 0 for a
    sample without present regions; then the mean over samples. The
    gradient is None without ``want_grads``.
    """
    if probs.shape != labels.shape or probs.shape[:-1] != targets.present.shape:
        raise ValueError("loc loss: shapes disagree")
    w = targets.loc_weight[:, :, None]
    value = float(np.sum(w * asl(probs, labels, params)))
    return value, (w * asl_grad(probs, labels, params) if want_grads else None)


def mil_terms(probs, labels, targets: RegionTargets, lse: LsePoolParams, params: AslParams, want_grads: bool):
    """Image-level ASL over ``(B, R, C)`` probabilities and ``(B, C)`` labels: ``(value, d_probs)``.

    Per sample and class, the present regions' probabilities are pooled
    with log-sum-exp; the value is the mean ASL over samples and classes.
    Every sample needs a present region. The gradient is None without
    ``want_grads``.
    """
    b, _, c = probs.shape
    if probs.shape[:-1] != targets.present.shape or labels.shape != (b, c):
        raise ValueError("mil loss: shapes disagree")
    if not targets.n_present.all():
        raise ValueError("mil loss requires at least one present region per sample")
    pooled, weights = _lse_pool_masked(probs, targets.present, lse.r, targets.n_present)  # (B, C), (B, R, C)
    value = float(np.mean(asl(pooled, labels, params)))
    if not want_grads:
        return value, None
    upstream = asl_grad(pooled, labels, params) / (b * c)
    return value, weights * upstream[:, None, :]


def _one_image(*arrays) -> list[np.ndarray]:
    return [np.asarray(a, dtype=np.float64)[None] for a in arrays]


def _label_targets(present, n_classes: int) -> RegionTargets:
    """Targets for the classification losses, which do not read the boxes."""
    return region_targets(present, np.zeros(np.shape(present) + (4,)), n_classes)


def fixed_match_detection_loss(
    pred_presence: np.ndarray,
    pred_boxes: np.ndarray,
    target_present: np.ndarray,
    target_boxes: np.ndarray,
    params: DetectionLossParams = DetectionLossParams(),
) -> DetectionLossValue:
    """Detection loss with the prediction-to-target assignment fixed by region index.

    Args:
        pred_presence: ``(R,)`` presence probabilities.
        pred_boxes: ``(R, 4)`` predicted boxes in center/size form.
        target_present: ``(R,)`` binary flags for regions present in the image.
        target_boxes: ``(R, 4)`` target boxes in center/size form (rows for
            absent regions are ignored).
        params: term weights.

    The presence term is the mean binary cross-entropy over *all* regions;
    the L1 and GIoU terms are means over present regions only (and are 0
    when no region is present). GIoU is evaluated on the corner-form
    boxes after clamping to the unit square.
    """
    p, boxes, present, targets = _one_image(pred_presence, pred_boxes, target_present, target_boxes)
    # the detection loss reads no loc weight, so any class count will do
    targets = region_targets(present, targets, n_classes=1)
    return detection_terms(p, boxes, targets, params, want_grads=False)[0]


def fixed_match_detection_loss_grad(
    pred_presence: np.ndarray,
    pred_boxes: np.ndarray,
    target_present: np.ndarray,
    target_boxes: np.ndarray,
    params: DetectionLossParams = DetectionLossParams(),
) -> tuple[DetectionLossValue, np.ndarray, np.ndarray]:
    """Loss value plus gradients w.r.t. ``pred_presence`` and ``pred_boxes``."""
    p, boxes, present, targets = _one_image(pred_presence, pred_boxes, target_present, target_boxes)
    targets = region_targets(present, targets, n_classes=1)
    value, d_pres, d_boxes = detection_terms(p, boxes, targets, params, want_grads=True)
    return value, d_pres[0], d_boxes[0]


def loc_loss(
    pathology_probs: np.ndarray,
    anatomy_labels: np.ndarray,
    present: np.ndarray,
    params: AslParams = AslParams(),
) -> float:
    """Mean asymmetric loss over all (present region, class) pairs.

    Zero with a diagnostic when no region is present.
    """
    probs, labels, mask = _one_image(pathology_probs, anatomy_labels, present)
    if not mask.any():
        logger.warning("loc_loss: no present regions, loss defined as 0")
    return loc_terms(probs, labels, _label_targets(mask, probs.shape[-1]), params, want_grads=False)[0]


def loc_loss_grad(
    pathology_probs: np.ndarray,
    anatomy_labels: np.ndarray,
    present: np.ndarray,
    params: AslParams = AslParams(),
) -> np.ndarray:
    """Gradient of :func:`loc_loss` w.r.t. the probability matrix."""
    probs, labels, mask = _one_image(pathology_probs, anatomy_labels, present)
    return loc_terms(probs, labels, _label_targets(mask, probs.shape[-1]), params, want_grads=True)[1][0]


def mil_loss(
    pathology_probs: np.ndarray,
    image_labels: np.ndarray,
    present: np.ndarray,
    lse: LsePoolParams = LsePoolParams(),
    asl_params: AslParams = AslParams(),
) -> float:
    """Image-level loss: pool per-class probabilities over present regions, then ASL.

    Per class, the present regions' probabilities are aggregated with
    log-sum-exp pooling and the pooled probability is scored against the
    image-level label; the result is the mean over classes. Requires at
    least one present region.
    """
    probs, labels, mask = _one_image(pathology_probs, image_labels, present)
    targets = _label_targets(mask, probs.shape[-1])
    return mil_terms(probs, labels, targets, lse, asl_params, want_grads=False)[0]


def mil_loss_grad(
    pathology_probs: np.ndarray,
    image_labels: np.ndarray,
    present: np.ndarray,
    lse: LsePoolParams = LsePoolParams(),
    asl_params: AslParams = AslParams(),
) -> np.ndarray:
    """Gradient of :func:`mil_loss` w.r.t. the probability matrix (chain through pooling)."""
    probs, labels, mask = _one_image(pathology_probs, image_labels, present)
    targets = _label_targets(mask, probs.shape[-1])
    return mil_terms(probs, labels, targets, lse, asl_params, want_grads=True)[1][0]


@dataclass(frozen=True)
class CombinedLossWeights:
    asl_weight: float = 0.01

    def __post_init__(self):
        if self.asl_weight < 0:
            raise ConfigError("asl_weight must be >= 0")


def combined_loss(detection: float, asl_like: float, weights: CombinedLossWeights = CombinedLossWeights()) -> float:
    """Detection loss plus the down-weighted classification loss.

    ``asl_like`` may be the region-level loss, the image-level loss, or
    their sum when both supervision signals are used together.
    """
    return detection + weights.asl_weight * asl_like


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteDifferenceReport:
    """Outcome of a central-difference gradient comparison."""

    max_rel_error: float
    rel_errors: np.ndarray
    nonfinite_coords: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.nonfinite_coords and np.isfinite(self.max_rel_error)


def finite_difference_check(
    f: Callable[[np.ndarray], float],
    point: np.ndarray,
    analytic: np.ndarray,
    step: float = 1e-5,
) -> FiniteDifferenceReport:
    """Compare an analytic gradient against central finite differences.

    ``f`` maps a parameter vector to a scalar; ``analytic`` is the claimed
    gradient at ``point``. The relative error per coordinate uses
    ``max(|analytic|, |numeric|, 1e-12)`` as denominator. Coordinates where
    an evaluation of ``f`` is non-finite are reported separately and set to
    infinite error.
    """
    x = np.asarray(point, dtype=np.float64)
    a = np.asarray(analytic, dtype=np.float64)
    if x.shape != a.shape or x.ndim != 1:
        raise ValueError("point and analytic gradient must be matching 1-d vectors")
    rel = np.empty_like(x)
    bad: list[int] = []
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        f_hi = f(hi)
        f_lo = f(lo)
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            bad.append(i)
            rel[i] = np.inf
            continue
        numeric = (f_hi - f_lo) / (2.0 * step)
        denom = max(abs(a[i]), abs(numeric), 1e-12)
        rel[i] = abs(a[i] - numeric) / denom
    return FiniteDifferenceReport(
        max_rel_error=float(np.max(rel)) if rel.size else 0.0,
        rel_errors=rel,
        nonfinite_coords=tuple(bad),
    )

"""Detection metrics: per-class AP over IoU thresholds, mAP, localization accuracy.

The evaluation regime assumes at most one ground-truth box per class per
image and top-1 predictions per class per image (the upstream pipeline
keeps only the highest-scored fused box per pathology). AP uses all-point
interpolation; predictions are ranked by score with ties broken by image
id, and a prediction is a true positive iff its image has a ground-truth
box of the class with IoU at or above the matching threshold.

Localization accuracy counts an image as correct when a fired prediction
(score at or above the firing threshold) overlaps the ground truth
sufficiently, or — for images without the pathology — when no prediction
fires. A positives-only variant restricted to images with ground truth is
available behind a flag.

Classes with zero ground-truth boxes have undefined AP: they are reported
as absent and excluded from macro means. Localization accuracy is defined
for every class and averaged over all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ConfigError, DataError
from .geometry import Box, iou
from .inference import PathologyBox

DEFAULT_IOU_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


@dataclass(frozen=True)
class EvalConfig:
    iou_thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS
    locacc_score_threshold: float = 0.7
    locacc_iou_thresholds: tuple[float, ...] = (0.1, 0.3, 0.5)
    locacc_positives_only: bool = False

    def __post_init__(self):
        for t in self.iou_thresholds + self.locacc_iou_thresholds:
            if not 0.0 < t <= 1.0:
                raise ConfigError(f"IoU threshold {t} outside (0, 1]")
        if not 0.0 <= self.locacc_score_threshold <= 1.0:
            raise ConfigError("locacc_score_threshold outside [0, 1]")


@dataclass(eq=False)
class GtImage:
    """Ground truth for one image: at most one box per class, plus image labels."""

    boxes: dict[int, Box]
    labels: frozenset[int]

    def __post_init__(self):
        if not self.labels.issuperset(self.boxes.keys()):
            raise DataError(
                "image labels must include every class that has a ground-truth box"
            )


@dataclass(eq=False)
class GroundTruth:
    images: dict[str, GtImage]
    n_classes: int


@dataclass(eq=False)
class ReportCounts:
    images: int
    gt_boxes: int
    predictions: int


@dataclass(eq=False)
class EvalReport:
    """All metrics, keyed by class ordinal; ``None`` marks undefined AP entries."""

    class_names: tuple[str, ...]
    ap: dict[int, dict[float, float | None]]
    class_map: dict[int, float | None]
    overall_map: float | None
    loc_acc: dict[int, dict[float, float]]
    loc_acc_macro: dict[float, float]
    counts: ReportCounts


def average_precision(
    predictions: Sequence[tuple[str, Box, float]],
    gt_boxes: Mapping[str, Box],
    iou_threshold: float,
) -> float | None:
    """All-point interpolated AP for one class at one IoU threshold.

    ``predictions`` holds (image_id, box, score) with at most one entry
    per image; ``gt_boxes`` maps image_id to the class's ground-truth box.
    Returns ``None`` when the class has no ground-truth boxes (AP
    undefined).
    """
    n_gt = len(gt_boxes)
    if n_gt == 0:
        return None
    if not predictions:
        return 0.0
    ranked = sorted(predictions, key=lambda t: (-t[2], t[0]))
    tp = [
        image_id in gt_boxes and iou(box, gt_boxes[image_id]) >= iou_threshold
        for image_id, box, _ in ranked
    ]
    # precision at each rank, then the running max from the right
    # (all-point interpolation envelope)
    n = len(ranked)
    cum = 0
    precision = []
    recall = []
    for k, hit in enumerate(tp, start=1):
        cum += int(hit)
        precision.append(cum / k)
        recall.append(cum / n_gt)
    envelope = [0.0] * n
    running = 0.0
    for k in range(n - 1, -1, -1):
        running = max(running, precision[k])
        envelope[k] = running
    ap = 0.0
    prev_recall = 0.0
    for k in range(n):
        if tp[k]:
            ap += (recall[k] - prev_recall) * envelope[k]
            prev_recall = recall[k]
    return ap


def _class_predictions(
    predictions: Mapping[str, Sequence[PathologyBox]], class_id: int
) -> list[tuple[str, Box, float]]:
    out = []
    for image_id in predictions:
        for p in predictions[image_id]:
            if p.class_id == class_id:
                out.append((image_id, p.box, p.score))
    return out


def _class_gt(gt: GroundTruth, class_id: int) -> dict[str, Box]:
    return {
        image_id: img.boxes[class_id]
        for image_id, img in gt.images.items()
        if class_id in img.boxes
    }


def mean_ap(
    predictions: Mapping[str, Sequence[PathologyBox]],
    gt: GroundTruth,
    cfg: EvalConfig = EvalConfig(),
) -> tuple[dict[int, dict[float, float | None]], dict[int, float | None], float | None]:
    """AP per class and threshold, per-class mAP, and the overall macro mAP.

    Per-class mAP is the mean of that class's AP over the configured IoU
    thresholds; overall mAP is the macro mean over classes that have
    ground truth.
    """
    ap: dict[int, dict[float, float | None]] = {}
    class_map: dict[int, float | None] = {}
    for cls in range(gt.n_classes):
        preds = _class_predictions(predictions, cls)
        boxes = _class_gt(gt, cls)
        per_thr = {t: average_precision(preds, boxes, t) for t in cfg.iou_thresholds}
        ap[cls] = per_thr
        values = [v for v in per_thr.values() if v is not None]
        class_map[cls] = sum(values) / len(values) if values else None
    defined = [v for v in class_map.values() if v is not None]
    overall = sum(defined) / len(defined) if defined else None
    return ap, class_map, overall


def localization_accuracy(
    predictions: Mapping[str, Sequence[PathologyBox]],
    gt: GroundTruth,
    class_id: int,
    iou_threshold: float,
    score_threshold: float,
    positives_only: bool = False,
) -> float | None:
    """Fraction of images judged correct for one class.

    A prediction fires when its score is at or above ``score_threshold``.
    An image with a ground-truth box is correct iff a fired prediction
    overlaps it with IoU at or above ``iou_threshold``; an image without
    one is correct iff nothing fires. With ``positives_only`` the
    denominator is restricted to images that have the box (returns None
    when there are none).
    """
    by_image: dict[str, PathologyBox] = {}
    for image_id in predictions:
        for p in predictions[image_id]:
            if p.class_id == class_id:
                by_image[image_id] = p
    correct = 0
    considered = 0
    for image_id, img in gt.images.items():
        pred = by_image.get(image_id)
        fired = pred is not None and pred.score >= score_threshold
        gt_box = img.boxes.get(class_id)
        if gt_box is not None:
            considered += 1
            if fired and iou(pred.box, gt_box) >= iou_threshold:
                correct += 1
        elif not positives_only:
            considered += 1
            if not fired:
                correct += 1
    if considered == 0:
        return None
    return correct / considered


def evaluate(
    predictions: Mapping[str, Sequence[PathologyBox]],
    gt: GroundTruth,
    cfg: EvalConfig = EvalConfig(),
    class_names: Sequence[str] | None = None,
) -> EvalReport:
    """Assemble the full metric report; deterministic given inputs.

    ``predictions`` maps image ids (all of which must exist in the ground
    truth) to top-1-per-class pathology boxes.
    """
    unknown = sorted(set(predictions) - set(gt.images))
    if unknown:
        raise DataError(f"predictions reference unknown image id(s): {unknown[:10]}")
    for image_id in predictions:
        seen: set[int] = set()
        for p in predictions[image_id]:
            if p.class_id in seen:
                raise DataError(
                    f"image {image_id!r}: more than one prediction for class {p.class_id}"
                )
            seen.add(p.class_id)

    ap, class_map, overall = mean_ap(predictions, gt, cfg)

    loc_acc: dict[int, dict[float, float]] = {}
    for cls in range(gt.n_classes):
        loc_acc[cls] = {}
        for t in cfg.locacc_iou_thresholds:
            acc = localization_accuracy(
                predictions,
                gt,
                cls,
                t,
                cfg.locacc_score_threshold,
                cfg.locacc_positives_only,
            )
            if acc is not None:
                loc_acc[cls][t] = acc
    loc_acc_macro = {}
    for t in cfg.locacc_iou_thresholds:
        vals = [loc_acc[cls][t] for cls in loc_acc if t in loc_acc[cls]]
        if vals:
            loc_acc_macro[t] = sum(vals) / len(vals)

    names = tuple(class_names) if class_names is not None else tuple(
        f"class_{i}" for i in range(gt.n_classes)
    )
    if len(names) != gt.n_classes:
        raise ValueError("class_names length disagrees with ground truth")
    counts = ReportCounts(
        images=len(gt.images),
        gt_boxes=sum(len(img.boxes) for img in gt.images.values()),
        predictions=sum(len(v) for v in predictions.values()),
    )
    return EvalReport(
        class_names=names,
        ap=ap,
        class_map=class_map,
        overall_map=overall,
        loc_acc=loc_acc,
        loc_acc_macro=loc_acc_macro,
        counts=counts,
    )

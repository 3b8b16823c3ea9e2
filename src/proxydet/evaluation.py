"""Detection metrics: per-class AP over IoU thresholds, mAP, localization accuracy.

The evaluation regime assumes at most one ground-truth box per class per
image and top-1 predictions per class per image (the upstream pipeline
keeps only the highest-scored fused box per pathology). AP uses all-point
interpolation, as in PASCAL VOC; predictions are ranked by score with ties
broken by image id, and a prediction is a true positive iff its image has
a ground-truth box of the class with IoU at or above the matching
threshold. A class's mAP is its mean AP over the thresholds; overall mAP
is the macro mean over classes.

Localization accuracy counts an image as correct when a fired prediction
(score at or above the firing threshold) overlaps the ground truth
sufficiently, or — for images without the pathology — when no prediction
fires. A positives-only variant restricted to images with ground truth is
available behind a flag.

Classes with zero ground-truth boxes have undefined AP: they are reported
as absent and excluded from macro means. Localization accuracy is defined
for every class and averaged over all of them.

Everything runs on arrays: :class:`GroundTruth` stacks its boxes once, and
one IoU vector scores a table of all predictions. Per class, one sort by
(-score, image id in Python string order) gives every threshold at once as
a (T, K) true-positive matrix. AP terms and every mean are summed strictly
left to right, so report bits match the scalar loops (``evaluate_ref`` in
the tests) on every Python version.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import reduce
from operator import add
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .geometry import Box, iou_batch
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
class GroundTruth:
    """Ground truth stacked once: one row per image, in the order given.

    ``images`` maps each image id to its boxes by class id, at most one per
    class, and is read only by the constructor. Row ``i`` is image
    ``image_ids[i]``: ``boxes[i, c]`` is its box of class ``c`` where
    ``has_box[i, c]`` and the zero box elsewhere, and ``id_rank[i]`` is the
    id's place in sorted order, which breaks score ties. A box key outside
    ``0..n_classes-1`` is a DataError.
    """

    images: InitVar[dict[str, dict[int, Box]]]
    n_classes: int
    image_ids: tuple[str, ...] = field(init=False)
    row_of: dict[str, int] = field(init=False)  # image id -> row
    boxes: np.ndarray = field(init=False)  # (N, C, 4) corners
    has_box: np.ndarray = field(init=False)  # (N, C) bool
    id_rank: np.ndarray = field(init=False)  # (N,) int64

    def __post_init__(self, images: dict[str, dict[int, Box]]):
        self.image_ids = tuple(images)
        n = len(self.image_ids)
        self.row_of = {image_id: i for i, image_id in enumerate(self.image_ids)}
        self.boxes = np.zeros((n, self.n_classes, 4))
        self.has_box = np.zeros((n, self.n_classes), dtype=bool)
        for i, (image_id, boxes) in enumerate(images.items()):
            for cls, box in boxes.items():
                if not 0 <= cls < self.n_classes:
                    raise DataError(
                        f"image {image_id!r}: ground-truth class id {cls} "
                        f"outside 0..{self.n_classes - 1}"
                    )
                self.boxes[i, cls] = box.as_tuple()
                self.has_box[i, cls] = True
        self.id_rank = np.empty(n, dtype=np.int64)
        self.id_rank[sorted(range(n), key=self.image_ids.__getitem__)] = np.arange(n)


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


def _mean(values: list[float]) -> float | None:
    """Left-to-right sum over the count; None when empty.

    Builtin ``sum`` compensates its rounding from Python 3.12 on, which
    would make report bits depend on the interpreter version.
    """
    return reduce(add, values, 0.0) / len(values) if values else None


def _class_ap(
    scores: np.ndarray,
    id_rank: np.ndarray,
    ious: np.ndarray,
    matched: np.ndarray,
    n_gt: int,
    thresholds: np.ndarray,
) -> np.ndarray:
    """All-point interpolated AP of one class's K predictions at each of T thresholds.

    ``matched`` marks predictions whose image has a ground-truth box of the
    class and ``ious`` their IoU with it; ``n_gt`` must be positive.
    """
    order = np.lexsort((id_rank, -scores))
    tp = matched[order] & (ious[order] >= thresholds[:, None])  # (T, K)
    cum = np.cumsum(tp, axis=1)
    precision = cum / np.arange(1, len(order) + 1)
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    # a true positive lifts recall from (cum - 1) / n_gt, the previous true
    # positive's recall; the leading zero column starts each sum at 0.0
    terms = np.zeros((len(thresholds), len(order) + 1))
    terms[:, 1:] = np.where(tp, (cum / n_gt - (cum - 1) / n_gt) * envelope, 0.0)
    return np.add.accumulate(terms, axis=1)[:, -1]


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
    if not gt_boxes:
        return None
    rank = {image_id: i for i, image_id in enumerate(sorted({t[0] for t in predictions}))}
    no_box = Box(0.0, 0.0, 0.0, 0.0)
    # one row per prediction: score, id rank, has ground truth, its box, the ground-truth box
    rows = [
        (score, rank[i], i in gt_boxes, *box.as_tuple(), *gt_boxes.get(i, no_box).as_tuple())
        for i, box, score in predictions
    ]
    table = np.array(rows, dtype=np.float64).reshape(-1, 11)
    ious = iou_batch(table[:, 3:7], table[:, 7:])
    thresholds = np.array([iou_threshold], dtype=np.float64)
    ap = _class_ap(table[:, 0], table[:, 1], ious, table[:, 2] > 0.0, len(gt_boxes), thresholds)
    return float(ap[0])


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
    unknown = sorted(set(predictions) - gt.row_of.keys())
    if unknown:
        raise DataError(f"predictions reference unknown image id(s): {unknown[:10]}")
    # the one pass over single predictions: image row, class, score and corners
    entries = []
    for image_id, boxes in predictions.items():
        row = gt.row_of[image_id]
        seen: set[int] = set()
        for p in boxes:
            cls = p.class_id
            if cls in seen:
                raise DataError(f"image {image_id!r}: more than one prediction for class {cls}")
            seen.add(cls)
            entries.append((row, cls, p.score, *p.box.as_tuple()))
    table = np.array(entries, dtype=np.float64).reshape(-1, 7)
    cid = table[:, 1]  # a fractional or out-of-range class id would index some other class
    bad = np.flatnonzero((cid != np.floor(cid)) | (cid < 0) | (cid >= gt.n_classes))
    if len(bad):
        row, cls = entries[bad[0]][:2]
        raise DataError(f"image {gt.image_ids[row]!r}: prediction class id {cls!r} is not in 0..{gt.n_classes - 1}")
    rows, classes = table[:, 0].astype(np.intp), table[:, 1].astype(np.intp)
    scores, corners = table[:, 2], table[:, 3:]
    names = tuple(class_names) if class_names is not None else tuple(
        f"class_{i}" for i in range(gt.n_classes)
    )
    if len(names) != gt.n_classes:
        raise ValueError("class_names length disagrees with ground truth")
    matched = gt.has_box[rows, classes]
    ious = iou_batch(corners, gt.boxes[rows, classes])
    n_gt = gt.has_box.sum(axis=0)

    # a repeated threshold is one report key, as in a dict built from the tuple
    thresholds = tuple(dict.fromkeys(cfg.iou_thresholds))
    thr = np.array(thresholds, dtype=np.float64)
    ap: dict[int, dict[float, float | None]] = {}
    class_map: dict[int, float | None] = {}
    for cls in range(gt.n_classes):
        values: list[float] = []
        if n_gt[cls]:
            sel = classes == cls
            args = scores[sel], gt.id_rank[rows[sel]], ious[sel], matched[sel], int(n_gt[cls]), thr
            values = _class_ap(*args).tolist()
        ap[cls] = dict(zip(thresholds, values)) if values else dict.fromkeys(thresholds)
        class_map[cls] = _mean(values)

    la_thresholds = tuple(dict.fromkeys(cfg.locacc_iou_thresholds))
    fired = np.zeros(gt.has_box.shape, dtype=bool)
    fired[rows, classes] = scores >= cfg.locacc_score_threshold
    overlap = np.zeros(gt.has_box.shape)
    overlap[rows, classes] = ious
    la_thr = np.array(la_thresholds, dtype=np.float64)[:, None, None]
    correct = (gt.has_box & fired & (overlap >= la_thr)).sum(axis=1)  # (T, C)
    if cfg.locacc_positives_only:
        considered = n_gt
    else:
        correct = correct + (~gt.has_box & ~fired).sum(axis=0)
        considered = np.full(gt.n_classes, len(gt.image_ids))
    defined = np.flatnonzero(considered).tolist()
    acc = correct[:, defined] / considered[defined]  # (T, classes with a denominator)
    loc_acc: dict[int, dict[float, float]] = {cls: {} for cls in range(gt.n_classes)}
    for j, cls in enumerate(defined):
        loc_acc[cls] = dict(zip(la_thresholds, acc[:, j].tolist()))
    loc_acc_macro = {t: _mean(row) for t, row in zip(la_thresholds, acc.tolist()) if row}

    return EvalReport(
        class_names=names,
        ap=ap,
        class_map=class_map,
        overall_map=_mean([v for v in class_map.values() if v is not None]),
        loc_acc=loc_acc,
        loc_acc_macro=loc_acc_macro,
        counts=ReportCounts(len(gt.image_ids), int(n_gt.sum()), len(rows)),
    )

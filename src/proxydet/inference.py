"""Pathology-box prediction from per-region detections.

Two steps turn region detections into pathology boxes:

(i) for every detected region (presence above threshold, non-degenerate
    box) and every class whose probability exceeds the probability
    threshold, the region's box is emitted as a candidate for that class,
    scored by the class probability — a region with several positive
    classes contributes its box once per class;

(ii) per class, overlapping candidates are merged with weighted box
    fusion, and optionally only the top-scoring box per class is kept
    (matching evaluation data with at most one box per class).

:func:`detect_pathologies` takes one :class:`RegionDetections` record
holding a batch of images. Step (i) masks and thresholds the whole
batch's arrays at once and counts the candidates of every (image,
class) group; step (ii) fuses the groups of whole images in passes, one
lockstep :func:`fusion.weighted_box_fusion` call each, with at most
``_PASS_CELLS`` padded cells of fusion state per pass. Each pass's
candidates are taken from its own rows of the record. Boxes and
:class:`PathologyBox` objects are built only for output.

Because neighbouring regions overlap and the fusion threshold is small,
fused boxes can be pulled towards sub-parts of a region or stretch over
several regions.

A many-to-one class mapping translates training-class probabilities to
evaluation classes (mean or max over the source classes) before
thresholding.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fusion import FusionConfig, ScoredBoxes, weighted_box_fusion
from .geometry import Box

COMBINERS = ("mean", "max")

# padded cells (groups x largest group) of one fusion pass: bounds its memory
_PASS_CELLS = 2048


@dataclass(frozen=True, eq=False)
class RegionDetections:
    """The region detections of a batch of images, rows stacked in image order.

    Image ``i`` owns rows ``offsets[i]:offsets[i + 1]``, and row ``j`` of
    an image is its region ``j``'s box, presence and probabilities. The
    batch has one class count ``C``. Without ``offsets`` the rows are one
    image. The arrays are checked once, on construction.
    """

    boxes: np.ndarray  # (M, 4) corners
    presence: np.ndarray  # (M,) in [0, 1]
    pathology_probs: np.ndarray  # (M, C) in [0, 1]
    offsets: np.ndarray | None = None  # (N + 1,) first row of each image, then M

    def __post_init__(self):
        for name in ("boxes", "presence", "pathology_probs"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n = len(self.presence) if self.presence.ndim == 1 else -1
        if self.boxes.shape != (n, 4) or self.pathology_probs.ndim != 2 or len(self.pathology_probs) != n:
            raise ValueError("need (M, 4) boxes, (M,) presence and (M, C) pathology_probs")
        offsets = np.array([0, n] if self.offsets is None else self.offsets, dtype=np.int64)
        rising = offsets.ndim == 1 and len(offsets) and offsets[0] == 0 and offsets[-1] == n
        if not rising or (offsets[1:] < offsets[:-1]).any():
            raise ValueError(f"offsets must rise from 0 to the row count {n}, got {offsets.tolist()}")
        object.__setattr__(self, "offsets", offsets)
        x1, y1, x2, y2 = self.boxes.T
        bad = np.flatnonzero(~((0.0 <= x1) & (x1 <= x2) & (x2 <= 1.0) & (0.0 <= y1) & (y1 <= y2) & (y2 <= 1.0)))
        if len(bad):
            image = int(np.searchsorted(offsets, bad[0], side="right")) - 1
            raise ValueError(
                f"image {image}, region {bad[0] - offsets[image]}: invalid box corners "
                f"{tuple(self.boxes[bad[0]].tolist())}: need 0 <= x1 <= x2 <= 1 and 0 <= y1 <= y2 <= 1"
            )
        if not ((self.presence >= 0.0) & (self.presence <= 1.0)).all():
            raise ValueError("presence outside [0, 1]")
        _check_probs(self.pathology_probs)

    @property
    def n_images(self) -> int:
        return len(self.offsets) - 1

    @classmethod
    def concat(cls, parts: Sequence["RegionDetections"], n_classes: int) -> "RegionDetections":
        """The images of ``parts`` as one batch, in order; every part must have ``n_classes`` classes."""
        counts = [part.pathology_probs.shape[1] for part in parts]
        if any(count != n_classes for count in counts):
            raise ValueError(f"a batch has one class count: need {n_classes} in every part, got {counts}")
        starts = np.cumsum([0, *(len(part.presence) for part in parts)])
        return cls(
            np.concatenate([np.zeros((0, 4)), *(part.boxes for part in parts)]),
            np.concatenate([np.zeros(0), *(part.presence for part in parts)]),
            np.concatenate([np.zeros((0, n_classes)), *(part.pathology_probs for part in parts)]),
            np.concatenate([[0], *(part.offsets[1:] + start for part, start in zip(parts, starts))]),
        )


def _check_probs(probs: np.ndarray) -> None:
    if not ((probs >= 0.0) & (probs <= 1.0)).all():
        raise ValueError("pathology probabilities outside [0, 1]")


@dataclass(frozen=True)
class PathologyBox:
    """A scored, class-labeled pathology bounding box (predicted or ground truth)."""

    class_id: int
    box: Box
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class MappingEntry:
    """One evaluation class: its source training classes and how to combine them."""

    eval_class: str
    sources: tuple[str, ...]
    combiner: str = "mean"

    def __post_init__(self):
        if not self.sources:
            raise ConfigError(f"mapping for {self.eval_class!r} has no source classes")
        if self.combiner not in COMBINERS:
            raise ConfigError(
                f"mapping for {self.eval_class!r}: combiner must be one of {COMBINERS}"
            )


@dataclass(frozen=True)
class ClassMapping:
    """Ordered many-to-one evaluation-class -> training-class mapping."""

    entries: tuple[MappingEntry, ...]

    @property
    def eval_classes(self) -> list[str]:
        return [e.eval_class for e in self.entries]

    def resolve(self, train_classes: list[str]) -> "ResolvedMapping":
        """Bind source-class names to indices in the training vocabulary."""
        index = {name: i for i, name in enumerate(train_classes)}
        for entry in self.entries:
            unknown = [s for s in entry.sources if s not in index]
            if unknown:
                raise ConfigError(
                    f"mapping for {entry.eval_class!r} references unknown training "
                    f"class(es): {unknown}"
                )
        return ResolvedMapping(
            self, tuple(np.array([index[s] for s in e.sources]) for e in self.entries)
        )


@dataclass(frozen=True, eq=False)
class ResolvedMapping:
    """A mapping bound to a training vocabulary: each entry's source-class indices.

    ``map_probs`` gathers an entry's sources with ``take`` into a
    C-contiguous block and reduces its last axis, so every row's mean is
    the same double as ``np.mean`` of that row's sources as a vector (a
    strided fancy-indexed block can differ in the last bit).
    """

    mapping: ClassMapping
    sources: tuple[np.ndarray, ...]  # per entry, training-class indices in source order

    @property
    def eval_classes(self) -> list[str]:
        return self.mapping.eval_classes

    def map_probs(self, probs: np.ndarray) -> np.ndarray:
        """Map ``(..., C_train)`` training-class probabilities to ``(..., C_eval)``."""
        probs = np.asarray(probs, dtype=np.float64)
        out = np.empty((*probs.shape[:-1], len(self.sources)))
        for i, (entry, src) in enumerate(zip(self.mapping.entries, self.sources)):
            reduce = np.mean if entry.combiner == "mean" else np.max
            out[..., i] = reduce(probs.take(src, axis=-1), axis=-1)
        return out


def apply_class_mapping(detections: RegionDetections, mapping: ResolvedMapping) -> RegionDetections:
    """Re-express a batch's probabilities over the evaluation classes, in one call.

    Boxes, presence and offsets are untouched and not checked again; each
    evaluation-class probability is the mean or max of its source training
    classes' probabilities, and only these new probabilities are checked.
    """
    probs = mapping.map_probs(detections.pathology_probs)
    _check_probs(probs)
    mapped = copy.copy(detections)  # a copy skips __post_init__, which re-checks every array
    object.__setattr__(mapped, "pathology_probs", probs)
    return mapped


@dataclass(frozen=True)
class InferenceConfig:
    """Thresholds and fusion settings for pathology-box prediction.

    ``probability_threshold`` of 0 keeps every positive-probability class
    and lets ranking metrics see the full score ordering; 0.7 reproduces
    the localization-accuracy operating point.
    """

    probability_threshold: float = 0.0
    presence_threshold: float = 0.5
    fusion: FusionConfig = field(default_factory=FusionConfig)
    top1_per_class: bool = True

    def __post_init__(self):
        if not 0.0 <= self.probability_threshold <= 1.0:
            raise ConfigError("probability_threshold outside [0, 1]")
        if not 0.0 <= self.presence_threshold <= 1.0:
            raise ConfigError("presence_threshold outside [0, 1]")


@dataclass
class InferenceDiagnostics:
    """Counts of regions skipped during candidate emission."""

    degenerate_boxes: int = 0
    absent_regions: int = 0


def detect_pathologies(
    detections: RegionDetections,
    cfg: InferenceConfig = InferenceConfig(),
    diagnostics: InferenceDiagnostics | None = None,
) -> list[list[PathologyBox]]:
    """Predict pathology boxes for each image of a batch from its region detections.

    Applies the two-step pipeline described in the module docstring and
    returns one list per image, in batch order. Regions below the
    presence threshold and zero-area region boxes are skipped (counted in
    ``diagnostics`` when given). Each list is ordered by class id, then
    score descending; an image without candidates gets an empty list.
    """
    offsets = detections.offsets
    x1, y1, x2, y2 = detections.boxes.T
    absent = detections.presence < cfg.presence_threshold
    degenerate = ~absent & ((x2 - x1) * (y2 - y1) == 0.0)
    if diagnostics is not None:
        diagnostics.absent_regions += int(absent.sum())
        diagnostics.degenerate_boxes += int(degenerate.sum())
    hits = (detections.pathology_probs > cfg.probability_threshold) & ~(absent | degenerate)[:, None]
    # (image, class) candidate counts as differences of a running sum, which an image without rows leaves at 0
    running = np.zeros((len(hits) + 1, hits.shape[1]), dtype=np.int64)
    np.cumsum(hits, axis=0, out=running[1:])
    sizes = running[offsets[1:]] - running[offsets[:-1]]
    groups, widths = np.count_nonzero(sizes, axis=1).tolist(), sizes.max(axis=1, initial=0).tolist()

    out: list[list[PathologyBox]] = []
    first = n_groups = widest = 0  # the pending pass: its first image, its groups and its largest group
    for image, (g, w) in enumerate(zip(groups, widths)):
        if image > first and (n_groups + g) * max(widest, w) > _PASS_CELLS:
            out += _fuse_pass(detections, hits, first, image, cfg)
            first, n_groups, widest = image, 0, 0
        n_groups, widest = n_groups + g, max(widest, w)
    if detections.n_images > first:
        out += _fuse_pass(detections, hits, first, detections.n_images, cfg)
    return out


def _fuse_pass(
    detections: RegionDetections, hits: np.ndarray, first: int, stop: int, cfg: InferenceConfig
) -> list[list[PathologyBox]]:
    """One fusion call over every (image, class) group of images ``first..stop-1``.

    ``hits`` marks the batch's (row, class) candidates. Group ``i * C + c``
    is class ``c`` of the pass's image ``i``; candidates go in image-major,
    then class-major order, regions ascending within a class.
    """
    n_classes = hits.shape[1]
    lo = detections.offsets[first]
    row, cls = np.nonzero(hits[lo : detections.offsets[stop]])  # image-major, regions ascending
    row += lo
    group = (np.searchsorted(detections.offsets, row, side="right") - 1 - first) * n_classes + cls
    order = np.argsort(group, kind="stable")
    row, cls, group = row[order], cls[order], group[order]
    boxes, scores = detections.boxes[row], detections.pathology_probs[row, cls]

    fused = weighted_box_fusion(ScoredBoxes(group, boxes, scores, np.arange(len(scores))), cfg.fusion)
    group, boxes, scores = fused.group, fused.boxes, fused.scores
    if cfg.top1_per_class:
        _, first_row = np.unique(group, return_index=True)
        group, boxes, scores = group[first_row], boxes[first_row], scores[first_row]
    image, cls = np.divmod(group, n_classes)
    out: list[list[PathologyBox]] = [[] for _ in range(stop - first)]
    for i, c, row, score in zip(image.tolist(), cls.tolist(), boxes.tolist(), scores.tolist()):
        out[i].append(PathologyBox(class_id=c, box=Box(*row), score=score))
    return out

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

:func:`detect_pathologies` takes a batch of images. Step (i) runs on
each image's arrays; step (ii) fuses the (image, class) groups of whole
images in passes, one lockstep :func:`fusion.weighted_box_fusion` call
each, with at most ``_PASS_CELLS`` padded cells of fusion state per
pass. Boxes and :class:`PathologyBox` objects are built only for output.

Because neighbouring regions overlap and the fusion threshold is small,
fused boxes can be pulled towards sub-parts of a region or stretch over
several regions.

A many-to-one class mapping translates training-class probabilities to
evaluation classes (mean or max over the source classes) before
thresholding.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .fusion import FusionConfig, ScoredBoxes, weighted_box_fusion
from .geometry import Box

COMBINERS = ("mean", "max")

# padded cells (groups x largest group) of one fusion pass: bounds its memory
_PASS_CELLS = 2048


@dataclass(frozen=True, eq=False)
class RegionDetections:
    """One image's region detections: row ``i`` is region ``i``'s box, presence and probabilities."""

    boxes: np.ndarray  # (R, 4) corners
    presence: np.ndarray  # (R,) in [0, 1]
    pathology_probs: np.ndarray  # (R, C) in [0, 1]

    def __post_init__(self):
        for name in ("boxes", "presence", "pathology_probs"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n = len(self.presence) if self.presence.ndim == 1 else -1
        if self.boxes.shape != (n, 4) or self.pathology_probs.ndim != 2 or len(self.pathology_probs) != n:
            raise ValueError("need (R, 4) boxes, (R,) presence and (R, C) pathology_probs")
        x1, y1, x2, y2 = self.boxes.T
        bad = np.flatnonzero(~((0.0 <= x1) & (x1 <= x2) & (x2 <= 1.0) & (0.0 <= y1) & (y1 <= y2) & (y2 <= 1.0)))
        if len(bad):
            raise ValueError(
                f"region {bad[0]}: invalid box corners {tuple(self.boxes[bad[0]].tolist())}: "
                "need 0 <= x1 <= x2 <= 1 and 0 <= y1 <= y2 <= 1"
            )
        if not ((self.presence >= 0.0) & (self.presence <= 1.0)).all():
            raise ValueError("presence outside [0, 1]")
        if not ((self.pathology_probs >= 0.0) & (self.pathology_probs <= 1.0)).all():
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
    """Re-express one image's probabilities over the evaluation classes.

    Boxes and presence are untouched; each evaluation-class probability is
    the mean or max of its source training classes' probabilities.
    """
    return replace(detections, pathology_probs=mapping.map_probs(detections.pathology_probs))


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
    regions: Sequence[RegionDetections],
    cfg: InferenceConfig = InferenceConfig(),
    diagnostics: InferenceDiagnostics | None = None,
) -> list[list[PathologyBox]]:
    """Predict pathology boxes for each image from its region detections.

    Applies the two-step pipeline described in the module docstring and
    returns one list per image, in input order. Regions below the
    presence threshold and zero-area region boxes are skipped (counted in
    ``diagnostics`` when given). Each list is ordered by class id, then
    score descending; an image without candidates gets an empty list.
    """
    out: list[list[PathologyBox]] = []
    pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # group ids, boxes, scores
    offsets = [0]  # first group id of each pending image, then the next free one
    n_groups = widest = 0
    for det in regions:
        x1, y1, x2, y2 = det.boxes.T
        absent = det.presence < cfg.presence_threshold
        degenerate = ~absent & ((x2 - x1) * (y2 - y1) == 0.0)
        if diagnostics is not None:
            diagnostics.absent_regions += int(absent.sum())
            diagnostics.degenerate_boxes += int(degenerate.sum())
        kept = np.flatnonzero(~absent & ~degenerate)
        probs = det.pathology_probs[kept]
        # class-major (class, region) pairs, regions ascending within a class
        cls, reg = np.nonzero(probs.T > cfg.probability_threshold)
        sizes = np.bincount(cls)
        groups, width = np.count_nonzero(sizes), int(sizes.max(initial=0))
        if pending and (n_groups + groups) * max(widest, width) > _PASS_CELLS:
            out += _fuse_pass(pending, offsets, cfg)
            pending, offsets, n_groups, widest = [], [0], 0, 0
        pending.append((cls + offsets[-1], det.boxes[kept[reg]], probs[reg, cls]))
        offsets.append(offsets[-1] + probs.shape[1])
        n_groups, widest = n_groups + groups, max(widest, width)
    if pending:
        out += _fuse_pass(pending, offsets, cfg)
    return out


def _fuse_pass(pending: list, offsets: list[int], cfg: InferenceConfig) -> list[list[PathologyBox]]:
    """One fusion call over every (image, class) group of the ``pending`` images."""
    group, boxes, scores = (np.concatenate(part) for part in zip(*pending))
    fused = weighted_box_fusion(ScoredBoxes(group, boxes, scores, np.arange(len(scores))), cfg.fusion)
    group, boxes, scores = fused.group, fused.boxes, fused.scores
    if cfg.top1_per_class:
        _, first = np.unique(group, return_index=True)
        group, boxes, scores = group[first], boxes[first], scores[first]
    image = np.searchsorted(offsets, group, side="right") - 1
    out: list[list[PathologyBox]] = [[] for _ in pending]
    for i, c, row, score in zip(
        image.tolist(), (group - np.take(offsets, image)).tolist(), boxes.tolist(), scores.tolist()
    ):
        out[i].append(PathologyBox(class_id=c, box=Box(*row), score=score))
    return out

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

Because neighbouring regions overlap and the fusion threshold is small,
fused boxes can be pulled towards sub-parts of a region or stretch over
several regions.

A many-to-one class mapping translates training-class probabilities to
evaluation classes (mean or max over the source classes) before
thresholding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fusion import FusionConfig, ScoredBox, weighted_box_fusion
from .geometry import Box

COMBINERS = ("mean", "max")


@dataclass(eq=False)
class RegionDetection:
    """One anatomical region's box, presence score, and class probabilities."""

    region_id: int
    box: Box
    presence: float
    pathology_probs: np.ndarray  # (C,) in [0, 1]

    def __post_init__(self):
        self.pathology_probs = np.asarray(self.pathology_probs, dtype=np.float64)
        if self.pathology_probs.ndim != 1:
            raise ValueError("pathology_probs must be a vector")
        if not 0.0 <= self.presence <= 1.0:
            raise ValueError(f"presence {self.presence} outside [0, 1]")
        if ((self.pathology_probs < 0.0) | (self.pathology_probs > 1.0)).any():
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

    @classmethod
    def identity(cls, classes: list[str]) -> "ClassMapping":
        return cls(tuple(MappingEntry(c, (c,)) for c in classes))

    def resolve(self, train_classes: list[str]) -> "ResolvedMapping":
        """Bind source-class names to indices in the training vocabulary."""
        index = {name: i for i, name in enumerate(train_classes)}
        by_length: dict[int, list[int]] = {}
        for i, entry in enumerate(self.entries):
            unknown = [s for s in entry.sources if s not in index]
            if unknown:
                raise ConfigError(
                    f"mapping for {entry.eval_class!r} references unknown training "
                    f"class(es): {unknown}"
                )
            by_length.setdefault(len(entry.sources), []).append(i)
        groups = tuple(
            _SourceGroup(
                entries=np.array(members),
                sources=np.array([[index[s] for s in self.entries[i].sources] for i in members]),
                is_mean=np.array([self.entries[i].combiner == "mean" for i in members]),
            )
            for members in by_length.values()
        )
        return ResolvedMapping(self, groups)


@dataclass(frozen=True, eq=False)
class _SourceGroup:
    """The mapping entries that have the same number of source classes."""

    entries: np.ndarray  # (n,) evaluation-class positions
    sources: np.ndarray  # (n, L) training-class indices, in each entry's source order
    is_mean: np.ndarray  # (n,) True where the entry takes the mean, False for the max


@dataclass(frozen=True, eq=False)
class ResolvedMapping:
    """A mapping bound to a training vocabulary, grouped by source count.

    Within a group one row-wise reduction serves every entry. A row of an
    ``(n, L)`` block is summed in the order ``np.mean`` sums a length-``L``
    vector, so every mean is the same double as the mean of that entry's
    sources on its own; mixing lengths in one segmented sum would not be.
    """

    mapping: ClassMapping
    groups: tuple[_SourceGroup, ...]

    @property
    def eval_classes(self) -> list[str]:
        return self.mapping.eval_classes

    def map_probs(self, probs: np.ndarray) -> np.ndarray:
        """Map a training-class probability vector to evaluation classes."""
        probs = np.asarray(probs, dtype=np.float64)
        out = np.empty(len(self.mapping.entries))
        for group in self.groups:
            src = probs[group.sources]
            out[group.entries] = np.where(
                group.is_mean,
                np.add.reduce(src, axis=1) / src.shape[1],
                np.maximum.reduce(src, axis=1),
            )
        return out


def apply_class_mapping(detection: RegionDetection, mapping: ResolvedMapping) -> RegionDetection:
    """Re-express a detection's probabilities over the evaluation classes.

    Box and presence are untouched; each evaluation-class probability is
    the mean or max of its source training classes' probabilities.
    """
    return RegionDetection(
        region_id=detection.region_id,
        box=detection.box,
        presence=detection.presence,
        pathology_probs=mapping.map_probs(detection.pathology_probs),
    )


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
    regions: list[RegionDetection],
    cfg: InferenceConfig = InferenceConfig(),
    diagnostics: InferenceDiagnostics | None = None,
) -> list[PathologyBox]:
    """Predict pathology boxes for one image from its region detections.

    Applies the two-step pipeline described in the module docstring.
    Regions below the presence threshold and zero-area region boxes are
    skipped (counted in ``diagnostics`` when given). Output is ordered by
    class id, then score descending. Empty input yields empty output.
    """
    if not regions:
        return []
    n_classes = regions[0].pathology_probs.shape[0]
    kept: list[RegionDetection] = []
    for det in regions:
        if det.pathology_probs.shape[0] != n_classes:
            raise ValueError("regions disagree on the number of classes")
        if det.presence < cfg.presence_threshold:
            if diagnostics is not None:
                diagnostics.absent_regions += 1
            continue
        if det.box.area == 0.0:
            if diagnostics is not None:
                diagnostics.degenerate_boxes += 1
            continue
        kept.append(det)

    probs = np.array([det.pathology_probs for det in kept]).reshape(len(kept), n_classes)
    # class-major (class, region) pairs, regions ascending within a class
    cls_idx, reg_idx = np.nonzero(probs.T > cfg.probability_threshold)
    candidates: list[list[ScoredBox]] = [[] for _ in range(n_classes)]
    for cls, reg, p in zip(cls_idx.tolist(), reg_idx.tolist(), probs[reg_idx, cls_idx].tolist()):
        group = candidates[cls]
        group.append(ScoredBox(box=kept[reg].box, score=p, source_index=len(group)))

    out: list[PathologyBox] = []
    for cls in range(n_classes):
        fused = weighted_box_fusion(candidates[cls], cfg.fusion)
        if cfg.top1_per_class:
            fused = fused[:1]
        out.extend(PathologyBox(class_id=cls, box=sb.box, score=sb.score) for sb in fused)
    return out

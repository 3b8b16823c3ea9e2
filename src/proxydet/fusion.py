"""Weighted box fusion: merge overlapping same-class boxes by score-weighted averaging.

Unlike NMS, which discards all but the best box of a cluster, fusion
averages the coordinates of every cluster member using the box scores as
weights, and averages the scores. Clusters are grown greedily in score
order: each incoming box is compared against the *current fused box* of
every existing cluster and joins the best-overlapping cluster above the
IoU threshold, else opens a new one.

The work per call runs on arrays and running sums. One k x k IoU table
(:func:`geometry.iou_matrix`) gives the overlap of every incoming box
with every cluster that still holds only its seed box; only a cluster
that has merged computes a fresh IoU against its current fused box. A
merged cluster keeps running sums in member order (score-weighted
coordinates, scores, plain coordinates for the all-zero-score fallback)
and running per-coordinate and score minima and maxima, so a join costs
a constant number of float operations instead of a pass over every
member. The result is bit-identical to the sequential definition, in
which every join re-sums all members left to right: the same float
operations run in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import Box, iou, iou_matrix


@dataclass(frozen=True)
class ScoredBox:
    """A box with a confidence score and its ordinal in the input list.

    ``source_index`` breaks score ties deterministically; it carries no
    meaning beyond input position.
    """

    box: Box
    score: float
    source_index: int

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class FusionConfig:
    iou_threshold: float = 0.03
    score_rescale: bool = False

    def __post_init__(self):
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise ConfigError(f"iou_threshold {self.iou_threshold} outside [0, 1]")


class _RunningCluster:
    """Running sums of a cluster with two or more members, added in member order.

    Every sum starts at 0.0 and adds one member at a time, as a
    left-to-right ``sum()`` over the members does. The current fused box
    is exposed as ``x1, y1, x2, y2`` and ``area``, so :func:`geometry.iou`
    reads it like a :class:`Box`.
    """

    __slots__ = (
        "weighted", "plain", "lo", "hi", "total", "count", "score_lo", "score_hi",
        "x1", "y1", "x2", "y2", "area",
    )

    def __init__(self, corners: tuple[float, ...], score: float):
        self.weighted = [0.0 + score * v for v in corners]
        self.plain = [0.0 + v for v in corners]
        self.lo = list(corners)
        self.hi = list(corners)
        self.total = 0.0 + score
        self.count = 1
        self.score_lo = self.score_hi = score

    def add(self, corners: tuple[float, ...], score: float) -> None:
        self.total += score
        self.count += 1
        if score < self.score_lo:
            self.score_lo = score
        if score > self.score_hi:
            self.score_hi = score
        weighted, plain, lo, hi = self.weighted, self.plain, self.lo, self.hi
        fused = []
        for d, v in enumerate(corners):
            weighted[d] += score * v
            plain[d] += v
            if v < lo[d]:
                lo[d] = v
            if v > hi[d]:
                hi[d] = v
            # all-zero scores fall back to the plain mean
            mean = weighted[d] / self.total if self.total > 0.0 else plain[d] / self.count
            # clip into the members' coordinate range: enforces the convex
            # combination exactly despite floating-point rounding
            fused.append(min(max(mean, lo[d]), hi[d]))
        self.x1, self.y1, self.x2, self.y2 = fused
        self.area = (self.x2 - self.x1) * (self.y2 - self.y1)


def _fused_score(
    total: float, count: int, lo: float, hi: float, n_input: int, rescale: bool
) -> float:
    s = total / count
    s = min(max(s, lo), hi)
    if rescale:
        # the reference algorithm's cluster-size rescale; T is taken as
        # the number of input boxes since there is a single source model
        s *= min(count, n_input) / n_input
    return s


def weighted_box_fusion(boxes: list[ScoredBox], cfg: FusionConfig) -> list[ScoredBox]:
    """Fuse overlapping boxes of one class into score-weighted averages.

    Boxes are processed in score-descending order (ties broken by
    ``source_index`` ascending). A box joins the existing cluster whose
    current fused box has the highest IoU with it, provided that IoU
    strictly exceeds ``cfg.iou_threshold``; otherwise it starts a new
    cluster. Each output box carries the cluster's score-weighted average
    coordinates and the arithmetic mean of member scores (optionally
    rescaled by cluster size when ``cfg.score_rescale`` is on).

    Returns one box per cluster, sorted score-descending. Empty input
    yields empty output. Fused coordinates are convex combinations of the
    members' coordinates and fused scores lie within the members' score
    range (rescale off).
    """
    if not boxes:
        return []
    ordered = sorted(boxes, key=lambda sb: (-sb.score, sb.source_index))
    corners = [sb.box.as_tuple() for sb in ordered]
    corner_array = np.array(corners)
    table = iou_matrix(corner_array, corner_array).tolist()
    seeds: list[int] = []  # position in ``ordered`` of each cluster's first box
    merged: list[_RunningCluster | None] = []  # None while a cluster holds only its seed
    for i, sb in enumerate(ordered):
        overlaps = table[i]
        best_iou = cfg.iou_threshold
        best = -1
        for c, cluster in enumerate(merged):
            overlap = overlaps[seeds[c]] if cluster is None else iou(sb.box, cluster)
            if overlap > best_iou:
                best_iou = overlap
                best = c
        if best < 0:
            seeds.append(i)
            merged.append(None)
            continue
        cluster = merged[best]
        if cluster is None:
            seed = seeds[best]
            cluster = merged[best] = _RunningCluster(corners[seed], ordered[seed].score)
        cluster.add(corners[i], sb.score)

    n_input = len(boxes)
    fused = []
    for seed, cluster in zip(seeds, merged):
        first = ordered[seed]
        if cluster is None:
            box = first.box
            score = _fused_score(
                0.0 + first.score, 1, first.score, first.score, n_input, cfg.score_rescale
            )
        else:
            box = Box(cluster.x1, cluster.y1, cluster.x2, cluster.y2)
            score = _fused_score(
                cluster.total, cluster.count, cluster.score_lo, cluster.score_hi,
                n_input, cfg.score_rescale,
            )
        fused.append(ScoredBox(box=box, score=score, source_index=first.source_index))
    fused.sort(key=lambda sb: (-sb.score, sb.source_index))
    return fused

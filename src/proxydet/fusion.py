"""Weighted box fusion: merge overlapping same-class boxes by score-weighted averaging.

Unlike NMS, which discards all but the best box of a cluster, fusion
averages the coordinates of every cluster member using the box scores as
weights, and averages the scores. Clusters are grown greedily in score
order: each incoming box is compared against the *current fused box* of
every existing cluster of its group and joins the best-overlapping
cluster above the IoU threshold, else opens a new one.

One call fuses many independent groups (one per image and class in
inference) in lockstep. Candidates are sorted once by (group, score
descending, ``source_index``), and the groups are ordered by size, so
step ``t`` takes the ``t``-th candidate of every group that has one and
those groups are a prefix of the state: the loop runs as many times as
the largest group has candidates, not once per candidate. The cluster
state is a padded (groups, slots) array. Slot ``t`` of a group holds the
cluster its ``t``-th candidate opened: fused corners and area, and
running sums in member order (score-weighted coordinates, scores, plain
coordinates for the all-zero-score fallback) with per-coordinate and
score minima and maxima, so a join costs a constant number of float
operations. Every element sees the float operations of the sequential
definition, in which every join re-sums all members left to right, in the
same order, so the result is bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import Box


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


@dataclass(frozen=True, eq=False)
class ScoredBoxes:
    """Scored boxes of many fusion groups, one row each; ``len`` counts rows.

    ``source_index`` breaks score ties within a group, as in :class:`ScoredBox`.
    """

    group: np.ndarray  # (N,) int group id
    boxes: np.ndarray  # (N, 4) corners
    scores: np.ndarray  # (N,) in [0, 1]
    source_index: np.ndarray  # (N,) int

    def __len__(self) -> int:
        return len(self.scores)


@dataclass(frozen=True)
class FusionConfig:
    iou_threshold: float = 0.03
    score_rescale: bool = False

    def __post_init__(self):
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise ConfigError(f"iou_threshold {self.iou_threshold} outside [0, 1]")


# fields of one cluster slot, the first axis of the state
_BOX, _AREA, _TOTAL, _COUNT, _LO_SCORE, _HI_SCORE = slice(0, 4), 4, 5, 6, 7, 8
_WEIGHTED, _PLAIN, _LO, _HI = slice(9, 13), slice(13, 17), slice(17, 21), slice(21, 25)
_FIELDS = 25


def _clip(value: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``min(max(value, lo), hi)`` with Python's choice of operand on ties."""
    value = np.where(lo > value, lo, value)
    return np.where(hi < value, hi, value)


def _fuse(cands: ScoredBoxes, cfg: FusionConfig) -> ScoredBoxes:
    n = len(cands)
    order = np.lexsort((cands.source_index, -cands.scores, cands.group))
    group, source = cands.group[order], cands.source_index[order]
    _, starts, sizes = np.unique(group, return_index=True, return_counts=True)
    by_size = np.argsort(-sizes, kind="stable")
    row = np.argsort(by_size)  # each group's row in the state
    rank = np.arange(n) - np.repeat(starts, sizes)  # position within the group

    # every slot starts as the cluster its candidate would open
    corners, scores = cands.boxes[order].T, cands.scores[order]
    state = np.zeros((_FIELDS, len(sizes), sizes.max(initial=0)))
    cells = state.reshape(_FIELDS, -1)
    at = row.repeat(sizes) * state.shape[2] + rank
    cells[_BOX, at] = cells[_LO, at] = cells[_HI, at] = corners
    cells[_AREA, at] = (corners[2] - corners[0]) * (corners[3] - corners[1])
    cells[_TOTAL, at] = 0.0 + scores
    cells[_COUNT, at] = 1.0
    cells[_LO_SCORE, at] = cells[_HI_SCORE, at] = scores
    cells[_WEIGHTED, at] = 0.0 + scores * corners
    cells[_PLAIN, at] = 0.0 + corners

    active = np.searchsorted(-sizes[by_size], -np.arange(state.shape[2]), side="left")
    for t, a in enumerate(active.tolist()):
        if t == 0:
            continue  # a group's first candidate always opens a cluster
        cand, clusters = state[:, :a, t, None], state[:, :a, :t]
        # geometry.iou_batch's float operations in its order, candidate first
        overlap = np.minimum(cand[2:4], clusters[2:4])
        overlap -= np.maximum(cand[0:2], clusters[0:2])
        np.maximum(overlap, 0.0, out=overlap)
        inter = overlap[0] * overlap[1]
        union = cand[_AREA] + clusters[_AREA] - inter
        iou = np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)
        # an empty slot holds the zero box: its IoU is 0 and never exceeds the threshold
        joins = np.flatnonzero(iou.max(axis=1) > cfg.iou_threshold)
        if not len(joins):
            continue
        slot = iou[joins].argmax(axis=1)
        c = state[:, joins, slot]  # the clusters that take a member, updated as one block
        v, s = state[_BOX, joins, t], state[_LO_SCORE, joins, t]
        c[_TOTAL] += s
        c[_COUNT] += 1.0
        c[_LO_SCORE] = np.where(s < c[_LO_SCORE], s, c[_LO_SCORE])
        c[_HI_SCORE] = np.where(s > c[_HI_SCORE], s, c[_HI_SCORE])
        c[_WEIGHTED] += s * v
        c[_PLAIN] += v
        c[_LO] = np.where(v < c[_LO], v, c[_LO])
        c[_HI] = np.where(v > c[_HI], v, c[_HI])
        total = c[_TOTAL]
        # all-zero scores fall back to the plain mean; clipping into the
        # members' range enforces the convex combination despite rounding
        mean = np.divide(c[_WEIGHTED], total, out=c[_PLAIN] / c[_COUNT], where=total > 0.0)
        c[_BOX] = box = _clip(mean, c[_LO], c[_HI])
        c[_AREA] = (box[2] - box[0]) * (box[3] - box[1])
        state[:, joins, slot] = c
        state[: _COUNT + 1, joins, t] = 0.0  # the joining candidate's slot stays empty

    rows, slots = np.nonzero(state[_COUNT])
    out = state[: _HI_SCORE + 1, rows, slots]
    del state, cells
    count = out[_COUNT]
    fused = _clip(out[_TOTAL] / count, out[_LO_SCORE], out[_HI_SCORE])
    if cfg.score_rescale:
        # the reference algorithm's cluster-size rescale; T is taken as
        # the number of input boxes since there is a single source model
        fused = fused * (count / sizes[by_size][rows])
    seeds = starts[by_size][rows] + slots
    out_group, out_source = group[seeds], source[seeds]
    final = np.lexsort((out_source, -fused, out_group))
    return ScoredBoxes(out_group[final], out[_BOX, final].T, fused[final], out_source[final])


def weighted_box_fusion(
    boxes: ScoredBoxes | list[ScoredBox], cfg: FusionConfig
) -> ScoredBoxes | list[ScoredBox]:
    """Fuse overlapping boxes of each group into score-weighted averages.

    Within a group, boxes are processed in score-descending order (ties
    broken by ``source_index`` ascending). A box joins the existing
    cluster of its group whose current fused box has the highest IoU with
    it (the first such cluster on ties), provided that IoU strictly
    exceeds ``cfg.iou_threshold``; otherwise it starts a new cluster. Each
    output box carries the cluster's score-weighted average coordinates
    and the arithmetic mean of member scores (optionally rescaled by
    cluster size over group size when ``cfg.score_rescale`` is on), and
    the ``source_index`` of the cluster's first box.

    A :class:`ScoredBoxes` record of many groups returns one row per
    cluster, sorted by group, then score descending, then
    ``source_index``. A list of :class:`ScoredBox` is one group and
    returns a list in that order. Empty input yields empty output. Fused
    coordinates are convex combinations of the members' coordinates and
    fused scores lie within the members' score range (rescale off).
    """
    if isinstance(boxes, ScoredBoxes):
        return _fuse(boxes, cfg)
    n = len(boxes)
    fused = _fuse(
        ScoredBoxes(
            np.zeros(n, dtype=np.intp),
            np.array([sb.box.as_tuple() for sb in boxes], dtype=np.float64).reshape(n, 4),
            np.array([sb.score for sb in boxes], dtype=np.float64),
            np.array([sb.source_index for sb in boxes], dtype=np.intp),
        ),
        cfg,
    )
    return [
        ScoredBox(Box(*row), score, index)
        for row, score, index in zip(
            fused.boxes.tolist(), fused.scores.tolist(), fused.source_index.tolist()
        )
    ]

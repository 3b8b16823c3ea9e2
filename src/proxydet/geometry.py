"""Axis-aligned boxes in normalized image coordinates, IoU/GIoU, and GIoU gradients.

All geometry lives on the unit square: corners in [0, 1], x to the right,
y downward, (x1, y1) the top-left corner. Everything is double precision
with no epsilon fuzz inside IoU itself; degenerate inputs follow explicit
rules instead (zero-union IoU is 0, GIoU of two zero-area boxes is an
error).

Scalar functions operate on :class:`Box` / :class:`CenterBox`; the
``*_batch`` variants operate on ``(N, 4)`` float arrays and are what the
vectorized loss code uses. ``iou`` and ``giou`` are scalar
implementations of their own, cross-checked against the batch forms in
the test suite; ``giou_gradient`` is the batch gradient applied to one
row, and the test suite checks the batch gradient against a per-column
reference instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegenerateBoxPairError(ValueError):
    """Both boxes of a pair have zero area, so GIoU is undefined."""


@dataclass(frozen=True)
class Box:
    """Corner-parametrized rectangle: (x1, y1) top-left, (x2, y2) bottom-right.

    Construction validates 0 <= x1 <= x2 <= 1 and 0 <= y1 <= y2 <= 1;
    zero-area boxes are representable.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        object.__setattr__(self, "x1", float(self.x1))
        object.__setattr__(self, "y1", float(self.y1))
        object.__setattr__(self, "x2", float(self.x2))
        object.__setattr__(self, "y2", float(self.y2))
        if not (0.0 <= self.x1 <= self.x2 <= 1.0 and 0.0 <= self.y1 <= self.y2 <= 1.0):
            raise ValueError(
                f"invalid box corners ({self.x1}, {self.y1}, {self.x2}, {self.y2}): "
                "need 0 <= x1 <= x2 <= 1 and 0 <= y1 <= y2 <= 1"
            )

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    def to_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)

    @classmethod
    def from_array(cls, arr) -> "Box":
        x1, y1, x2, y2 = (float(v) for v in arr)
        return cls(x1, y1, x2, y2)


@dataclass(frozen=True)
class CenterBox:
    """Center/size parametrization (cx, cy, w, h), each component in [0, 1].

    This is the box-head output format: an elementwise squashing activation
    cannot guarantee corner ordering, but center/size always converts to a
    valid corner box (after clamping corners to the unit square).
    """

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        object.__setattr__(self, "cx", float(self.cx))
        object.__setattr__(self, "cy", float(self.cy))
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "h", float(self.h))
        for name in ("cx", "cy", "w", "h"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"CenterBox field {name}={v} outside [0, 1]")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.cx, self.cy, self.w, self.h)

    def to_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)

    @classmethod
    def from_array(cls, arr) -> "CenterBox":
        cx, cy, w, h = (float(v) for v in arr)
        return cls(cx, cy, w, h)


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes.

    Returns 0.0 when the union has zero area (both boxes degenerate), so
    downstream fusion and metrics never see NaN.
    """
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(0.0, ix) * max(0.0, iy)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of ``(N, 4)`` and ``(M, 4)`` corner arrays as an ``(N, M)`` table.

    Entry ``[i, j]`` runs the float operations of :func:`iou` on ``a[i]``
    and ``b[j]`` in the same order, so it equals ``iou`` bit for bit
    (a zero may differ in sign).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    overlap = np.minimum(a[:, None, 2:], b[None, :, 2:]) - np.maximum(a[:, None, :2], b[None, :, :2])
    np.maximum(overlap, 0.0, out=overlap)
    inter = overlap[..., 0] * overlap[..., 1]
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)


def giou(a: Box, b: Box) -> float:
    """Generalized IoU: ``iou - (|C| - |A u B|) / |C|`` with C the enclosing box.

    Ranges in (-1, 1]; equals IoU when the enclosing box is exactly the
    union. Requires at least one box with positive area.
    """
    if a.area == 0.0 and b.area == 0.0:
        raise DegenerateBoxPairError("GIoU undefined: both boxes have zero area")
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(0.0, ix) * max(0.0, iy)
    union = a.area + b.area - inter
    cw = max(a.x2, b.x2) - min(a.x1, b.x1)
    ch = max(a.y2, b.y2) - min(a.y1, b.y1)
    enclosing = cw * ch
    return inter / union - (enclosing - union) / enclosing


def giou_gradient(a: Box, b: Box) -> tuple[np.ndarray, bool]:
    """Gradient of ``giou(a, b)`` with respect to a's four corner coordinates.

    Returns ``(grad, nonsmooth)`` where ``grad`` is the 4-vector
    ``d giou / d (x1, y1, x2, y2)`` and ``nonsmooth`` flags configurations
    where GIoU is not differentiable (coincident edges or exactly touching
    boxes). At flagged points the returned vector is a one-sided
    subgradient with ties resolved as if a's coordinate were the active
    one in every min/max.
    """
    grads, mask = giou_gradient_batch(a.to_array()[None, :], b.to_array()[None, :])
    return grads[0], bool(mask[0])


def _coordinate_rows(a: np.ndarray) -> np.ndarray:
    """``(N, 4)`` corners as four contiguous rows x1, y1, x2, y2.

    Row-wise arithmetic on contiguous rows is faster than on the strided
    columns of ``a``; the float operations and results are the same.
    """
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64).T)


def giou_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise GIoU for ``(N, 4)`` corner arrays.

    Raises :class:`DegenerateBoxPairError` if any row pairs two zero-area
    boxes.
    """
    ax1, ay1, ax2, ay2 = _coordinate_rows(a)
    bx1, by1, bx2, by2 = _coordinate_rows(b)
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    if np.any((area_a == 0.0) & (area_b == 0.0)):
        raise DegenerateBoxPairError("GIoU undefined: zero-area pair in batch")
    iw = np.maximum(0.0, np.minimum(ax2, bx2) - np.maximum(ax1, bx1))
    ih = np.maximum(0.0, np.minimum(ay2, by2) - np.maximum(ay1, by1))
    inter = iw * ih
    union = area_a + area_b - inter
    cw = np.maximum(ax2, bx2) - np.minimum(ax1, bx1)
    ch = np.maximum(ay2, by2) - np.minimum(ay1, by1)
    enclosing = cw * ch
    return inter / union - (enclosing - union) / enclosing


def giou_gradient_batch(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``d giou / d a`` for ``(N, 4)`` corner arrays.

    Returns ``(grads, nonsmooth)``: grads shaped like ``a``, nonsmooth a
    boolean mask of rows at non-differentiable configurations (tied
    corners or exactly-touching intersection edges). Tie-breaking treats
    a's coordinate as active, giving a one-sided subgradient there.
    """
    ax1, ay1, ax2, ay2 = _coordinate_rows(a)
    bx1, by1, bx2, by2 = _coordinate_rows(b)
    w_a = ax2 - ax1
    h_a = ay2 - ay1
    area_a = w_a * h_a
    area_b = (bx2 - bx1) * (by2 - by1)
    if np.any((area_a == 0.0) & (area_b == 0.0)):
        raise DegenerateBoxPairError("GIoU gradient undefined: zero-area pair in batch")

    dx = np.minimum(ax2, bx2) - np.maximum(ax1, bx1)
    dy = np.minimum(ay2, by2) - np.maximum(ay1, by1)
    iw = np.maximum(0.0, dx)
    ih = np.maximum(0.0, dy)
    inter = iw * ih
    union = area_a + area_b - inter
    cw = np.maximum(ax2, bx2) - np.minimum(ax1, bx1)
    ch = np.maximum(ay2, by2) - np.minimum(ay1, by1)
    enclosing = cw * ch

    # a-active selectors for each min/max; ties count as active (>=, <=).
    # Rows of the (4, N) arrays are the coordinates x1, y1, x2, y2.
    open_w = (iw > 0.0) & (ih > 0.0)
    d_inter = np.stack(
        [
            np.where(open_w & (ax1 >= bx1), -ih, 0.0),
            np.where(open_w & (ay1 >= by1), -iw, 0.0),
            np.where(open_w & (ax2 <= bx2), ih, 0.0),
            np.where(open_w & (ay2 <= by2), iw, 0.0),
        ]
    )
    d_union = np.stack([-h_a, -w_a, h_a, w_a]) - d_inter
    d_enc = np.stack(
        [
            np.where(ax1 <= bx1, -ch, 0.0),
            np.where(ay1 <= by1, -cw, 0.0),
            np.where(ax2 >= bx2, ch, 0.0),
            np.where(ay2 >= by2, cw, 0.0),
        ]
    )

    u = union
    c = enclosing
    # giou = inter/union + union/enclosing - 1
    grads = (d_inter * u - inter * d_union) / u**2 + (d_union * c - u * d_enc) / c**2

    tied = (ax1 == bx1) | (ay1 == by1) | (ax2 == bx2) | (ay2 == by2)
    touching = (dx == 0.0) | (dy == 0.0)
    return grads.T, tied | touching


def center_to_corner(c: CenterBox) -> Box:
    """Convert center/size to a corner box, clamping corners to [0, 1].

    Exact inverse of :func:`corner_to_center` for boxes entirely inside
    the unit square; boxes poking outside are clipped.
    """
    x1 = min(max(c.cx - c.w / 2.0, 0.0), 1.0)
    y1 = min(max(c.cy - c.h / 2.0, 0.0), 1.0)
    x2 = min(max(c.cx + c.w / 2.0, 0.0), 1.0)
    y2 = min(max(c.cy + c.h / 2.0, 0.0), 1.0)
    return Box(x1, y1, x2, y2)


def corner_to_center(b: Box) -> CenterBox:
    """Convert a corner box to center/size parametrization (always exact)."""
    return CenterBox(
        (b.x1 + b.x2) / 2.0,
        (b.y1 + b.y2) / 2.0,
        b.x2 - b.x1,
        b.y2 - b.y1,
    )


def center_to_corner_batch(cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized center/size -> clamped corners for ``(..., 4)`` arrays.

    Returns ``(corners, passthrough)`` where ``passthrough`` marks corner
    coordinates strictly inside (0, 1) before clamping — exactly the
    coordinates whose derivative with respect to the center/size inputs is
    nonzero — so loss code can chain gradients through the conversion.
    """
    cs = np.asarray(cs, dtype=np.float64)
    cx, cy, w, h = cs[..., 0], cs[..., 1], cs[..., 2], cs[..., 3]
    # built as contiguous coordinate rows; the results are (..., 4) views of them
    raw = np.stack([cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0])
    passthrough = (raw > 0.0) & (raw < 1.0)
    to_last = (*range(1, raw.ndim), 0)
    return np.clip(raw, 0.0, 1.0).transpose(to_last), passthrough.transpose(to_last)


def corner_to_center_batch(corners: np.ndarray) -> np.ndarray:
    """Vectorized corners -> center/size for ``(..., 4)`` arrays."""
    corners = np.asarray(corners, dtype=np.float64)
    x1, y1, x2, y2 = corners[..., 0], corners[..., 1], corners[..., 2], corners[..., 3]
    return np.stack([(x1 + x2) / 2.0, (y1 + y2) / 2.0, x2 - x1, y2 - y1], axis=-1)

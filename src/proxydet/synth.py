"""Seeded synthetic scenes: region layouts, features, labels, and ground-truth boxes.

The generator builds a small oracle world where learning pathology boxes
from region proxies is verifiably possible:

* region boxes follow a canonical overlapping grid (neighbouring regions
  overlap, like real anatomical regions), jittered per image;
* every class has a fixed affinity set of regions; when active in an
  image it affects 1-2 of them;
* features are linearly separable by construction: a region one-hot plus
  the signature vectors of the classes affecting that region plus
  Gaussian noise — so a single linear layer suffices and the experiment
  isolates the supervision question;
* the ground-truth box of an active class is the enclosing box of its
  affected regions, shrunk by a random factor, so it covers parts of a
  region or stretches over several;
* the image-level label of a class is positive iff any region is
  positively labeled with it.

Generation is deterministic given the seed; each image draws from its own
seed stream so scenes are independent of dataset size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import Box
from .inference import PathologyBox


@dataclass(frozen=True)
class SynthConfig:
    n_regions: int = 8
    n_classes: int = 5
    feature_dim: int = 16
    n_images: int = 100
    prevalence: float = 0.3
    jitter: float = 0.02
    noise_sigma: float = 0.1
    shrink_range: tuple[float, float] = (0.6, 1.0)
    regions_per_finding: tuple[int, int] = (1, 2)
    affinity_size: int = 2
    region_dropout: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_regions, self.n_classes, self.feature_dim, self.n_images) < 1:
            raise ConfigError("sizes must be positive")
        if self.feature_dim < self.n_regions:
            raise ConfigError("feature_dim must be >= n_regions (one-hot embedding)")
        if not 0.0 <= self.prevalence <= 1.0:
            raise ConfigError("prevalence must lie in [0, 1]")
        lo, hi = self.shrink_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ConfigError("shrink_range must satisfy 0 < lo <= hi <= 1")
        kmin, kmax = self.regions_per_finding
        if not (1 <= kmin <= kmax):
            raise ConfigError("regions_per_finding must satisfy 1 <= min <= max")
        if self.affinity_size < kmax:
            raise ConfigError("affinity_size must cover regions_per_finding")
        if self.affinity_size > self.n_regions:
            raise ConfigError("affinity_size cannot exceed n_regions")
        if not 0.0 <= self.region_dropout < 1.0:
            raise ConfigError("region_dropout must lie in [0, 1)")
        for name in ("jitter", "noise_sigma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")

    def class_names(self) -> list[str]:
        return [f"finding_{i}" for i in range(self.n_classes)]


@dataclass(eq=False)
class SynthScene:
    """One generated image: geometry, features, labels, and GT boxes."""

    image_id: str
    region_boxes: tuple[Box, ...]
    present: np.ndarray  # (R,) bool
    features: np.ndarray  # (R, D)
    anatomy_labels: np.ndarray  # (R, C) in {0, 1}
    image_labels: np.ndarray  # (C,) in {0, 1}
    gt_boxes: tuple[PathologyBox, ...]


def canonical_layout(n_regions: int, overlap: float = 1.5) -> list[Box]:
    """Grid of region boxes sized ``overlap`` times the cell, so neighbours overlap."""
    cols = math.ceil(math.sqrt(n_regions))
    rows = math.ceil(n_regions / cols)
    half_w = overlap / (2.0 * cols)
    half_h = overlap / (2.0 * rows)
    boxes = []
    for k in range(n_regions):
        row, col = divmod(k, cols)
        cx = (col + 0.5) / cols
        cy = (row + 0.5) / rows
        boxes.append(
            Box(
                max(cx - half_w, 0.0),
                max(cy - half_h, 0.0),
                min(cx + half_w, 1.0),
                min(cy + half_h, 1.0),
            )
        )
    return boxes


def _shrink(box: Box, factor: float) -> Box:
    cx = (box.x1 + box.x2) / 2.0
    cy = (box.y1 + box.y2) / 2.0
    hw = factor * (box.x2 - box.x1) / 2.0
    hh = factor * (box.y2 - box.y1) / 2.0
    return Box(cx - hw, cy - hh, cx + hw, cy + hh)


def _enclosing(boxes: list[Box]) -> Box:
    return Box(
        min(b.x1 for b in boxes),
        min(b.y1 for b in boxes),
        max(b.x2 for b in boxes),
        max(b.y2 for b in boxes),
    )


@dataclass(eq=False)
class _World:
    layout: list[Box]
    affinity: np.ndarray  # (C, affinity_size) region indices
    signatures: np.ndarray  # (C, D) unit-norm rows


def _build_world(cfg: SynthConfig) -> _World:
    rng = np.random.default_rng([cfg.seed, 0])
    affinity = np.stack(
        [
            rng.choice(cfg.n_regions, size=cfg.affinity_size, replace=False)
            for _ in range(cfg.n_classes)
        ]
    )
    signatures = rng.normal(size=(cfg.n_classes, cfg.feature_dim))
    signatures /= np.linalg.norm(signatures, axis=1, keepdims=True)
    return _World(canonical_layout(cfg.n_regions), affinity, signatures)


def _generate_scene(cfg: SynthConfig, world: _World, index: int) -> SynthScene:
    rng = np.random.default_rng([cfg.seed, 1, index])
    r, c, d = cfg.n_regions, cfg.n_classes, cfg.feature_dim

    # jittered region boxes: shift each canonical center, clamp corners
    offsets = rng.uniform(-cfg.jitter, cfg.jitter, size=(r, 2))
    region_boxes = []
    for k, base in enumerate(world.layout):
        dx, dy = offsets[k]
        region_boxes.append(
            Box(
                min(max(base.x1 + dx, 0.0), 1.0),
                min(max(base.y1 + dy, 0.0), 1.0),
                min(max(base.x2 + dx, 0.0), 1.0),
                min(max(base.y2 + dy, 0.0), 1.0),
            )
        )

    present = rng.random(r) >= cfg.region_dropout
    if not present.any():
        present[0] = True

    active = rng.random(c) < cfg.prevalence
    kmin, kmax = cfg.regions_per_finding
    anatomy = np.zeros((r, c), dtype=np.float64)
    gt: list[PathologyBox] = []
    for cls in range(c):
        if not active[cls]:
            continue
        candidates = [int(reg) for reg in world.affinity[cls] if present[reg]]
        if not candidates:
            continue
        k = int(rng.integers(kmin, kmax + 1))
        k = min(k, len(candidates))
        affected = sorted(int(v) for v in rng.choice(candidates, size=k, replace=False))
        anatomy[affected, cls] = 1.0
        shrink = float(rng.uniform(cfg.shrink_range[0], cfg.shrink_range[1]))
        gt_box = _shrink(_enclosing([region_boxes[a] for a in affected]), shrink)
        gt.append(PathologyBox(class_id=cls, box=gt_box, score=1.0))

    image_labels = (anatomy.sum(axis=0) > 0).astype(np.float64)

    features = np.zeros((r, d))
    for k in range(r):
        if present[k]:
            features[k, k] = 1.0  # absent regions carry no region embedding
    features += anatomy @ world.signatures
    features += cfg.noise_sigma * rng.normal(size=(r, d))

    return SynthScene(
        image_id=f"img_{index:05d}",
        region_boxes=tuple(region_boxes),
        present=present,
        features=features,
        anatomy_labels=anatomy,
        image_labels=image_labels,
        gt_boxes=tuple(gt),
    )


def generate_dataset(cfg: SynthConfig) -> list[SynthScene]:
    """Generate ``cfg.n_images`` scenes, deterministic given ``cfg.seed``.

    The world structure (layout, class-region affinities, class signature
    vectors) is drawn once from the seed; each image then draws from its
    own ``(seed, image index)`` stream, so scene ``i`` does not depend on
    how many images are requested.
    """
    world = _build_world(cfg)
    return [_generate_scene(cfg, world, i) for i in range(cfg.n_images)]

"""Per-region prediction heads with manual backprop, plus the training loop.

Three heads consume a fixed-size feature vector per anatomical region,
with weights shared across regions:

* presence: single linear layer + sigmoid;
* box: three-layer MLP (rectifier activations, hidden width equal to the
  feature dimension) + sigmoid, producing center/size box parameters;
* pathology: single shared linear layer + sigmoid over all classes.

The decoder that would produce the region features upstream is out of
scope; features arrive from files or the synthetic generator. Gradients
are derived by hand (no autodiff) and verified against finite differences
in the test suite; the optimizer is AdamW with decoupled weight decay.

Training takes the loss terms and their gradients w.r.t. the head
outputs from the batched core in :mod:`proxydet.losses`, backpropagates
them through the sigmoids and the box MLP into a :class:`HeadParams`
gradient record, and lets :class:`AdamW` update the parameters' vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import ConfigError, TrainingError
from .losses import (
    AslParams,
    CombinedLossWeights,
    DetectionLossParams,
    LsePoolParams,
    RegionTargets,
    combined_loss,
    detection_terms,
    loc_terms,
    mil_terms,
    region_targets,
)
from .geometry import center_to_corner_batch
from .inference import RegionDetections

TRAIN_MODES = ("loc", "mil", "loc_mil")

DEFAULT_LEARNING_RATE = {"loc": 3e-5, "mil": 1e-4, "loc_mil": 3e-5}
DEFAULT_WEIGHT_DECAY = {"loc": 1e-5, "mil": 1e-4, "loc_mil": 1e-5}


@lru_cache(maxsize=None)
def _param_layout(feature_dim: int, n_classes: int) -> tuple[tuple[str, tuple[int, ...], int, int], ...]:
    """``(name, shape, start, stop)`` of each parameter array in the flat vector, in order."""
    d, c = feature_dim, n_classes
    layout, pos = [], 0
    for name, shape in (
        ("pathology_weight", (c, d)),
        ("pathology_bias", (c,)),
        ("presence_weight", (d,)),
        ("presence_bias", (1,)),
        ("box_w1", (d, d)),
        ("box_b1", (d,)),
        ("box_w2", (d, d)),
        ("box_b2", (d,)),
        ("box_w3", (4, d)),
        ("box_b3", (4,)),
    ):
        layout.append((name, shape, pos, pos + math.prod(shape)))
        pos += math.prod(shape)
    return tuple(layout)


PARAM_FIELDS = tuple(name for name, *_ in _param_layout(1, 1))


class HeadParams:
    """All trainable arrays of the heads, as consecutive views of one float64 vector ``flat``.

    With D = ``feature_dim`` and C = ``n_classes``, in ``PARAM_FIELDS``
    order: ``pathology_weight`` (C, D), ``pathology_bias`` (C,),
    ``presence_weight`` (D,), ``presence_bias`` (1,), ``box_w1`` (D, D),
    ``box_b1`` (D,), ``box_w2`` (D, D), ``box_b2`` (D,), ``box_w3`` (4, D)
    and ``box_b3`` (4,). Gradients use the same record.
    """

    __slots__ = ("flat", "feature_dim", "n_classes", *PARAM_FIELDS)

    def __init__(self, flat: np.ndarray, feature_dim: int, n_classes: int):
        layout = _param_layout(feature_dim, n_classes)
        if flat.dtype != np.float64 or flat.shape != (layout[-1][3],):
            raise ValueError(f"flat must be a float64 vector of length {layout[-1][3]}, got {flat.dtype} {flat.shape}")
        self.flat = flat
        self.feature_dim = feature_dim
        self.n_classes = n_classes
        for name, shape, start, stop in layout:
            setattr(self, name, flat[start:stop].reshape(shape))

    def to_dict(self) -> dict[str, np.ndarray]:
        """The named arrays; they are views of ``flat``."""
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    @classmethod
    def from_flat(cls, vec: np.ndarray, feature_dim: int, n_classes: int) -> "HeadParams":
        """Parameters whose arrays are views of ``vec`` (a contiguous float64 vector is not copied)."""
        return cls(np.ascontiguousarray(vec, dtype=np.float64).reshape(-1), feature_dim, n_classes)


def init_head_params(feature_dim: int, n_classes: int, rng: np.random.Generator) -> HeadParams:
    """Seeded initialization: weights uniform in +-1/sqrt(fan_in), biases zero."""
    if feature_dim < 1 or n_classes < 1:
        raise ConfigError("feature_dim and n_classes must be positive")
    bound = 1.0 / np.sqrt(feature_dim)
    params = HeadParams(np.zeros(_param_layout(feature_dim, n_classes)[-1][3]), feature_dim, n_classes)
    for name, arr in params.to_dict().items():
        if not name.endswith(("bias", "b1", "b2", "b3")):
            arr[...] = rng.uniform(-bound, bound, size=arr.shape)
    return params


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; each branch equals the textbook form on its side
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass(eq=False)
class ForwardOutput:
    presence: np.ndarray  # (R,)
    boxes: np.ndarray  # (R, 4) center/size
    pathology_probs: np.ndarray  # (R, C)


def forward(features: np.ndarray, params: HeadParams) -> ForwardOutput:
    """Apply all heads independently to each region row of ``features``.

    ``features`` is ``(R, feature_dim)``; output probabilities are sigmoid
    squashed, boxes are in center/size form.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.feature_dim:
        raise ValueError(
            f"features must be (R, {params.feature_dim}), got {x.shape}"
        )
    cache = _forward_cache(x, params)
    return ForwardOutput(cache["p_pres"], cache["boxes"], cache["p_path"])


def predict_regions(features: np.ndarray, params: HeadParams) -> RegionDetections:
    """Run the heads on one image's features and package its region detections.

    Row ``i`` is region ``i`` (the fixed token-to-region assignment); its
    box is the predicted center/size box converted to corner form.
    """
    out = forward(features, params)
    corners, _ = center_to_corner_batch(out.boxes)
    return RegionDetections(corners, out.presence, out.pathology_probs)


def _forward_cache(x: np.ndarray, params: HeadParams) -> dict[str, np.ndarray]:
    z_pres = x @ params.presence_weight + params.presence_bias[0]
    z_path = x @ params.pathology_weight.T + params.pathology_bias
    h1_pre = x @ params.box_w1.T + params.box_b1
    h1 = np.maximum(h1_pre, 0.0)
    h2_pre = h1 @ params.box_w2.T + params.box_b2
    h2 = np.maximum(h2_pre, 0.0)
    z_box = h2 @ params.box_w3.T + params.box_b3
    return {
        "x": x,
        "h1_pre": h1_pre,
        "h1": h1,
        "h2_pre": h2_pre,
        "h2": h2,
        "z_box": z_box,
        "p_pres": _sigmoid(z_pres),
        "p_path": _sigmoid(z_path),
        "boxes": _sigmoid(z_box),
    }


# ---------------------------------------------------------------------------
# batches and the combined objective
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Batch:
    """A stack of samples with one row per (sample, region), and their loss targets.

    ``anatomy_labels`` may be None in image-level ("mil") training;
    ``image_labels`` may be None in region-level ("loc") training.
    """

    features: np.ndarray  # (B, R, D)
    targets: RegionTargets  # derived once, by :meth:`of`
    anatomy_labels: np.ndarray | None  # (B, R, C)
    image_labels: np.ndarray | None  # (B, C)

    @classmethod
    def of(cls, features, target_boxes, present, anatomy_labels, image_labels, batch_size=None) -> "Batch":
        """Targets from ``(B, R, 4)`` center/size boxes and ``(B, R)`` flags, as :func:`region_targets`.

        Their loc weight divides by the class count of the labels given.
        """
        labels = image_labels if anatomy_labels is None else anatomy_labels
        if labels is None:
            raise ConfigError("samples carry neither anatomy-level nor image-level labels")
        targets = region_targets(present, target_boxes, labels.shape[-1], batch_size)
        return cls(features, targets, anatomy_labels, image_labels)

    @property
    def n_classes(self) -> int:
        return (self.image_labels if self.anatomy_labels is None else self.anatomy_labels).shape[-1]

    def take(self, idx: np.ndarray) -> "Batch":
        """The samples ``idx``, weighted as derived; the targets are taken first."""
        targets = self.targets.take(idx)
        return Batch(
            self.features.take(idx, axis=0),
            targets,
            None if self.anatomy_labels is None else self.anatomy_labels.take(idx, axis=0),
            None if self.image_labels is None else self.image_labels.take(idx, axis=0),
        )


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    detection: float
    presence_bce: float
    l1: float
    giou_penalty: float
    loc_asl: float
    mil_asl: float


@dataclass(frozen=True)
class TrainConfig:
    """Training-run configuration; learning rate and weight decay default per mode."""

    mode: str = "loc"
    batch_size: int = 128
    max_steps: int = 2000
    patience: int = 2000
    seed: int = 0
    learning_rate: float | None = None
    weight_decay: float | None = None
    asl: AslParams = field(default_factory=AslParams)
    detection: DetectionLossParams = field(default_factory=DetectionLossParams)
    lse: LsePoolParams = field(default_factory=LsePoolParams)
    weights: CombinedLossWeights = field(default_factory=CombinedLossWeights)

    def __post_init__(self):
        if self.mode not in TRAIN_MODES:
            raise ConfigError(f"mode must be one of {TRAIN_MODES}, got {self.mode!r}")
        if self.batch_size < 1 or self.max_steps < 0 or self.patience < 1:
            raise ConfigError("batch_size/patience must be positive, max_steps >= 0")
        for name, value in (("learning_rate", self.learning_rate), ("weight_decay", self.weight_decay)):
            if value is not None and not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")

    @property
    def lr(self) -> float:
        return DEFAULT_LEARNING_RATE[self.mode] if self.learning_rate is None else self.learning_rate

    @property
    def wd(self) -> float:
        return DEFAULT_WEIGHT_DECAY[self.mode] if self.weight_decay is None else self.weight_decay

    @property
    def needs_anatomy_labels(self) -> bool:
        return self.mode in ("loc", "loc_mil")

    @property
    def needs_image_labels(self) -> bool:
        return self.mode in ("mil", "loc_mil")


def batch_loss(batch: Batch, params: HeadParams, cfg: TrainConfig) -> LossBreakdown:
    """Mean combined loss over the batch (detection + weighted classification)."""
    breakdown, _ = _batch_loss_core(batch, params, cfg, want_grads=False)
    return breakdown


def batch_loss_and_grads(
    batch: Batch, params: HeadParams, cfg: TrainConfig
) -> tuple[LossBreakdown, HeadParams]:
    """Loss breakdown plus the gradient of every parameter array, as a :class:`HeadParams` record.

    Raises :class:`TrainingError` if the loss is non-finite.
    """
    breakdown, grads = _batch_loss_core(batch, params, cfg, want_grads=True)
    if not np.isfinite(breakdown.total):
        raise TrainingError(f"non-finite loss: {breakdown}")
    return breakdown, grads


def _batch_loss_core(batch, params, cfg, want_grads):
    b, r, d = batch.features.shape
    if d != params.feature_dim:
        raise ValueError(f"feature dim mismatch: batch {d}, params {params.feature_dim}")
    c = params.n_classes
    x = batch.features.reshape(b * r, d)
    cache = _forward_cache(x, params)

    p_pres = cache["p_pres"]
    boxes = cache["boxes"].reshape(b, r, 4)
    det, d_pres, d_boxes = detection_terms(p_pres.reshape(b, r), boxes, batch.targets, cfg.detection, want_grads)

    # a mode without a term contributes 0 to the loss and to its gradient
    p_path = cache["p_path"].reshape(b, r, c)
    loc_val = d_loc = mil_val = d_mil = 0.0

    if cfg.needs_anatomy_labels:
        if batch.anatomy_labels is None:
            raise ConfigError(f"mode {cfg.mode!r} requires anatomy-level labels")
        loc_val, d_loc = loc_terms(p_path, batch.anatomy_labels, batch.targets, cfg.asl, want_grads)

    if cfg.needs_image_labels:
        if batch.image_labels is None:
            raise ConfigError(f"mode {cfg.mode!r} requires image-level labels")
        if not batch.targets.n_present.all():
            raise ConfigError("image-level training needs at least one present region per sample")
        mil_val, d_mil = mil_terms(p_path, batch.image_labels, batch.targets, cfg.lse, cfg.asl, want_grads)

    breakdown = LossBreakdown(
        total=combined_loss(det.total, loc_val + mil_val, cfg.weights),
        detection=det.total,
        presence_bce=det.presence_bce,
        l1=det.l1,
        giou_penalty=det.giou_penalty,
        loc_asl=loc_val,
        mil_asl=mil_val,
    )
    if not want_grads:
        return breakdown, None

    # chain everything through the sigmoids and the box MLP
    dz_pres = d_pres.reshape(b * r) * p_pres * (1.0 - p_pres)
    dz_path = (
        cfg.weights.asl_weight
        * (d_loc + d_mil).reshape(b * r, c)
        * cache["p_path"]
        * (1.0 - cache["p_path"])
    )
    dz_box = d_boxes.reshape(b * r, 4) * cache["boxes"] * (1.0 - cache["boxes"])

    grads = HeadParams(np.empty(params.flat.size), d, c)
    np.matmul(x.T, dz_pres, out=grads.presence_weight)
    np.sum(dz_pres, keepdims=True, out=grads.presence_bias)
    np.matmul(dz_path.T, x, out=grads.pathology_weight)
    np.sum(dz_path, axis=0, out=grads.pathology_bias)

    # each hidden layer's arrays are dropped once used; at D=512 that lowers the
    # peak memory and the page faults of a step
    np.matmul(dz_box.T, cache.pop("h2"), out=grads.box_w3)
    np.sum(dz_box, axis=0, out=grads.box_b3)
    dh2 = (dz_box @ params.box_w3) * (cache.pop("h2_pre") > 0.0)
    np.matmul(dh2.T, cache.pop("h1"), out=grads.box_w2)
    np.sum(dh2, axis=0, out=grads.box_b2)
    dh1 = (dh2 @ params.box_w2) * (cache.pop("h1_pre") > 0.0)
    del dh2
    np.matmul(dh1.T, x, out=grads.box_w1)
    np.sum(dh1, axis=0, out=grads.box_b1)
    return breakdown, grads


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class AdamW:
    """AdamW with decoupled weight decay, updating one flat parameter vector in place.

    Decay is applied directly to the parameters (scaled by the learning
    rate), not folded into the gradient; moments are bias-corrected. The
    moments are made on the first step, so every step must pass vectors of
    that length: in :func:`train`, ``HeadParams.flat`` of the parameters
    and of the gradients. :meth:`_update` runs on the vectors a chunk at a
    time with persistent scratch space.
    """

    _CHUNK = 1 << 14  # elements per pass

    def __init__(
        self,
        learning_rate: float,
        weight_decay: float = 0.0,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.exp_avg: np.ndarray | None = None
        self.exp_avg_sq: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One update of the float64 vector ``params`` in place, given its gradient ``grads``."""
        if self.exp_avg is None:
            self.exp_avg, self.exp_avg_sq = np.zeros(params.size), np.zeros(params.size)
            self._scratch = np.empty((2, min(params.size, self._CHUNK)))
        p, g, m, v = params, grads, self.exp_avg, self.exp_avg_sq
        if p.shape != m.shape or g.shape != m.shape:
            raise ValueError(f"params and grads must be vectors of length {m.size}, got {p.shape}, {g.shape}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for lo in range(0, p.size, self._CHUNK):
            hi = min(lo + self._CHUNK, p.size)
            s, u = self._scratch[:, : hi - lo]
            self._update(p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], bc1, bc2, s, u)

    def _update(self, p, g, m, v, bc1, bc2, s, u) -> None:
        """Update ``p`` and its moments ``m``, ``v`` in place; ``s``, ``u`` are scratch shaped like ``p``."""
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=s)
        s *= g
        v += s
        # s = sqrt(v / bc2) + eps, u = (m / bc1) / s + decay * p
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += self.eps
        np.divide(m, bc1, out=u)
        u /= s
        np.multiply(p, self.weight_decay, out=s)
        u += s
        u *= self.learning_rate
        p -= u


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class TrainSample:
    """One image's training view: features plus region and label targets."""

    features: np.ndarray  # (R, D)
    target_boxes: np.ndarray  # (R, 4) center/size
    present: np.ndarray  # (R,) bool
    anatomy_labels: np.ndarray | None  # (R, C)
    image_labels: np.ndarray | None  # (C,)


@dataclass(eq=False)
class TrainResult:
    params: HeadParams
    history: list[tuple[int, LossBreakdown]]
    steps_run: int
    stopped_early: bool


def _stack_samples(samples: list[TrainSample], cfg: TrainConfig, batch_size: int) -> Batch:
    """All samples as one :class:`Batch`, with the labels ``cfg.mode`` trains on.

    The loss targets are weighted for batches of ``batch_size`` samples
    taken from it, not for the whole stack.
    """
    feats = np.stack([s.features for s in samples])
    boxes = np.stack([s.target_boxes for s in samples])
    present = np.stack([s.present for s in samples])
    labels = {"anatomy_labels": None, "image_labels": None}
    for name, level, needed in (
        ("anatomy_labels", "anatomy-level", cfg.needs_anatomy_labels),
        ("image_labels", "image-level", cfg.needs_image_labels),
    ):
        if needed:
            missing = [i for i, s in enumerate(samples) if getattr(s, name) is None]
            if missing:
                raise ConfigError(
                    f"mode {cfg.mode!r} requires {level} labels; missing for sample(s) {missing[:5]}"
                )
            labels[name] = np.stack([getattr(s, name) for s in samples])
    return Batch.of(feats, boxes, present, batch_size=batch_size, **labels)


def _batch_indices(n: int, batch_size: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Endless stream of index batches: permutation epochs, sorted within batch."""
    buffer = np.empty(0, dtype=np.int64)
    while True:
        while buffer.size < batch_size:
            buffer = np.concatenate([buffer, rng.permutation(n)])
        # sorting makes the reduction order independent of the permutation
        yield np.sort(buffer[:batch_size])
        buffer = buffer[batch_size:]


def train(samples: list[TrainSample], cfg: TrainConfig) -> TrainResult:
    """Train the heads on the given samples; deterministic given the seed.

    Stops at ``cfg.max_steps`` or when the per-step loss has not improved
    for ``cfg.patience`` consecutive steps. Returns final parameters and
    the per-step loss history.
    """
    if not samples:
        raise ConfigError("training requires at least one sample")
    if all(s.anatomy_labels is None and s.image_labels is None for s in samples):
        raise ConfigError("samples carry neither anatomy-level nor image-level labels")
    batch_size = min(cfg.batch_size, len(samples))
    data = _stack_samples(samples, cfg, batch_size)

    params = init_head_params(data.features.shape[2], data.n_classes, np.random.default_rng([cfg.seed, 0]))
    opt = AdamW(learning_rate=cfg.lr, weight_decay=cfg.wd)
    batches = _batch_indices(len(samples), batch_size, np.random.default_rng([cfg.seed, 1]))

    history: list[tuple[int, LossBreakdown]] = []
    best = np.inf
    best_step = -1
    stopped_early = False
    steps_run = 0
    for step in range(cfg.max_steps):
        # both held until the next step: the step's speed depends on where its arrays land on the heap
        idx = next(batches)
        batch = data.take(idx)
        breakdown, grads = batch_loss_and_grads(batch, params, cfg)
        opt.step(params.flat, grads.flat)
        history.append((step, breakdown))
        steps_run = step + 1
        if breakdown.total < best:
            best = breakdown.total
            best_step = step
        elif step - best_step >= cfg.patience:
            stopped_early = True
            break
    return TrainResult(params=params, history=history, steps_run=steps_run, stopped_early=stopped_early)

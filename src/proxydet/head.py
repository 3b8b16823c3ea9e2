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
outputs from the batched core in :mod:`proxydet.losses` and
backpropagates them through the sigmoids and the box MLP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ConfigError, TrainingError
from .losses import (
    AslParams,
    CombinedLossWeights,
    DetectionLossParams,
    LsePoolParams,
    combined_loss,
    detection_terms,
    loc_terms,
    mil_terms,
)
from .geometry import Box, center_to_corner_batch
from .inference import RegionDetection

TRAIN_MODES = ("loc", "mil", "loc_mil")

# Reference decoder widths for full-scale runs; desk-scale training takes
# the dimension from the dataset instead.
DEFAULT_FEATURE_DIM = {"loc": 512, "mil": 256, "loc_mil": 512}
DEFAULT_LEARNING_RATE = {"loc": 3e-5, "mil": 1e-4, "loc_mil": 3e-5}
DEFAULT_WEIGHT_DECAY = {"loc": 1e-5, "mil": 1e-4, "loc_mil": 1e-5}

PARAM_FIELDS = (
    "pathology_weight",
    "pathology_bias",
    "presence_weight",
    "presence_bias",
    "box_w1",
    "box_b1",
    "box_w2",
    "box_b2",
    "box_w3",
    "box_b3",
)


@dataclass(eq=False)
class HeadParams:
    """All trainable arrays; shapes are fixed by feature_dim and n_classes."""

    pathology_weight: np.ndarray  # (C, D)
    pathology_bias: np.ndarray  # (C,)
    presence_weight: np.ndarray  # (D,)
    presence_bias: np.ndarray  # (1,)
    box_w1: np.ndarray  # (D, D)
    box_b1: np.ndarray  # (D,)
    box_w2: np.ndarray  # (D, D)
    box_b2: np.ndarray  # (D,)
    box_w3: np.ndarray  # (4, D)
    box_b3: np.ndarray  # (4,)

    @property
    def feature_dim(self) -> int:
        return self.pathology_weight.shape[1]

    @property
    def n_classes(self) -> int:
        return self.pathology_weight.shape[0]

    def to_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    @classmethod
    def from_dict(cls, arrays: dict[str, np.ndarray]) -> "HeadParams":
        return cls(**{name: np.asarray(arrays[name], dtype=np.float64) for name in PARAM_FIELDS})

    def copy(self) -> "HeadParams":
        return HeadParams.from_dict({k: v.copy() for k, v in self.to_dict().items()})

    def flat(self) -> np.ndarray:
        return np.concatenate([getattr(self, n).ravel() for n in PARAM_FIELDS])

    @classmethod
    def from_flat(cls, vec: np.ndarray, feature_dim: int, n_classes: int) -> "HeadParams":
        shapes = _param_shapes(feature_dim, n_classes)
        out = {}
        pos = 0
        for name in PARAM_FIELDS:
            size = int(np.prod(shapes[name]))
            out[name] = np.asarray(vec[pos : pos + size], dtype=np.float64).reshape(shapes[name])
            pos += size
        if pos != vec.size:
            raise ValueError("flat vector length does not match parameter shapes")
        return cls.from_dict(out)


def _param_shapes(feature_dim: int, n_classes: int) -> dict[str, tuple[int, ...]]:
    d, c = feature_dim, n_classes
    return {
        "pathology_weight": (c, d),
        "pathology_bias": (c,),
        "presence_weight": (d,),
        "presence_bias": (1,),
        "box_w1": (d, d),
        "box_b1": (d,),
        "box_w2": (d, d),
        "box_b2": (d,),
        "box_w3": (4, d),
        "box_b3": (4,),
    }


def init_head_params(feature_dim: int, n_classes: int, rng: np.random.Generator) -> HeadParams:
    """Seeded initialization: weights uniform in +-1/sqrt(fan_in), biases zero."""
    if feature_dim < 1 or n_classes < 1:
        raise ConfigError("feature_dim and n_classes must be positive")
    bound = 1.0 / np.sqrt(feature_dim)
    shapes = _param_shapes(feature_dim, n_classes)
    arrays: dict[str, np.ndarray] = {}
    for name in PARAM_FIELDS:
        if name.endswith("bias") or name.endswith(("b1", "b2", "b3")):
            arrays[name] = np.zeros(shapes[name], dtype=np.float64)
        else:
            arrays[name] = rng.uniform(-bound, bound, size=shapes[name])
    return HeadParams.from_dict(arrays)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; each branch equals the textbook form on its side
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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


def predict_regions(features: np.ndarray, params: HeadParams) -> list[RegionDetection]:
    """Run the heads on one image's features and package region detections.

    The region box is the predicted center/size box converted to corner
    form; the region id is the row index (the fixed token-to-region
    assignment).
    """
    out = forward(features, params)
    corners, _ = center_to_corner_batch(out.boxes)
    presence = out.presence.tolist()
    return [
        RegionDetection(
            region_id=i,
            box=Box(*row),
            presence=presence[i],
            pathology_probs=out.pathology_probs[i],
        )
        for i, row in enumerate(corners.tolist())
    ]


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
    """A stack of samples with one row per (sample, region).

    ``anatomy_labels`` may be None in image-level ("mil") training;
    ``image_labels`` may be None in region-level ("loc") training.
    """

    features: np.ndarray  # (B, R, D)
    target_boxes: np.ndarray  # (B, R, 4) center/size
    present: np.ndarray  # (B, R) bool
    anatomy_labels: np.ndarray | None  # (B, R, C)
    image_labels: np.ndarray | None  # (B, C)


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
) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """Loss breakdown plus gradients for every parameter array.

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
    det, d_pres, d_boxes = detection_terms(
        p_pres.reshape(b, r), boxes, batch.target_boxes, batch.present, cfg.detection, want_grads
    )

    # a mode without a term contributes 0 to the loss and to its gradient
    p_path = cache["p_path"].reshape(b, r, c)
    loc_val = d_loc = mil_val = d_mil = 0.0

    if cfg.needs_anatomy_labels:
        if batch.anatomy_labels is None:
            raise ConfigError(f"mode {cfg.mode!r} requires anatomy-level labels")
        loc_val, d_loc = loc_terms(p_path, batch.anatomy_labels, batch.present, cfg.asl, want_grads)

    if cfg.needs_image_labels:
        if batch.image_labels is None:
            raise ConfigError(f"mode {cfg.mode!r} requires image-level labels")
        if not batch.present.any(axis=1).all():
            raise ConfigError("image-level training needs at least one present region per sample")
        mil_val, d_mil = mil_terms(p_path, batch.image_labels, batch.present, cfg.lse, cfg.asl, want_grads)

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

    grads: dict[str, np.ndarray] = {}
    grads["presence_weight"] = x.T @ dz_pres
    grads["presence_bias"] = np.array([np.sum(dz_pres)])
    grads["pathology_weight"] = dz_path.T @ x
    grads["pathology_bias"] = np.sum(dz_path, axis=0)

    grads["box_w3"] = dz_box.T @ cache["h2"]
    grads["box_b3"] = np.sum(dz_box, axis=0)
    dh2 = (dz_box @ params.box_w3) * (cache["h2_pre"] > 0.0)
    grads["box_w2"] = dh2.T @ cache["h1"]
    grads["box_b2"] = np.sum(dh2, axis=0)
    dh1 = (dh2 @ params.box_w2) * (cache["h1_pre"] > 0.0)
    grads["box_w1"] = dh1.T @ x
    grads["box_b1"] = np.sum(dh1, axis=0)
    return breakdown, grads


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class AdamW:
    """AdamW with decoupled weight decay, operating in place on array dicts.

    Decay is applied directly to the parameters (scaled by the learning
    rate), not folded into the gradient; moments are bias-corrected.
    """

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
        self.exp_avg: dict[str, np.ndarray] = {}
        self.exp_avg_sq: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        for name, p in params.items():
            g = grads[name]
            if name not in self.exp_avg:
                self.exp_avg[name] = np.zeros_like(p)
                self.exp_avg_sq[name] = np.zeros_like(p)
            m = self.exp_avg[name]
            v = self.exp_avg_sq[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            p -= self.learning_rate * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p)


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


def _stack_samples(samples: list[TrainSample], cfg: TrainConfig) -> Batch:
    feats = np.stack([s.features for s in samples])
    boxes = np.stack([s.target_boxes for s in samples])
    present = np.stack([s.present for s in samples])
    anat = None
    imgl = None
    if cfg.needs_anatomy_labels:
        missing = [i for i, s in enumerate(samples) if s.anatomy_labels is None]
        if missing:
            raise ConfigError(
                f"mode {cfg.mode!r} requires anatomy-level labels; missing for sample(s) {missing[:5]}"
            )
        anat = np.stack([s.anatomy_labels for s in samples])
    if cfg.needs_image_labels:
        missing = [i for i, s in enumerate(samples) if s.image_labels is None]
        if missing:
            raise ConfigError(
                f"mode {cfg.mode!r} requires image-level labels; missing for sample(s) {missing[:5]}"
            )
        imgl = np.stack([s.image_labels for s in samples])
    return Batch(feats, boxes, present, anat, imgl)


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
    feature_dim = samples[0].features.shape[1]
    n_classes = _infer_n_classes(samples)
    full = _stack_samples(samples, cfg)

    params = init_head_params(feature_dim, n_classes, np.random.default_rng([cfg.seed, 0]))
    opt = AdamW(learning_rate=cfg.lr, weight_decay=cfg.wd)
    batches = _batch_indices(len(samples), min(cfg.batch_size, max(len(samples), 1)), np.random.default_rng([cfg.seed, 1]))

    param_dict = params.to_dict()
    history: list[tuple[int, LossBreakdown]] = []
    best = np.inf
    best_step = -1
    stopped_early = False
    steps_run = 0
    for step in range(cfg.max_steps):
        idx = next(batches)
        batch = Batch(
            full.features[idx],
            full.target_boxes[idx],
            full.present[idx],
            None if full.anatomy_labels is None else full.anatomy_labels[idx],
            None if full.image_labels is None else full.image_labels[idx],
        )
        breakdown, grads = batch_loss_and_grads(batch, params, cfg)
        opt.step(param_dict, grads)
        history.append((step, breakdown))
        steps_run = step + 1
        if breakdown.total < best:
            best = breakdown.total
            best_step = step
        elif step - best_step >= cfg.patience:
            stopped_early = True
            break
    return TrainResult(params=params, history=history, steps_run=steps_run, stopped_early=stopped_early)


def _infer_n_classes(samples: list[TrainSample]) -> int:
    for s in samples:
        if s.anatomy_labels is not None:
            return s.anatomy_labels.shape[1]
        if s.image_labels is not None:
            return s.image_labels.shape[0]
    raise ConfigError("samples carry neither anatomy-level nor image-level labels")

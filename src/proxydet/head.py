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
        """Parameters whose arrays are consecutive views of ``vec`` (a float64 vector is not copied)."""
        vec = np.ascontiguousarray(vec, dtype=np.float64).reshape(-1)
        return cls(**_FlatArrays(vec, _param_layout(feature_dim, n_classes)))


def _layout(shapes) -> tuple[tuple[str, tuple[int, ...], int, int], ...]:
    """``(name, shape, start, stop)`` of each ``(name, shape)`` array, in order, in one flat vector."""
    layout, pos = [], 0
    for name, shape in shapes:
        size = math.prod(shape)
        layout.append((name, tuple(shape), pos, pos + size))
        pos += size
    return tuple(layout)


@lru_cache(maxsize=None)
def _param_layout(feature_dim: int, n_classes: int) -> tuple[tuple[str, tuple[int, ...], int, int], ...]:
    """The layout of the head's parameter arrays, ``PARAM_FIELDS`` order."""
    d, c = feature_dim, n_classes
    return _layout(
        [
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
        ]
    )


class _FlatArrays(dict):
    """Named arrays that are consecutive views of one flat buffer, ``flat``.

    The head's parameters during training and every gradient dict are
    laid out this way, so :class:`AdamW` can update all of them with a
    few whole-buffer operations. Replacing an entry breaks the link.
    """

    def __init__(self, flat: np.ndarray, layout: tuple[tuple[str, tuple[int, ...], int, int], ...]):
        super().__init__()
        if flat.size != layout[-1][3]:
            raise ValueError("flat vector length does not match parameter shapes")
        self.flat = flat
        self.layout = layout
        for name, shape, start, stop in layout:
            self[name] = flat[start:stop].reshape(shape)

    @classmethod
    def empty(cls, layout) -> "_FlatArrays":
        return cls(np.empty(layout[-1][3]), layout)


def _init_flat_params(feature_dim: int, n_classes: int, rng: np.random.Generator) -> _FlatArrays:
    if feature_dim < 1 or n_classes < 1:
        raise ConfigError("feature_dim and n_classes must be positive")
    bound = 1.0 / np.sqrt(feature_dim)
    arrays = _FlatArrays.empty(_param_layout(feature_dim, n_classes))
    for name, arr in arrays.items():
        if name.endswith("bias") or name.endswith(("b1", "b2", "b3")):
            arr[...] = 0.0
        else:
            arr[...] = rng.uniform(-bound, bound, size=arr.shape)
    return arrays


def init_head_params(feature_dim: int, n_classes: int, rng: np.random.Generator) -> HeadParams:
    """Seeded initialization: weights uniform in +-1/sqrt(fan_in), biases zero.

    The arrays are consecutive views of one flat buffer.
    """
    return HeadParams(**_init_flat_params(feature_dim, n_classes, rng))


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
    # per-sample loss constants; training takes them from the whole
    # dataset's, and a batch without them derives its own on every call
    targets: RegionTargets | None = field(default=None, init=False, repr=False)


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
    targets = batch.targets
    if targets is None:
        targets = region_targets(batch.present, batch.target_boxes, c)
    x = batch.features.reshape(b * r, d)
    cache = _forward_cache(x, params)

    p_pres = cache["p_pres"]
    boxes = cache["boxes"].reshape(b, r, 4)
    det, d_pres, d_boxes = detection_terms(p_pres.reshape(b, r), boxes, targets, cfg.detection, want_grads)

    # a mode without a term contributes 0 to the loss and to its gradient
    p_path = cache["p_path"].reshape(b, r, c)
    loc_val = d_loc = mil_val = d_mil = 0.0

    if cfg.needs_anatomy_labels:
        if batch.anatomy_labels is None:
            raise ConfigError(f"mode {cfg.mode!r} requires anatomy-level labels")
        loc_val, d_loc = loc_terms(p_path, batch.anatomy_labels, targets, cfg.asl, want_grads)

    if cfg.needs_image_labels:
        if batch.image_labels is None:
            raise ConfigError(f"mode {cfg.mode!r} requires image-level labels")
        if not targets.n_present.all():
            raise ConfigError("image-level training needs at least one present region per sample")
        mil_val, d_mil = mil_terms(p_path, batch.image_labels, targets, cfg.lse, cfg.asl, want_grads)

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

    # every gradient is written into one flat buffer
    grads = _FlatArrays.empty(_param_layout(d, c))
    np.matmul(x.T, dz_pres, out=grads["presence_weight"])
    np.sum(dz_pres, keepdims=True, out=grads["presence_bias"])
    np.matmul(dz_path.T, x, out=grads["pathology_weight"])
    np.sum(dz_path, axis=0, out=grads["pathology_bias"])

    # each hidden layer's arrays are dropped once used; at D=512 that lowers the
    # peak memory and the page faults of a step
    np.matmul(dz_box.T, cache.pop("h2"), out=grads["box_w3"])
    np.sum(dz_box, axis=0, out=grads["box_b3"])
    dh2 = (dz_box @ params.box_w3) * (cache.pop("h2_pre") > 0.0)
    np.matmul(dh2.T, cache.pop("h1"), out=grads["box_w2"])
    np.sum(dh2, axis=0, out=grads["box_b2"])
    dh1 = (dh2 @ params.box_w2) * (cache.pop("h1_pre") > 0.0)
    del dh2
    np.matmul(dh1.T, x, out=grads["box_w1"])
    np.sum(dh1, axis=0, out=grads["box_b1"])
    return breakdown, grads


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class AdamW:
    """AdamW with decoupled weight decay, operating in place on array dicts.

    Decay is applied directly to the parameters (scaled by the learning
    rate), not folded into the gradient; moments are bias-corrected. The
    moments of all arrays are views of one flat buffer, made on the first
    step, so every step must pass the same array names and shapes. When
    the parameters and the gradients are laid out in flat buffers the same
    way, as in :func:`train`, :meth:`_update` runs on the whole buffers a
    chunk at a time with persistent scratch space; otherwise it runs array
    by array.
    """

    _CHUNK = 1 << 14  # elements per whole-buffer pass

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
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        if not self.exp_avg:
            layout = _layout((name, np.shape(p)) for name, p in params.items())
            self.exp_avg = _FlatArrays(np.zeros(layout[-1][3]), layout)
            self.exp_avg_sq = _FlatArrays(np.zeros(layout[-1][3]), layout)
            self._scratch = np.empty((2, min(layout[-1][3], self._CHUNK)))
        m_all, v_all = self.exp_avg, self.exp_avg_sq
        if getattr(params, "layout", None) == getattr(grads, "layout", None) == m_all.layout:
            p, g, m, v = params.flat, grads.flat, m_all.flat, v_all.flat
            for lo in range(0, p.size, self._CHUNK):
                hi = min(lo + self._CHUNK, p.size)
                s, u = self._scratch[:, : hi - lo]
                self._update(p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi], bc1, bc2, s, u)
            return
        for name, p in params.items():
            s, u = np.empty_like(p), np.empty_like(p)
            self._update(p, grads[name], m_all[name], v_all[name], bc1, bc2, s, u)

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


def _stack_samples(samples: list[TrainSample], cfg: TrainConfig, batch_size: int, n_classes: int):
    """``(features, anatomy_labels, image_labels, targets)`` of all samples, stacked.

    The loss targets are weighted for batches of ``batch_size`` samples
    taken from them, not for the whole stack.
    """
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
    return feats, anat, imgl, region_targets(present, boxes, n_classes, batch_size)


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
    batch_size = min(cfg.batch_size, len(samples))
    feats, anat, imgl, all_targets = _stack_samples(samples, cfg, batch_size, n_classes)

    # AdamW updates the flat buffer behind param_dict; params holds views of it
    param_dict = _init_flat_params(feature_dim, n_classes, np.random.default_rng([cfg.seed, 0]))
    params = HeadParams(**param_dict)
    opt = AdamW(learning_rate=cfg.lr, weight_decay=cfg.wd)
    batches = _batch_indices(len(samples), batch_size, np.random.default_rng([cfg.seed, 1]))

    history: list[tuple[int, LossBreakdown]] = []
    best = np.inf
    best_step = -1
    stopped_early = False
    steps_run = 0
    for step in range(cfg.max_steps):
        idx = next(batches)
        targets = all_targets.take(idx)
        batch = Batch(
            feats.take(idx, axis=0),
            targets.boxes,
            targets.present,
            None if anat is None else anat.take(idx, axis=0),
            None if imgl is None else imgl.take(idx, axis=0),
        )
        batch.targets = targets
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

"""Seeded finite-difference suites for every analytic gradient in the package.

Each suite draws random *smooth* points (resampling anything within a
safety margin of a known kink: the asymmetric-loss clip, L1 coordinate
ties, GIoU corner ties, unit-square clamp boundaries, rectifier zero
crossings) and compares the analytic gradient against central finite
differences through :func:`proxydet.losses.finite_difference_check`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import head as head_mod
from .errors import ConfigError
from .geometry import center_to_corner_batch
from .losses import (
    AslParams,
    DetectionLossParams,
    LsePoolParams,
    _lse_pool_masked,
    asl,
    asl_grad,
    finite_difference_check,
    fixed_match_detection_loss,
    fixed_match_detection_loss_grad,
    loc_loss,
    loc_loss_grad,
    lse_pool,
    lse_pool_grad,
    mil_loss,
    mil_loss_grad,
)

TOLERANCE = 1e-4
_MARGIN = 1e-3

SUITE_NAMES = ("asl", "lse_pool", "detection_loss", "loc_loss", "mil_loss", "head_backward")


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_rel_error: float
    trials: int
    tolerance: float = TOLERANCE

    @property
    def passed(self) -> bool:
        return np.isfinite(self.max_rel_error) and self.max_rel_error <= self.tolerance


# Probabilities in (clip, clip + band) make the negative-branch gradient decay
# like (p - clip)^gamma_neg; inside an aggregated loss such derivatives drop
# below what central differences can resolve against rounding noise of the
# total, so the samplers for summed losses exclude the whole band.
_CLIP_BAND = 0.05


def _in_clip_band(p: np.ndarray, params: AslParams, band: float) -> np.ndarray:
    return (p > params.clip - _MARGIN) & (p < params.clip + band)


def _sample_asl_probs(
    rng: np.random.Generator, shape, params: AslParams, band: float = _MARGIN
) -> np.ndarray:
    out = rng.uniform(0.01, 0.99, size=shape)
    while True:
        near = _in_clip_band(out, params, band)
        if not near.any():
            return out
        out[near] = rng.uniform(0.01, 0.99, size=int(near.sum()))


def _sample_center_boxes(rng: np.random.Generator, n: int) -> np.ndarray:
    # margins keep raw corners strictly inside (0, 1): no clamp activity
    cx = rng.uniform(0.25, 0.75, size=(n, 2))
    wh = rng.uniform(0.1, 0.35, size=(n, 2))
    return np.concatenate([cx, wh], axis=1)


def _boxes_well_separated(pred_cs: np.ndarray, tgt_cs: np.ndarray) -> bool:
    if np.min(np.abs(pred_cs - tgt_cs)) <= _MARGIN:
        return False  # L1 kink
    pc, _ = center_to_corner_batch(pred_cs)
    tc, _ = center_to_corner_batch(tgt_cs)
    if np.min(np.abs(pc - tc)) <= _MARGIN:
        return False  # GIoU min/max tie
    gaps = np.stack([pc[:, 2] - tc[:, 0], tc[:, 2] - pc[:, 0], pc[:, 3] - tc[:, 1], tc[:, 3] - pc[:, 1]])
    if np.min(np.abs(gaps)) <= _MARGIN:
        return False  # exactly-touching intersection edge
    return True


def check_asl(trials: int, rng: np.random.Generator, params: AslParams = AslParams()) -> float:
    worst = 0.0
    for _ in range(trials):
        p = float(_sample_asl_probs(rng, (), params))
        y = float(rng.integers(0, 2))
        report = finite_difference_check(
            lambda v: asl(float(v[0]), y, params),
            np.array([p]),
            np.array([asl_grad(p, y, params)]),
        )
        worst = max(worst, report.max_rel_error)
    return worst


def check_lse_pool(trials: int, rng: np.random.Generator, params: LsePoolParams = LsePoolParams()) -> float:
    worst = 0.0
    for _ in range(trials):
        x = rng.uniform(0.0, 1.0, size=int(rng.integers(2, 9)))
        report = finite_difference_check(
            lambda v: lse_pool(v, params), x, lse_pool_grad(x, params)
        )
        worst = max(worst, report.max_rel_error)
    return worst


def check_detection_loss(
    trials: int, rng: np.random.Generator, params: DetectionLossParams = DetectionLossParams()
) -> float:
    worst = 0.0
    for _ in range(trials):
        r = int(rng.integers(2, 7))
        while True:
            pred_cs = _sample_center_boxes(rng, r)
            tgt_cs = _sample_center_boxes(rng, r)
            if _boxes_well_separated(pred_cs, tgt_cs):
                break
        presence = rng.uniform(0.05, 0.95, size=r)
        present = rng.random(r) < 0.8
        present[int(rng.integers(0, r))] = True
        _, d_pres, d_boxes = fixed_match_detection_loss_grad(
            presence, pred_cs, present, tgt_cs, params
        )
        point = np.concatenate([presence, pred_cs.ravel()])
        analytic = np.concatenate([d_pres, d_boxes.ravel()])

        def f(vec, r=r, present=present, tgt=tgt_cs):
            return fixed_match_detection_loss(
                vec[:r], vec[r:].reshape(r, 4), present, tgt, params
            ).total

        report = finite_difference_check(f, point, analytic)
        worst = max(worst, report.max_rel_error)
    return worst


def check_loc_loss(trials: int, rng: np.random.Generator, params: AslParams = AslParams()) -> float:
    worst = 0.0
    for _ in range(trials):
        r, c = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        probs = _sample_asl_probs(rng, (r, c), params, band=_CLIP_BAND)
        labels = rng.integers(0, 2, size=(r, c)).astype(float)
        present = rng.random(r) < 0.8
        present[int(rng.integers(0, r))] = True

        def f(vec, labels=labels, present=present, shape=(r, c)):
            return loc_loss(vec.reshape(shape), labels, present, params)

        report = finite_difference_check(
            f, probs.ravel(), loc_loss_grad(probs, labels, present, params).ravel()
        )
        worst = max(worst, report.max_rel_error)
    return worst


def check_mil_loss(
    trials: int,
    rng: np.random.Generator,
    lse: LsePoolParams = LsePoolParams(),
    params: AslParams = AslParams(),
) -> float:
    worst = 0.0
    for _ in range(trials):
        r, c = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        while True:
            probs = _sample_asl_probs(rng, (r, c), params, band=_CLIP_BAND)
            present = rng.random(r) < 0.8
            present[int(rng.integers(0, r))] = True
            pooled, _ = _lse_pool_masked(probs, present, lse.r, present.sum())
            if not _in_clip_band(pooled, params, _CLIP_BAND).any():
                break
        labels = rng.integers(0, 2, size=c).astype(float)

        def f(vec, labels=labels, present=present, shape=(r, c)):
            return mil_loss(vec.reshape(shape), labels, present, lse, params)

        report = finite_difference_check(
            f, probs.ravel(), mil_loss_grad(probs, labels, present, lse, params).ravel()
        )
        worst = max(worst, report.max_rel_error)
    return worst


def _sample_head_instance(rng: np.random.Generator, cfg: head_mod.TrainConfig):
    """Random params + batch whose loss is smooth in a finite-difference ball."""
    d, c, r, b = 6, 3, 4, 2
    for _ in range(1000):
        params = head_mod.init_head_params(d, c, rng)
        params.flat += 0.3 * rng.normal(size=params.flat.size)
        features = 0.8 * rng.normal(size=(b, r, d))
        tgt = _sample_center_boxes(rng, b * r).reshape(b, r, 4)
        present = np.ones((b, r), dtype=bool)
        anatomy = rng.integers(0, 2, size=(b, r, c)).astype(float)
        image_labels = (anatomy.sum(axis=1) > 0).astype(float)
        batch = head_mod.Batch.of(features, tgt, present, anatomy, image_labels)

        cache = head_mod._forward_cache(features.reshape(b * r, d), params)
        if min(np.min(np.abs(cache["h1_pre"])), np.min(np.abs(cache["h2_pre"]))) <= _MARGIN:
            continue
        probs = cache["p_path"]
        if _in_clip_band(probs, cfg.asl, _CLIP_BAND).any():
            continue
        pred_cs = cache["boxes"]
        raw = np.stack(
            [
                pred_cs[:, 0] - pred_cs[:, 2] / 2,
                pred_cs[:, 1] - pred_cs[:, 3] / 2,
                pred_cs[:, 0] + pred_cs[:, 2] / 2,
                pred_cs[:, 1] + pred_cs[:, 3] / 2,
            ],
            axis=1,
        )
        if min(np.min(np.abs(raw)), np.min(np.abs(raw - 1.0))) <= _MARGIN:
            continue
        if not _boxes_well_separated(pred_cs, tgt.reshape(b * r, 4)):
            continue
        pooled, _ = _lse_pool_masked(probs.reshape(b, r, c), present, cfg.lse.r, present.sum(axis=1))
        if _in_clip_band(pooled, cfg.asl, _CLIP_BAND).any():
            continue
        return params, batch
    raise RuntimeError("could not sample a smooth head instance")


def check_head_backward(trials: int, rng: np.random.Generator, mode: str = "loc_mil") -> float:
    cfg = head_mod.TrainConfig(mode=mode)
    worst = 0.0
    for _ in range(trials):
        params, batch = _sample_head_instance(rng, cfg)
        _, grads = head_mod.batch_loss_and_grads(batch, params, cfg)
        d, c = params.feature_dim, params.n_classes

        def f(vec, batch=batch, d=d, c=c):
            p = head_mod.HeadParams.from_flat(vec, d, c)
            return head_mod.batch_loss(batch, p, cfg).total

        report = finite_difference_check(f, params.flat.copy(), grads.flat)
        worst = max(worst, report.max_rel_error)
    return worst


def run_all(trials: int = 100, seed: int = 0) -> dict[str, SuiteResult]:
    """Run every gradient suite; per-suite maxima over ``trials`` random points."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    checks = {
        "asl": check_asl,
        "lse_pool": check_lse_pool,
        "detection_loss": check_detection_loss,
        "loc_loss": check_loc_loss,
        "mil_loss": check_mil_loss,
        "head_backward": check_head_backward,
    }
    results = {}
    for i, (name, fn) in enumerate(checks.items()):
        rng = np.random.default_rng([seed, i])
        results[name] = SuiteResult(name=name, max_rel_error=fn(trials, rng), trials=trials)
    return results

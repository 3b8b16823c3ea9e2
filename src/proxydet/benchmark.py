"""Desk-scale end-to-end experiment: synth -> train -> infer -> evaluate.

Runs the full pipeline in-process on the synthetic benchmark and reports
overall mAP per training mode with fusion on and off. Acceptance
criterion 5 (``pytest tests/test_acceptance.py -k criterion_5 -s``) runs
:func:`run_benchmark` to check the qualitative orderings: region-level
supervision beats image-level supervision, and fusing overlapping region
boxes beats not fusing. ``python3 bench/run.py --workload desk_experiment``
times the same steps through the helpers below.

Training here overrides the per-mode reference learning rates: those are
tied to full-scale corpora and hundreds of thousands of steps, while the
desk benchmark has a 2000-step budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .evaluation import EvalConfig, GroundTruth, evaluate
from .fusion import FusionConfig
from .geometry import corner_to_center_batch
from .head import HeadParams, TrainConfig, TrainSample, predict_regions, train
from .inference import InferenceConfig, detect_pathologies
from .synth import SynthConfig, SynthScene, generate_dataset

DESK_LEARNING_RATE = {"loc": 1e-2, "mil": 1e-2, "loc_mil": 1e-2}

# fusion IoU threshold of 1.0 can never be exceeded, so no merges fire
WBF_DISABLED_IOU = 1.0


@dataclass(frozen=True)
class BenchmarkConfig:
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    modes: tuple[str, ...] = ("loc", "mil")
    n_train: int = 500
    n_eval: int = 200
    max_steps: int = 2000
    batch_size: int = 128
    synth: SynthConfig = field(default_factory=SynthConfig)
    eval_cfg: EvalConfig = field(default_factory=EvalConfig)


@dataclass(frozen=True)
class RunOutcome:
    seed: int
    mode: str
    map_wbf: float
    map_no_wbf: float


def scene_to_train_sample(scene: SynthScene) -> TrainSample:
    return TrainSample(
        features=scene.features,
        target_boxes=corner_to_center_batch([b.as_tuple() for b in scene.region_boxes]),
        present=scene.present,
        anatomy_labels=scene.anatomy_labels,
        image_labels=scene.image_labels,
    )


def ground_truth_from_scenes(scenes: list[SynthScene], n_classes: int) -> GroundTruth:
    images = {scene.image_id: {b.class_id: b.box for b in scene.gt_boxes} for scene in scenes}
    return GroundTruth(images=images, n_classes=n_classes)


def predict_scenes(
    scenes: list[SynthScene], params: HeadParams, cfg: InferenceConfig
) -> dict[str, list]:
    # np.stack needs at least one array; no scenes are a batch of no images
    features = np.stack([scene.features for scene in scenes]) if scenes else np.zeros((0, 0, params.feature_dim))
    boxes = detect_pathologies(predict_regions(features, params), cfg)
    return {scene.image_id: b for scene, b in zip(scenes, boxes)}


def run_mode(
    train_scenes: list[SynthScene],
    eval_scenes: list[SynthScene],
    mode: str,
    seed: int,
    cfg: BenchmarkConfig,
) -> RunOutcome:
    samples = [scene_to_train_sample(s) for s in train_scenes]
    tcfg = TrainConfig(
        mode=mode,
        batch_size=cfg.batch_size,
        max_steps=cfg.max_steps,
        patience=cfg.max_steps,
        seed=seed,
        learning_rate=DESK_LEARNING_RATE[mode],
    )
    result = train(samples, tcfg)
    gt = ground_truth_from_scenes(eval_scenes, cfg.synth.n_classes)

    maps = {}
    for label, iou_thr in (("wbf", FusionConfig().iou_threshold), ("no_wbf", WBF_DISABLED_IOU)):
        icfg = InferenceConfig(fusion=FusionConfig(iou_threshold=iou_thr))
        preds = predict_scenes(eval_scenes, result.params, icfg)
        report = evaluate(preds, gt, cfg.eval_cfg)
        maps[label] = report.overall_map if report.overall_map is not None else 0.0
    return RunOutcome(seed=seed, mode=mode, map_wbf=maps["wbf"], map_no_wbf=maps["no_wbf"])


def run_benchmark(cfg: BenchmarkConfig = BenchmarkConfig()) -> list[RunOutcome]:
    """Run every (seed, mode) combination and return the outcomes."""
    outcomes = []
    for seed in cfg.seeds:
        scenes = generate_dataset(replace(cfg.synth, n_images=cfg.n_train + cfg.n_eval, seed=seed))
        train_scenes = scenes[: cfg.n_train]
        eval_scenes = scenes[cfg.n_train :]
        for mode in cfg.modes:
            outcomes.append(run_mode(train_scenes, eval_scenes, mode, seed, cfg))
    return outcomes


@dataclass(frozen=True)
class OrderingSummary:
    loc_beats_mil: int
    wbf_helps: dict[str, int]
    n_seeds: int


def summarize_orderings(outcomes: list[RunOutcome]) -> OrderingSummary:
    """Count per-seed wins for the two qualitative orderings."""
    by_seed: dict[int, dict[str, RunOutcome]] = {}
    for o in outcomes:
        by_seed.setdefault(o.seed, {})[o.mode] = o
    loc_beats_mil = sum(
        1
        for runs in by_seed.values()
        if "loc" in runs and "mil" in runs and runs["loc"].map_wbf > runs["mil"].map_wbf
    )
    wbf_helps = {}
    for mode in {o.mode for o in outcomes}:
        wbf_helps[mode] = sum(
            1 for o in outcomes if o.mode == mode and o.map_wbf >= o.map_no_wbf
        )
    return OrderingSummary(
        loc_beats_mil=loc_beats_mil, wbf_helps=wbf_helps, n_seeds=len(by_seed)
    )

"""Pathology box detection from anatomical-region proxies.

Library + CLI covering the full method surface downstream of the image
backbone: per-region prediction heads with hand-derived gradients, the
region-level and image-level training objectives, threshold-and-fuse
box inference, class mapping, detection metrics, and a seeded synthetic
benchmark.
"""

from .errors import ConfigError, DataError, ProxydetError, TrainingError
from .evaluation import EvalConfig, EvalReport, GroundTruth, evaluate
from .fusion import FusionConfig, ScoredBox, ScoredBoxes, weighted_box_fusion
from .geometry import Box, iou
from .head import AdamW, HeadParams, TrainConfig, TrainSample, forward, init_head_params, train
from .inference import (
    ClassMapping,
    InferenceConfig,
    MappingEntry,
    PathologyBox,
    RegionDetections,
    apply_class_mapping,
    detect_pathologies,
)
from .losses import (
    AslParams,
    CombinedLossWeights,
    DetectionLossParams,
    LsePoolParams,
    asl,
    asl_grad,
    combined_loss,
    finite_difference_check,
    fixed_match_detection_loss,
    loc_loss,
    lse_pool,
    lse_pool_grad,
    mil_loss,
)
from .synth import SynthConfig, SynthScene, generate_dataset

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "AslParams",
    "Box",
    "ClassMapping",
    "CombinedLossWeights",
    "ConfigError",
    "DataError",
    "DetectionLossParams",
    "EvalConfig",
    "EvalReport",
    "FusionConfig",
    "GroundTruth",
    "HeadParams",
    "InferenceConfig",
    "LsePoolParams",
    "MappingEntry",
    "PathologyBox",
    "ProxydetError",
    "RegionDetections",
    "ScoredBox",
    "ScoredBoxes",
    "SynthConfig",
    "SynthScene",
    "TrainConfig",
    "TrainSample",
    "TrainingError",
    "apply_class_mapping",
    "asl",
    "asl_grad",
    "combined_loss",
    "detect_pathologies",
    "evaluate",
    "finite_difference_check",
    "fixed_match_detection_loss",
    "forward",
    "generate_dataset",
    "init_head_params",
    "iou",
    "loc_loss",
    "lse_pool",
    "lse_pool_grad",
    "mil_loss",
    "train",
    "weighted_box_fusion",
]

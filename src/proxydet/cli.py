"""Command-line surface: generate -> train -> infer -> evaluate -> gradcheck.

Every command is a pure function of its input files, flags, and seed;
repeated runs produce byte-identical outputs. Flag defaults carry the
method's operating constants (fusion IoU 0.03, box-score threshold 0.7,
IoU threshold grid 0.1..0.7, batch size 128, per-mode learning rates).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import formats, gradcheck
from .errors import ConfigError, ProxydetError
from .evaluation import EvalConfig, evaluate
from .fusion import FusionConfig
from .head import (
    DEFAULT_LEARNING_RATE,
    DEFAULT_WEIGHT_DECAY,
    TRAIN_MODES,
    TrainConfig,
    predict_regions,
    train,
)
from .inference import (
    InferenceConfig,
    apply_class_mapping,
    detect_pathologies,
)
from .losses import AslParams, CombinedLossWeights, DetectionLossParams, LsePoolParams
from .synth import SynthConfig, generate_dataset


def _comma_list(text: str, flag: str, kind: type, length: int | None = None) -> tuple:
    """Parse a comma-separated flag value; a bad one is a ConfigError like any bad config."""
    try:
        values = tuple(kind(v) for v in text.split(","))
        if length is None or len(values) == length:
            return values
    except ValueError:
        pass
    count = "" if length is None else f"{length} "
    raise ConfigError(f"{flag} must be {count}comma-separated {kind.__name__} values, got {text!r}")


def _add_synth(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--n-images", type=int, default=100)
    p.add_argument("--holdout", type=int, default=0, help="extra images written to --holdout-out")
    p.add_argument("--holdout-out", default=None)
    p.add_argument("--n-regions", type=int, default=8)
    p.add_argument("--n-classes", type=int, default=5)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--prevalence", type=float, default=0.3)
    p.add_argument("--jitter", type=float, default=0.02)
    p.add_argument("--noise-sigma", type=float, default=0.1)
    p.add_argument("--shrink-min", type=float, default=0.6)
    p.add_argument("--shrink-max", type=float, default=1.0)
    p.add_argument("--regions-per-finding", default="1,2", help="min,max regions per active class")
    p.add_argument("--affinity-size", type=int, default=2)
    p.add_argument("--region-dropout", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)


def cmd_synth(args: argparse.Namespace) -> int:
    # one generated list is split between the two files, so each part needs a valid size
    if args.n_images < 1 or args.holdout < 0:
        raise ConfigError(
            f"need --n-images >= 1 and --holdout >= 0, got {args.n_images} and {args.holdout}"
        )
    if args.holdout > 0 and not args.holdout_out:
        raise ConfigError("--holdout requires --holdout-out")
    cfg = SynthConfig(
        n_regions=args.n_regions,
        n_classes=args.n_classes,
        feature_dim=args.feature_dim,
        n_images=args.n_images + args.holdout,
        prevalence=args.prevalence,
        jitter=args.jitter,
        noise_sigma=args.noise_sigma,
        shrink_range=(args.shrink_min, args.shrink_max),
        regions_per_finding=_comma_list(args.regions_per_finding, "--regions-per-finding", int, 2),
        affinity_size=args.affinity_size,
        region_dropout=args.region_dropout,
        seed=args.seed,
    )
    scenes = generate_dataset(cfg)
    classes = tuple(cfg.class_names())
    header = formats.DatasetHeader(
        classes=classes, n_regions=cfg.n_regions, feature_dim=cfg.feature_dim
    )
    records = [formats.scene_to_record(s, classes) for s in scenes]
    formats.write_dataset(args.out, header, records[: args.n_images])
    if args.holdout > 0:
        formats.write_dataset(args.holdout_out, header, records[args.n_images :])
    return 0


def _add_train(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("train", help="train the prediction heads")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=TRAIN_MODES, default="loc")
    p.add_argument("--lr", type=float, default=None, help=f"default per mode: {DEFAULT_LEARNING_RATE}")
    p.add_argument("--weight-decay", type=float, default=None, help=f"default per mode: {DEFAULT_WEIGHT_DECAY}")
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--max-steps", type=int, default=2000)
    p.add_argument("--patience", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--asl-gamma-pos", type=float, default=0.0)
    p.add_argument("--asl-gamma-neg", type=float, default=4.0)
    p.add_argument("--asl-clip", type=float, default=0.05)
    p.add_argument("--asl-weight", type=float, default=0.01)
    p.add_argument("--lse-r", type=float, default=10.0)
    p.add_argument("--l1-weight", type=float, default=5.0)
    p.add_argument("--giou-weight", type=float, default=2.0)
    p.add_argument("--presence-weight", type=float, default=1.0)
    p.add_argument("--checkpoint-out", required=True)
    p.add_argument("--history-out", default=None)
    p.set_defaults(func=cmd_train)


def cmd_train(args: argparse.Namespace) -> int:
    cfg = TrainConfig(
        mode=args.mode,
        batch_size=args.batch_size,
        max_steps=args.max_steps,
        patience=args.patience,
        seed=args.seed,
        learning_rate=args.lr,
        weight_decay=args.weight_decay,
        asl=AslParams(gamma_pos=args.asl_gamma_pos, gamma_neg=args.asl_gamma_neg, clip=args.asl_clip),
        detection=DetectionLossParams(
            l1_weight=args.l1_weight,
            giou_weight=args.giou_weight,
            presence_weight=args.presence_weight,
        ),
        lse=LsePoolParams(r=args.lse_r),
        weights=CombinedLossWeights(asl_weight=args.asl_weight),
    )
    header, records = formats.read_dataset(args.data)
    result = train(formats.records_to_train_samples(header, records), cfg)
    formats.save_checkpoint(
        args.checkpoint_out,
        result.params,
        formats.CheckpointMeta(mode=args.mode, classes=header.classes, seed=args.seed),
    )
    if args.history_out:
        formats.write_history_csv(args.history_out, result.history)
    return 0


def _add_infer(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("infer", help="predict pathology boxes")
    p.add_argument("--data", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--checkpoint", help="predict regions with trained heads")
    src.add_argument(
        "--probs-from-file",
        action="store_true",
        help="use boxes/presence/probabilities stored in the dataset",
    )
    p.add_argument("--mapping", default=None, help="JSON class-mapping file")
    p.add_argument("--tau", type=float, default=0.0, help="pathology probability threshold")
    p.add_argument("--wbf-iou", type=float, default=0.03)
    p.add_argument("--score-rescale", action="store_true")
    p.add_argument("--presence-threshold", type=float, default=0.5)
    p.add_argument("--top1", dest="top1", action="store_true", default=True)
    p.add_argument("--no-top1", dest="top1", action="store_false")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)


def cmd_infer(args: argparse.Namespace) -> int:
    cfg = InferenceConfig(
        probability_threshold=args.tau,
        presence_threshold=args.presence_threshold,
        fusion=FusionConfig(iou_threshold=args.wbf_iou, score_rescale=args.score_rescale),
        top1_per_class=args.top1,
    )
    header, records = formats.read_dataset(args.data)
    params = None
    if args.checkpoint:
        params, meta = formats.load_checkpoint(args.checkpoint)
        # the dataset header names the classes of the per-region outputs, as with --probs-from-file
        if tuple(meta.classes) != tuple(header.classes):
            raise ConfigError(
                f"checkpoint classes {list(meta.classes)} do not match the classes "
                f"{list(header.classes)} of {args.data}"
            )
        # the reader holds every region of the file to the header's feature_dim
        if header.feature_dim not in (None, params.feature_dim):
            raise ConfigError(
                f"checkpoint feature_dim {params.feature_dim} does not match the feature "
                f"length {header.feature_dim} of {args.data}"
            )
        train_classes = list(meta.classes)
    else:
        train_classes = list(header.classes)

    mapping = None
    if args.mapping:
        mapping = formats.read_mapping(args.mapping).resolve(train_classes)
        out_classes = mapping.eval_classes
    else:
        out_classes = train_classes

    detections = []
    for rec in records:
        if params is not None:
            ordered = formats.regions_by_id(rec, header.n_regions)
            if any(reg.features is None for reg in ordered):
                raise ConfigError(
                    f"image {rec.image_id!r}: checkpoint inference requires region features"
                )
            det = predict_regions(np.stack([reg.features for reg in ordered]), params)
        else:
            det = formats.record_to_detections(rec, header)
        if mapping is not None:
            det = apply_class_mapping(det, mapping)
        detections.append(det)
    boxes = detect_pathologies(detections, cfg)
    predictions = {rec.image_id: b for rec, b in zip(records, boxes)}
    formats.write_predictions(args.out, out_classes, predictions)
    return 0


def _add_eval(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True, help="dataset file carrying gt records")
    p.add_argument("--thresholds", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7")
    p.add_argument("--locacc-score", type=float, default=0.7)
    p.add_argument("--locacc-thresholds", default="0.1,0.3,0.5")
    p.add_argument("--locacc-positives-only", action="store_true")
    p.add_argument("--out-json", default=None)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_eval)


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = EvalConfig(
        iou_thresholds=_comma_list(args.thresholds, "--thresholds", float),
        locacc_score_threshold=args.locacc_score,
        locacc_iou_thresholds=_comma_list(args.locacc_thresholds, "--locacc-thresholds", float),
        locacc_positives_only=args.locacc_positives_only,
    )
    classes, predictions = formats.read_predictions(args.pred)
    _, gt_records = formats.read_dataset(args.gt)
    gt = formats.ground_truth_from_records(gt_records, classes)
    report = evaluate(predictions, gt, cfg, class_names=classes)
    if args.out_json:
        formats.write_report_json(args.out_json, report)
    if args.out_csv:
        formats.write_report_csv(args.out_csv, report)
    if not args.out_json and not args.out_csv:
        print(formats.canonical_json(formats.report_to_json_obj(report)))
    return 0


def _add_gradcheck(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("gradcheck", help="finite-difference check of every analytic gradient")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)


def cmd_gradcheck(args: argparse.Namespace) -> int:
    results = gradcheck.run_all(trials=args.trials, seed=args.seed)
    failed = False
    for name in gradcheck.SUITE_NAMES:
        res = results[name]
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{status} {name}: max relative error {res.max_rel_error:.3e} "
            f"over {res.trials} points (tolerance {res.tolerance:.0e})"
        )
        failed = failed or not res.passed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxydet",
        description="Pathology-box detection from anatomical-region proxies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_synth(sub)
    _add_train(sub)
    _add_infer(sub)
    _add_eval(sub)
    _add_gradcheck(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProxydetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: set-up, one round of operations, and their checks.

Every workload calls proxydet through its public functions, always as
module attributes (``head.train``, ``cli.main``), so the tracer can wrap
them. A round is a fixed list of operations; every run repeats whole
rounds. An operation is one ``(seed, mode, fusion)`` evaluation or one
CLI command. It fails if it raises, exits non-zero or fails its check,
and then counts in ``failed``. Work is timed in CPU seconds of this
process (``time.process_time``), so other processes on the machine do
not enter the figures.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import process_time

import numpy as np

import oracle
from proxydet import benchmark, cli, evaluation, formats, head, synth
from proxydet.evaluation import EvalConfig
from proxydet.fusion import FusionConfig
from proxydet.geometry import Box
from proxydet.inference import InferenceConfig

MODES = ("loc", "mil")
# fusion label -> WBF IoU threshold; 1.0 can never be exceeded, so nothing merges
FUSIONS = (("fused", FusionConfig().iou_threshold), ("unfused", benchmark.WBF_DISABLED_IOU))
THRESHOLDS = EvalConfig().iou_thresholds


@dataclass
class Totals:
    """Per-operation rates over the run's rounds, plus failures."""

    attempted: int = 0
    failed: int = 0
    rates: dict = field(default_factory=lambda: {"infer": [], "eval": []})
    check_s: float = 0.0
    maps: dict = field(default_factory=lambda: {"fused": [], "unfused": []})
    problems: list = field(default_factory=list)

    @contextmanager
    def timed(self, kind: str, count: int):
        """Record ``count`` units of work per CPU second of the body, if it returns."""
        start = process_time()
        yield
        self.rates[kind].append(count / (process_time() - start))

    @contextmanager
    def checking(self):
        start = process_time()
        try:
            yield
        finally:
            self.check_s += process_time() - start

    def attempt(self, name: str, operation) -> None:
        """Run one operation; it fails if it raises or returns problems."""
        self.attempted += 1
        try:
            problems = operation()
        except Exception as exc:  # any escape from the program is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems[:3])


class Workload:
    name = ""
    min_rounds = 2

    def __init__(self, workdir: Path, seed: int, tiny: bool = False):
        self.workdir = Path(workdir)
        self.seed = seed
        self.tiny = tiny

    def set_up(self) -> None:
        """Make every input; repeated in each run to time set-up."""

    def warm_up(self) -> None:
        """One small pass over the round's code so lazy work ends before timing."""

    def prepare_checks(self) -> None:
        """Reference data for the checks; outside every timed phase."""

    def run_round(self, index: int, totals: Totals) -> float:
        """Run round ``index``; returns its CPU seconds, checks excluded."""
        start, checks = process_time(), totals.check_s
        self._round(index, totals)
        return process_time() - start - (totals.check_s - checks)

    def _round(self, index: int, totals: Totals) -> None:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks over the whole run; problems here make the run incorrect."""
        return []


# ---------------------------------------------------------------------------
# desk experiment


@dataclass(eq=False)
class _DeskSeed:
    samples: list
    eval_scenes: list
    gt: object
    ref_gt: dict
    ref_features: dict


class DeskExperiment(Workload):
    """Acceptance criterion 5's experiment, in-process, one (seed, mode) per round."""

    name = "desk_experiment"
    min_rounds = 4  # both modes on both pool seeds, for the orderings
    # inference and scoring are a small share of a round: repeating them gives
    # their rates enough samples per run, and a repeat must give the same mAP
    infer_repeats = 3

    def __init__(self, workdir, seed, tiny=False):
        super().__init__(workdir, seed, tiny)
        self.n_train, self.n_eval, self.steps = (40, 20, 30) if tiny else (500, 200, 2000)
        self.warm_steps = 5 if tiny else 100
        # two of criterion 5's seeds (0..4), picked by the run seed
        self.pool = [(seed + k) % 5 for k in range(2)]
        self.maps: dict[tuple, float] = {}

    def set_up(self):
        self.data = {s: self._make(s) for s in self.pool}

    def _make(self, seed: int) -> _DeskSeed:
        cfg = synth.SynthConfig(n_images=self.n_train + self.n_eval, seed=seed)
        scenes = synth.generate_dataset(cfg)
        eval_scenes = scenes[self.n_train:]
        return _DeskSeed(
            samples=[benchmark.scene_to_train_sample(s) for s in scenes[: self.n_train]],
            eval_scenes=eval_scenes,
            gt=benchmark.ground_truth_from_scenes(eval_scenes, cfg.n_classes),
            ref_gt={s.image_id: {b.class_id: b.box.as_tuple() for b in s.gt_boxes} for s in eval_scenes},
            ref_features={s.image_id: s.features for s in eval_scenes},
        )

    def _train_config(self, mode: str, seed: int, steps: int) -> head.TrainConfig:
        return head.TrainConfig(
            mode=mode, batch_size=128, max_steps=steps, patience=steps, seed=seed,
            learning_rate=benchmark.DESK_LEARNING_RATE[mode],
        )

    def warm_up(self):
        d = self.data[self.pool[0]]
        for mode in MODES:
            result = head.train(d.samples, self._train_config(mode, 0, self.warm_steps))
        for _, iou_threshold in FUSIONS:
            icfg = InferenceConfig(fusion=FusionConfig(iou_threshold=iou_threshold))
            evaluation.evaluate(benchmark.predict_scenes(d.eval_scenes, result.params, icfg), d.gt)

    def _round(self, index, totals):
        # rounds walk seed a loc, seed a mil, seed b loc, seed b mil, then repeat
        seed = self.pool[index // len(MODES) % len(self.pool)]
        mode = MODES[index % len(MODES)]
        d = self.data[seed]
        result, train_problems = None, []
        try:
            result = head.train(d.samples, self._train_config(mode, seed, self.steps))
        except Exception as exc:  # every inference operation of this round fails below
            train_problems = [f"train: {type(exc).__name__}: {exc}"]
        if result is not None:
            with totals.checking():
                train_problems = oracle.check_history([row.total for _, row in result.history])
                weights = result.params.to_dict()
                cands = {
                    image: oracle.candidates(*oracle.forward(x, weights))
                    for image, x in d.ref_features.items()
                }
        for label, iou_threshold in FUSIONS:
            def operation():
                if train_problems:
                    return train_problems
                icfg = InferenceConfig(fusion=FusionConfig(iou_threshold=iou_threshold))
                with totals.timed("infer", len(d.eval_scenes)):
                    preds = benchmark.predict_scenes(d.eval_scenes, result.params, icfg)
                with totals.timed("eval", len(d.eval_scenes)):
                    report = evaluation.evaluate(preds, d.gt, EvalConfig())
                with totals.checking():
                    return self._check(seed, mode, label, preds, report, cands, d, totals)

            for _ in range(self.infer_repeats):
                totals.attempt(f"seed {seed} {mode} {label}", operation)

    def _check(self, seed, mode, label, preds, report, cands, d, totals) -> list[str]:
        problems = []
        ref_preds = {}
        for image, boxes in preds.items():
            ref_preds[image] = {}
            for b in boxes:
                if b.class_id in ref_preds[image]:
                    problems.append(f"{image}: more than one box for class {b.class_id}")
                ref_preds[image][b.class_id] = (b.box.as_tuple(), b.score)
        per_image = oracle.check_fused if label == "fused" else oracle.check_unfused
        for image, pred in ref_preds.items():
            problems += per_image(image, pred, cands[image])
        expected = oracle.mean_ap(ref_preds, d.ref_gt, d.gt.n_classes, THRESHOLDS)
        problems += oracle.check_map(report.overall_map, expected)
        value = report.overall_map if report.overall_map is not None else 0.0
        key = (seed, mode, label)
        if key in self.maps and self.maps[key] != value:
            problems.append(f"mAP {value!r} differs from an earlier round's {self.maps[key]!r}")
        if not problems:
            self.maps[key] = value
            totals.maps[label].append(value)
        return problems

    def ordering_counts(self) -> tuple[int, dict[str, int], int]:
        """Seeds where loc beats mil with fusion, seeds where fusion does not hurt, seeds."""
        seeds = sorted(
            s for s in {k[0] for k in self.maps}
            if all((s, m, f) in self.maps for m in MODES for f, _ in FUSIONS)
        )
        m = self.maps
        loc_beats_mil = sum(m[s, "loc", "fused"] > m[s, "mil", "fused"] for s in seeds)
        helps = {mode: sum(m[s, mode, "fused"] >= m[s, mode, "unfused"] for s in seeds) for mode in MODES}
        return loc_beats_mil, helps, len(seeds)

    def finish(self):
        if self.tiny:  # thirty steps learn nothing: the orderings need the full budget
            return []
        loc_beats_mil, helps, n = self.ordering_counts()
        need = math.ceil(0.8 * n)  # criterion 5: at least 4 of every 5 seeds
        problems = []
        if loc_beats_mil < need:
            problems.append(f"loc beats mil on {loc_beats_mil}/{n} seeds, need {need}")
        for mode, wins in helps.items():
            if wins < need:
                problems.append(f"fusion does not hurt {mode} on {wins}/{n} seeds, need {need}")
        return problems


# ---------------------------------------------------------------------------
# CLI workloads


def run_cli(argv: list[str]) -> list[str]:
    """One CLI command in-process; a non-zero exit is a problem."""
    try:
        code = cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    return [] if code == 0 else [f"{argv[0]} exited with {code}"]


def _must(problems: list[str]) -> None:
    if problems:
        raise RuntimeError("; ".join(problems))


def cover_every_layer(workdir: Path, seed: int) -> None:
    """A tiny CLI chain that calls every traced layer at least once.

    synth, train, infer from the checkpoint through a many-to-one class
    mapping with fusion on and off, and eval, at the synth defaults (8
    regions, 5 classes, D=16). The traced run makes it once after set-up,
    so a layer that a workload's rounds never call still gets its
    per-layer figures, taken from this chain's small inputs.
    """
    w = Path(workdir) / "cover"
    w.mkdir(exist_ok=True)
    train, holdout, ckpt, mapping = w / "train.jsonl", w / "holdout.jsonl", w / "model.ckpt", w / "mapping.json"
    entries = {"finding_0": {"sources": ["finding_0", "finding_1"], "combiner": "max"}}
    entries.update({f"finding_{i}": {"sources": [f"finding_{i}"], "combiner": "mean"} for i in range(1, 5)})
    mapping.write_text(json.dumps(entries))
    _must(run_cli(["synth", "--n-images", 16, "--holdout", 8, "--holdout-out", holdout, "--seed", seed, "--out", train]))
    _must(run_cli([
        "train", "--data", train, "--batch-size", 8, "--max-steps", 10, "--patience", 10,
        "--seed", seed, "--checkpoint-out", ckpt,
    ]))
    for label, iou_threshold in FUSIONS:
        pred = w / f"pred_{label}.jsonl"
        _must(run_cli([
            "infer", "--data", holdout, "--checkpoint", ckpt, "--mapping", mapping,
            "--wbf-iou", iou_threshold, "--out", pred,
        ]))
        _must(run_cli(["eval", "--pred", pred, "--gt", holdout, "--out-json", w / "report.json"]))


class _CliWorkload(Workload):
    """Shared round tail: infer with fusion on and off, then eval each."""

    def _infer_eval(self, totals: Totals, infer_args: list) -> None:
        for label, iou_threshold in FUSIONS:
            pred = self.workdir / f"pred_{label}.jsonl"

            def infer():
                with totals.checking():
                    pred.unlink(missing_ok=True)
                with totals.timed("infer", self.n_eval):
                    problems = run_cli(["infer", *infer_args, "--tau", 0, "--wbf-iou", iou_threshold, "--out", pred])
                with totals.checking():
                    return problems or self._check_predictions(label, pred)

            totals.attempt(f"infer {label}", infer)

        for label, _ in FUSIONS:
            pred = self.workdir / f"pred_{label}.jsonl"
            report = self.workdir / f"report_{label}.json"

            def score():
                with totals.checking():
                    report.unlink(missing_ok=True)
                with totals.timed("eval", self.n_eval):
                    problems = run_cli(["eval", "--pred", pred, "--gt", self.gt_path, "--out-json", report])
                with totals.checking():
                    return problems or self._check_report(label, pred, report, totals)

            totals.attempt(f"eval {label}", score)

    def _check_predictions(self, label: str, pred: Path) -> list[str]:
        classes, preds, problems = oracle.read_predictions(pred)
        cands = self._candidates()
        if set(preds) != set(cands):
            problems.append(f"predictions cover {len(preds)} images, expected {len(cands)}")
        per_image = oracle.check_fused if label == "fused" else oracle.check_unfused
        for image, cand in cands.items():
            problems += per_image(image, preds.get(image, {}), cand)
        return problems

    def _check_report(self, label: str, pred: Path, report: Path, totals: Totals) -> list[str]:
        classes, preds, problems = oracle.read_predictions(pred)
        reported = oracle.report_map(report)
        problems += oracle.check_map(reported, oracle.mean_ap(preds, self.ref_gt, len(classes), THRESHOLDS))
        if not problems:
            totals.maps[label].append(reported if reported is not None else 0.0)
        return problems

    def _candidates(self) -> dict[str, dict[int, list]]:
        raise NotImplementedError


class PaperWidthCli(_CliWorkload):
    """synth (set-up), then train, infer on/off and eval on/off at 29 regions, D=512."""

    name = "paper_width_cli"
    N_REGIONS, FEATURE_DIM, N_CLASSES = 29, 512, 13

    def __init__(self, workdir, seed, tiny=False):
        super().__init__(workdir, seed, tiny)
        self.n_train, self.n_eval, self.steps, self.batch = (6, 4, 3, 6) if tiny else (40, 20, 20, 32)
        w = self.workdir
        self.train_path, self.eval_path = w / "train.jsonl", w / "eval.jsonl"
        self.gt_path = self.eval_path
        self.warm_train, self.warm_eval = w / "warm_train.jsonl", w / "warm_eval.jsonl"
        self.checkpoint, self.history = w / "model.ckpt", w / "history.csv"

    def _synth(self, n_train, n_eval, seed, train_path, eval_path):
        _must(run_cli([
            "synth", "--n-images", n_train, "--holdout", n_eval, "--holdout-out", eval_path,
            "--n-regions", self.N_REGIONS, "--n-classes", self.N_CLASSES,
            "--feature-dim", self.FEATURE_DIM, "--seed", seed, "--out", train_path,
        ]))

    def set_up(self):
        self._synth(self.n_train, self.n_eval, self.seed, self.train_path, self.eval_path)

    def _train_args(self, data, steps, batch):
        return [
            "train", "--data", data, "--mode", "loc", "--lr", 0.01, "--batch-size", batch,
            "--max-steps", steps, "--patience", steps, "--seed", self.seed,
            "--checkpoint-out", self.checkpoint, "--history-out", self.history,
        ]

    def warm_up(self):
        self._synth(4, 2, self.seed + 1, self.warm_train, self.warm_eval)
        _must(run_cli(self._train_args(self.warm_train, 2, 2)))
        for label, iou_threshold in FUSIONS:
            pred = self.workdir / f"pred_{label}.jsonl"
            _must(run_cli([
                "infer", "--data", self.warm_eval, "--checkpoint", self.checkpoint,
                "--wbf-iou", iou_threshold, "--out", pred,
            ]))
            _must(run_cli(["eval", "--pred", pred, "--gt", self.warm_eval, "--out-json", self.workdir / "warm.json"]))

    def prepare_checks(self):
        header = oracle.read_jsonl(self.eval_path)[0]
        self.ref_features = oracle.read_features(self.eval_path)
        self.ref_gt = oracle.read_ground_truth(self.eval_path, header["classes"])

    def _round(self, index, totals):
        self._cands = None

        def train():
            with totals.checking():
                self.checkpoint.unlink(missing_ok=True)
            problems = run_cli(self._train_args(self.train_path, self.steps, self.batch))
            with totals.checking():
                return problems or oracle.check_history(oracle.read_history(self.history)["total"])

        totals.attempt("train", train)
        self._infer_eval(totals, ["--data", self.eval_path, "--checkpoint", self.checkpoint])

    def _candidates(self):
        if self._cands is None:
            weights = oracle.read_checkpoint(self.checkpoint)
            self._cands = {
                image: oracle.candidates(*oracle.forward(x, weights))
                for image, x in self.ref_features.items()
            }
        return self._cands


class FusionDense(_CliWorkload):
    """Stored probabilities, 29 regions x 13 classes, mapped many-to-one; no head."""

    name = "fusion_dense"
    N_REGIONS, N_CLASSES = 29, 13
    # evaluation class -> (source training classes, combiner); sources may be shared
    MAPPING = (
        ("eval_0", (0, 1), "mean"),
        ("eval_1", (2, 3, 4), "max"),
        ("eval_2", (5,), "mean"),
        ("eval_3", (6, 7), "max"),
        ("eval_4", (8, 9), "mean"),
        ("eval_5", (10,), "max"),
        ("eval_6", (11, 12), "mean"),
        ("eval_7", (3, 12), "max"),
    )

    def __init__(self, workdir, seed, tiny=False):
        super().__init__(workdir, seed, tiny)
        self.n_eval = 6 if tiny else 150
        w = self.workdir
        self.probs_path, self.gt_path, self.mapping_path = w / "probs.jsonl", w / "gt.jsonl", w / "mapping.json"

    def _inputs(self, n_images: int, seed: int):
        """Synthetic scenes plus noisy stored probabilities for their regions."""
        cfg = synth.SynthConfig(
            n_regions=self.N_REGIONS, n_classes=self.N_CLASSES, feature_dim=self.N_REGIONS,
            n_images=n_images, region_dropout=0.05, seed=seed,
        )
        scenes = synth.generate_dataset(cfg)
        rng = np.random.default_rng([seed, 7])
        probs = [
            1.0 / (1.0 + np.exp(-(np.where(s.anatomy_labels > 0, 2.0, -2.0) + rng.normal(0.0, 1.5, s.anatomy_labels.shape))))
            for s in scenes
        ]
        return cfg, scenes, probs

    def _write(self, n_images: int, seed: int, probs_path: Path, gt_path: Path) -> None:
        cfg, scenes, probs = self._inputs(n_images, seed)
        train_classes = tuple(cfg.class_names())
        eval_classes = tuple(name for name, _, _ in self.MAPPING)
        records, gt_records = [], []
        for scene, p in zip(scenes, probs):
            records.append(formats.ImageRecord(
                image_id=scene.image_id,
                regions=[
                    formats.RegionRecord(
                        region_id=r, box=scene.region_boxes[r],
                        presence=1.0 if scene.present[r] else 0.0, pathology_probs=p[r],
                    )
                    for r in range(self.N_REGIONS)
                ],
            ))
            boxes = {b.class_id: b.box for b in scene.gt_boxes}
            gt_boxes = []
            for name, sources, _ in self.MAPPING:
                found = [boxes[s] for s in sources if s in boxes]
                if found:
                    gt_boxes.append((name, Box(
                        min(b.x1 for b in found), min(b.y1 for b in found),
                        max(b.x2 for b in found), max(b.y2 for b in found),
                    )))
            gt_records.append(formats.ImageRecord(
                image_id=scene.image_id, regions=[],
                gt=formats.GtRecord(boxes=gt_boxes, image_labels=[n for n, _ in gt_boxes]),
            ))
        formats.write_dataset(probs_path, formats.DatasetHeader(train_classes, self.N_REGIONS), records)
        formats.write_dataset(gt_path, formats.DatasetHeader(eval_classes, self.N_REGIONS), gt_records)
        mapping = {
            name: {"sources": [train_classes[s] for s in sources], "combiner": combiner}
            for name, sources, combiner in self.MAPPING
        }
        self.mapping_path.write_text(json.dumps(mapping, sort_keys=True))

    def set_up(self):
        self._write(self.n_eval, self.seed, self.probs_path, self.gt_path)

    def warm_up(self):
        probs, gt = self.workdir / "warm_probs.jsonl", self.workdir / "warm_gt.jsonl"
        self._write(4, self.seed + 1, probs, gt)
        for label, iou_threshold in FUSIONS:
            pred = self.workdir / f"pred_{label}.jsonl"
            _must(run_cli([
                "infer", "--data", probs, "--probs-from-file", "--mapping", self.mapping_path,
                "--wbf-iou", iou_threshold, "--out", pred,
            ]))
            _must(run_cli(["eval", "--pred", pred, "--gt", gt, "--out-json", self.workdir / "warm.json"]))

    def prepare_checks(self):
        _, scenes, probs = self._inputs(self.n_eval, self.seed)
        rows = [(list(sources), combiner) for _, sources, combiner in self.MAPPING]
        self.ref_cands = {
            s.image_id: oracle.candidates(
                np.where(s.present, 1.0, 0.0),
                np.array([b.as_tuple() for b in s.region_boxes]),
                oracle.map_classes(p, rows),
            )
            for s, p in zip(scenes, probs)
        }
        header = oracle.read_jsonl(self.gt_path)[0]
        self.ref_gt = oracle.read_ground_truth(self.gt_path, header["classes"])

    def _round(self, index, totals):
        self._infer_eval(totals, ["--data", self.probs_path, "--probs-from-file", "--mapping", self.mapping_path])

    def _candidates(self):
        return self.ref_cands


WORKLOADS = {w.name: w for w in (DeskExperiment, PaperWidthCli, FusionDense)}

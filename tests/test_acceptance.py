"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines as they complete. The end-to-end criteria train real
models and take a few minutes in total.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np

from helpers import ap_oracle, iou_ref, random_box

from proxydet import benchmark, gradcheck
from proxydet.evaluation import average_precision
from proxydet.fusion import FusionConfig, ScoredBox, weighted_box_fusion
from proxydet.geometry import Box
from proxydet.head import TrainConfig, train
from proxydet.inference import (
    ClassMapping,
    InferenceConfig,
    MappingEntry,
    RegionDetections,
    apply_class_mapping,
)
from proxydet.losses import AslParams, LsePoolParams, asl, lse_pool
from proxydet.synth import SynthConfig, generate_dataset


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_gradient_correctness():
    start = time.time()
    results = gradcheck.run_all(trials=100, seed=0)
    elapsed = time.time() - start
    worst = max(r.max_rel_error for r in results.values())
    ok = all(r.passed for r in results.values()) and elapsed < 30.0
    _report(
        1,
        "gradient correctness",
        ok,
        f"max rel err {worst:.2e} over 6 losses x 100 points in {elapsed:.1f}s",
    )


def _random_ap_instance(rng):
    n_images = int(rng.integers(1, 6))
    n_classes = int(rng.integers(1, 5))
    images = [f"img{i}" for i in range(n_images)]
    per_class = []
    for _ in range(n_classes):
        gt = {img: random_box(rng, 0.05) for img in images if rng.random() < 0.7}
        preds = [
            (img, random_box(rng, 0.05), float(rng.uniform(0, 1)))
            for img in images
            if rng.random() < 0.8
        ]
        per_class.append((preds, gt))
    return per_class


def test_criterion_2_ap_oracle_equivalence():
    rng = np.random.default_rng(2)
    thresholds = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    worst = 0.0
    monotone = True
    for _ in range(1000):
        for preds, gt in _random_ap_instance(rng):
            values = []
            for thr in thresholds:
                got = average_precision(preds, gt, thr)
                want = ap_oracle(preds, gt, thr)
                if want is None:
                    assert got is None
                    continue
                worst = max(worst, abs(got - want))
                values.append(got)
            monotone &= all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    _report(2, "AP oracle equivalence", worst <= 1e-9 and monotone, f"max |diff| {worst:.2e}")


def test_criterion_3_fusion_properties():
    rng = np.random.default_rng(3)
    cfg = FusionConfig()
    violations = 0

    def instance():
        n = int(rng.integers(1, 9))
        return [
            ScoredBox(random_box(rng, 0.05), float(rng.uniform(0, 1)), i) for i in range(n)
        ]

    for _ in range(1000):
        sb = ScoredBox(random_box(rng, 0.05), float(rng.uniform(0, 1)), 0)
        violations += weighted_box_fusion([sb], cfg) != [sb]

    for _ in range(1000):
        inputs = instance()
        out = weighted_box_fusion(inputs, cfg)
        lo = [min(b.box.as_tuple()[i] for b in inputs) for i in range(4)]
        hi = [max(b.box.as_tuple()[i] for b in inputs) for i in range(4)]
        for fused in out:
            violations += any(
                not (lo[i] <= fused.box.as_tuple()[i] <= hi[i]) for i in range(4)
            )

    for _ in range(1000):
        inputs = instance()
        out = weighted_box_fusion(inputs, cfg)
        smin, smax = min(b.score for b in inputs), max(b.score for b in inputs)
        violations += any(not (smin <= b.score <= smax) for b in out)

    for _ in range(1000):
        inputs = instance()
        if len({b.score for b in inputs}) != len(inputs):
            continue
        perm = rng.permutation(len(inputs))
        shuffled = [ScoredBox(inputs[j].box, inputs[j].score, i) for i, j in enumerate(perm)]
        a = weighted_box_fusion(inputs, cfg)
        b = weighted_box_fusion(shuffled, cfg)
        violations += [(x.box, x.score) for x in a] != [(x.box, x.score) for x in b]

    for _ in range(1000):
        out = weighted_box_fusion(instance(), cfg)
        pairwise_low = all(
            iou_ref(a.box, b.box) <= cfg.iou_threshold
            for i, a in enumerate(out)
            for b in out[i + 1 :]
        )
        if pairwise_low:
            violations += weighted_box_fusion(out, cfg) != out

    _report(3, "fusion properties", violations == 0, f"{violations} violations")


def test_criterion_4_analytic_constants():
    ok = asl(0.05, 0, AslParams(clip=0.05)) == 0.0

    bce_like = AslParams(gamma_pos=0.0, gamma_neg=0.0, clip=0.0)
    for p in np.arange(0.01, 1.0, 0.01):
        p = float(p)
        for y in (0.0, 1.0):
            bce = -(y * math.log(max(p, 1e-8)) + (1 - y) * math.log(max(1 - p, 1e-8)))
            ok &= abs(asl(p, y, bce_like) - bce) <= 1e-12

    rng = np.random.default_rng(4)
    params = LsePoolParams(r=10.0)
    for _ in range(10_000):
        x = rng.uniform(0, 1, size=int(rng.integers(1, 12)))
        v = lse_pool(x, params)
        ok &= np.mean(x) - 1e-12 <= v <= np.max(x) + 1e-12
    _report(4, "analytic constants", bool(ok))


def test_criterion_5_end_to_end_ordering():
    start = time.time()
    outcomes = benchmark.run_benchmark(benchmark.BenchmarkConfig())
    elapsed = time.time() - start
    per_run = elapsed / len(outcomes)
    summary = benchmark.summarize_orderings(outcomes)
    ok = (
        summary.loc_beats_mil >= 4
        and summary.wbf_helps["loc"] >= 4
        and summary.wbf_helps["mil"] >= 4
        and per_run < 120.0
    )
    _report(
        5,
        "end-to-end ordering",
        ok,
        f"loc>mil {summary.loc_beats_mil}/5, wbf helps loc {summary.wbf_helps['loc']}/5 "
        f"mil {summary.wbf_helps['mil']}/5, {per_run:.1f}s/run",
    )


def test_criterion_6_noise_free_sanity():
    cfg = SynthConfig(
        n_images=700,
        seed=0,
        noise_sigma=0.0,
        prevalence=1.0,
        shrink_range=(1.0, 1.0),
        jitter=0.0,
        regions_per_finding=(1, 1),
    )
    scenes = generate_dataset(cfg)
    samples = [benchmark.scene_to_train_sample(s) for s in scenes[:500]]
    result = train(
        samples,
        TrainConfig(mode="loc", max_steps=2000, patience=2000, seed=0, learning_rate=1e-2),
    )
    gt = benchmark.ground_truth_from_scenes(scenes[500:], cfg.n_classes)
    preds = benchmark.predict_scenes(
        scenes[500:], result.params, InferenceConfig(probability_threshold=0.5)
    )
    from proxydet.evaluation import evaluate

    report = evaluate(preds, gt)
    ok = report.overall_map == 1.0 and all(
        v == 1.0 for cls in report.ap for v in report.ap[cls].values()
    )
    _report(6, "noise-free sanity", ok, f"overall mAP {report.overall_map}")


def _run_pipeline(workdir, tag: str, env_extra: dict) -> dict[str, bytes]:
    env = dict(os.environ)
    env.update(env_extra)
    files = {
        "train": workdir / f"train_{tag}.jsonl",
        "eval": workdir / f"eval_{tag}.jsonl",
        "ck": workdir / f"ck_{tag}.bin",
        "hist": workdir / f"hist_{tag}.csv",
        "pred": workdir / f"pred_{tag}.jsonl",
        "json": workdir / f"report_{tag}.json",
        "csv": workdir / f"report_{tag}.csv",
    }
    cmds = [
        ["synth", "--n-images", "40", "--holdout", "20", "--holdout-out", str(files["eval"]),
         "--seed", "11", "--out", str(files["train"])],
        ["train", "--data", str(files["train"]), "--mode", "loc", "--lr", "0.01",
         "--max-steps", "200", "--seed", "1", "--checkpoint-out", str(files["ck"]),
         "--history-out", str(files["hist"])],
        ["infer", "--data", str(files["eval"]), "--checkpoint", str(files["ck"]),
         "--out", str(files["pred"])],
        ["eval", "--pred", str(files["pred"]), "--gt", str(files["eval"]),
         "--out-json", str(files["json"]), "--out-csv", str(files["csv"])],
    ]
    for cmd in cmds:
        proc = subprocess.run(
            [sys.executable, "-m", "proxydet.cli", *cmd],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
    return {k: p.read_bytes() for k, p in files.items()}


def test_criterion_7_determinism(tmp_path):
    runs = [
        _run_pipeline(tmp_path, "a", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}),
        _run_pipeline(tmp_path, "b", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}),
        _run_pipeline(tmp_path, "c", {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "4"}),
    ]
    ok = all(runs[0][k] == other[k] for other in runs[1:] for k in runs[0])
    _report(7, "determinism", ok, "repeat + thread-count variation, all artifacts byte-identical")


def test_criterion_8_class_mapping_semantics():
    train_classes = [
        "atelectasis",
        "enlarged_cardiac_silhouette",
        "pleural_effusion",
        "infiltration",
        "lung_opacity",
        "mass_nodule",
        "multiple_masses_nodules",
        "pneumonia",
        "pneumothorax",
    ]
    mapping = ClassMapping(
        (
            MappingEntry("atelectasis", ("atelectasis",)),
            MappingEntry("cardiomegaly", ("enlarged_cardiac_silhouette",)),
            MappingEntry("effusion", ("pleural_effusion",)),
            MappingEntry("infiltration", ("infiltration", "lung_opacity"), "mean"),
            MappingEntry("mass", ("mass_nodule", "multiple_masses_nodules"), "mean"),
            MappingEntry("mass_max", ("mass_nodule", "multiple_masses_nodules"), "max"),
            MappingEntry("nodule", ("mass_nodule",)),
            MappingEntry("pneumonia", ("pneumonia",)),
            MappingEntry("pneumothorax", ("pneumothorax",)),
        )
    ).resolve(train_classes)
    probs = np.array([0.11, 0.37, 0.52, 0.2, 0.6, 0.3, 0.7, 0.41, 0.05])
    det = RegionDetections(
        boxes=[Box(0.1, 0.1, 0.6, 0.6).as_tuple()], presence=[1.0], pathology_probs=[probs]
    )
    (out,) = apply_class_mapping(det, mapping).pathology_probs
    expected = np.array(
        [0.11, 0.37, 0.52, (0.2 + 0.6) / 2, (0.3 + 0.7) / 2, 0.7, 0.3, 0.41, 0.05]
    )
    worst = float(np.max(np.abs(out - expected)))
    _report(8, "class-mapping semantics", worst <= 1e-15, f"max |diff| {worst:.1e}")

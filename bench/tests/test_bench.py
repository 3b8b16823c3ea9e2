"""The benchmark's own tests: tiny runs end to end, and checks that catch wrong outputs.

    python3 -m pytest bench/tests -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import tracing
import workloads
from proxydet import head
from proxydet.evaluation import EvalReport

SPEC = json.loads((Path(run.BENCH_DIR).parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_ends_with_every_metric(workload):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--tiny"]
    result = run.run(run.parse_args(argv + ["--trace", "0"]))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    metrics = result["metrics"]
    assert set(metrics) == set(END_TO_END)  # every workload reports every metric
    for name, m in metrics.items():
        assert m["unit"] == END_TO_END[name] and m["value"] > 0

    traced = run.run(run.parse_args(argv + ["--trace", "1"]))
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == set(PER_LAYER)
    for name, m in traced["metrics"].items():
        assert m["unit"] == PER_LAYER[name]


def test_wrong_unfused_box_or_swapped_score_fails():
    cands = {
        0: [(0, (0.1, 0.1, 0.5, 0.5), 0.9), (1, (0.2, 0.2, 0.6, 0.6), 0.9), (2, (0.0, 0.0, 0.4, 0.4), 0.3)],
        1: [(0, (0.1, 0.1, 0.5, 0.5), 0.2)],
        2: [],
    }
    right = {0: ((0.1, 0.1, 0.5, 0.5), 0.9), 1: ((0.1, 0.1, 0.5, 0.5), 0.2)}
    assert oracle.check_unfused("img", right, cands) == []
    # the tie goes to the lower region index
    assert oracle.check_unfused("img", {**right, 0: ((0.2, 0.2, 0.6, 0.6), 0.9)}, cands)
    assert oracle.check_unfused("img", {**right, 0: ((0.1, 0.1, 0.51, 0.5), 0.9)}, cands)
    swapped = {0: (right[0][0], 0.2), 1: (right[1][0], 0.9)}
    assert oracle.check_unfused("img", swapped, cands)
    assert oracle.check_unfused("img", {**right, 2: ((0.1, 0.1, 0.5, 0.5), 0.5)}, cands)
    assert oracle.check_unfused("img", {0: right[0]}, cands)


def test_fused_box_outside_its_candidates_fails():
    cands = {0: [(0, (0.1, 0.1, 0.5, 0.5), 0.9), (1, (0.2, 0.2, 0.6, 0.6), 0.5)]}
    assert oracle.check_fused("img", {0: ((0.15, 0.15, 0.55, 0.55), 0.7)}, cands) == []
    assert oracle.check_fused("img", {0: ((0.15, 0.15, 0.65, 0.55), 0.7)}, cands)
    assert oracle.check_fused("img", {0: ((0.15, 0.15, 0.55, 0.55), 0.95)}, cands)
    assert oracle.check_fused("img", {}, cands)


def test_average_precision_by_hand():
    gt = {"a": (0.0, 0.0, 0.5, 0.5), "b": (0.5, 0.5, 1.0, 1.0)}
    ranked = [("a", (0.0, 0.0, 0.5, 0.5), 0.9), ("c", (0.0, 0.0, 1.0, 1.0), 0.8), ("b", (0.5, 0.5, 1.0, 1.0), 0.7)]
    # recall 1/2 at precision 1, then recall 1 at precision 2/3
    assert oracle.average_precision(ranked, gt, 0.5) == pytest.approx(0.5 + 0.5 * 2 / 3, abs=1e-15)
    expected = oracle.mean_ap({"a": {0: ranked[0][1:]}}, {"a": {0: gt["a"]}, "b": {1: gt["b"]}}, 3, (0.5,))
    assert expected == pytest.approx(0.5)
    assert oracle.check_map(expected, expected) == []
    assert oracle.check_map(expected + 1e-6, expected)
    assert oracle.check_map(None, expected)


@pytest.mark.parametrize("cls", [workloads.PaperWidthCli, workloads.FusionDense])
def test_cli_checks_catch_wrong_files(cls, tmp_path):
    w = cls(tmp_path, seed=5, tiny=True)
    w.set_up()
    w.prepare_checks()
    totals = workloads.Totals()
    w.run_round(0, totals)
    assert totals.failed == 0 and totals.attempted == (5 if cls is workloads.PaperWidthCli else 4)

    for label in ("fused", "unfused"):
        pred = tmp_path / f"pred_{label}.jsonl"
        assert w._check_predictions(label, pred) == []
        original = pred.read_text()
        header, *rows = original.splitlines()
        row = json.loads(rows[0])
        box = row["boxes"][0]["box"]
        if label == "unfused":  # a top candidate's box, moved a little
            box[2] += 0.01 if box[2] < 0.5 else -0.01
        else:  # a fused box only has to stay inside its candidates' range
            box[0] += 1.0
            box[2] += 1.0
        pred.write_text("\n".join([header, json.dumps(row), *rows[1:]]) + "\n")
        assert w._check_predictions(label, pred)
        pred.write_text(original)

    report = tmp_path / "report_fused.json"
    pred = tmp_path / "pred_fused.jsonl"
    assert workloads.run_cli(["eval", "--pred", pred, "--gt", w.gt_path, "--out-json", report]) == []
    assert w._check_report("fused", pred, report, totals) == []
    obj = json.loads(report.read_text())
    obj["overall"]["map"] += 1e-6
    report.write_text(json.dumps(obj))
    assert w._check_report("fused", pred, report, totals)


def test_desk_check_catches_wrong_predictions(tmp_path):
    w = workloads.DeskExperiment(tmp_path, seed=0, tiny=True)
    w.set_up()
    seed = w.pool[0]
    d = w.data[seed]
    result = head.train(d.samples, w._train_config("loc", seed, 10))
    weights = result.params.to_dict()
    cands = {image: oracle.candidates(*oracle.forward(x, weights)) for image, x in d.ref_features.items()}
    icfg = workloads.InferenceConfig(fusion=workloads.FusionConfig(iou_threshold=1.0))
    preds = workloads.benchmark.predict_scenes(d.eval_scenes, result.params, icfg)
    report = workloads.evaluation.evaluate(preds, d.gt)
    totals = workloads.Totals()
    assert w._check(seed, "loc", "unfused", preds, report, cands, d, totals) == []

    image = next(i for i, boxes in preds.items() if len(boxes) >= 2)
    a, b = preds[image][:2]
    swapped = dict(preds)
    swapped[image] = [
        type(a)(class_id=a.class_id, box=a.box, score=b.score),
        type(b)(class_id=b.class_id, box=b.box, score=a.score),
        *preds[image][2:],
    ]
    assert a.score == b.score or w._check(seed, "mil", "unfused", swapped, report, cands, d, totals)
    off = EvalReport(**{**report.__dict__, "overall_map": report.overall_map + 1e-6})
    assert w._check(seed, "mil", "unfused", preds, off, cands, d, totals)


def test_desk_orderings_need_four_of_five_seeds(tmp_path):
    w = workloads.DeskExperiment(tmp_path, seed=0)
    for s in (0, 1):
        w.maps.update({(s, "loc", "fused"): 0.6, (s, "loc", "unfused"): 0.5,
                       (s, "mil", "fused"): 0.55, (s, "mil", "unfused"): 0.5})
    assert w.finish() == []
    w.maps[1, "mil", "unfused"] = 0.56  # fusion hurts mil on one seed of two
    assert w.finish()


def test_tracer_nests_spans_and_restores_functions(tmp_path):
    w = workloads.DeskExperiment(tmp_path, seed=0, tiny=True)
    w.set_up()
    d = w.data[w.pool[0]]
    original = head.train
    tracer = tracing.Tracer()
    tracer.install()
    try:
        head.train(d.samples, w._train_config("loc", 0, 4))
    finally:
        tracer.uninstall()
    assert head.train is original and head.AdamW.step.__name__ == "step"
    spans = tracer.spans()
    assert len(spans["head.batch_loss_and_grads"]["dur"]) == 4
    train_idx = tracer.names.index("head.train")
    assert all(
        tracer.parents[i] == train_idx for i, n in enumerate(tracer.names) if n == "head.batch_loss_and_grads"
    )
    s = spans["head.train"]
    assert np.all(s["self"] <= s["dur"]) and np.all(s["self"] > 0)
    metrics = tracing.layer_metrics(spans)
    assert metrics["head.train.self_ms_per_step"][0] > 0


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tracing.tail_percentile(2000) == 99.0
    assert tracing.tail_percentile(400) == 90.0
    assert tracing.tail_percentile(39) is None

from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import any_box, score
from helpers import ap_oracle, average_precision_ref, evaluate_ref, random_box

from proxydet.errors import DataError
from proxydet.evaluation import (
    EvalConfig,
    EvalReport,
    GroundTruth,
    ReportCounts,
    average_precision,
    evaluate,
)
from proxydet.geometry import Box
from proxydet.inference import PathologyBox

B = Box(0.2, 0.2, 0.6, 0.6)
B_NEAR = Box(0.22, 0.2, 0.62, 0.6)  # IoU well above 0.5 with B
B_FAR = Box(0.7, 0.7, 0.9, 0.9)


class TestAveragePrecision:
    def test_single_match(self):
        assert average_precision([("a", B, 0.9)], {"a": B}, 0.5) == 1.0

    def test_no_predictions(self):
        assert average_precision([], {"a": B}, 0.5) == 0.0

    def test_no_ground_truth_undefined(self):
        assert average_precision([("a", B, 0.9)], {}, 0.5) is None

    def test_three_image_example(self):
        # scores 0.9 (match), 0.8 (miss), 0.7 (match) with 3 GT boxes:
        # AP = (1/3)*1 + (1/3)*(2/3) = 5/9
        preds = [("a", B, 0.9), ("b", B_FAR, 0.8), ("c", B, 0.7)]
        gt = {"a": B, "b": B, "c": B}
        got = average_precision(preds, gt, 0.5)
        assert got == pytest.approx(5 / 9, abs=1e-12)
        assert got == pytest.approx(ap_oracle(preds, gt, 0.5), abs=1e-12)

    def test_ties_broken_by_image_id(self):
        preds = [("b", B_FAR, 0.8), ("a", B, 0.8)]
        gt = {"a": B, "b": B}
        # "a" ranks first on the tie: TP at rank 1, FP at rank 2 -> AP = 1/2
        assert average_precision(preds, gt, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_match_uses_iou_at_or_above_threshold(self):
        from helpers import iou_ref

        thr = iou_ref(B, B_NEAR)
        assert average_precision([("a", B_NEAR, 0.9)], {"a": B}, thr) == 1.0

    def _random_instance(self, rng):
        images = [f"img{i}" for i in range(int(rng.integers(1, 6)))]
        gt = {img: random_box(rng, 0.05) for img in images if rng.random() < 0.7}
        preds = [
            (img, random_box(rng, 0.05), float(rng.uniform(0, 1)))
            for img in images
            if rng.random() < 0.8
        ]
        return preds, gt

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(300):
            preds, gt = self._random_instance(rng)
            for thr in (0.1, 0.3, 0.5, 0.7):
                got = average_precision(preds, gt, thr)
                want = ap_oracle(preds, gt, thr)
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(want, abs=1e-9)
                    checked += 1
        assert checked > 200

    def test_bit_equal_to_scalar_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            preds, gt = self._random_instance(rng)
            preds = [(img, box, round(s, 1)) for img, box, s in preds]  # tied scores across images
            for thr in (0.1, 0.3, 0.5, 0.7):
                got, want = average_precision(preds, gt, thr), average_precision_ref(preds, gt, thr)
                assert got is want is None or got.hex() == want.hex()

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            preds, gt = self._random_instance(rng)
            if not gt:
                continue
            values = [average_precision(preds, gt, t) for t in (0.1, 0.3, 0.5, 0.7)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def _gt(images: dict) -> GroundTruth:
    return GroundTruth(images=images, n_classes=2)


def _pred(img_boxes: dict) -> dict:
    return {
        img: [PathologyBox(class_id=c, box=b, score=s) for c, b, s in entries]
        for img, entries in img_boxes.items()
    }


def _loc_acc(preds, gt, iou_threshold, score_threshold, positives_only=False):
    """Class 0's localization accuracy at one IoU threshold, read from the report."""
    cfg = EvalConfig(
        locacc_score_threshold=score_threshold,
        locacc_iou_thresholds=(iou_threshold,),
        locacc_positives_only=positives_only,
    )
    return evaluate(preds, gt, cfg).loc_acc[0].get(iou_threshold)


class TestMeanAp:
    def test_constant_ap_one(self):
        gt = _gt({"a": {0: B}, "b": {0: B}})
        preds = _pred({"a": [(0, B, 0.9)], "b": [(0, B, 0.8)]})
        report = evaluate(preds, gt)
        class_map, overall = report.class_map, report.overall_map
        assert class_map[0] == 1.0
        assert class_map[1] is None  # no ground truth for class 1
        assert overall == 1.0

    def test_partial_threshold_vector(self):
        # AP 1.0 at 0.1-0.3 and 0 above -> class mAP = 3/7
        gt = _gt({"a": {0: B}})
        shifted = Box(0.3, 0.3, 0.7, 0.7)
        preds = _pred({"a": [(0, shifted, 0.9)]})
        from helpers import iou_ref

        v = iou_ref(B, shifted)
        assert 0.3 <= v < 0.4
        class_map = evaluate(preds, gt).class_map
        assert class_map[0] == pytest.approx(3 / 7, abs=1e-12)


class TestLocalizationAccuracy:
    def test_perfect(self):
        gt = _gt({"a": {0: B}, "b": {0: B}})
        preds = _pred({"a": [(0, B, 1.0)], "b": [(0, B, 1.0)]})
        assert _loc_acc(preds, gt, 0.5, 0.7) == 1.0

    def test_nothing_fires_half_have_gt(self):
        gt = _gt({"a": {0: B}, "b": {}})
        assert _loc_acc({}, gt, 0.5, 0.7) == 0.5

    def test_four_image_hand_count(self):
        gt = _gt({"a": {0: B}, "b": {0: B}, "c": {}, "d": {}})
        preds = _pred(
            {
                "a": [(0, B_NEAR, 0.9)],  # fires, matches -> correct
                "b": [(0, B_FAR, 0.9)],  # fires, misses -> wrong
                "c": [],  # no fire, no gt -> correct
                "d": [(0, B, 0.9)],  # fires, no gt -> wrong
            }
        )
        assert _loc_acc(preds, gt, 0.5, 0.7) == 0.5

    def test_iou_at_threshold_counts(self):
        gt = _gt({"a": {0: Box(0.0, 0.0, 0.5, 0.5)}})
        preds = _pred({"a": [(0, Box(0.0, 0.0, 0.25, 0.5), 0.9)]})  # IoU exactly 0.5
        assert _loc_acc(preds, gt, 0.5, 0.7) == 1.0

    def test_score_threshold_gates_firing(self):
        gt = _gt({"a": {0: B}, "b": {}})
        preds = _pred({"a": [(0, B, 0.6)], "b": [(0, B, 0.6)]})
        # below the 0.7 firing bar: positive image missed, negative correct
        assert _loc_acc(preds, gt, 0.5, 0.7) == 0.5
        # at 0.5 both fire: positive hit, negative false-fires
        assert _loc_acc(preds, gt, 0.5, 0.5) == 0.5

    def test_positives_only_variant(self):
        gt = _gt({"a": {0: B}, "b": {}, "c": {}})
        preds = _pred({"a": [(0, B, 0.9)], "b": [(0, B, 0.9)]})
        assert _loc_acc(preds, gt, 0.5, 0.7, positives_only=True) == 1.0
        # full variant: a correct (hit), b wrong (false fire), c correct (quiet)
        assert _loc_acc(preds, gt, 0.5, 0.7) == pytest.approx(2 / 3)

    def test_monotone_in_iou_threshold(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            images = {}
            preds = {}
            for i in range(5):
                img = f"i{i}"
                images[img] = {0: random_box(rng, 0.05)} if rng.random() < 0.6 else {}
                if rng.random() < 0.8:
                    preds[img] = [(0, random_box(rng, 0.05), float(rng.uniform(0, 1)))]
            gt = _gt(images)
            p = _pred(preds)
            vals = [_loc_acc(p, gt, t, 0.7) for t in (0.1, 0.3, 0.5)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestEvaluate:
    def test_unknown_image_id_rejected(self):
        gt = _gt({"a": {0: B}})
        preds = _pred({"zzz": [(0, B, 0.9)]})
        with pytest.raises(DataError, match="zzz"):
            evaluate(preds, gt)

    def test_duplicate_class_rejected(self):
        gt = _gt({"a": {0: B}})
        preds = {"a": [PathologyBox(0, B, 0.9), PathologyBox(0, B_FAR, 0.4)]}
        with pytest.raises(DataError, match="more than one"):
            evaluate(preds, gt)

    def test_report_invariants(self):
        rng = np.random.default_rng(3)
        images = {}
        preds = {}
        for i in range(20):
            img = f"i{i}"
            boxes = {}
            for c in range(2):
                if rng.random() < 0.5:
                    boxes[c] = random_box(rng, 0.05)
            images[img] = boxes
            preds[img] = [
                (c, random_box(rng, 0.05), float(rng.uniform(0, 1))) for c in range(2)
            ]
        report = evaluate(_pred(preds), _gt(images))
        for cls in report.ap:
            for v in report.ap[cls].values():
                assert v is None or 0.0 <= v <= 1.0
            for v in report.loc_acc[cls].values():
                assert 0.0 <= v <= 1.0
        defined = [v for v in report.class_map.values() if v is not None]
        assert report.overall_map == sum(defined) / len(defined)
        assert report.counts.images == 20
        assert report.counts.predictions == 40

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(iou_thresholds=(0.0, 0.5))
        with pytest.raises(ValueError):
            EvalConfig(locacc_score_threshold=1.5)

    def test_class_names_in_report(self):
        gt = _gt({"a": {0: B}})
        report = evaluate(_pred({"a": [(0, B, 0.9)]}), gt, class_names=["x", "y"])
        assert report.class_names == ("x", "y")
        with pytest.raises(ValueError):
            evaluate(_pred({"a": [(0, B, 0.9)]}), gt, class_names=["x"])

    def test_out_of_range_prediction_class_rejected(self):
        gt = _gt({"a": {0: B}, "b": {}})
        for cls in (-1, 2, 0.5):
            preds = {"a": [PathologyBox(0, B, 0.9)], "b": [PathologyBox(cls, B, 0.9)]}
            with pytest.raises(DataError, match=f"image 'b': prediction class id {cls} is not in 0..1"):
                evaluate(preds, gt)

    def test_out_of_range_ground_truth_class_rejected(self):
        for cls in (-1, 2):
            images = {"a": {}, "b": {cls: B}}
            with pytest.raises(DataError, match=f"image 'b': ground-truth class id {cls} outside 0..1"):
                GroundTruth(images=images, n_classes=2)

    def test_ground_truth_stacked_in_given_order(self):
        gt = _gt({"b": {1: B}, "a": {}, "c": {0: B_FAR}})
        assert gt.image_ids == ("b", "a", "c")
        assert gt.id_rank.tolist() == [1, 0, 2]
        assert gt.has_box.tolist() == [[False, True], [False, False], [True, False]]
        assert gt.boxes[0, 1].tolist() == list(B.as_tuple())
        assert gt.boxes[2, 0].tolist() == list(B_FAR.as_tuple())
        assert not gt.boxes[1].any()


def _report_bits(report) -> tuple:
    """Every report field in insertion order, floats as ``float.hex`` of a builtin float."""

    def bits(v):
        return None if v is None else (type(v).__name__, v.hex())

    def table(d):
        return [(k, [(t, bits(v)) for t, v in row.items()]) for k, row in d.items()]

    return (
        report.class_names,
        table(report.ap),
        [(c, bits(v)) for c, v in report.class_map.items()],
        bits(report.overall_map),
        table(report.loc_acc),
        [(t, bits(v)) for t, v in report.loc_acc_macro.items()],
        (report.counts.images, report.counts.gt_boxes, report.counts.predictions),
    )


_THRESHOLD = st.sampled_from([0.1, 0.25, 0.5, 0.7, 1.0])


@st.composite
def _eval_cases(draw):
    """Few images and classes, grid boxes (often zero-area) and grid scores (often tied)."""
    n_classes = draw(st.integers(1, 3))
    classes = st.lists(st.integers(0, n_classes - 1), unique=True)
    ids = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f"]), unique=True, max_size=6))
    images = {}
    for image_id in ids:
        boxes = {c: draw(any_box()) for c in draw(classes)}
        images[image_id] = boxes
    predicted = draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []
    predictions = {
        image_id: [PathologyBox(c, draw(any_box()), draw(score)) for c in draw(classes)]
        for image_id in predicted
    }
    cfg = EvalConfig(
        iou_thresholds=tuple(draw(st.lists(_THRESHOLD, max_size=4))),
        locacc_score_threshold=draw(st.sampled_from([0.0, 0.5, 0.7, 1.0])),
        locacc_iou_thresholds=tuple(draw(st.lists(_THRESHOLD, max_size=3))),
        locacc_positives_only=draw(st.booleans()),
    )
    return images, n_classes, predictions, cfg


class TestMatchesScalarEvaluator:
    @settings(max_examples=80)
    @given(_eval_cases())
    def test_every_field_bit_equal(self, case):
        images, n_classes, predictions, cfg = case
        got = evaluate(predictions, GroundTruth(images=images, n_classes=n_classes), cfg)
        assert _report_bits(got) == _report_bits(evaluate_ref(predictions, images, n_classes, cfg))

    def test_desk_sized_random_reports(self):
        rng = np.random.default_rng(5)
        repeated = EvalConfig(iou_thresholds=(0.1, 0.5, 0.1, 0.3, 0.5), locacc_iou_thresholds=(0.3, 0.1, 0.3))
        for trial in range(20):
            cfg = replace(repeated, locacc_positives_only=trial % 4 == 1) if trial % 2 else EvalConfig()
            images, predictions = {}, {}
            for i in range(60):
                boxes = {c: random_box(rng) for c in range(4) if rng.random() < 0.4}
                images[f"i{i:02d}"] = boxes
                scores = rng.choice([0.25, 0.5, 0.75, 0.9], size=4) if rng.random() < 0.5 else rng.uniform(size=4)
                predictions[f"i{i:02d}"] = [
                    PathologyBox(c, random_box(rng), float(scores[c])) for c in range(4) if rng.random() < 0.8
                ]
            got = evaluate(predictions, GroundTruth(images=images, n_classes=4), cfg)
            assert _report_bits(got) == _report_bits(evaluate_ref(predictions, images, 4, cfg))


def _golden_case():
    """Ten images, three classes: shifted boxes, partial coverage and a tied score."""
    b1, b2 = Box(0.1, 0.5, 0.4, 0.9), Box(0.5, 0.1, 0.9, 0.3)
    images, predictions = {}, {}
    for i in range(10):
        boxes = {}
        if i % 3 != 2:
            boxes[0] = B
        if i % 2 == 0:
            boxes[1] = b1
        if i % 4 == 1:
            boxes[2] = b2
        images[f"img{i}"] = boxes
        shifted = Box(0.2 + 0.02 * i, 0.2, 0.6 + 0.02 * i, 0.6)
        row = [PathologyBox(0, shifted, [0.9, 0.8, 0.8, 0.7, 0.6, 0.5, 0.75, 0.3, 0.2, 0.1][i])]
        if i % 3 == 0:
            row.append(PathologyBox(1, Box(0.1, 0.5, 0.4 - 0.03 * (i % 4), 0.9), 0.4 + 0.05 * i))
        if i < 6:
            row.append(PathologyBox(2, Box(0.5, 0.1, 0.9 - 0.05 * i, 0.3), 0.95 - 0.1 * i))
        predictions[f"img{i}"] = row
    return predictions, GroundTruth(images=images, n_classes=3)


def test_golden_report_bits():
    """Pinned bits. Means are left-to-right sums: a compensated sum, as builtin
    ``sum`` does from Python 3.12 on, moves class 1, class 2 and every
    localization macro by one or two units in the last place."""
    report = evaluate(*_golden_case())
    h = float.fromhex
    ap0 = ["0x1.b333333333334p-1"] * 3 + [
        "0x1.8000000000000p-1", "0x1.4924924924925p-1", "0x1.e79e79e79e79ep-2", "0x1.7c57c57c57c57p-2"
    ]
    ap1 = ["0x1.999999999999ap-3"] * 7
    ap2 = ["0x1.1c71c71c71c72p-2"] * 3 + ["0x1.5555555555555p-3"] * 4
    thresholds = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    expected_ap = {c: {t: h(v) for t, v in zip(thresholds, ap)} for c, ap in enumerate((ap0, ap1, ap2))}
    la = {0: "0x1.3333333333333p-1", 1: "0x1.0000000000000p-1", 2: "0x1.3333333333333p-1"}
    expected = EvalReport(
        class_names=("class_0", "class_1", "class_2"),
        ap=expected_ap,
        class_map={0: h("0x1.5e639d153f0adp-1"), 1: h("0x1.9999999999999p-3"), 2: h("0x1.b6db6db6db6ddp-3")},
        overall_map=h("0x1.7700949b92ddcp-2"),
        loc_acc={c: {t: h(v) for t in (0.1, 0.3, 0.5)} for c, v in la.items()},
        loc_acc_macro={t: h("0x1.2222222222223p-1") for t in (0.1, 0.3, 0.5)},
        counts=ReportCounts(images=10, gt_boxes=15, predictions=20),
    )
    assert _report_bits(report) == _report_bits(expected)

import json

import numpy as np
import pytest

from proxydet import formats
from proxydet.cli import main
from proxydet.geometry import Box
from proxydet.inference import PathologyBox


def _run(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture
def pipeline_files(tmp_path):
    train = tmp_path / "train.jsonl"
    holdout = tmp_path / "eval.jsonl"
    assert (
        _run(
            "synth", "--n-images", 40, "--holdout", 20, "--holdout-out", holdout,
            "--seed", 3, "--out", train,
        )
        == 0
    )
    return train, holdout


class TestSynthCommand:
    def test_writes_split_files(self, pipeline_files):
        train, holdout = pipeline_files
        _, train_recs = formats.read_dataset(train)
        _, eval_recs = formats.read_dataset(holdout)
        assert len(train_recs) == 40
        assert len(eval_recs) == 20
        # both splits come from one world: ids continue across files
        assert train_recs[0].image_id == "img_00000"
        assert eval_recs[0].image_id == "img_00040"

    def test_holdout_requires_path(self, tmp_path, capsys):
        code = _run("synth", "--n-images", 5, "--holdout", 2, "--out", tmp_path / "x.jsonl")
        assert code == 2
        assert "holdout" in capsys.readouterr().err

    def test_training_split_must_not_be_empty(self, tmp_path, capsys):
        args = ["--holdout", 3, "--holdout-out", tmp_path / "h.jsonl", "--out", tmp_path / "t.jsonl"]
        assert _run("synth", "--n-images", -1, *args) == 2
        assert "--n-images" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestFullPipeline:
    def test_round_trip_and_determinism(self, pipeline_files, tmp_path):
        train, holdout = pipeline_files
        ck = tmp_path / "ck.bin"
        hist = tmp_path / "hist.csv"
        pred = tmp_path / "pred.jsonl"
        rj, rc = tmp_path / "report.json", tmp_path / "report.csv"
        assert (
            _run(
                "train", "--data", train, "--mode", "loc", "--lr", 0.01,
                "--max-steps", 150, "--checkpoint-out", ck, "--history-out", hist,
            )
            == 0
        )
        assert _run("infer", "--data", holdout, "--checkpoint", ck, "--out", pred) == 0
        assert (
            _run("eval", "--pred", pred, "--gt", holdout, "--out-json", rj, "--out-csv", rc)
            == 0
        )
        report = json.loads(rj.read_text())
        assert 0.0 <= report["overall"]["map"] <= 1.0
        assert rc.read_text().startswith("class,")
        assert len(hist.read_text().splitlines()) == 151

        # identical flags -> byte-identical artifacts
        ck2, pred2, rj2 = tmp_path / "ck2.bin", tmp_path / "pred2.jsonl", tmp_path / "r2.json"
        _run(
            "train", "--data", train, "--mode", "loc", "--lr", 0.01,
            "--max-steps", 150, "--checkpoint-out", ck2,
        )
        _run("infer", "--data", holdout, "--checkpoint", ck2, "--out", pred2)
        _run("eval", "--pred", pred2, "--gt", holdout, "--out-json", rj2)
        assert ck.read_bytes() == ck2.read_bytes()
        assert pred.read_bytes() == pred2.read_bytes()
        assert rj.read_bytes() == rj2.read_bytes()

    def test_infer_from_stored_probabilities(self, tmp_path):
        classes = ("a", "b")
        header = formats.DatasetHeader(classes=classes, n_regions=2, feature_dim=None)
        b1, b2 = Box(0.1, 0.1, 0.5, 0.5), Box(0.2, 0.1, 0.6, 0.5)
        records = [
            formats.ImageRecord(
                image_id="img",
                regions=[
                    formats.RegionRecord(0, b1, 1.0, pathology_probs=np.array([0.8, 0.1])),
                    formats.RegionRecord(1, b2, 1.0, pathology_probs=np.array([0.4, 0.9])),
                ],
            )
        ]
        data = tmp_path / "probs.jsonl"
        formats.write_dataset(data, header, records)

        fused = tmp_path / "fused.jsonl"
        plain = tmp_path / "plain.jsonl"
        assert _run("infer", "--data", data, "--probs-from-file", "--out", fused) == 0
        assert (
            _run("infer", "--data", data, "--probs-from-file", "--wbf-iou", 1.0, "--out", plain)
            == 0
        )
        _, fused_preds = formats.read_predictions(fused)
        _, plain_preds = formats.read_predictions(plain)
        # fusion merges the overlapping boxes for class "a"; disabling it keeps
        # the raw higher-scored region box
        fused_a = [p for p in fused_preds["img"] if p.class_id == 0][0]
        plain_a = [p for p in plain_preds["img"] if p.class_id == 0][0]
        assert plain_a.box == b1 and plain_a.score == 0.8
        assert fused_a.box != b1
        assert fused_a.score == pytest.approx(0.6, abs=1e-15)

    def test_infer_with_mapping(self, tmp_path):
        classes = ("infiltration", "lung_opacity")
        header = formats.DatasetHeader(classes=classes, n_regions=1, feature_dim=None)
        records = [
            formats.ImageRecord(
                image_id="img",
                regions=[
                    formats.RegionRecord(
                        0, Box(0.1, 0.1, 0.5, 0.5), 1.0, pathology_probs=np.array([0.2, 0.6])
                    )
                ],
            )
        ]
        data = tmp_path / "d.jsonl"
        formats.write_dataset(data, header, records)
        mapping = tmp_path / "map.json"
        mapping.write_text('{"infiltration": {"sources": ["infiltration", "lung_opacity"]}}')
        out = tmp_path / "p.jsonl"
        assert _run("infer", "--data", data, "--probs-from-file", "--mapping", mapping, "--out", out) == 0
        out_classes, preds = formats.read_predictions(out)
        assert out_classes == ["infiltration"]
        assert preds["img"][0].score == pytest.approx(0.4, abs=1e-15)

    @pytest.mark.parametrize("mapped", [False, True])
    def test_infer_image_without_regions(self, tmp_path, mapped):
        header = formats.DatasetHeader(classes=("a", "b"), n_regions=1, feature_dim=None)
        region = formats.RegionRecord(0, Box(0.1, 0.1, 0.5, 0.5), 1.0, pathology_probs=np.array([0.8, 0.1]))
        records = [formats.ImageRecord("empty", []), formats.ImageRecord("img", [region])]
        data, out = tmp_path / "d.jsonl", tmp_path / "p.jsonl"
        formats.write_dataset(data, header, records)
        mapping = tmp_path / "map.json"
        mapping.write_text('{"ab": {"sources": ["a", "b"], "combiner": "max"}}')
        extra = ["--mapping", mapping] if mapped else []
        assert _run("infer", "--data", data, "--probs-from-file", *extra, "--out", out) == 0
        _, preds = formats.read_predictions(out)
        assert list(preds) == ["empty", "img"]
        assert preds["empty"] == []
        assert [p.score for p in preds["img"]] == ([0.8] if mapped else [0.8, 0.1])

    def test_eval_on_gt_scores_one(self, pipeline_files, tmp_path):
        _, holdout = pipeline_files
        header, records = formats.read_dataset(holdout)
        name_to_id = {n: i for i, n in enumerate(header.classes)}
        preds = {
            rec.image_id: [
                PathologyBox(name_to_id[name], box, 1.0) for name, box in rec.gt.boxes
            ]
            for rec in records
        }
        pred_file = tmp_path / "gt_as_pred.jsonl"
        formats.write_predictions(pred_file, list(header.classes), preds)
        rj = tmp_path / "r.json"
        assert _run("eval", "--pred", pred_file, "--gt", holdout, "--out-json", rj) == 0
        assert json.loads(rj.read_text())["overall"]["map"] == 1.0


class TestErrors:
    def test_malformed_data_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind":"dataset","version":1,"classes":["a"],"n_regions":1}\n{oops\n')
        code = _run("train", "--data", bad, "--checkpoint-out", tmp_path / "ck.bin")
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.jsonl:2" in err

    @pytest.mark.parametrize(
        "field, value", [("n_regions", 8.7), ("n_regions", "abc"), ("feature_dim", "x"), ("classes", "abc")]
    )
    def test_bad_header_field_exit_code(self, tmp_path, capsys, field, value):
        header = {"kind": "dataset", "version": 1, "classes": ["a"], "n_regions": 1, field: value}
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(header) + "\n")
        code = _run("train", "--data", bad, "--checkpoint-out", tmp_path / "ck.bin")
        assert code == 2
        err = capsys.readouterr().err
        assert f"bad.jsonl:1: {field} must be" in err

    def test_infer_sources_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            _run("infer", "--data", "x", "--checkpoint", "c", "--probs-from-file", "--out", "o")

    def test_mode_without_labels(self, tmp_path, capsys):
        header = formats.DatasetHeader(classes=("a",), n_regions=1, feature_dim=2)
        records = [
            formats.ImageRecord(
                image_id="img",
                regions=[
                    formats.RegionRecord(
                        0, Box(0.1, 0.1, 0.5, 0.5), 1.0, features=np.array([1.0, 0.0])
                    )
                ],
                gt=formats.GtRecord(boxes=[], image_labels=["a"]),
            )
        ]
        data = tmp_path / "nolabels.jsonl"
        formats.write_dataset(data, header, records)
        code = _run("train", "--data", data, "--mode", "loc", "--checkpoint-out", tmp_path / "ck")
        assert code == 2
        assert "anatomy-level labels" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A five-image dataset, a checkpoint trained on it and its predictions."""
    root = tmp_path_factory.mktemp("small_run")
    data, ckpt, pred = root / "d.jsonl", root / "ck.bin", root / "p.jsonl"
    assert _run("synth", "--n-images", 5, "--seed", 1, "--out", data) == 0
    assert _run("train", "--data", data, "--max-steps", 1, "--checkpoint-out", ckpt) == 0
    assert _run("infer", "--data", data, "--checkpoint", ckpt, "--out", pred) == 0
    return data, ckpt, pred


class TestBadConfigValues:
    """A bad flag value ends with an `error:` line and exit code 2, not a traceback."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("synth", "--regions-per-finding", "1"),
            ("synth", "--regions-per-finding", "1,x"),
            ("synth", "--holdout", -2),
            ("train", "--asl-clip", 1),
            ("train", "--asl-gamma-neg", -1),
            ("train", "--asl-weight", -1),
            ("train", "--lse-r", 0),
            ("train", "--l1-weight", -1),
            ("train", "--lr", -0.01),
            ("train", "--lr", "nan"),
            ("train", "--weight-decay", -5),
            ("train", "--weight-decay", "inf"),
            ("infer", "--tau", 2),
            ("infer", "--wbf-iou", 2),
            ("infer", "--presence-threshold", -0.5),
            ("eval", "--thresholds", 0),
            ("eval", "--thresholds", "abc"),
            ("eval", "--locacc-thresholds", "0.1,"),
            ("eval", "--locacc-score", 2),
            ("gradcheck", "--trials", 0),
        ],
    )
    def test_exit_code_two(self, small_run, tmp_path, capsys, command, flag, value):
        data, ckpt, pred = small_run
        argv = {
            "synth": ["--out", tmp_path / "s.jsonl"],
            "train": ["--data", data, "--max-steps", 1, "--checkpoint-out", tmp_path / "ck"],
            "infer": ["--data", data, "--checkpoint", ckpt, "--out", tmp_path / "p.jsonl"],
            "eval": ["--pred", pred, "--gt", data, "--out-json", tmp_path / "r.json"],
            "gradcheck": [],
        }[command]
        assert _run(command, *argv, flag, value) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--lse-r", "nan", "r must be finite and > 0, got nan"),
            ("--l1-weight", "nan", "l1_weight must be finite and >= 0, got nan"),
            ("--asl-weight", "nan", "asl_weight must be finite and >= 0, got nan"),
            ("--asl-gamma-neg", "nan", "gamma_neg must be finite and >= 0, got nan"),
            ("--giou-weight", "inf", "giou_weight must be finite and >= 0, got inf"),
        ],
    )
    def test_non_finite_loss_setting_named(self, small_run, tmp_path, capsys, flag, value, message):
        argv = ["--data", small_run[0], "--mode", "loc", "--max-steps", 1, "--checkpoint-out", tmp_path / "ck"]
        assert _run("train", *argv, flag, value) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--jitter", "nan", "jitter must be finite and >= 0, got nan"),
            ("--jitter", "inf", "jitter must be finite and >= 0, got inf"),
            ("--noise-sigma", "nan", "noise_sigma must be finite and >= 0, got nan"),
            ("--noise-sigma", "inf", "noise_sigma must be finite and >= 0, got inf"),
        ],
    )
    def test_non_finite_synth_setting_named(self, tmp_path, capsys, flag, value, message):
        assert _run("synth", "--n-images", 3, "--out", tmp_path / "s.jsonl", flag, value) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())


class TestFeatureLength:
    """Every region of a dataset file has one feature length."""

    @pytest.mark.parametrize(
        "lengths, where",
        [([[3, 2]], "mixed.jsonl:2: regions[1]"), ([[3, 3], [3, 2]], "mixed.jsonl:3: regions[1]")],
        ids=["within-a-record", "across-records"],
    )
    def test_mixed_lengths_without_header_dim(self, tmp_path, capsys, lengths, where):
        data = tmp_path / "mixed.jsonl"
        lines = [{"kind": "dataset", "version": 1, "classes": ["a"], "n_regions": 2}]
        for i, dims in enumerate(lengths):
            regions = [
                {"region_id": r, "box": [0.1, 0.1, 0.5, 0.5], "features": [0.5] * d}
                for r, d in enumerate(dims)
            ]
            lines.append({"image_id": f"img{i}", "regions": regions, "anatomy_labels": {"0": ["a"]}})
        data.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")
        assert _run("train", "--data", data, "--checkpoint-out", tmp_path / "ck") == 2
        err = capsys.readouterr().err
        assert where in err and "features length 2 != 3" in err


def _two_region_file(path, ids, anatomy=None) -> None:
    """A two-class, two-region dataset with one image whose regions carry ``ids`` in file order.

    Both regions score 0.6 for class "a", so their candidates tie.
    """
    rows = [
        {"region_id": ids[0], "box": [0.1, 0.1, 0.5, 0.5], "pathology_probs": {"a": 0.6, "b": 0.2}},
        {"region_id": ids[1], "box": [0.2, 0.1, 0.6, 0.5], "pathology_probs": {"a": 0.6, "b": 0.4}},
    ]
    record = {"image_id": "img", "regions": rows}
    if anatomy is not None:
        record["anatomy_labels"] = anatomy
    header = {"kind": "dataset", "version": 1, "classes": ["a", "b"], "n_regions": 2}
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")


class TestRegionIds:
    """Region ids are unique and in 0..n_regions-1; rows are kept and fused in id order."""

    def _infer(self, data, out, *extra) -> int:
        return _run("infer", "--data", data, "--probs-from-file", "--score-rescale", *extra, "--out", out)

    @pytest.mark.parametrize(
        "ids, message",
        [
            ((0, 0), "bad.jsonl:2: image 'img': region id 0 appears more than once"),
            ((0, 99), "bad.jsonl:2: regions[1]: region_id 99 outside 0..1"),
            ((-1, 1), "bad.jsonl:2: regions[0]: region_id -1 outside 0..1"),
        ],
        ids=["repeated", "99", "negative"],
    )
    def test_bad_region_id_rejected(self, tmp_path, capsys, ids, message):
        data, out = tmp_path / "bad.jsonl", tmp_path / "p.jsonl"
        _two_region_file(data, ids)
        assert self._infer(data, out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "anatomy, message",
        [
            ({"1": ["a"], "01": ["b"]}, "anatomy_labels: region key '01' repeats region 1"),
            ({"2": ["a"]}, "anatomy_labels: region key '2' outside 0..1"),
            ({"left": ["a"]}, "anatomy_labels: region key 'left' is not an integer"),
            # only ASCII decimal digits name a region: int() would read these as 11, 1, 1, 1 and -1
            ({"1_1": ["a"]}, "anatomy_labels: region key '1_1' is not an integer"),
            ({" 1": ["a"]}, "anatomy_labels: region key ' 1' is not an integer"),
            ({"+1": ["a"]}, "anatomy_labels: region key '+1' is not an integer"),
            ({"١": ["a"]}, "anatomy_labels: region key '١' is not an integer"),
            ({"-1": ["a"]}, "anatomy_labels: region key '-1' is not an integer"),
            ({"": ["a"]}, "anatomy_labels: region key '' is not an integer"),
            ({"0": "a"}, "anatomy_labels: classes of region '0' must be an array"),
            ({"0": ["c"]}, "anatomy_labels: unknown class name 'c'"),
        ],
        ids=[
            "repeated", "out-of-range", "not-an-integer", "underscore", "space", "plus", "arabic-indic",
            "negative", "empty", "classes-not-an-array", "unknown-class",
        ],
    )
    def test_bad_anatomy_key_rejected(self, tmp_path, capsys, anatomy, message):
        data = tmp_path / "bad.jsonl"
        _two_region_file(data, (0, 1), anatomy)
        assert self._infer(data, tmp_path / "p.jsonl") == 2
        assert capsys.readouterr().err == f"error: {data}:2: {message}\n"

    @pytest.mark.parametrize("setting", ["fused", "unfused", "mapped"])
    def test_file_order_does_not_change_the_predictions(self, tmp_path, setting):
        mapping = tmp_path / "map.json"
        mapping.write_text('{"ab": {"sources": ["a", "b"], "combiner": "max"}}')
        extra = {"fused": [], "unfused": ["--wbf-iou", 1.0], "mapped": ["--mapping", mapping]}[setting]
        forward, reverse = tmp_path / "forward.jsonl", tmp_path / "reverse.jsonl"
        _two_region_file(forward, (0, 1))
        lines = forward.read_text().splitlines()
        record = json.loads(lines[1])
        record["regions"].reverse()  # region 0 keeps its box and scores, now last in the file
        reverse.write_text(lines[0] + "\n" + json.dumps(record) + "\n")
        assert self._infer(forward, tmp_path / "forward_pred.jsonl", *extra) == 0
        assert self._infer(reverse, tmp_path / "reverse_pred.jsonl", *extra) == 0
        assert (tmp_path / "forward_pred.jsonl").read_bytes() == (tmp_path / "reverse_pred.jsonl").read_bytes()
        if setting == "unfused":
            # the tied class-"a" candidates are taken in region-id order
            _, preds = formats.read_predictions(tmp_path / "reverse_pred.jsonl")
            assert preds["img"][0].box == Box(0.1, 0.1, 0.5, 0.5)

    def test_file_order_does_not_change_the_checkpoint_predictions(self, five_images, tmp_path):
        data, ckpt = five_images
        reverse = tmp_path / "reverse.jsonl"
        lines = data.read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        for record in records:
            record["regions"].reverse()
        reverse.write_text("\n".join([lines[0]] + [json.dumps(r) for r in records]) + "\n")
        for name, source in (("forward_pred.jsonl", data), ("reverse_pred.jsonl", reverse)):
            assert _run("infer", "--data", source, "--checkpoint", ckpt, "--out", tmp_path / name) == 0
        assert (tmp_path / "forward_pred.jsonl").read_bytes() == (tmp_path / "reverse_pred.jsonl").read_bytes()


_HUGE = 10**400  # a JSON integer past the float range


def _set(key, value):
    return lambda regions: regions[1].update({key: value})


def _set_prob(name, value):
    return lambda regions: regions[1]["pathology_probs"].update({name: value})


def _set_corner(value):
    return lambda regions: regions[1]["box"].__setitem__(1, value)


def _drop(key):
    return lambda regions: regions[1].pop(key)


class TestRegionFaultTexts:
    """Every region-level fault of the dataset reader, with its full error text, exit code 2."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda regions: regions.__setitem__(1, 5), "regions[1]: must be an object"),
            (_drop("region_id"), "regions[1]: missing region_id"),
            (_set("region_id", True), "regions[1]: region_id must be an integer, got True"),
            (_set("region_id", "1"), "regions[1]: region_id must be an integer, got '1'"),
            (_set("region_id", 1.0), "regions[1]: region_id must be an integer, got 1.0"),
            (_set("region_id", 2), "regions[1]: region_id 2 outside 0..1"),
            (_set("region_id", -1), "regions[1]: region_id -1 outside 0..1"),
            (_set("presence", "high"), "regions[1]: presence must be a number, got 'high'"),
            (_set("presence", None), "regions[1]: presence must be a number, got None"),
            (_set("presence", [0.5]), "regions[1]: presence must be a number, got [0.5]"),
            (_set("presence", float("nan")), "regions[1]: presence outside [0, 1]"),
            (_set("presence", 1.5), "regions[1]: presence outside [0, 1]"),
            (_set("presence", -0.5), "regions[1]: presence outside [0, 1]"),
            (_set("presence", _HUGE), f"regions[1]: presence must be a number, got {_HUGE!r}"),
            (_set("features", "12"), "regions[1]: features must be an array of numbers"),
            (_set("features", 0.5), "regions[1]: features must be an array of numbers"),
            (_set("features", ["x", 0.5]), "regions[1]: features must be an array of numbers"),
            (_set("features", [None, 0.5]), "regions[1]: features must be an array of numbers"),
            (_set("features", [[0.5], 0.5]), "regions[1]: features must be an array of numbers"),
            (_set("features", [_HUGE, 0.5]), "regions[1]: features must be an array of numbers"),
            (_set("features", [float("nan"), 0.5]), "regions[1]: features must be finite (NaN or Infinity found)"),
            (_set("features", [float("inf"), 0.5]), "regions[1]: features must be finite (NaN or Infinity found)"),
            (_set("features", [0.5]), "regions[1]: features length 1 != 2 (first length in the file, line 2)"),
            (_set("features", [0.5, 0.5, 0.5]), "regions[1]: features length 3 != 2 (first length in the file, line 2)"),
            (_set("pathology_probs", [0.5]), "regions[1]: pathology_probs must be an object"),
            (_set("pathology_probs", "a"), "regions[1]: pathology_probs must be an object"),
            (_set_prob("zz", 0.5), "regions[1]: unknown class name 'zz'"),
            (_set_prob("a", "x"), "regions[1]: probability for 'a' must be a number, got 'x'"),
            (_set_prob("a", None), "regions[1]: probability for 'a' must be a number, got None"),
            (_set_prob("b", [0.5]), "regions[1]: probability for 'b' must be a number, got [0.5]"),
            (_set_prob("a", float("nan")), "regions[1]: probability for 'a' outside [0, 1]"),
            (_set_prob("b", 1.5), "regions[1]: probability for 'b' outside [0, 1]"),
            (_set_prob("b", -1e-300), "regions[1]: probability for 'b' outside [0, 1]"),
            (_set("box", [0.1, 0.2, 0.3]), "regions[1]: box must be a 4-element array"),
            (_set("box", "abcd"), "regions[1]: box must be a 4-element array"),
            (_drop("box"), "regions[1]: box must be a 4-element array"),
            (_set_corner("x"), "regions[1]: could not convert string to float: 'x'"),
            (_set_corner(None), "regions[1]: float() argument must be a string or a real number, not 'NoneType'"),
            (_set_corner([0.1]), "regions[1]: float() argument must be a string or a real number, not 'list'"),
            (_set_corner(_HUGE), "regions[1]: int too large to convert to float"),
            (
                _set("box", [0.5, 0.1, 0.2, 0.5]),
                "regions[1]: invalid box corners (0.5, 0.1, 0.2, 0.5): need 0 <= x1 <= x2 <= 1 and 0 <= y1 <= y2 <= 1",
            ),
            (
                _set_corner(float("nan")),
                "regions[1]: invalid box corners (0.2, nan, 0.6, 0.5): need 0 <= x1 <= x2 <= 1 and 0 <= y1 <= y2 <= 1",
            ),
            (
                _set("box", [0.2, 0.1, 1.5, 0.5]),
                "regions[1]: invalid box corners (0.2, 0.1, 1.5, 0.5): need 0 <= x1 <= x2 <= 1 and 0 <= y1 <= y2 <= 1",
            ),
            # two faults: the first row in file order is named, and within a row presence,
            # features, probabilities and box are checked in that order
            (
                lambda regions: (regions[0].update(box=[0.5, 0, 0.2, 1]), regions[1].update(presence="x")),
                "regions[0]: invalid box corners (0.5, 0.0, 0.2, 1.0): need 0 <= x1 <= x2 <= 1 and 0 <= y1 <= y2 <= 1",
            ),
            (
                lambda regions: (regions[1].update(box=None, presence=2.0)),
                "regions[1]: presence outside [0, 1]",
            ),
            (
                lambda regions: (regions[1].update(box=None, pathology_probs={"a": 2.0}, features=[0.5])),
                "regions[1]: probability for 'a' outside [0, 1]",
            ),
            (
                lambda regions: (regions[0].update(features=[0.5]), regions[1].update(region_id=7)),
                "regions[1]: region_id 7 outside 0..1",
            ),
        ],
    )
    def test_exact_text(self, tmp_path, capsys, edit, message):
        data, out = tmp_path / "bad.jsonl", tmp_path / "p.jsonl"
        regions = [
            {
                "region_id": r,
                "box": [0.1 * (r + 1), 0.1, 0.5 + 0.1 * r, 0.5],
                "presence": 1.0,
                "features": [0.5, 0.25],
                "pathology_probs": {"a": 0.6, "b": 0.2},
            }
            for r in range(2)
        ]
        edit(regions)
        header = {"kind": "dataset", "version": 1, "classes": ["a", "b"], "n_regions": 2}
        data.write_text(json.dumps(header) + "\n" + json.dumps({"image_id": "img", "regions": regions}) + "\n")
        assert _run("infer", "--data", data, "--probs-from-file", "--out", out) == 2
        assert capsys.readouterr().err == f"error: {data}:2: {message}\n"
        assert not out.exists()


class TestDuplicateImageId:
    def test_train_rejects_a_repeated_record(self, small_run, tmp_path, capsys):
        data = tmp_path / "dup.jsonl"
        lines = small_run[0].read_text().splitlines()
        data.write_text("\n".join(lines[:3] + [lines[2]] + lines[3:]) + "\n")
        assert _run("train", "--data", data, "--checkpoint-out", tmp_path / "ck") == 2
        err = capsys.readouterr().err
        assert "dup.jsonl:4: duplicate image id 'img_00001' (first at line 3)" in err


class TestGradcheckCommand:
    def test_small_run_passes(self, capsys):
        assert _run("gradcheck", "--trials", 3, "--seed", 0) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "head_backward" in out


@pytest.fixture
def five_images(tmp_path):
    """A five-image dataset with features and a checkpoint trained on it."""
    data = tmp_path / "five.jsonl"
    ckpt = tmp_path / "five.ckpt"
    assert _run("synth", "--n-images", 5, "--seed", 2, "--out", data) == 0
    assert (
        _run(
            "train", "--data", data, "--batch-size", 5, "--max-steps", 2,
            "--checkpoint-out", ckpt,
        )
        == 0
    )
    return data, ckpt


def _edit_first_record(data, edit) -> None:
    """Apply ``edit`` to the first image record (line 2) of a dataset file."""
    lines = data.read_text().splitlines()
    record = json.loads(lines[1])
    edit(record)
    lines[1] = json.dumps(record)
    data.write_text("\n".join(lines) + "\n")


class TestMalformedInferInput:
    """Bad dataset values end as an error naming the place, exit code 2."""

    def _infer(self, five_images, tmp_path) -> int:
        data, ckpt = five_images
        return _run("infer", "--data", data, "--checkpoint", ckpt, "--out", tmp_path / "p.jsonl")

    def test_nan_feature(self, five_images, tmp_path, capsys):
        def edit(record):
            record["regions"][1]["features"][0] = float("nan")

        _edit_first_record(five_images[0], edit)
        assert self._infer(five_images, tmp_path) == 2
        message = "regions[1]: features must be finite (NaN or Infinity found)"
        assert capsys.readouterr().err == f"error: {five_images[0]}:2: {message}\n"

    def test_features_not_an_array(self, five_images, tmp_path, capsys):
        def edit(record):
            record["regions"][1]["features"] = "12"  # a string iterates as the numbers 1 and 2

        _edit_first_record(five_images[0], edit)
        assert self._infer(five_images, tmp_path) == 2
        message = "regions[1]: features must be an array of numbers"
        assert capsys.readouterr().err == f"error: {five_images[0]}:2: {message}\n"

    def test_non_numeric_presence(self, five_images, tmp_path, capsys):
        def edit(record):
            record["regions"][0]["presence"] = "high"

        _edit_first_record(five_images[0], edit)
        assert self._infer(five_images, tmp_path) == 2
        message = "regions[0]: presence must be a number, got 'high'"
        assert capsys.readouterr().err == f"error: {five_images[0]}:2: {message}\n"

    def test_non_integer_region_id(self, five_images, tmp_path, capsys):
        def edit(record):
            record["regions"][0]["region_id"] = "left lung"

        _edit_first_record(five_images[0], edit)
        assert self._infer(five_images, tmp_path) == 2
        message = "regions[0]: region_id must be an integer, got 'left lung'"
        assert capsys.readouterr().err == f"error: {five_images[0]}:2: {message}\n"

    def test_missing_region(self, five_images, tmp_path, capsys):
        def edit(record):
            record["regions"] = [r for r in record["regions"] if r["region_id"] != 3]

        _edit_first_record(five_images[0], edit)
        assert self._infer(five_images, tmp_path) == 2
        assert capsys.readouterr().err == "error: image 'img_00000': region ids must be exactly 0..7\n"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("gt", 5, "gt: must be an object"),
            ("gt", {"boxes": ["x"]}, "gt.boxes[0]: must be an object"),
            ("gt", {"boxes": 5}, "gt: boxes must be an array"),
            ("anatomy_labels", [1], "anatomy_labels: must be an object"),
        ],
        ids=["gt-number", "gt-box-string", "gt-boxes-number", "anatomy-labels-array"],
    )
    def test_malformed_labels(self, five_images, tmp_path, capsys, field, value, message):
        def edit(record):
            record[field] = value

        _edit_first_record(five_images[0], edit)
        assert self._infer(five_images, tmp_path) == 2
        assert capsys.readouterr().err == f"error: {five_images[0]}:2: {message}\n"


class TestMalformedPredictions:
    """A bad predictions file ends `eval` with an error naming the line, exit code 2."""

    def _eval(self, five_images, tmp_path, lines) -> int:
        pred = tmp_path / "pred.jsonl"
        pred.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")
        return _run("eval", "--pred", pred, "--gt", five_images[0], "--out-json", tmp_path / "r.json")

    def test_header_without_classes(self, five_images, tmp_path, capsys):
        assert self._eval(five_images, tmp_path, [{"kind": "predictions", "version": 1}]) == 2
        err = capsys.readouterr().err
        assert "pred.jsonl:1" in err and "classes" in err

    def test_repeated_class_in_header(self, five_images, tmp_path, capsys):
        header = {"kind": "predictions", "version": 1, "classes": ["finding_1", "finding_0", "finding_1"]}
        assert self._eval(five_images, tmp_path, [header]) == 2
        assert "pred.jsonl:1: duplicate class names in header" in capsys.readouterr().err

    def test_record_not_an_object(self, five_images, tmp_path, capsys):
        header = {"kind": "predictions", "version": 1, "classes": ["a"]}
        assert self._eval(five_images, tmp_path, [header, ["img_00000"]]) == 2
        assert "pred.jsonl:2: record must be a JSON object" in capsys.readouterr().err

    def test_class_not_a_string(self, five_images, tmp_path, capsys):
        header = {"kind": "predictions", "version": 1, "classes": ["finding_0"]}
        entry = {"class": ["finding_0"], "box": [0.1, 0.1, 0.5, 0.5], "score": 0.5}
        assert self._eval(five_images, tmp_path, [header, {"image_id": "x", "boxes": [entry]}]) == 2
        err = capsys.readouterr().err
        assert "pred.jsonl:2: boxes[0]: unknown class name ['finding_0']" in err

    def test_box_entry_not_an_object(self, five_images, tmp_path, capsys):
        header = {"kind": "predictions", "version": 1, "classes": ["a"]}
        assert self._eval(five_images, tmp_path, [header, {"image_id": "x", "boxes": ["x"]}]) == 2
        err = capsys.readouterr().err
        assert "pred.jsonl:2: boxes[0]" in err and "must be an object" in err


_HUGE_INT, _OVER_DIGIT_LIMIT, _BAD_UTF8 = b"1" + b"0" * 400, b"1" * 4301, b'"\xff"'


def _write_raw(path, objs, raw: bytes) -> None:
    """Write ``objs`` as JSON lines with the bytes ``raw`` in place of the string "@@"."""
    text = "\n".join(json.dumps(obj) for obj in objs) + "\n"
    path.write_bytes(text.encode().replace(b'"@@"', raw))


class TestUnreadableValues:
    """An integer past the float range or the digit limit, or a byte that is not UTF-8, is a DataError."""

    @pytest.mark.parametrize(
        "edit, raw, message",
        [
            (lambda r: r.update(presence="@@"), _HUGE_INT, "bad.jsonl:2: regions[0]: presence must be a number"),
            (lambda r: r.update(box=[0.1, "@@", 0.5, 0.5]), _HUGE_INT, "bad.jsonl:2: regions[0]: int too large"),
            (lambda r: r.update(features=["@@"]), _HUGE_INT, "bad.jsonl:2: regions[0]: features must be an array"),
            (lambda r: r["pathology_probs"].update(a="@@"), _HUGE_INT, "bad.jsonl:2: regions[0]: probability for 'a'"),
            (lambda r: r.update(presence="@@"), _OVER_DIGIT_LIMIT, "bad.jsonl:2: malformed JSON: Exceeds the limit"),
            (lambda r: r.update(presence="@@"), _BAD_UTF8, "bad.jsonl:2: malformed JSON: 'utf-8' codec"),
        ],
        ids=["presence-overflow", "box-overflow", "features-overflow", "probability-overflow", "digits", "utf-8"],
    )
    def test_dataset(self, tmp_path, capsys, edit, raw, message):
        data = tmp_path / "bad.jsonl"
        _two_region_file(data, (0, 1))
        header, record = (json.loads(line) for line in data.read_text().splitlines())
        edit(record["regions"][0])
        _write_raw(data, [header, record], raw)
        assert _run("infer", "--data", data, "--probs-from-file", "--out", tmp_path / "p.jsonl") == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, message",
        [
            (_HUGE_INT, "pred.jsonl:2: boxes[0]: score must be a number"),
            (_OVER_DIGIT_LIMIT, "pred.jsonl:2: malformed JSON: Exceeds the limit"),
            (_BAD_UTF8, "pred.jsonl:2: malformed JSON: 'utf-8' codec"),
        ],
        ids=["score-overflow", "digits", "utf-8"],
    )
    def test_predictions(self, tmp_path, capsys, raw, message):
        gt, pred = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
        _two_region_file(gt, (0, 1))
        entry = {"class": "a", "box": [0.1, 0.1, 0.5, 0.5], "score": "@@"}
        header = {"kind": "predictions", "version": 1, "classes": ["a", "b"]}
        _write_raw(pred, [header, {"image_id": "img", "boxes": [entry]}], raw)
        assert _run("eval", "--pred", pred, "--gt", gt, "--out-json", tmp_path / "r.json") == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, message",
        [
            (_OVER_DIGIT_LIMIT, "map.json: malformed JSON: Exceeds the limit"),
            (_BAD_UTF8, "map.json: malformed JSON: 'utf-8' codec"),
        ],
        ids=["digits", "utf-8"],
    )
    def test_mapping(self, tmp_path, capsys, raw, message):
        data, mapping = tmp_path / "d.jsonl", tmp_path / "map.json"
        _two_region_file(data, (0, 1))
        _write_raw(mapping, [{"ab": {"sources": ["a", "b"], "combiner": "@@"}}], raw)
        out = tmp_path / "p.jsonl"
        assert _run("infer", "--data", data, "--probs-from-file", "--mapping", mapping, "--out", out) == 2
        assert message in capsys.readouterr().err


def _edit_manifest(ckpt, edit) -> None:
    """Apply ``edit`` to the JSON manifest (second line) of a checkpoint file."""
    magic, manifest, payload = ckpt.read_bytes().split(b"\n", 2)
    obj = json.loads(manifest)
    edit(obj)
    ckpt.write_bytes(magic + b"\n" + json.dumps(obj).encode() + b"\n" + payload)


class TestMalformedCheckpoint:
    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda m: m.pop("arrays"), "'arrays'"),
            (lambda m: m.pop("mode"), "'mode'"),
            (lambda m: m["arrays"][0].pop("name"), "'name'"),
        ],
        ids=["arrays", "mode", "name"],
    )
    def test_missing_manifest_field(self, five_images, tmp_path, capsys, edit, field):
        data, ckpt = five_images
        _edit_manifest(ckpt, edit)
        code = _run("infer", "--data", data, "--checkpoint", ckpt, "--out", tmp_path / "p.jsonl")
        assert code == 2
        err = capsys.readouterr().err
        assert "five.ckpt" in err and f"manifest missing field {field}" in err


    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m["arrays"][3].__setitem__("shape", [-1, -1]), "'presence_bias' has a negative dimension"),
            (lambda m: m["arrays"][8].__setitem__("shape", [16, 4]), "'box_w3' has shape [16, 4]"),
        ],
        ids=["negative", "shape"],
    )
    def test_bad_array_shape(self, five_images, tmp_path, capsys, edit, message):
        data, ckpt = five_images
        _edit_manifest(ckpt, edit)
        code = _run("infer", "--data", data, "--checkpoint", ckpt, "--out", tmp_path / "p.jsonl")
        assert code == 2
        assert f"five.ckpt: array {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m["arrays"][4].__setitem__("shape", [2**32, 2**32]), "array 'box_w1' has shape"),
            (lambda m: m["arrays"][4].__setitem__("shape", [10**9, 10**9]), "array 'box_w1' has shape"),
            (lambda m: m["arrays"][0].__setitem__("shape", [5, 16, 10**12]), "but array 'pathology_weight' has shape"),
            (lambda m: m["arrays"][1].__setitem__("shape", [5.7]), "malformed checkpoint manifest"),
            (lambda m: m.__setitem__("seed", float("inf")), "malformed checkpoint manifest"),
            (lambda m: m["arrays"].insert(2, m["arrays"][1]), "manifest lists arrays"),
        ],
        ids=["overflow", "huge", "extra-dimension", "fractional", "infinite-seed", "listed-twice"],
    )
    def test_shape_outside_the_layout(self, five_images, tmp_path, capsys, edit, message):
        data, ckpt = five_images
        _edit_manifest(ckpt, edit)
        code = _run("infer", "--data", data, "--checkpoint", ckpt, "--out", tmp_path / "p.jsonl")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "five.ckpt: " in err and message in err
        assert not (tmp_path / "p.jsonl").exists()

    def test_non_finite_value(self, five_images, tmp_path, capsys):
        data, ckpt = five_images
        magic, manifest, payload = ckpt.read_bytes().split(b"\n", 2)
        values = np.frombuffer(payload, dtype="<f8").copy()
        # pathology_bias follows the (5, 16) pathology_weight
        values[5 * 16 + 1] = np.nan
        ckpt.write_bytes(magic + b"\n" + manifest + b"\n" + values.tobytes())
        code = _run("infer", "--data", data, "--checkpoint", ckpt, "--out", tmp_path / "p.jsonl")
        assert code == 2
        assert "five.ckpt: array 'pathology_bias' holds a non-finite value" in capsys.readouterr().err


class TestCheckpointDatasetMismatch:
    def test_classes_must_match_the_dataset(self, five_images, tmp_path, capsys):
        _, ckpt = five_images
        three = tmp_path / "three.jsonl"
        assert _run("synth", "--n-images", 5, "--n-classes", 3, "--seed", 4, "--out", three) == 0
        code = _run("infer", "--data", three, "--checkpoint", ckpt, "--out", tmp_path / "p.jsonl")
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint classes" in err and "three.jsonl" in err
        assert not (tmp_path / "p.jsonl").exists()

    def test_feature_dim_must_match_the_dataset(self, five_images, tmp_path, capsys):
        _, ckpt = five_images
        wide = tmp_path / "wide.jsonl"
        assert _run("synth", "--n-images", 5, "--feature-dim", 20, "--seed", 2, "--out", wide) == 0
        code = _run("infer", "--data", wide, "--checkpoint", ckpt, "--out", tmp_path / "p.jsonl")
        assert code == 2
        err = capsys.readouterr().err
        assert "feature_dim 16" in err and "wide.jsonl" in err
        assert not (tmp_path / "p.jsonl").exists()

    @pytest.mark.parametrize("mapped", [False, True])
    def test_manifest_classes_must_match_the_arrays(self, five_images, tmp_path, capsys, mapped):
        # a five-class checkpoint whose manifest lists three classes, run on a three-class set
        _, ckpt = five_images
        _edit_manifest(ckpt, lambda m: m.__setitem__("classes", m["classes"][:3]))
        three = tmp_path / "three.jsonl"
        assert _run("synth", "--n-images", 5, "--n-classes", 3, "--seed", 4, "--out", three) == 0
        mapping = tmp_path / "map.json"
        mapping.write_text('{"f": {"sources": ["finding_0", "finding_2"]}}')
        extra = ["--mapping", mapping] if mapped else []
        code = _run("infer", "--data", three, "--checkpoint", ckpt, *extra, "--out", tmp_path / "p.jsonl")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "five.ckpt: manifest declares 3 classes, n_classes 5" in err
        assert not (tmp_path / "p.jsonl").exists()

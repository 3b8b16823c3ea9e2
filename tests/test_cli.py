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
        err = capsys.readouterr().err
        assert "five.jsonl:2: regions[1]" in err and "finite" in err

    def test_non_numeric_presence(self, five_images, tmp_path, capsys):
        def edit(record):
            record["regions"][0]["presence"] = "high"

        _edit_first_record(five_images[0], edit)
        assert self._infer(five_images, tmp_path) == 2
        err = capsys.readouterr().err
        assert "five.jsonl:2: regions[0]" in err and "presence" in err

    def test_non_integer_region_id(self, five_images, tmp_path, capsys):
        def edit(record):
            record["regions"][0]["region_id"] = "left lung"

        _edit_first_record(five_images[0], edit)
        assert self._infer(five_images, tmp_path) == 2
        err = capsys.readouterr().err
        assert "five.jsonl:2: regions[0]" in err and "region_id" in err

    def test_missing_region(self, five_images, tmp_path, capsys):
        def edit(record):
            record["regions"] = [r for r in record["regions"] if r["region_id"] != 3]

        _edit_first_record(five_images[0], edit)
        assert self._infer(five_images, tmp_path) == 2
        assert "region ids must be exactly 0..7" in capsys.readouterr().err

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
        assert f"five.jsonl:2: {message}" in capsys.readouterr().err


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

    def test_record_not_an_object(self, five_images, tmp_path, capsys):
        header = {"kind": "predictions", "version": 1, "classes": ["a"]}
        assert self._eval(five_images, tmp_path, [header, ["img_00000"]]) == 2
        assert "pred.jsonl:2: record must be a JSON object" in capsys.readouterr().err

    def test_box_entry_not_an_object(self, five_images, tmp_path, capsys):
        header = {"kind": "predictions", "version": 1, "classes": ["a"]}
        assert self._eval(five_images, tmp_path, [header, {"image_id": "x", "boxes": ["x"]}]) == 2
        err = capsys.readouterr().err
        assert "pred.jsonl:2: boxes[0]" in err and "must be an object" in err


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

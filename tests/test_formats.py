import json
import math
import re

import numpy as np
import pytest

from proxydet import formats
from proxydet.errors import ConfigError, DataError
from proxydet.evaluation import EvalConfig, evaluate
from proxydet.geometry import Box
from proxydet.head import PARAM_FIELDS, init_head_params
from proxydet.inference import PathologyBox
from proxydet.synth import SynthConfig, generate_dataset


class TestCanonicalJson:
    def test_sorted_keys(self):
        assert formats.canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_float_precision(self):
        assert formats.canonical_json(0.1) == "0.10000000000000001"
        assert formats.canonical_json(0.5) == "0.5"
        assert float(formats.canonical_json(1 / 3)) == 1 / 3

    def test_numpy_values(self):
        s = formats.canonical_json({"x": np.float64(0.25), "n": np.int64(3), "a": np.arange(2)})
        assert s == '{"a":[0,1],"n":3,"x":0.25}'

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            formats.canonical_json(float("nan"))

    def test_roundtrip_lossless(self):
        rng = np.random.default_rng(0)
        for v in rng.uniform(-1, 1, size=100):
            assert json.loads(formats.canonical_json(float(v))) == v


def _sample_dataset(tmp_path, **kwargs):
    cfg = SynthConfig(n_images=6, seed=1, region_dropout=0.2, **kwargs)
    scenes = generate_dataset(cfg)
    classes = tuple(cfg.class_names())
    header = formats.DatasetHeader(classes=classes, n_regions=cfg.n_regions, feature_dim=cfg.feature_dim)
    records = [formats.scene_to_record(s, classes) for s in scenes]
    path = tmp_path / "data.jsonl"
    formats.write_dataset(path, header, records)
    return cfg, header, records, path


class TestDatasetRoundTrip:
    def test_lossless(self, tmp_path):
        _, header, records, path = _sample_dataset(tmp_path)
        header2, records2 = formats.read_dataset(path)
        assert header2 == header
        assert len(records2) == len(records)
        for a, b in zip(records, records2):
            assert a.image_id == b.image_id
            assert np.array_equal(a.region_ids, b.region_ids)
            assert np.array_equal(a.boxes, b.boxes)
            assert np.array_equal(a.presence, b.presence)
            assert np.array_equal(a.features, b.features)
            assert a.gt.boxes == b.gt.boxes
            assert a.gt.image_labels == b.gt.image_labels
            assert a.anatomy_labels == b.anatomy_labels

    def test_write_is_deterministic(self, tmp_path):
        _, header, records, path = _sample_dataset(tmp_path)
        other = tmp_path / "again.jsonl"
        formats.write_dataset(other, header, records)
        assert path.read_bytes() == other.read_bytes()

    def test_malformed_line_named(self, tmp_path):
        _, _, _, path = _sample_dataset(tmp_path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-10]
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"broken\.jsonl:3"):
            formats.read_dataset(broken)

    def test_unknown_class_in_probs_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = '{"kind":"dataset","version":1,"classes":["a"],"n_regions":1,"feature_dim":null}'
        rec = json.dumps(
            {
                "image_id": "x",
                "regions": [
                    {"region_id": 0, "box": [0, 0, 1, 1], "presence": 1.0, "pathology_probs": {"zz": 0.5}}
                ],
            }
        )
        path.write_text(header + "\n" + rec + "\n")
        with pytest.raises(DataError, match=r"bad\.jsonl:2.*zz"):
            formats.read_dataset(path)

    def test_probability_columns_follow_the_header_in_every_record(self, tmp_path):
        path = _probs_dataset(tmp_path, [{"b": 0.25}, {"a": 0.5, "b": 1.0}, {}])
        _, records = formats.read_dataset(path)
        assert [r.pathology_probs[0].tolist() for r in records] == [[0.0, 0.25], [0.5, 1.0], [0.0, 0.0]]

    @pytest.mark.parametrize(
        "probs, message",
        [
            ([0.5], "pathology_probs must be an object"),
            ({"zz": 0.5}, "unknown class name 'zz'"),
            ({"a": "x"}, "probability for 'a' must be a number, got 'x'"),
            ({"b": 1.5}, "probability for 'b' outside [0, 1]"),
            ({"a": math.nan}, "probability for 'a' outside [0, 1]"),
        ],
        ids=["list", "unknown", "string", "above-one", "nan"],
    )
    def test_bad_probabilities_named(self, tmp_path, probs, message):
        path = _probs_dataset(tmp_path, [{"a": 0.1}, probs])
        with pytest.raises(DataError, match=re.escape(f"{path}:3: regions[0]: {message}")):
            formats.read_dataset(path)

    def test_inverted_box_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = '{"kind":"dataset","version":1,"classes":["a"],"n_regions":1,"feature_dim":null}'
        rec = json.dumps(
            {"image_id": "x", "regions": [{"region_id": 0, "box": [0.5, 0, 0.2, 1], "presence": 1.0}]}
        )
        path.write_text(header + "\n" + rec + "\n")
        with pytest.raises(DataError, match="bad.jsonl:2"):
            formats.read_dataset(path)

    def test_duplicate_gt_class_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = '{"kind":"dataset","version":1,"classes":["a"],"n_regions":1,"feature_dim":null}'
        rec = json.dumps(
            {
                "image_id": "x",
                "regions": [{"region_id": 0, "box": [0, 0, 1, 1], "presence": 1.0}],
                "gt": {
                    "boxes": [
                        {"class": "a", "box": [0, 0, 0.5, 0.5]},
                        {"class": "a", "box": [0.1, 0, 0.5, 0.5]},
                    ],
                    "image_labels": ["a"],
                },
            }
        )
        path.write_text(header + "\n" + rec + "\n")
        with pytest.raises(DataError, match="duplicate"):
            formats.read_dataset(path)

    def test_labels_must_cover_boxes(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = '{"kind":"dataset","version":1,"classes":["a"],"n_regions":1,"feature_dim":null}'
        rec = json.dumps(
            {
                "image_id": "x",
                "regions": [{"region_id": 0, "box": [0, 0, 1, 1], "presence": 1.0}],
                "gt": {"boxes": [{"class": "a", "box": [0, 0, 0.5, 0.5]}], "image_labels": []},
            }
        )
        path.write_text(header + "\n" + rec + "\n")
        with pytest.raises(DataError, match="image_labels"):
            formats.read_dataset(path)

    def test_duplicate_image_rejected(self, tmp_path):
        _, _, _, path = _sample_dataset(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[2]]) + "\n")
        message = r"data\.jsonl:8: duplicate image id 'img_00001' \(first at line 3\)"
        with pytest.raises(DataError, match=message):
            formats.read_dataset(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match="header"):
            formats.read_dataset(path)


class TestHeaderFields:
    """A header field of the wrong type is a DataError naming the file and line."""

    @staticmethod
    def _write(tmp_path, **fields):
        header = {"kind": "dataset", "version": 1, "classes": ["a"], "n_regions": 1, "feature_dim": None}
        path = tmp_path / "h.jsonl"
        path.write_text(json.dumps({**header, **fields}) + "\n")
        return path

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_regions", "abc", "n_regions must be an integer >= 0, got 'abc'"),
            ("n_regions", 8.7, "n_regions must be an integer >= 0, got 8.7"),
            ("n_regions", 8.0, "n_regions must be an integer >= 0, got 8.0"),
            ("n_regions", True, "n_regions must be an integer >= 0, got True"),
            ("n_regions", -1, "n_regions must be an integer >= 0, got -1"),
            ("feature_dim", "x", "feature_dim must be an integer >= 1, got 'x'"),
            ("feature_dim", 0, "feature_dim must be an integer >= 1, got 0"),
            ("feature_dim", 2.5, "feature_dim must be an integer >= 1, got 2.5"),
            ("classes", "abc", "classes must be a list of strings, got 'abc'"),
            ("classes", ["a", 1], "classes must be a list of strings, got ['a', 1]"),
            ("classes", None, "classes must be a list of strings, got None"),
            ("classes", ["a", "b", "a"], "duplicate class names in header"),
        ],
    )
    def test_rejected(self, tmp_path, field, value, message):
        path = self._write(tmp_path, **{field: value})
        with pytest.raises(DataError, match=re.escape(f"h.jsonl:1: {message}")):
            formats.read_dataset(path)

    @pytest.mark.parametrize("n_regions, feature_dim", [(0, None), (3, 1), (29, 512)])
    def test_accepted(self, tmp_path, n_regions, feature_dim):
        path = self._write(tmp_path, classes=["a", "b"], n_regions=n_regions, feature_dim=feature_dim)
        header, records = formats.read_dataset(path)
        assert header == formats.DatasetHeader(("a", "b"), n_regions, feature_dim)
        assert records == []


class TestPredictions:
    def test_roundtrip(self, tmp_path):
        classes = ["a", "b"]
        preds = {
            "img0": [PathologyBox(0, Box(0.1, 0.1, 0.4, 0.4), 0.9)],
            "img1": [PathologyBox(1, Box(0.2, 0.3, 0.5, 0.8), 1 / 3)],
            "img2": [],
        }
        path = tmp_path / "pred.jsonl"
        formats.write_predictions(path, classes, preds)
        classes2, preds2 = formats.read_predictions(path)
        assert classes2 == classes
        assert preds2 == preds

    def test_duplicate_image_rejected(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        lines = [
            '{"kind":"predictions","version":1,"classes":["a"]}',
            '{"image_id":"x","boxes":[]}',
            '{"image_id":"x","boxes":[]}',
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="duplicate"):
            formats.read_predictions(path)

    @pytest.mark.parametrize(
        "classes, message",
        [
            (["finding_1", "finding_0", "finding_1"], "duplicate class names in header"),
            (["a", 2], "classes must be a list of strings"),
            ("ab", "classes must be a list of strings"),
        ],
    )
    def test_bad_header_classes_rejected(self, tmp_path, classes, message):
        path = tmp_path / "pred.jsonl"
        path.write_text(json.dumps({"kind": "predictions", "version": 1, "classes": classes}) + "\n")
        with pytest.raises(DataError, match=re.escape(f"pred.jsonl:1: {message}")):
            formats.read_predictions(path)


class TestFeatureLength:
    def test_header_takes_the_first_length_when_it_declares_none(self, tmp_path):
        path = tmp_path / "d.jsonl"
        header = '{"kind":"dataset","version":1,"classes":["a"],"n_regions":1,"feature_dim":null}'
        region = {"region_id": 0, "box": [0, 0, 1, 1], "features": [0.5, 1.0]}
        path.write_text(header + "\n" + json.dumps({"image_id": "x", "regions": [region]}) + "\n")
        header, _ = formats.read_dataset(path)
        assert header.feature_dim == 2


class TestMapping:
    def test_read(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(
            json.dumps(
                {
                    "infiltration": {"sources": ["infiltration", "lung_opacity"]},
                    "mass": {"sources": ["mass_nodule"], "combiner": "max"},
                }
            )
        )
        mapping = formats.read_mapping(path)
        assert mapping.eval_classes == ["infiltration", "mass"]
        assert mapping.entries[0].combiner == "mean"
        assert mapping.entries[1].combiner == "max"

    def test_bad_combiner(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"x": {"sources": ["a"], "combiner": "median"}}')
        with pytest.raises(ConfigError):
            formats.read_mapping(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text("{}")
        with pytest.raises(DataError):
            formats.read_mapping(path)

    @pytest.mark.parametrize(
        "sources", [5, "finding_0", [], ["a", 1]], ids=["number", "string", "empty", "non-string"]
    )
    def test_sources_must_be_a_list_of_names(self, tmp_path, sources):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"x": {"sources": sources}}))
        with pytest.raises(DataError, match=r"map\.json: entry 'x': sources must be a non-empty list"):
            formats.read_mapping(path)


class TestImageRecord:
    """A record stacks its regions once, in region-id order."""

    def _regions(self, ids, with_features=True):
        return [
            formats.RegionRecord(
                rid,
                Box(0.1 * rid, 0.0, 0.1 * rid + 0.1, 0.5),
                rid / 10.0,
                features=np.full(3, float(rid)) if with_features else None,
                pathology_probs=np.array([rid / 10.0, 1.0 - rid / 10.0]),
            )
            for rid in ids
        ]

    def test_rows_follow_region_id_whatever_the_given_order(self):
        rec = formats.ImageRecord("img", self._regions([2, 0, 1]))
        assert rec.region_ids.tolist() == [0, 1, 2]
        assert rec.boxes.tolist() == [[0.0, 0.0, 0.1, 0.5], [0.1, 0.0, 0.2, 0.5], [0.2, 0.0, 0.30000000000000004, 0.5]]
        assert rec.presence.tolist() == [0.0, 0.1, 0.2]
        assert rec.features[:, 0].tolist() == [0.0, 1.0, 2.0]
        assert rec.pathology_probs.shape == (3, 2)

    def test_repeated_region_id_names_the_image(self):
        with pytest.raises(DataError, match=r"^image 'img': region id 1 appears more than once$"):
            formats.ImageRecord("img", self._regions([1, 0, 1]))

    def test_optional_arrays_need_every_region(self):
        regions = self._regions([0, 1]) + self._regions([2], with_features=False)
        rec = formats.ImageRecord("img", regions)
        assert rec.features is None and rec.pathology_probs.shape == (3, 2)

    def test_no_regions(self):
        rec = formats.ImageRecord("img", [])
        assert rec.region_ids.shape == (0,) and rec.boxes.shape == (0, 4) and rec.presence.shape == (0,)
        assert rec.features is None and rec.pathology_probs is None
        header = formats.DatasetHeader(classes=("a", "b", "c"), n_regions=2)
        assert formats.record_to_detections(rec, header).pathology_probs.shape == (0, 3)

    def test_writer_emits_rows_in_region_id_order(self, tmp_path):
        header = formats.DatasetHeader(classes=("a", "b"), n_regions=3, feature_dim=3)
        shuffled, ordered = tmp_path / "shuffled.jsonl", tmp_path / "ordered.jsonl"
        formats.write_dataset(shuffled, header, [formats.ImageRecord("img", self._regions([2, 0, 1]))])
        formats.write_dataset(ordered, header, [formats.ImageRecord("img", self._regions([0, 1, 2]))])
        assert shuffled.read_bytes() == ordered.read_bytes()
        rows = json.loads(ordered.read_text().splitlines()[1])["regions"]
        assert [row["region_id"] for row in rows] == [0, 1, 2]

    @pytest.mark.parametrize("ids, n_regions", [([0, 2], 3), ([0, 1, 2], 2), ([1, 2], 2)])
    def test_every_region_id_needed_for_the_heads(self, ids, n_regions):
        rec = formats.ImageRecord("img", self._regions(ids))
        with pytest.raises(DataError, match=rf"^image 'img': region ids must be exactly 0\.\.{n_regions - 1}$"):
            rec.head_features(n_regions, "training")

    def test_head_features_are_the_stacked_rows(self):
        rec = formats.ImageRecord("img", self._regions([1, 0]))
        assert rec.head_features(2, "training") is rec.features
        rec = formats.ImageRecord("img", self._regions([1, 0], with_features=False))
        with pytest.raises(ConfigError, match="image 'img': training requires region features"):
            rec.head_features(2, "training")


class TestTrainSampleConversion:
    def test_matrices_built_correctly(self, tmp_path):
        cfg, header, records, _ = _sample_dataset(tmp_path)
        samples = formats.records_to_train_samples(header, records)
        scenes = generate_dataset(cfg)
        for sample, scene in zip(samples, scenes):
            assert np.array_equal(sample.features, scene.features)
            assert np.array_equal(sample.present, scene.present)
            assert np.array_equal(sample.anatomy_labels, scene.anatomy_labels)
            assert np.array_equal(sample.image_labels, scene.image_labels)

    def test_features_required(self, tmp_path):
        _, header, records, _ = _sample_dataset(tmp_path)
        records[0].features = None
        with pytest.raises(ConfigError, match="features"):
            formats.records_to_train_samples(header, records)

    def test_region_id_coverage_enforced(self, tmp_path):
        _, header, records, _ = _sample_dataset(tmp_path)
        records[0].region_ids[0] = 99
        with pytest.raises(DataError, match="region ids"):
            formats.records_to_train_samples(header, records)


class TestGroundTruthConversion:
    def test_from_records(self, tmp_path):
        cfg, header, records, _ = _sample_dataset(tmp_path)
        gt = formats.ground_truth_from_records(records, list(header.classes))
        assert gt.n_classes == cfg.n_classes
        assert set(gt.images) == {r.image_id for r in records}

    def test_unknown_class_named(self, tmp_path):
        _, header, records, _ = _sample_dataset(tmp_path)
        with pytest.raises(DataError, match="evaluation vocabulary"):
            formats.ground_truth_from_records(records, ["not_a_class"])


def _probs_dataset(tmp_path, probs_per_image):
    """A dataset over classes a, b with one region per image storing the given probabilities."""
    path = tmp_path / "probs.jsonl"
    header = '{"kind":"dataset","version":1,"classes":["a","b"],"n_regions":1,"feature_dim":null}'
    records = [
        json.dumps({"image_id": str(i), "regions": [{"region_id": 0, "box": [0, 0, 1, 1], "pathology_probs": probs}]})
        for i, probs in enumerate(probs_per_image)
    ]
    path.write_text("\n".join([header, *records]) + "\n")
    return path


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        params = init_head_params(6, 3, np.random.default_rng(0))
        meta = formats.CheckpointMeta(mode="loc", classes=("a", "b", "c"), seed=7)
        path = tmp_path / "ck.bin"
        formats.save_checkpoint(path, params, meta)
        loaded, meta2 = formats.load_checkpoint(path)
        assert meta2 == meta
        for name in PARAM_FIELDS:
            assert np.array_equal(loaded.to_dict()[name], params.to_dict()[name])

    def test_payload_is_the_flat_vector(self, tmp_path):
        params = init_head_params(6, 3, np.random.default_rng(0))
        path = tmp_path / "ck.bin"
        formats.save_checkpoint(path, params, formats.CheckpointMeta(mode="loc", classes=("a", "b", "c"), seed=0))
        _, manifest, payload = path.read_bytes().split(b"\n", 2)
        assert payload == params.flat.astype("<f8").tobytes()
        assert [spec["name"] for spec in json.loads(manifest)["arrays"]] == list(PARAM_FIELDS)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("classes", ["a", "b"], "manifest declares 2 classes, n_classes 3 and feature_dim 6"),
            ("n_classes", 4, "manifest declares 3 classes, n_classes 4 and feature_dim 6"),
            ("feature_dim", 5, "manifest declares 3 classes, n_classes 3 and feature_dim 5"),
            ("classes", ["a", 1, "c"], "classes must be a list of strings"),
            ("classes", ["a", "a", "c"], "duplicate class names"),
            ("n_classes", "3", "n_classes must be an integer >= 1, got '3'"),
        ],
        ids=["classes", "n_classes", "feature_dim", "class-type", "class-repeated", "n_classes-type"],
    )
    def test_manifest_must_agree_with_the_arrays(self, tmp_path, field, value, message):
        params = init_head_params(6, 3, np.random.default_rng(0))
        path = tmp_path / "ck.bin"
        formats.save_checkpoint(path, params, formats.CheckpointMeta(mode="loc", classes=("a", "b", "c"), seed=0))
        magic, manifest, payload = path.read_bytes().split(b"\n", 2)
        obj = json.loads(manifest)
        obj[field] = value
        path.write_bytes(magic + b"\n" + json.dumps(obj).encode() + b"\n" + payload)
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            formats.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"hello\n")
        with pytest.raises(DataError, match="magic"):
            formats.load_checkpoint(path)

    def test_truncated(self, tmp_path):
        params = init_head_params(4, 2, np.random.default_rng(0))
        meta = formats.CheckpointMeta(mode="loc", classes=("a", "b"), seed=0)
        path = tmp_path / "ck.bin"
        formats.save_checkpoint(path, params, meta)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(DataError, match="truncated"):
            formats.load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda arrays, m: arrays["pathology_bias"].__setitem__(1, math.nan), "'pathology_bias' holds a non-finite"),
            (lambda arrays, m: m["arrays"][3].__setitem__("shape", [-1, -1]), "'presence_bias' has a negative dimension"),
            (lambda arrays, m: m["arrays"][8].__setitem__("shape", [6, 4]), "'box_w3' has shape [6, 4], expected [4, 6]"),
        ],
        ids=["nan", "negative", "shape"],
    )
    def test_bad_array_named(self, tmp_path, edit, message):
        params = init_head_params(6, 3, np.random.default_rng(0))
        arrays = params.to_dict()
        manifest = {
            "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in PARAM_FIELDS],
            "classes": ["a", "b", "c"], "feature_dim": 6, "mode": "loc", "n_classes": 3, "seed": 0,
        }
        edit(arrays, manifest)
        path = tmp_path / "ck.bin"
        path.write_bytes(
            b"proxydet-checkpoint-v1\n" + json.dumps(manifest).encode() + b"\n"
            + b"".join(arrays[n].astype("<f8").tobytes() for n in PARAM_FIELDS)
        )
        with pytest.raises(DataError, match=re.escape(f"{path}: array {message}")):
            formats.load_checkpoint(path)

    def test_deterministic_bytes(self, tmp_path):
        params = init_head_params(4, 2, np.random.default_rng(1))
        meta = formats.CheckpointMeta(mode="mil", classes=("a", "b"), seed=1)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        formats.save_checkpoint(p1, params, meta)
        formats.save_checkpoint(p2, params, meta)
        assert p1.read_bytes() == p2.read_bytes()


class TestReports:
    def _report(self, tmp_path):
        from proxydet.evaluation import GroundTruth, GtImage

        b = Box(0.2, 0.2, 0.6, 0.6)
        gt = GroundTruth(
            images={"a": GtImage(boxes={0: b}, labels=frozenset({0}))}, n_classes=2
        )
        preds = {"a": [PathologyBox(0, b, 0.9)]}
        return evaluate(preds, gt, EvalConfig(), class_names=["x", "y"])

    def test_json_deterministic_and_sorted(self, tmp_path):
        report = self._report(tmp_path)
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        formats.write_report_json(p1, report)
        formats.write_report_json(p2, report)
        assert p1.read_bytes() == p2.read_bytes()
        obj = json.loads(p1.read_text())
        assert obj["overall"]["map"] == 1.0
        assert obj["classes"]["y"]["map"] is None

    def test_csv_layout(self, tmp_path):
        report = self._report(tmp_path)
        path = tmp_path / "r.csv"
        formats.write_report_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("class,ap@0.10")
        assert lines[1].startswith("x,")
        assert lines[2].startswith("y,")
        assert lines[3].startswith("overall,")
        # undefined AP cells are empty
        assert ",," in lines[2]

    def test_history_csv(self, tmp_path):
        from proxydet.head import LossBreakdown

        rows = [(0, LossBreakdown(1.5, 1.0, 0.5, 0.25, 0.25, 0.1, 0.0))]
        path = tmp_path / "h.csv"
        formats.write_history_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,total,detection,presence_bce,l1,giou_penalty,loc_asl,mil_asl"
        assert lines[1] == "0,1.5,1,0.5,0.25,0.25,0.10000000000000001,0"

import json
import math
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from helpers import read_dataset_ref
from proxydet import formats
from proxydet.errors import ConfigError, DataError
from proxydet.evaluation import EvalConfig, evaluate
from proxydet.geometry import Box
from proxydet.head import PARAM_FIELDS, _param_layout, init_head_params
from proxydet.inference import PathologyBox
from proxydet.synth import SynthConfig, generate_dataset


# zero's sign, the smallest subnormal and normal, the largest double, large and
# small powers of ten, and integral values, which must read back as floats
EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-7, 3.0, -2.0, 0.0]


class TestCanonicalJson:
    def test_sorted_keys(self):
        assert formats.canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_float_precision(self):
        assert formats.canonical_json(0.1) == "0.1"
        assert formats.canonical_json(0.5) == "0.5"
        assert formats.canonical_json(1.0) == "1.0"
        assert formats.canonical_json(-0.0) == "-0.0"
        assert float(formats.canonical_json(1 / 3)) == 1 / 3

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            formats.canonical_json(float("nan"))

    def test_roundtrip_lossless(self):
        rng = np.random.default_rng(0)
        for v in rng.uniform(-1, 1, size=100):
            assert json.loads(formats.canonical_json(float(v))) == v

    def test_edge_values_roundtrip_bit_for_bit(self):
        back = json.loads(formats.canonical_json(EDGE_FLOATS))
        assert [v.hex() for v in back] == [v.hex() for v in EDGE_FLOATS]



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
            assert np.array_equal(a.anatomy_labels, b.anatomy_labels)
        again = tmp_path / "again.jsonl"
        formats.write_dataset(again, header2, records2)
        assert again.read_bytes() == path.read_bytes()

    def test_unlisted_regions_read_as_rows_of_zeros(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        header = {"kind": "dataset", "version": 1, "classes": ["a", "b", "c"], "n_regions": 3}
        record = {"image_id": "img", "regions": [], "anatomy_labels": {"1": ["c", "a"]}}
        path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        _, (rec,) = formats.read_dataset(path)
        assert rec.anatomy_labels.tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        formats.write_dataset(path, formats.DatasetHeader(("a", "b", "c"), 3), [rec])
        assert json.loads(path.read_text().splitlines()[1])["anatomy_labels"] == {"0": [], "1": ["a", "c"], "2": []}

    def test_edge_values_roundtrip_bit_for_bit(self, tmp_path):
        header = formats.DatasetHeader(classes=("a",), n_regions=1, feature_dim=len(EDGE_FLOATS))
        region = formats.RegionRecord(0, Box(0.0, 0.0, 1.0, 1.0), -0.0, np.array(EDGE_FLOATS))
        path = tmp_path / "edge.jsonl"
        formats.write_dataset(path, header, [formats.ImageRecord("img", [region])])
        _, (record,) = formats.read_dataset(path)
        assert [v.hex() for v in record.features[0].tolist()] == [v.hex() for v in EDGE_FLOATS]
        assert record.presence[0].hex() == (-0.0).hex()

    def test_golden_bytes(self, tmp_path):
        header = formats.DatasetHeader(classes=("a", "b"), n_regions=2, feature_dim=3)
        regions = [
            formats.RegionRecord(1, Box(0.5, 0.25, 1.0, 0.75), 0.0, np.array([-0.0, 1e16, 1e-7])),
            formats.RegionRecord(0, Box(0.1, 0.2, 0.1 + 0.2, 0.7), 1.0, np.array([1 / 3, 2.0, 5e-324])),
        ]
        gt = formats.GtRecord(boxes=[("b", Box(0.1, 0.2, 0.3, 0.4))], image_labels=["b"])
        record = formats.ImageRecord("img", regions, gt=gt, anatomy_labels=np.array([[0.0, 1.0], [0.0, 0.0]]))
        path = tmp_path / "d.jsonl"
        formats.write_dataset(path, header, [record])
        assert path.read_text().splitlines() == [
            '{"classes":["a","b"],"feature_dim":3,"kind":"dataset","n_regions":2,"version":1}',
            '{"anatomy_labels":{"0":["b"],"1":[]},'
            '"gt":{"boxes":[{"box":[0.1,0.2,0.3,0.4],"class":"b"}],"image_labels":["b"]},"image_id":"img",'
            '"regions":[{"box":[0.1,0.2,0.30000000000000004,0.7],"features":[0.3333333333333333,2.0,5e-324],'
            '"presence":1.0,"region_id":0},'
            '{"box":[0.5,0.25,1.0,0.75],"features":[-0.0,1e+16,1e-07],"presence":0.0,"region_id":1}]}',
        ]

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
            # one region, one class: a one-element array would broadcast into the (1, 1) block
            ({"a": [0.5]}, "probability for 'a' must be a number, got [0.5]"),
        ],
        ids=["list", "unknown", "string", "above-one", "nan", "nested-value"],
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

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "p.jsonl"
        formats.write_predictions(path, ["a", "b"], {"img": [PathologyBox(1, Box(0.1, 0.2, 0.3, 1.0), 1 / 3)]})
        assert path.read_text().splitlines() == [
            '{"classes":["a","b"],"kind":"predictions","version":1}',
            '{"boxes":[{"box":[0.1,0.2,0.3,1.0],"class":"b","score":0.3333333333333333}],"image_id":"img"}',
        ]

    @pytest.mark.parametrize("class_id", [-1, 2, 7, 0.5])
    def test_class_id_outside_the_classes_rejected_before_writing(self, tmp_path, class_id):
        # -1 would be written as the last class; 2 and up, or 0.5, used to fail after a partial write
        path = tmp_path / "pred.jsonl"
        preds = {
            "img0": [PathologyBox(0, Box(0.1, 0.1, 0.4, 0.4), 0.9)],
            "img1": [PathologyBox(class_id, Box(0, 0, 1, 1), 0.5)],
        }
        message = f"image 'img1': prediction class id {class_id} is not in 0..1"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            formats.write_predictions(path, ["a", "b"], preds)
        assert not path.exists()

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

    @pytest.mark.parametrize(
        "declared, message",
        [(2, "3: regions[1]: features length 3 != 2 (header feature_dim)"),
         (None, "3: regions[1]: features length 3 != 2 (first length in the file, line 2)")],
        ids=["header", "first-record"],
    )
    def test_a_whole_record_of_another_length_rejected(self, tmp_path, declared, message):
        # every region of the second record agrees with the others, but not with the file's length
        path = tmp_path / "d.jsonl"
        header = {"kind": "dataset", "version": 1, "classes": ["a"], "n_regions": 2, "feature_dim": declared}
        regions = [{"region_id": 0, "box": [0, 0, 1, 1]}, {"region_id": 1, "box": [0, 0, 1, 1]}]
        first = {"image_id": "x", "regions": [{**regions[0], "features": [0.5, 1.0]}]}
        second = {"image_id": "y", "regions": [regions[0], {**regions[1], "features": [0.5, 1.0, 2.0]}]}
        path.write_text("\n".join(json.dumps(obj) for obj in (header, first, second)) + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}:{message}')}$"):
            formats.read_dataset(path)


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
        for sample, scene, record in zip(samples, scenes, records):
            assert sample.anatomy_labels is record.anatomy_labels
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

    def test_unknown_image_label_named(self, tmp_path):
        # a code-built label outside the header used to end in a KeyError
        _, header, records, _ = _sample_dataset(tmp_path)
        records[2].gt.image_labels.append("zz")
        message = f"image '{records[2].image_id}': ground-truth class 'zz' is not a header class"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            formats.records_to_train_samples(header, records)

    @pytest.mark.parametrize("past_end", [False, True])
    def test_anatomy_key_outside_regions_rejected(self, tmp_path, past_end):
        # a code-built matrix with a row past the last region id, or too few rows
        _, header, records, _ = _sample_dataset(tmp_path)
        shape = (header.n_regions + (1 if past_end else -1), len(header.classes))
        records[1].anatomy_labels = np.zeros(shape)
        expected = (header.n_regions, len(header.classes))
        message = f"image '{records[1].image_id}': anatomy_labels has shape {shape}, expected {expected}"
        with pytest.raises(DataError, match=re.escape(message)):
            formats.records_to_train_samples(header, records)


class TestGroundTruthConversion:
    def test_from_records(self, tmp_path):
        cfg, header, records, _ = _sample_dataset(tmp_path)
        gt = formats.ground_truth_from_records(records, list(header.classes))
        assert gt.n_classes == cfg.n_classes
        assert gt.image_ids == tuple(r.image_id for r in records)

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

    def test_payload_size_checked_before_reading(self, tmp_path):
        # a manifest that agrees with itself but asks for about 16 EB: rejected, nothing allocated
        params = init_head_params(4, 2, np.random.default_rng(0))
        path = tmp_path / "ck.bin"
        formats.save_checkpoint(path, params, formats.CheckpointMeta(mode="loc", classes=("a", "b"), seed=0))
        magic, manifest, payload = path.read_bytes().split(b"\n", 2)
        obj = json.loads(manifest)
        obj["feature_dim"] = 10**9
        obj["arrays"] = [{"name": n, "shape": list(s)} for n, s, _, _ in _param_layout(10**9, 2)]
        path.write_bytes(magic + b"\n" + json.dumps(obj).encode() + b"\n" + payload)
        with pytest.raises(DataError, match=re.escape(f"{path}: truncated checkpoint")):
            formats.load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        params = init_head_params(4, 2, np.random.default_rng(0))
        path = tmp_path / "ck.bin"
        formats.save_checkpoint(path, params, formats.CheckpointMeta(mode="loc", classes=("a", "b"), seed=0))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(DataError, match=re.escape(f"{path}: trailing bytes after checkpoint payload")):
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
        from proxydet.evaluation import GroundTruth

        b = Box(0.2, 0.2, 0.6, 0.6)
        gt = GroundTruth(images={"a": {0: b}}, n_classes=2)
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

    def test_json_golden_bytes(self, tmp_path):
        path = tmp_path / "r.json"
        formats.write_report_json(path, self._report(tmp_path))
        assert path.read_text() == (
            '{"classes":{"x":{"ap":{"0.10":1.0,"0.20":1.0,"0.30":1.0,"0.40":1.0,"0.50":1.0,"0.60":1.0,"0.70":1.0},'
            '"loc_acc":{"0.10":1.0,"0.30":1.0,"0.50":1.0},"map":1.0},'
            '"y":{"ap":{"0.10":null,"0.20":null,"0.30":null,"0.40":null,"0.50":null,"0.60":null,"0.70":null},'
            '"loc_acc":{"0.10":1.0,"0.30":1.0,"0.50":1.0},"map":null}},'
            '"counts":{"gt_boxes":1,"images":1,"predictions":1},'
            '"overall":{"loc_acc":{"0.10":1.0,"0.30":1.0,"0.50":1.0},"map":1.0}}\n'
        )

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

        rows = [
            (0, LossBreakdown(1.5, 1.0, 0.5, 0.25, 0.25, 0.1, 0.0)),
            (7, LossBreakdown(2 / 3, 1e-7, -0.0, 1e16, 0.25, 5e-324, 3.0)),
        ]
        path = tmp_path / "h.csv"
        formats.write_history_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,total,detection,presence_bce,l1,giou_penalty,loc_asl,mil_asl"
        assert lines[1] == "0,1.5,1.0,0.5,0.25,0.25,0.1,0.0"
        assert lines[2] == "7,0.6666666666666666,1e-07,-0.0,1e+16,0.25,5e-324,3.0"


class TestWriterAnatomyShape:
    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (3, 1)])
    def test_wrong_shape_rejected_before_writing(self, tmp_path, shape):
        # rows are region ids and columns header classes: any other shape would be written as wrong labels
        header = formats.DatasetHeader(classes=("a", "b"), n_regions=3)
        good = formats.ImageRecord("good", [], anatomy_labels=np.zeros((3, 2)))
        bad = formats.ImageRecord("bad", [], anatomy_labels=np.ones(shape))
        path = tmp_path / "d.jsonl"
        message = f"image 'bad': anatomy_labels has shape {shape}, expected (3, 2)"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            formats.write_dataset(path, header, [good, bad])
        assert not path.exists()


def _one_record(dim=2, **arrays) -> formats.ImageRecord:
    """Three regions under two classes that read back as written, with ``arrays`` replacing their own."""
    fields = {
        "region_ids": np.arange(3),
        "boxes": np.tile([0.1, 0.2, 0.6, 0.7], (3, 1)),
        "presence": np.ones(3),
        "features": np.zeros((3, dim)),
        "pathology_probs": np.full((3, 2), 0.5),
        **arrays,
    }
    return formats.ImageRecord.from_arrays("bad", **fields)


class TestWriterRefusesWhatTheReaderRejects:
    """``write_dataset`` checks every record before it opens the file, with the reader's rules."""

    HEADER = formats.DatasetHeader(classes=("a", "b"), n_regions=3, feature_dim=2)
    GT = formats.GtRecord(boxes=[("a", Box(0.1, 0.1, 0.5, 0.5))], image_labels=["a"])

    BOXES = "boxes must be (3, 4) corners, 0 <= x1 <= x2 <= 1 and 0 <= y1 <= y2 <= 1"
    NOT_FINITE = "features must be finite (NaN or Infinity found)"

    @pytest.mark.parametrize(
        "arrays, message",
        [
            ({"pathology_probs": np.full((3, 3), 0.5)}, "pathology_probs must be (3, 2) values in [0, 1], got (3, 3)"),
            ({"pathology_probs": np.full((3, 1), 0.5)}, "pathology_probs must be (3, 2) values in [0, 1], got (3, 1)"),
            ({"pathology_probs": np.full((3, 2), 1.5)}, "pathology_probs must be (3, 2) values in [0, 1], got (3, 2)"),
            ({"features": np.array([[0.0, 1.0], [np.nan, 0.0], [0.0, 0.0]])}, NOT_FINITE),
            ({"features": np.full((3, 2), np.inf)}, NOT_FINITE),
            ({"region_ids": np.array([0, 1, 3])}, "region id 3 outside 0..2"),
            ({"region_ids": np.array([-1, 0, 1])}, "region id -1 outside 0..2"),
            ({"features": np.zeros((3, 3))}, "features length 3 != 2"),
            ({"boxes": np.tile([0.6, 0.2, 0.1, 0.7], (3, 1))}, BOXES),
            ({"boxes": np.full((3, 4), np.nan)}, BOXES),
            ({"presence": np.array([0.5, 1.5, 1.0])}, "presence must be 3 values in [0, 1]"),
        ],
        ids=[
            "probs-wide", "probs-narrow", "probs-range", "feature-nan", "feature-inf", "region-id-past-end",
            "region-id-negative", "feature-length", "box-inverted", "box-nan", "presence",
        ],
    )
    def test_region_arrays(self, tmp_path, arrays, message):
        self._refused(tmp_path, _one_record(**arrays), message)

    @pytest.mark.parametrize(
        "boxes, labels, message",
        [
            ([("zz", Box(0.1, 0.1, 0.5, 0.5))], ["a"], "ground-truth class 'zz' is not a header class"),
            ([], ["a", "zz"], "ground-truth class 'zz' is not a header class"),
            ([("a", Box(0, 0, 1, 1)), ("a", Box(0, 0, 0.5, 0.5))], ["a"], "more than one ground-truth box for a class"),
            ([("b", Box(0, 0, 1, 1))], ["a"], "image_labels must include every class with a ground-truth box"),
        ],
        ids=["gt-class", "gt-label", "gt-repeated-class", "gt-labels-miss-a-box"],
    )
    def test_ground_truth(self, tmp_path, boxes, labels, message):
        record = _one_record()
        record.gt = formats.GtRecord(boxes=boxes, image_labels=labels)
        self._refused(tmp_path, record, message)

    def test_repeated_image_id(self, tmp_path):
        path = tmp_path / "d.jsonl"
        with pytest.raises(DataError, match="^image 'bad' appears more than once$"):
            formats.write_dataset(path, self.HEADER, [_one_record(), _one_record()])
        assert not path.exists()

    def test_first_length_binds_when_the_header_declares_none(self, tmp_path):
        path = tmp_path / "d.jsonl"
        first = _one_record(dim=3)
        first.image_id = "first"
        header = formats.DatasetHeader(classes=("a", "b"), n_regions=3)
        with pytest.raises(DataError, match=r"^image 'bad': features length 2 != 3$"):
            formats.write_dataset(path, header, [first, _one_record()])
        assert not path.exists()

    def _refused(self, tmp_path, record, message):
        path = tmp_path / "d.jsonl"
        good = _one_record()
        good.image_id, good.gt = "good", self.GT
        with pytest.raises(DataError, match=f"^{re.escape(f'image {record.image_id!r}: {message}')}$"):
            formats.write_dataset(path, self.HEADER, [good, record])
        assert not path.exists()


_FAULTS = [None, "region_id", "box", "presence", "feature_nan", "feature_length", "probs_width", "probs_range",
           "gt_class", "gt_label", "gt_repeat", "gt_cover", "anatomy_shape", "repeat_id"]


@st.composite
def _code_built_records(draw):
    """A header and records built in code, with at most one fault of ``_FAULTS`` in one record."""
    classes = tuple(draw(st.permutations(["a", "b", "c"]))[: draw(st.integers(1, 3))])
    n_regions, dim, c = draw(st.integers(1, 4)), draw(st.integers(1, 3)), len(classes)
    header = formats.DatasetHeader(classes, n_regions, dim if draw(st.booleans()) else None)
    with_features, with_probs = draw(st.booleans()), draw(st.booleans())
    unit = st.floats(0.0, 1.0)
    records = []
    for image in range(draw(st.integers(1, 3))):
        ids = draw(st.permutations(range(n_regions)))[: draw(st.integers(0, n_regions))]
        ids, n = np.array(ids, dtype=np.int64), len(ids)
        # rows (x1, y1) and (x2, y2), each column sorted: x1 <= x2 and y1 <= y2
        corners = np.sort(np.array(draw(st.lists(unit, min_size=4 * n, max_size=4 * n))).reshape(n, 2, 2), axis=1)
        boxes = corners.reshape(n, 4)
        presence = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
        features = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n * dim, max_size=n * dim)))
        features = features.reshape(n, dim)
        probs = np.array(draw(st.lists(unit, min_size=n * c, max_size=n * c))).reshape(n, c)
        gt = None
        if draw(st.booleans()):
            boxed = draw(st.permutations(classes))[: draw(st.integers(0, c))]
            labels = sorted(set(boxed) | set(draw(st.lists(st.sampled_from(classes), max_size=c))))
            gt = formats.GtRecord([(name, Box(0.1, 0.2, 0.3, 0.4)) for name in boxed], labels)
        anatomy = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n_regions * c, max_size=n_regions * c))
        records.append(
            formats.ImageRecord.from_arrays(
                f"img{image}", ids, boxes, presence, features if with_features else None,
                probs if with_probs else None, gt,
                np.array(anatomy).reshape(n_regions, c) if draw(st.booleans()) else None,
            )
        )
    fault = draw(st.sampled_from(_FAULTS))
    rec = draw(st.sampled_from(records))
    n = len(rec.region_ids)
    if fault == "region_id" and n:
        rec.region_ids[-1] = n_regions + draw(st.integers(0, 2))
    elif fault == "box" and n:
        rec.boxes[0, draw(st.integers(0, 3))] = draw(st.sampled_from([np.nan, 1.5, -0.5]))
    elif fault == "presence" and n:
        rec.presence[0] = draw(st.sampled_from([np.nan, 1.5, -0.5]))
    elif fault == "feature_nan" and rec.features is not None:
        rec.features[0, 0] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif fault == "feature_length" and rec.features is not None:
        rec.features = np.zeros((n, dim + 1))
    elif fault == "probs_width" and rec.pathology_probs is not None:
        rec.pathology_probs = np.zeros((n, c + draw(st.sampled_from([-1, 1]))))
    elif fault == "probs_range" and rec.pathology_probs is not None:
        rec.pathology_probs[0, 0] = draw(st.sampled_from([np.nan, 1.5, -0.5]))
    elif fault == "gt_class" and rec.gt is not None:
        rec.gt.boxes.append(("zz", Box(0, 0, 1, 1)))
    elif fault == "gt_label" and rec.gt is not None:
        rec.gt.image_labels.append("zz")
    elif fault == "gt_repeat" and rec.gt is not None and rec.gt.boxes:
        rec.gt.boxes.append(rec.gt.boxes[0])
    elif fault == "gt_cover" and rec.gt is not None and rec.gt.boxes:
        rec.gt.image_labels.remove(rec.gt.boxes[0][0])
    elif fault == "anatomy_shape":
        rec.anatomy_labels = np.zeros((n_regions + 1, c))
    elif fault == "repeat_id" and len(records) > 1:
        rec.image_id = records[0].image_id if rec is not records[0] else records[1].image_id
    return header, records


class TestCodeBuiltRecordsRoundTrip:
    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_code_built_records())
    def test_accepted_reads_back_equal_and_rejected_writes_nothing(self, tmp_path, data):
        header, records = data
        path = tmp_path / "d.jsonl"
        path.unlink(missing_ok=True)
        try:
            formats.write_dataset(path, header, records)
        except DataError:
            assert not path.exists()
            return
        header2, records2 = formats.read_dataset(path)
        lengths = [r.features.shape[1] for r in records if r.features is not None]
        dim = header.feature_dim if header.feature_dim is not None else (lengths or [None])[0]
        assert header2 == formats.DatasetHeader(header.classes, header.n_regions, dim)
        assert len(records2) == len(records)
        for a, b in zip(records, records2):
            assert a.image_id == b.image_id
            for name in ("region_ids", "boxes", "presence", "features", "pathology_probs", "anatomy_labels"):
                x, y = getattr(a, name), getattr(b, name)
                assert (x is None and y is None) or (x.shape == y.shape and np.array_equal(x, y)), name
            assert (a.gt is None and b.gt is None) or (a.gt.boxes, a.gt.image_labels) == (b.gt.boxes, b.gt.image_labels)


class TestWriterAnatomyValues:
    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0, np.nan])
    def test_values_other_than_0_and_1_rejected_before_writing(self, tmp_path, value):
        # the file lists class names per region, so 0.5 or 2 would read back as 1 and NaN as 0
        header = formats.DatasetHeader(classes=("a", "b"), n_regions=2)
        anatomy = np.array([[1.0, 0.0], [0.0, value]])
        path = tmp_path / "d.jsonl"
        with pytest.raises(DataError, match=r"^image 'bad': anatomy_labels must hold only 0 and 1$"):
            formats.write_dataset(path, header, [formats.ImageRecord("bad", [], anatomy_labels=anatomy)])
        assert not path.exists()


class TestReaderBuildsNoObjects:
    """The dataset reader makes each record's arrays directly: no RegionRecord, and no Box per region."""

    @staticmethod
    def _forbid(monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"read_dataset built a {name}")

        monkeypatch.setattr(formats, name, refuse)

    def test_stored_probabilities(self, tmp_path, monkeypatch):
        path = _probs_dataset(tmp_path, [{"b": 0.25}, {"a": 0.5, "b": 1.0}, {}])
        self._forbid(monkeypatch, "RegionRecord")
        self._forbid(monkeypatch, "Box")
        _, records = formats.read_dataset(path)
        assert [r.pathology_probs.tolist() for r in records] == [[[0.0, 0.25]], [[0.5, 1.0]], [[0.0, 0.0]]]

    def test_synth_file(self, tmp_path, monkeypatch):
        # ground-truth boxes stay Box objects in GtRecord: one Box per ground-truth box, none per region
        _, _, written, path = _sample_dataset(tmp_path)
        built = []
        real_box = formats.Box
        monkeypatch.setattr(formats, "Box", lambda *corners: built.append(corners) or real_box(*corners))
        self._forbid(monkeypatch, "RegionRecord")
        _, records = formats.read_dataset(path)
        assert len(built) == sum(len(r.gt.boxes) for r in written) > 0
        assert sum(len(r.region_ids) for r in records) > len(built)


# values that are right in some places and wrong in others
_ODD_VALUES = st.sampled_from(
    [None, "x", "0.25", " 1 ", "nan", True, False, math.nan, math.inf, -1e-300, -0.5, 0, 1, 2, 1.5,
     10**400, [0.5], [], {}, {"a": 0.5}, "12", "ab"]
)
_PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0, 0, 1, -0.0, 0.5]), st.floats(0.0, 1.0))


@st.composite
def _dataset_lines(draw):
    """A valid dataset file as JSON objects: shuffled region ids, optional fields, any key order."""
    classes = draw(st.permutations(["a", "b", "c", "d"]))[: draw(st.integers(1, 4))]
    n_regions = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 3))
    header = {"kind": "dataset", "version": 1, "classes": classes, "n_regions": n_regions}
    if draw(st.booleans()):
        header["feature_dim"] = dim
    records = []
    for image in range(draw(st.integers(1, 4))):
        ids = draw(st.permutations(range(n_regions)))[: draw(st.integers(0, n_regions))]
        regions = []
        for rid in ids:
            x1, x2 = sorted(draw(st.lists(_PROBABILITY, min_size=2, max_size=2)))
            y1, y2 = sorted(draw(st.lists(_PROBABILITY, min_size=2, max_size=2)))
            region = {"box": [x1, y1, x2, y2], "region_id": rid}
            if draw(st.booleans()):
                region["presence"] = draw(_PROBABILITY)
            if draw(st.integers(0, 3)):
                region["features"] = draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim))
            if draw(st.integers(0, 3)):
                names = draw(st.permutations(classes))[: draw(st.integers(0, len(classes)))]
                region["pathology_probs"] = {name: draw(_PROBABILITY) for name in names}
            regions.append(region)
        records.append({"image_id": f"img{image}", "regions": regions})
    return [header, *records]


def _mutate(draw, lines):
    """Change one value of one region: the reference reader decides whether that is a fault."""
    regions = draw(st.sampled_from([r["regions"] for r in lines[1:] if r["regions"]]))
    i = draw(st.integers(0, len(regions) - 1))
    region, value = regions[i], draw(_ODD_VALUES)
    kind = draw(st.sampled_from(["region", "region_id", "presence", "features", "probs", "box", "drop"]))
    if kind == "region":
        regions[i] = value
    elif kind == "drop":
        region.pop(draw(st.sampled_from(sorted(region))))
    elif kind in ("region_id", "presence"):
        region[kind] = value
    elif kind == "features" and isinstance(region.get("features"), list) and region["features"]:
        j = draw(st.integers(0, len(region["features"])))
        if j == len(region["features"]):
            region["features"].append(0.5)  # one value too many
        else:
            region["features"][j] = value
    elif kind == "probs" and region.get("pathology_probs"):
        region["pathology_probs"][draw(st.sampled_from(sorted(region["pathology_probs"]) + ["zz"]))] = value
    elif kind == "box":
        j = draw(st.integers(0, 4))
        if j == 4:
            region["box"] = value
        else:
            region["box"][j] = value
    else:
        region[{"features": "features", "probs": "pathology_probs"}[kind]] = value


class TestColumnarReaderMatchesReference:
    """The columnar reader gives the region-by-region reference's arrays and its error texts."""

    @staticmethod
    def _outcome(reader, path):
        try:
            return reader(path)
        except DataError as exc:
            return str(exc)

    def _check(self, path, lines):
        path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")
        expected, got = self._outcome(read_dataset_ref, path), self._outcome(formats.read_dataset, path)
        if isinstance(expected, str):
            assert got == expected
            return
        assert got[0] == expected[0]
        assert len(got[1]) == len(expected[1])
        for a, b in zip(got[1], expected[1]):
            assert a.image_id == b.image_id
            for name in ("region_ids", "boxes", "presence", "features", "pathology_probs"):
                x, y = getattr(a, name), getattr(b, name)
                assert (x is None and y is None) or (np.array_equal(x, y) and x.dtype == y.dtype and x.shape == y.shape)

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=_dataset_lines())
    def test_valid_files(self, tmp_path, lines):
        self._check(tmp_path / "d.jsonl", lines)

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_value_changed(self, tmp_path, data):
        lines = data.draw(_dataset_lines().filter(lambda lines: any(r["regions"] for r in lines[1:])))
        _mutate(data.draw, lines)
        self._check(tmp_path / "d.jsonl", lines)

import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import THRESHOLDS, any_box, score
from helpers import detect_pathologies_ref, iou_ref, map_probs_ref, random_box

from proxydet import inference
from proxydet.errors import ConfigError
from proxydet.fusion import FusionConfig
from proxydet.geometry import Box
from proxydet.inference import (
    ClassMapping,
    InferenceConfig,
    InferenceDiagnostics,
    MappingEntry,
    RegionDetections,
    apply_class_mapping,
    detect_pathologies,
)

TRAIN_CLASSES = ["infiltration", "lung_opacity", "enlarged_cardiac_silhouette"]


def _det(boxes, presence, probs):
    """One image's detections: row ``i`` is ``boxes[i]``, ``presence[i]`` and ``probs[i]``."""
    corners = np.array([b.as_tuple() for b in boxes]).reshape(len(boxes), 4)
    return RegionDetections(corners, presence, probs)


class TestClassMapping:
    def test_mean_combiner(self):
        mapping = ClassMapping(
            (MappingEntry("infiltration", ("infiltration", "lung_opacity"), "mean"),)
        ).resolve(TRAIN_CLASSES)
        det = _det([Box(0.1, 0.1, 0.4, 0.4)], [0.9], [[0.2, 0.6, 0.3]])
        out = apply_class_mapping(det, mapping)
        assert out.pathology_probs[0, 0] == pytest.approx(0.4, abs=1e-15)

    def test_singleton_identity(self):
        mapping = ClassMapping(
            (MappingEntry("cardiomegaly", ("enlarged_cardiac_silhouette",)),)
        ).resolve(TRAIN_CLASSES)
        det = _det([Box(0.1, 0.1, 0.4, 0.4)], [0.9], [[0.2, 0.6, 0.37]])
        out = apply_class_mapping(det, mapping)
        assert out.pathology_probs.tolist() == [[0.37]]

    def test_max_combiner(self):
        mapping = ClassMapping(
            (MappingEntry("infiltration", ("infiltration", "lung_opacity"), "max"),)
        ).resolve(TRAIN_CLASSES)
        det = _det([Box(0.1, 0.1, 0.4, 0.4)], [0.9], [[0.2, 0.6, 0.3]])
        out = apply_class_mapping(det, mapping)
        assert out.pathology_probs[0, 0] == 0.6

    def test_box_and_presence_untouched(self):
        mapping = ClassMapping(tuple(MappingEntry(c, (c,)) for c in TRAIN_CLASSES)).resolve(TRAIN_CLASSES)
        det = _det(
            [Box(0.1, 0.2, 0.4, 0.5), Box(0.3, 0.3, 0.9, 0.8)],
            [0.77, 0.2],
            [[0.2, 0.6, 0.3], [0.9, 0.0, 1.0]],
        )
        out = apply_class_mapping(det, mapping)
        assert np.array_equal(out.boxes, det.boxes)
        assert np.array_equal(out.presence, det.presence)
        assert np.array_equal(out.pathology_probs, det.pathology_probs)

    def test_batch_maps_in_one_call_as_each_image(self):
        mapping = ClassMapping(
            (MappingEntry("a", ("infiltration", "lung_opacity")), MappingEntry("b", TRAIN_CLASSES, "max"))
        ).resolve(TRAIN_CLASSES)
        rng = np.random.default_rng(5)
        images = [_random_image(rng, n_regions=n, n_classes=3) for n in (4, 0, 7)]
        batch = RegionDetections.concat(images, 3)
        out = apply_class_mapping(batch, mapping)
        assert out.offsets is batch.offsets and out.boxes is batch.boxes and out.presence is batch.presence
        want = np.concatenate([apply_class_mapping(image, mapping).pathology_probs for image in images])
        assert out.pathology_probs.tolist() == want.tolist()
        assert batch.pathology_probs.shape == (11, 3)

    def test_unknown_source_class_rejected(self):
        mapping = ClassMapping((MappingEntry("effusion", ("pleural_effusion",)),))
        with pytest.raises(ConfigError, match="pleural_effusion"):
            mapping.resolve(TRAIN_CLASSES)

    def test_empty_sources_rejected(self):
        with pytest.raises(ConfigError):
            MappingEntry("effusion", ())

    def test_bad_combiner_rejected(self):
        with pytest.raises(ConfigError):
            MappingEntry("effusion", ("infiltration",), "median")


class TestDetectPathologies:
    def test_single_region_single_class(self):
        box = Box(0.1, 0.1, 0.5, 0.5)
        (out,) = detect_pathologies(_det([box], [1.0], [[0.9]]))[0]
        assert out.class_id == 0
        assert out.box == box
        assert out.score == 0.9

    def test_two_overlapping_regions_fuse(self):
        b1 = Box(0.1, 0.1, 0.5, 0.5)
        b2 = Box(0.2, 0.1, 0.6, 0.5)
        assert iou_ref(b1, b2) > 0.03
        (out,) = detect_pathologies(_det([b1, b2], [1.0, 1.0], [[0.8], [0.4]]))[0]
        assert out.score == pytest.approx(0.6, abs=1e-15)
        assert out.box.x1 == pytest.approx((0.8 * 0.1 + 0.4 * 0.2) / 1.2, abs=1e-15)

    def test_disjoint_regions_top1_keeps_best(self):
        b1 = Box(0.0, 0.0, 0.3, 0.3)
        b2 = Box(0.6, 0.6, 0.9, 0.9)
        (out,) = detect_pathologies(_det([b1, b2], [1.0, 1.0], [[0.4], [0.8]]))[0]
        assert out.box == b2
        assert out.score == 0.8

    def test_no_top1_keeps_all_clusters(self):
        b1 = Box(0.0, 0.0, 0.3, 0.3)
        b2 = Box(0.6, 0.6, 0.9, 0.9)
        dets = _det([b1, b2], [1.0, 1.0], [[0.4], [0.8]])
        out = detect_pathologies(dets, InferenceConfig(top1_per_class=False))[0]
        assert len(out) == 2

    def test_region_shares_box_across_classes(self):
        out = detect_pathologies(_det([Box(0.1, 0.1, 0.5, 0.5)], [1.0], [[0.9, 0.7]]))[0]
        assert len(out) == 2
        assert out[0].box == out[1].box
        assert {b.class_id for b in out} == {0, 1}
        assert [b.score for b in out] == [0.9, 0.7]

    def test_presence_threshold_filters(self):
        diagnostics = InferenceDiagnostics()
        dets = _det([Box(0.1, 0.1, 0.5, 0.5), Box(0.6, 0.6, 0.9, 0.9)], [0.4, 0.6], [[0.9], [0.8]])
        out = detect_pathologies(dets, InferenceConfig(), diagnostics)[0]
        assert len(out) == 1 and out[0].score == 0.8
        assert diagnostics.absent_regions == 1

    def test_degenerate_boxes_skipped_with_count(self):
        diagnostics = InferenceDiagnostics()
        dets = _det([Box(0.5, 0.5, 0.5, 0.5), Box(0.1, 0.1, 0.4, 0.4)], [1.0, 1.0], [[0.9], [0.8]])
        out = detect_pathologies(dets, InferenceConfig(), diagnostics)[0]
        assert diagnostics.degenerate_boxes == 1
        assert len(out) == 1 and out[0].score == 0.8

    def test_probability_strictly_above_tau(self):
        det = _det([Box(0.1, 0.1, 0.5, 0.5)], [1.0], [[0.7, 0.2]])
        out = detect_pathologies(det, InferenceConfig(probability_threshold=0.7))[0]
        assert out == []

    def test_empty_input(self):
        diagnostics = InferenceDiagnostics()
        assert detect_pathologies(_det([], [], np.zeros((0, 3))), InferenceConfig(), diagnostics) == [[]]
        assert detect_pathologies(RegionDetections.concat([], 3), InferenceConfig(), diagnostics) == []
        assert diagnostics == InferenceDiagnostics()

    def test_images_without_rows_keep_their_place(self):
        box = Box(0.1, 0.1, 0.5, 0.5)
        empty, one = _det([], [], np.zeros((0, 1))), _det([box], [1.0], [[0.9]])
        batch = RegionDetections.concat([empty, one, empty, empty, one, empty], 1)
        assert batch.offsets.tolist() == [0, 0, 1, 1, 1, 2, 2]
        out = detect_pathologies(batch)
        assert [len(boxes) for boxes in out] == [0, 1, 0, 0, 1, 0]
        assert out[1] == out[4] == detect_pathologies(one)[0]

    def test_probability_validation(self):
        with pytest.raises(ValueError, match="probabilities"):
            _det([Box(0, 0, 1, 1)], [1.0], [[1.2]])
        with pytest.raises(ValueError, match="presence"):
            _det([Box(0, 0, 1, 1)], [-0.1], [[0.5]])
        with pytest.raises(ValueError, match="presence"):
            _det([Box(0, 0, 1, 1)], [float("nan")], [[0.5]])
        with pytest.raises(ValueError, match="need"):
            _det([Box(0, 0, 1, 1)], [1.0, 1.0], [[0.5], [0.5]])
        with pytest.raises(ValueError, match="need"):
            _det([Box(0, 0, 1, 1)], [1.0], [0.5])
        with pytest.raises(ValueError, match="probabilities"):
            _det([Box(0, 0, 1, 1)], [1.0], [[float("nan")]])
        for row in ([0.5, 0.1, 0.4, 0.2], [0.1, 0.1, 1.5, 0.2], [float("nan"), 0.1, 0.4, 0.2]):
            with pytest.raises(ValueError, match="region 1: invalid box corners"):
                RegionDetections([[0, 0, 1, 1], row], [1.0, 0.0], [[0.5], [0.5]])
            with pytest.raises(ValueError, match="^image 2, region 0: invalid box corners"):
                RegionDetections([[0, 0, 1, 1], row], [1.0, 0.0], [[0.5], [0.5]], offsets=[0, 1, 1, 2])

    def test_offsets_validation(self):
        rows = ([[0, 0, 1, 1]] * 2, [1.0, 1.0], [[0.5], [0.5]])
        assert RegionDetections(*rows).offsets.tolist() == [0, 2]
        assert RegionDetections(*rows, offsets=[0, 2, 2]).n_images == 2
        for offsets in ([], [1, 2], [0, 1], [0, 3], [0, 2, 1, 2], [[0, 2]]):
            with pytest.raises(ValueError, match="offsets must rise from 0 to the row count 2"):
                RegionDetections(*rows, offsets=offsets)

    def test_parts_with_different_class_counts_rejected(self):
        two, three = _det([Box(0, 0, 1, 1)], [1.0], [[0.5, 0.5]]), _det([Box(0, 0, 1, 1)], [1.0], [[0.5] * 3])
        with pytest.raises(ValueError, match=r"one class count: need 2 in every part, got \[2, 3\]"):
            RegionDetections.concat([two, three], 2)
        with pytest.raises(ValueError, match="one class count"):
            RegionDetections.concat([three], 2)
        assert RegionDetections.concat([two, two], 2).pathology_probs.shape == (2, 2)


def _random_image(rng, n_regions=6, n_classes=4):
    return _det(
        [random_box(rng, 0.05) for _ in range(n_regions)],
        rng.uniform(0.3, 1.0, n_regions),
        rng.uniform(0, 1, (n_regions, n_classes)),
    )


class TestPipelineProperties:
    def test_raising_tau_never_adds_boxes(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            regions = _random_image(rng)
            taus = sorted(rng.uniform(0, 1, size=3))
            counts = [
                len(detect_pathologies(regions, InferenceConfig(probability_threshold=t))[0])
                for t in taus
            ]
            assert counts == sorted(counts, reverse=True)

    def test_outputs_within_candidate_hull(self):
        rng = np.random.default_rng(1)
        cfg = InferenceConfig()
        for _ in range(200):
            regions = _random_image(rng)
            out = detect_pathologies(regions, cfg)[0]
            for pb in out:
                x1, y1, x2, y2 = regions.boxes.T
                contributing = regions.boxes[
                    (regions.presence >= cfg.presence_threshold)
                    & ((x2 - x1) * (y2 - y1) > 0)
                    & (regions.pathology_probs[:, pb.class_id] > cfg.probability_threshold)
                ]
                lo, hi = contributing.min(axis=0), contributing.max(axis=0)
                for i, v in enumerate(pb.box.as_tuple()):
                    assert lo[i] - 1e-12 <= v <= hi[i] + 1e-12

    def test_top1_at_most_one_per_class(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            out = detect_pathologies(_random_image(rng), InferenceConfig())[0]
            classes = [b.class_id for b in out]
            assert len(classes) == len(set(classes))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        regions = _random_image(rng)
        a = detect_pathologies(regions, InferenceConfig())
        b = detect_pathologies(regions, InferenceConfig())
        assert a == b

    def test_wbf_threshold_one_disables_fusion(self):
        rng = np.random.default_rng(4)
        cfg = InferenceConfig(
            fusion=FusionConfig(iou_threshold=1.0), top1_per_class=False
        )
        for _ in range(50):
            regions = _random_image(rng)
            out = detect_pathologies(regions, cfg)[0]
            input_boxes = {tuple(row) for row in regions.boxes.tolist()}
            for pb in out:
                assert pb.box.as_tuple() in input_boxes


def region_sets(n_classes):
    """One image's detections over ``n_classes`` classes."""

    @st.composite
    def image(draw):
        n_regions = draw(st.integers(min_value=0, max_value=40 // n_classes + 1))
        presence = st.sampled_from([0.0, 0.3, 0.5, 1.0])
        return _det(
            [draw(any_box()) for _ in range(n_regions)],
            [draw(presence) for _ in range(n_regions)],
            np.array([draw(score) for _ in range(n_regions * n_classes)]).reshape(n_regions, n_classes),
        )

    return image()


@st.composite
def batches(draw):
    """Up to 20 images with one class count, since a batch record has one."""
    n_classes = draw(st.integers(min_value=1, max_value=6))
    return draw(st.lists(region_sets(n_classes), max_size=20)), n_classes


class TestMatchesRegionLoopReference:
    """Batch masks plus lockstep fusion over a batch equal the per-region loop on each image exactly."""

    @settings(max_examples=100)
    @given(
        batch=batches(),
        tau=st.sampled_from(THRESHOLDS),
        wbf_iou=st.sampled_from(THRESHOLDS),
        rescale=st.booleans(),
        top1=st.booleans(),
        pass_cells=st.sampled_from([1, 40, inference._PASS_CELLS]),
    )
    def test_detect_pathologies(self, batch, tau, wbf_iou, rescale, top1, pass_cells):
        cfg = InferenceConfig(
            probability_threshold=tau,
            fusion=FusionConfig(iou_threshold=wbf_iou, score_rescale=rescale),
            top1_per_class=top1,
        )
        batch, n_classes = batch
        got, want = InferenceDiagnostics(), InferenceDiagnostics()
        with mock.patch.object(inference, "_PASS_CELLS", pass_cells):
            out = detect_pathologies(RegionDetections.concat(batch, n_classes), cfg, got)
        assert out == [detect_pathologies_ref(regions, cfg, want) for regions in batch]
        assert got == want

    @given(
        n_train=st.integers(min_value=1, max_value=12),
        n_rows=st.integers(min_value=0, max_value=30),
        data=st.data(),
    )
    def test_map_probs(self, n_train, n_rows, data):
        train_classes = [f"t{i}" for i in range(n_train)]
        entries = tuple(
            MappingEntry(
                f"e{i}",
                tuple(data.draw(st.lists(st.sampled_from(train_classes), min_size=1, max_size=12))),
                data.draw(st.sampled_from(["mean", "max"])),
            )
            for i in range(data.draw(st.integers(min_value=1, max_value=8)))
        )
        mapping = ClassMapping(entries)
        probs = np.array(
            [data.draw(st.lists(score, min_size=n_train, max_size=n_train)) for _ in range(n_rows)]
        ).reshape(n_rows, n_train)
        out = mapping.resolve(train_classes).map_probs(probs)
        assert out.shape == (n_rows, len(entries))
        for row, mapped in zip(probs, out):
            assert mapped.tolist() == map_probs_ref(mapping, train_classes, row).tolist()


class TestPassMemory:
    def test_traced_peak_is_bounded(self):
        """Fusion runs in passes of whole images, so its buffers do not grow with the batch.

        Without the pass bound this batch takes one 150 x 8 x 29-cell pass
        and about 15 MB; in passes of at most ``_PASS_CELLS`` cells it
        takes about 1.2 MB.
        """
        rng = np.random.default_rng(0)
        batch = []
        for _ in range(150):
            lo = rng.uniform(0.0, 0.5, (29, 2))
            corners = np.hstack([lo, lo + rng.uniform(0.05, 0.5, (29, 2))])
            batch.append(RegionDetections(corners, np.ones(29), rng.uniform(0, 1, (29, 8))))
        batch = RegionDetections.concat(batch, 8)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = detect_pathologies(batch, InferenceConfig())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sum(map(len, out)) == 150 * 8
        assert peak < 4 * 2**20

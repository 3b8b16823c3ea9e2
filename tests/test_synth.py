import numpy as np
import pytest

from proxydet.errors import ConfigError
from proxydet.evaluation import evaluate
from proxydet.inference import InferenceConfig, RegionDetections, detect_pathologies
from proxydet.synth import SynthConfig, canonical_layout, generate_dataset, _build_world

from helpers import iou_ref


class TestConfigValidation:
    def test_feature_dim_must_cover_one_hot(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_regions=8, feature_dim=4)

    def test_shrink_range(self):
        with pytest.raises(ConfigError):
            SynthConfig(shrink_range=(0.0, 1.0))
        with pytest.raises(ConfigError):
            SynthConfig(shrink_range=(0.8, 0.5))

    def test_regions_per_finding(self):
        with pytest.raises(ConfigError):
            SynthConfig(regions_per_finding=(2, 1))
        with pytest.raises(ConfigError):
            SynthConfig(regions_per_finding=(1, 3), affinity_size=2)


class TestLayout:
    def test_neighbouring_regions_overlap(self):
        layout = canonical_layout(8)
        overlaps = [
            iou_ref(a, b)
            for i, a in enumerate(layout)
            for b in layout[i + 1 :]
        ]
        assert max(overlaps) > 0.03  # fusion threshold is reachable

    def test_boxes_valid_for_many_sizes(self):
        for n in (1, 2, 5, 8, 12, 29):
            layout = canonical_layout(n)
            assert len(layout) == n
            for b in layout:
                assert b.area > 0


class TestGeneration:
    def test_deterministic(self):
        cfg = SynthConfig(n_images=20, seed=5)
        a = generate_dataset(cfg)
        b = generate_dataset(cfg)
        for sa, sb in zip(a, b):
            assert sa.image_id == sb.image_id
            assert np.array_equal(sa.features, sb.features)
            assert np.array_equal(sa.anatomy_labels, sb.anatomy_labels)
            assert sa.gt_boxes == sb.gt_boxes
            assert sa.region_boxes == sb.region_boxes

    def test_scene_count_independent_prefix(self):
        cfg_small = SynthConfig(n_images=5, seed=5)
        cfg_big = SynthConfig(n_images=20, seed=5)
        small = generate_dataset(cfg_small)
        big = generate_dataset(cfg_big)
        for sa, sb in zip(small, big[:5]):
            assert np.array_equal(sa.features, sb.features)

    def test_image_label_or_consistency(self):
        scenes = generate_dataset(SynthConfig(n_images=50, seed=1, region_dropout=0.2))
        for s in scenes:
            assert np.array_equal(s.image_labels, (s.anatomy_labels.sum(axis=0) > 0).astype(float))

    def test_gt_box_within_enclosing_box_of_affected_regions(self):
        scenes = generate_dataset(SynthConfig(n_images=50, seed=2))
        for s in scenes:
            for gt in s.gt_boxes:
                affected = np.flatnonzero(s.anatomy_labels[:, gt.class_id])
                assert affected.size > 0
                x1 = min(s.region_boxes[r].x1 for r in affected)
                y1 = min(s.region_boxes[r].y1 for r in affected)
                x2 = max(s.region_boxes[r].x2 for r in affected)
                y2 = max(s.region_boxes[r].y2 for r in affected)
                assert gt.box.x1 >= x1 - 1e-12 and gt.box.y1 >= y1 - 1e-12
                assert gt.box.x2 <= x2 + 1e-12 and gt.box.y2 <= y2 + 1e-12

    def test_at_most_one_gt_box_per_class(self):
        scenes = generate_dataset(SynthConfig(n_images=50, seed=3, prevalence=0.9))
        for s in scenes:
            classes = [b.class_id for b in s.gt_boxes]
            assert len(classes) == len(set(classes))

    def test_heavy_jitter_still_valid_boxes(self):
        scenes = generate_dataset(SynthConfig(n_images=20, seed=4, jitter=0.5))
        for s in scenes:
            for b in s.region_boxes:
                assert 0.0 <= b.x1 <= b.x2 <= 1.0  # Box construction enforces this too

    def test_dropout_keeps_one_region_and_strips_labels(self):
        scenes = generate_dataset(SynthConfig(n_images=100, seed=6, region_dropout=0.9))
        for s in scenes:
            assert s.present.any()
            absent = ~s.present
            assert np.all(s.anatomy_labels[absent] == 0.0)
            # absent regions carry no one-hot embedding either
            for r in np.flatnonzero(absent):
                assert s.features[r, r] == pytest.approx(
                    0.0, abs=5 * SynthConfig().noise_sigma * 5
                )

    def test_absent_regions_have_no_embedding_when_noise_free(self):
        scenes = generate_dataset(
            SynthConfig(n_images=50, seed=7, region_dropout=0.5, noise_sigma=0.0)
        )
        for s in scenes:
            for r in np.flatnonzero(~s.present):
                assert s.features[r, r] == 0.0


class TestNoiseFreeSeparability:
    def _cfg(self):
        return SynthConfig(
            n_images=60,
            seed=8,
            noise_sigma=0.0,
            prevalence=1.0,
            shrink_range=(1.0, 1.0),
            regions_per_finding=(1, 1),
        )

    def test_linear_probe_separates_labels(self):
        # the separating direction is the dual of the signature matrix:
        # sig_j . w_c = [j == c] with zero response on the one-hot dims
        cfg = self._cfg()
        world = _build_world(cfg)
        scenes = generate_dataset(cfg)
        constraints = np.vstack(
            [world.signatures, np.eye(cfg.n_regions, cfg.feature_dim)]
        )
        for c in range(cfg.n_classes):
            target = np.zeros(cfg.n_classes + cfg.n_regions)
            target[c] = 1.0
            w, *_ = np.linalg.lstsq(constraints, target, rcond=None)
            pos, neg = [], []
            for s in scenes:
                scores = s.features @ w
                pos.extend(scores[s.anatomy_labels[:, c] > 0])
                neg.extend(scores[s.anatomy_labels[:, c] == 0])
            assert min(pos) > max(neg)  # linearly separable by construction

    def test_perfect_probabilities_reproduce_gt_exactly(self):
        cfg = self._cfg()
        scenes = generate_dataset(cfg)
        from proxydet.benchmark import ground_truth_from_scenes

        gt = ground_truth_from_scenes(scenes, cfg.n_classes)
        regions = [
            RegionDetections(
                boxes=[b.as_tuple() for b in s.region_boxes],
                presence=np.ones(cfg.n_regions),
                pathology_probs=s.anatomy_labels,
            )
            for s in scenes
        ]
        boxes = detect_pathologies(regions, InferenceConfig(probability_threshold=0.5))
        predictions = {s.image_id: b for s, b in zip(scenes, boxes)}
        report = evaluate(predictions, gt)
        assert report.overall_map == 1.0
        for cls in report.ap:
            for t, v in report.ap[cls].items():
                assert v == 1.0

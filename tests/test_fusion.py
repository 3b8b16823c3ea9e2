import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import THRESHOLDS, any_box, score
from helpers import iou_ref, random_box, wbf_ref

from proxydet.fusion import FusionConfig, ScoredBox, ScoredBoxes, weighted_box_fusion
from proxydet.geometry import Box


def _random_instance(rng, n_max=8, min_size=0.05):
    n = int(rng.integers(1, n_max + 1))
    return [
        ScoredBox(box=random_box(rng, min_size), score=float(rng.uniform(0, 1)), source_index=i)
        for i in range(n)
    ]


class TestExamples:
    def test_empty_input(self):
        assert weighted_box_fusion([], FusionConfig()) == []

    def test_singleton_unchanged(self):
        sb = ScoredBox(Box(0.2, 0.2, 0.4, 0.5), 0.37, 0)
        out = weighted_box_fusion([sb], FusionConfig())
        assert out == [sb]

    def test_two_overlapping_boxes_fuse_to_weighted_average(self):
        b1 = ScoredBox(Box(0.1, 0.1, 0.5, 0.5), 0.8, 0)
        b2 = ScoredBox(Box(0.12, 0.12, 0.52, 0.52), 0.4, 1)
        (out,) = weighted_box_fusion([b1, b2], FusionConfig())
        # score-weighted coordinate averages, plain-mean score
        assert out.box.x1 == pytest.approx((0.8 * 0.1 + 0.4 * 0.12) / 1.2, abs=1e-15)
        assert out.box.y1 == pytest.approx((0.8 * 0.1 + 0.4 * 0.12) / 1.2, abs=1e-15)
        assert out.box.x2 == pytest.approx((0.8 * 0.5 + 0.4 * 0.52) / 1.2, abs=1e-15)
        assert out.box.y2 == pytest.approx((0.8 * 0.5 + 0.4 * 0.52) / 1.2, abs=1e-15)
        assert out.score == pytest.approx(0.6, abs=1e-15)

    def test_low_overlap_stays_separate(self):
        b1 = ScoredBox(Box(0.0, 0.0, 0.3, 0.3), 0.9, 0)
        b2 = ScoredBox(Box(0.29, 0.29, 0.6, 0.6), 0.5, 1)
        assert iou_ref(b1.box, b2.box) <= 0.03
        out = weighted_box_fusion([b1, b2], FusionConfig())
        assert out == [b1, b2]

    def test_strictly_above_threshold_required(self):
        # identical boxes have IoU exactly 1.0, which does not exceed 1.0
        b1 = ScoredBox(Box(0.1, 0.1, 0.5, 0.5), 0.9, 0)
        b2 = ScoredBox(Box(0.1, 0.1, 0.5, 0.5), 0.4, 1)
        out = weighted_box_fusion([b1, b2], FusionConfig(iou_threshold=1.0))
        assert len(out) == 2

    def test_score_rescale(self):
        b1 = ScoredBox(Box(0.1, 0.1, 0.5, 0.5), 0.8, 0)
        b2 = ScoredBox(Box(0.12, 0.12, 0.52, 0.52), 0.4, 1)
        lone = ScoredBox(Box(0.7, 0.7, 0.9, 0.9), 0.5, 2)
        out = weighted_box_fusion([b1, b2, lone], FusionConfig(score_rescale=True))
        by_index = {sb.source_index: sb for sb in out}
        assert by_index[0].score == pytest.approx(0.6 * 2 / 3, abs=1e-15)
        assert by_index[2].score == pytest.approx(0.5 * 1 / 3, abs=1e-15)

    def test_score_validation(self):
        with pytest.raises(ValueError):
            ScoredBox(Box(0, 0, 1, 1), 1.5, 0)
        with pytest.raises(ValueError):
            FusionConfig(iou_threshold=-0.1)


class TestProperties:
    def test_output_not_larger_and_convex_hull(self):
        rng = np.random.default_rng(0)
        cfg = FusionConfig()
        for _ in range(300):
            inputs = _random_instance(rng)
            out = weighted_box_fusion(inputs, cfg)
            assert len(out) <= len(inputs)
            lo = [min(sb.box.as_tuple()[i] for sb in inputs) for i in range(4)]
            hi = [max(sb.box.as_tuple()[i] for sb in inputs) for i in range(4)]
            for sb in out:
                for i, v in enumerate(sb.box.as_tuple()):
                    assert lo[i] <= v <= hi[i]

    def test_score_within_member_range(self):
        rng = np.random.default_rng(1)
        cfg = FusionConfig()
        for _ in range(300):
            inputs = _random_instance(rng)
            out = weighted_box_fusion(inputs, cfg)
            smin = min(sb.score for sb in inputs)
            smax = max(sb.score for sb in inputs)
            for sb in out:
                assert smin <= sb.score <= smax

    def test_permutation_invariance_with_distinct_scores(self):
        rng = np.random.default_rng(2)
        cfg = FusionConfig()
        for _ in range(200):
            inputs = _random_instance(rng)
            scores = [sb.score for sb in inputs]
            if len(set(scores)) != len(scores):
                continue
            perm = rng.permutation(len(inputs))
            shuffled = [
                ScoredBox(inputs[j].box, inputs[j].score, i) for i, j in enumerate(perm)
            ]
            a = weighted_box_fusion(inputs, cfg)
            b = weighted_box_fusion(shuffled, cfg)
            assert [(sb.box, sb.score) for sb in a] == [(sb.box, sb.score) for sb in b]

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(3)
        cfg = FusionConfig()
        checked = 0
        for _ in range(300):
            out = weighted_box_fusion(_random_instance(rng), cfg)
            pairwise = [
                iou_ref(a.box, b.box)
                for i, a in enumerate(out)
                for b in out[i + 1 :]
            ]
            if any(v > cfg.iou_threshold for v in pairwise):
                continue  # the fixed-point property only binds below threshold
            again = weighted_box_fusion(out, cfg)
            assert again == out
            checked += 1
        assert checked > 50

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        inputs = _random_instance(rng, n_max=12)
        a = weighted_box_fusion(inputs, FusionConfig())
        b = weighted_box_fusion(list(inputs), FusionConfig())
        assert a == b

    def test_output_sorted_by_score(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            out = weighted_box_fusion(_random_instance(rng), FusionConfig())
            scores = [sb.score for sb in out]
            assert scores == sorted(scores, reverse=True)


@st.composite
def fusion_inputs(draw, max_boxes: int = 40):
    """Up to ``max_boxes`` boxes with frequent score ties; sometimes every score is 0."""
    n = draw(st.integers(min_value=0, max_value=max_boxes))
    all_zero = draw(st.booleans())
    return [
        ScoredBox(draw(any_box()), 0.0 if all_zero else draw(score), i) for i in range(n)
    ]


class TestMatchesSequentialReference:
    """The array implementation equals the re-sum-every-join definition exactly."""

    @settings(max_examples=300)
    @given(
        inputs=fusion_inputs(),
        threshold=st.sampled_from(THRESHOLDS),
        rescale=st.booleans(),
        permutation_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_equal_to_reference(self, inputs, threshold, rescale, permutation_seed):
        cfg = FusionConfig(iou_threshold=threshold, score_rescale=rescale)
        # input order must not matter beyond (score, source_index)
        order = np.random.default_rng(permutation_seed).permutation(len(inputs))
        out = weighted_box_fusion([inputs[j] for j in order], cfg)
        assert out == wbf_ref(inputs, cfg)

    @settings(max_examples=200)
    @given(
        groups=st.lists(fusion_inputs(max_boxes=12), max_size=8),
        threshold=st.sampled_from(THRESHOLDS),
        rescale=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_many_groups_equal_reference_per_group(self, groups, threshold, rescale, seed):
        cfg = FusionConfig(iou_threshold=threshold, score_rescale=rescale)
        rng = np.random.default_rng(seed)
        # sparse group ids, and the groups' rows interleaved
        ids = rng.permutation(3 * len(groups))[: len(groups)].tolist()
        rows = [(gid, sb) for gid, inputs in zip(ids, groups) for sb in inputs]
        rows = [rows[j] for j in rng.permutation(len(rows))]
        record = ScoredBoxes(
            np.array([gid for gid, _ in rows], dtype=np.intp),
            np.array([sb.box.as_tuple() for _, sb in rows]).reshape(len(rows), 4),
            np.array([sb.score for _, sb in rows]),
            np.array([sb.source_index for _, sb in rows], dtype=np.intp),
        )
        out = weighted_box_fusion(record, cfg)
        got = [
            (gid, ScoredBox(Box(*row), score, index))
            for gid, row, score, index in zip(
                out.group.tolist(), out.boxes.tolist(), out.scores.tolist(), out.source_index.tolist()
            )
        ]
        want = [
            (gid, sb)
            for gid, inputs in sorted(zip(ids, groups), key=lambda pair: pair[0])
            for sb in wbf_ref(inputs, cfg)
        ]
        assert got == want

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from conftest import boxes, center_boxes
from helpers import grid_box, random_box, raster_giou, raster_iou

from proxydet.geometry import (
    Box,
    CenterBox,
    DegenerateBoxPairError,
    center_to_corner,
    center_to_corner_batch,
    corner_to_center,
    giou,
    giou_batch,
    giou_gradient,
    giou_gradient_batch,
    iou,
    iou_matrix,
)


class TestBoxConstruction:
    def test_valid(self):
        b = Box(0.1, 0.2, 0.3, 0.4)
        assert b.area == pytest.approx(0.2 * 0.2)

    def test_zero_area_representable(self):
        assert Box(0.5, 0.5, 0.5, 0.5).area == 0.0

    @pytest.mark.parametrize(
        "corners",
        [(0.5, 0.0, 0.4, 1.0), (0.0, 0.5, 1.0, 0.4), (-0.1, 0, 1, 1), (0, 0, 1.1, 1)],
    )
    def test_invalid_corners_rejected(self, corners):
        with pytest.raises(ValueError):
            Box(*corners)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Box(float("nan"), 0, 1, 1)


class TestIou:
    def test_identity(self):
        b = Box(0.1, 0.1, 0.5, 0.5)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 0.4, 0.4), Box(0.6, 0.6, 1, 1)) == 0.0

    def test_quarter_overlap(self):
        # 6250000 / 43750000, counted on a 10000x10000 pixel raster
        expected = 0.14285714285714285
        got = iou(Box(0, 0, 0.5, 0.5), Box(0.25, 0.25, 0.75, 0.75))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_zero_union_rule(self):
        a = Box(0.5, 0.5, 0.5, 0.5)
        b = Box(0.7, 0.7, 0.7, 0.7)
        assert iou(a, b) == 0.0

    def test_matches_raster_oracle_on_grid_boxes(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a, b = grid_box(rng, res=200), grid_box(rng, res=200)
            assert iou(a, b) == pytest.approx(raster_iou(a, b, res=200), abs=1e-12)

    @given(boxes(), boxes())
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)

    @given(boxes(min_size=1e-3))
    def test_self_iou_is_one(self, b):
        assert iou(b, b) == 1.0

    @given(boxes(), boxes())
    def test_axis_swap_invariance(self, a, b):
        swap = lambda x: Box(x.y1, x.x1, x.y2, x.x2)
        assert iou(swap(a), swap(b)) == pytest.approx(iou(a, b), abs=1e-15)

    def test_bulk_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == iou(b, a)


    @given(st.lists(boxes(), min_size=1, max_size=12), st.lists(boxes(), min_size=1, max_size=12))
    def test_matrix_matches_scalar_exactly(self, a, b):
        table = iou_matrix(
            np.array([x.as_tuple() for x in a]), np.array([y.as_tuple() for y in b])
        )
        assert table.tolist() == [[iou(x, y) for y in b] for x in a]


class TestGiou:
    def test_identity(self):
        b = Box(0.2, 0.2, 0.6, 0.7)
        assert giou(b, b) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_overlap(self):
        # 1/7 - 0.125/0.5625
        expected = -0.079365079365079365
        got = giou(Box(0, 0, 0.5, 0.5), Box(0.25, 0.25, 0.75, 0.75))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_far_corners(self):
        got = giou(Box(0, 0, 0.1, 0.1), Box(0.9, 0.9, 1, 1))
        assert got == pytest.approx(-0.98, abs=1e-12)

    def test_degenerate_pair_raises(self):
        a = Box(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(DegenerateBoxPairError):
            giou(a, a)

    def test_matches_raster_oracle_on_grid_boxes(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = grid_box(rng, res=200), grid_box(rng, res=200)
            assert giou(a, b) == pytest.approx(raster_giou(a, b, res=200), abs=1e-12)

    @given(boxes(min_size=1e-3), boxes(min_size=1e-3))
    def test_bounds_and_relation_to_iou(self, a, b):
        g = giou(a, b)
        assert -1.0 < g <= 1.0 + 1e-15
        assert g <= iou(a, b) + 1e-15
        assert g == pytest.approx(giou(b, a), abs=1e-15)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        pairs = [(random_box(rng, 0.01), random_box(rng, 0.01)) for _ in range(200)]
        a = np.stack([p[0].to_array() for p in pairs])
        b = np.stack([p[1].to_array() for p in pairs])
        batch = giou_batch(a, b)
        for i, (ba, bb) in enumerate(pairs):
            assert batch[i] == pytest.approx(giou(ba, bb), abs=1e-15)


def _fd_giou(a: Box, b: Box, h: float = 1e-5) -> np.ndarray:
    out = np.empty(4)
    for i in range(4):
        hi = list(a.as_tuple())
        lo = list(a.as_tuple())
        hi[i] += h
        lo[i] -= h
        out[i] = (giou(Box(*hi), b) - giou(Box(*lo), b)) / (2 * h)
    return out


def _smooth_interior_pair(rng, margin=1e-3):
    """Positive-area pair away from ties, touching edges, and the unit border."""
    while True:
        a = random_box(rng, min_size=0.05)
        b = random_box(rng, min_size=0.05)
        coords = a.as_tuple() + b.as_tuple()
        if min(coords) < 2 * margin or max(coords) > 1 - 2 * margin:
            continue
        gaps = [
            a.x1 - b.x1, a.y1 - b.y1, a.x2 - b.x2, a.y2 - b.y2,
            min(a.x2, b.x2) - max(a.x1, b.x1),
            min(a.y2, b.y2) - max(a.y1, b.y1),
        ]
        if min(abs(g) for g in gaps) > margin:
            return a, b


class TestGiouGradient:
    def test_coincident_boxes_flagged_and_finite(self):
        b = Box(0.2, 0.3, 0.6, 0.8)
        grad, nonsmooth = giou_gradient(b, b)
        assert nonsmooth
        assert np.all(np.isfinite(grad))

    def test_disjoint_pair_has_enclosing_term_only(self):
        # non-touching boxes: the intersection is identically zero nearby,
        # so the gradient comes from the union-area and enclosing-box terms
        a = Box(0.1, 0.1, 0.3, 0.3)
        b = Box(0.6, 0.6, 0.9, 0.9)
        grad, nonsmooth = giou_gradient(a, b)
        assert not nonsmooth
        assert np.allclose(grad, _fd_giou(a, b), rtol=1e-4, atol=1e-8)

    def test_matches_finite_differences_on_100_smooth_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b = _smooth_interior_pair(rng)
            grad, nonsmooth = giou_gradient(a, b)
            assert not nonsmooth
            numeric = _fd_giou(a, b)
            denom = np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-12)
            assert np.max(np.abs(grad - numeric) / denom) <= 1e-4

    def test_touching_boxes_flagged(self):
        a = Box(0.1, 0.1, 0.5, 0.5)
        b = Box(0.5, 0.1, 0.9, 0.5)
        _, nonsmooth = giou_gradient(a, b)
        assert nonsmooth

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        pairs = [_smooth_interior_pair(rng) for _ in range(50)]
        a = np.stack([p[0].to_array() for p in pairs])
        b = np.stack([p[1].to_array() for p in pairs])
        grads, mask = giou_gradient_batch(a, b)
        assert not mask.any()
        for i, (ba, bb) in enumerate(pairs):
            scalar, _ = giou_gradient(ba, bb)
            assert np.allclose(grads[i], scalar, atol=1e-15)


class TestCenterCorner:
    def test_full_frame(self):
        assert center_to_corner(CenterBox(0.5, 0.5, 1, 1)) == Box(0, 0, 1, 1)

    def test_zero_area_at_center(self):
        got = center_to_corner(CenterBox(0.5, 0.5, 0, 0))
        assert got == Box(0.5, 0.5, 0.5, 0.5)
        assert got.area == 0.0

    def test_clamping(self):
        got = center_to_corner(CenterBox(0.1, 0.1, 0.4, 0.4))
        assert (got.x1, got.y1) == (0.0, 0.0)
        assert got.x2 == pytest.approx(0.3, abs=1e-15)
        assert got.y2 == pytest.approx(0.3, abs=1e-15)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            CenterBox(1.2, 0.5, 0.1, 0.1)

    @given(center_boxes())
    def test_conversion_always_valid(self, c):
        center_to_corner(c)  # Box constructor validates

    @given(boxes())
    def test_corner_roundtrip_exact(self, b):
        c = corner_to_center(b)
        back = center_to_corner(c)
        # interior boxes round-trip exactly up to the arithmetic of /2
        assert back.x1 == pytest.approx(b.x1, abs=1e-15)
        assert back.y1 == pytest.approx(b.y1, abs=1e-15)
        assert back.x2 == pytest.approx(b.x2, abs=1e-15)
        assert back.y2 == pytest.approx(b.y2, abs=1e-15)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        cs = rng.uniform(0, 1, size=(100, 4))
        corners, passthrough = center_to_corner_batch(cs)
        for i in range(100):
            scalar = center_to_corner(CenterBox.from_array(cs[i]))
            assert np.allclose(corners[i], scalar.to_array(), atol=1e-15)
        raw_x1 = cs[:, 0] - cs[:, 2] / 2
        assert np.array_equal(passthrough[:, 0], (raw_x1 > 0) & (raw_x1 < 1))

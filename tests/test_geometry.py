import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import any_box, boxes, center_boxes
from helpers import (
    center_to_corner_ref,
    giou_gradient_ref,
    giou_ref,
    grid_box,
    iou_ref,
    random_box,
    raster_giou,
    raster_iou,
)

from proxydet.geometry import (
    Box,
    DegenerateBoxPairError,
    center_to_corner_batch,
    corner_to_center_batch,
    giou_batch,
    giou_gradient_batch,
    iou,
    iou_batch,
)


def _rows(boxes) -> np.ndarray:
    """Corner boxes as an ``(N, 4)`` array."""
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64)


def _pair_rows(pairs) -> tuple[np.ndarray, np.ndarray]:
    return _rows(a for a, _ in pairs), _rows(b for _, b in pairs)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


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

    @settings(max_examples=40)
    @given(st.lists(st.tuples(any_box(), any_box()), min_size=1, max_size=10))
    def test_batch_rows_bit_equal_to_scalar_reference(self, pairs):
        # grid corners make zero-area boxes, zero unions and shared edges common
        got = iou_batch(*_pair_rows(pairs))
        assert _bits(got) == _bits(np.array([iou_ref(a, b) for a, b in pairs]))
        assert [iou(a, b) for a, b in pairs] == got.tolist()

    def test_bulk_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == iou(b, a)


class TestGiou:
    def test_identity(self):
        b = _rows([Box(0.2, 0.2, 0.6, 0.7)])
        assert giou_batch(b, b)[0] == pytest.approx(1.0, abs=1e-15)

    def test_quarter_overlap(self):
        # 1/7 - 0.125/0.5625
        expected = -0.079365079365079365
        got = giou_batch(_rows([Box(0, 0, 0.5, 0.5)]), _rows([Box(0.25, 0.25, 0.75, 0.75)]))
        assert got[0] == pytest.approx(expected, abs=1e-12)

    def test_far_corners(self):
        got = giou_batch(_rows([Box(0, 0, 0.1, 0.1)]), _rows([Box(0.9, 0.9, 1, 1)]))
        assert got[0] == pytest.approx(-0.98, abs=1e-12)

    def test_degenerate_pair_raises(self):
        # one zero-area pair anywhere in the batch is enough
        a = _rows([Box(0.1, 0.1, 0.4, 0.4), Box(0.5, 0.5, 0.5, 0.5)])
        with pytest.raises(DegenerateBoxPairError):
            giou_batch(a, a)
        with pytest.raises(DegenerateBoxPairError):
            giou_gradient_batch(a, a)

    def test_matches_raster_oracle_on_grid_boxes(self):
        rng = np.random.default_rng(7)
        pairs = [(grid_box(rng, res=200), grid_box(rng, res=200)) for _ in range(100)]
        got = giou_batch(*_pair_rows(pairs))
        for g, (a, b) in zip(got, pairs):
            assert g == pytest.approx(raster_giou(a, b, res=200), abs=1e-12)

    @given(boxes(min_size=1e-3), boxes(min_size=1e-3))
    def test_bounds_and_relation_to_iou(self, a, b):
        g, swapped = giou_batch(_rows([a, b]), _rows([b, a]))
        assert -1.0 < g <= 1.0 + 1e-15
        assert g <= iou(a, b) + 1e-15
        assert g == pytest.approx(swapped, abs=1e-15)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        pairs = [(random_box(rng, 0.01), random_box(rng, 0.01)) for _ in range(200)]
        batch = giou_batch(*_pair_rows(pairs))
        assert batch.tolist() == [giou_ref(a, b) for a, b in pairs]


def _fd_giou(a: np.ndarray, b: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences of ``giou_batch`` in each corner coordinate of a's rows."""
    out = np.empty_like(a)
    for i in range(4):
        step = np.zeros(4)
        step[i] = h
        out[:, i] = (giou_batch(a + step, b) - giou_batch(a - step, b)) / (2 * h)
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
        b = _rows([Box(0.2, 0.3, 0.6, 0.8)])
        grads, nonsmooth = giou_gradient_batch(b, b)
        assert nonsmooth.tolist() == [True]
        assert np.all(np.isfinite(grads))

    def test_disjoint_pair_has_enclosing_term_only(self):
        # non-touching boxes: the intersection is identically zero nearby,
        # so the gradient comes from the union-area and enclosing-box terms
        a = _rows([Box(0.1, 0.1, 0.3, 0.3)])
        b = _rows([Box(0.6, 0.6, 0.9, 0.9)])
        grads, nonsmooth = giou_gradient_batch(a, b)
        assert nonsmooth.tolist() == [False]
        assert np.allclose(grads, _fd_giou(a, b), rtol=1e-4, atol=1e-8)

    def test_matches_finite_differences_on_100_smooth_pairs(self):
        rng = np.random.default_rng(11)
        a, b = _pair_rows([_smooth_interior_pair(rng) for _ in range(100)])
        grads, nonsmooth = giou_gradient_batch(a, b)
        assert not nonsmooth.any()
        numeric = _fd_giou(a, b)
        denom = np.maximum(np.maximum(np.abs(grads), np.abs(numeric)), 1e-12)
        assert np.max(np.abs(grads - numeric) / denom) <= 1e-4

    def test_touching_boxes_flagged(self):
        a = _rows([Box(0.1, 0.1, 0.5, 0.5)])
        b = _rows([Box(0.5, 0.1, 0.9, 0.5)])
        _, nonsmooth = giou_gradient_batch(a, b)
        assert nonsmooth.tolist() == [True]

    def test_batch_matches_scalar(self):
        """Each row of a batch equals the gradient of its pair computed alone."""
        rng = np.random.default_rng(5)
        a, b = _pair_rows([_smooth_interior_pair(rng) for _ in range(50)])
        grads, mask = giou_gradient_batch(a, b)
        assert not mask.any()
        for i in range(len(a)):
            alone, _ = giou_gradient_batch(a[i : i + 1], b[i : i + 1])
            assert _bits(alone[0]) == _bits(grads[i])


class TestGiouGradientMatchesColumnReference:
    """``giou_gradient_batch`` works on coordinate rows; the reference on columns."""

    # boxes a few ulps wide square to 0 in the gradient's denominators: NaN on both sides
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:divide by zero encountered")
    @given(
        st.lists(st.tuples(any_box(), any_box()), min_size=1, max_size=30),
        st.sampled_from([0.0, 1.0, None]),
    )
    def test_bit_equal(self, pairs, edge):
        pairs = [(a, b) for a, b in pairs if a.area > 0.0 or b.area > 0.0]
        # one zero-area box against a box with area, a corner pinned to the frame edge
        pairs.append((Box(0.5, 0.25, 0.5, 0.75), Box(0.25, 0.25, 0.75, 0.75)))
        if edge is not None:
            pinned = Box(0.0, 0.0, 1.0, 0.5) if edge == 0.0 else Box(0.5, 0.5, 1.0, 1.0)
            pairs.append((pinned, Box(0.25, 0.25, 0.75, 1.0)))
        a, b = _pair_rows(pairs)
        grads, nonsmooth = giou_gradient_batch(a, b)
        ref_grads, ref_nonsmooth = giou_gradient_ref(a, b)
        assert grads.shape == a.shape
        assert _bits(grads) == _bits(ref_grads)
        assert np.array_equal(nonsmooth, ref_nonsmooth)

    def test_clamped_boxes_from_conversion(self):
        rng = np.random.default_rng(21)
        # centers near the frame edges clamp corners to exactly 0 or 1
        scale, floor = np.array([1.0, 1.0, 0.6, 0.6]), np.array([0.0, 0.0, 0.05, 0.05])
        a, _ = center_to_corner_batch(rng.uniform(-0.2, 1.2, size=(300, 4)) * scale + floor)
        b, _ = center_to_corner_batch(rng.uniform(-0.2, 1.2, size=(300, 4)) * scale + floor)
        assert np.any(a == 0.0) and np.any(a == 1.0)
        keep = (a[:, 2] > a[:, 0]) & (a[:, 3] > a[:, 1]) | (b[:, 2] > b[:, 0]) & (b[:, 3] > b[:, 1])
        a, b = a[keep], b[keep]
        grads, nonsmooth = giou_gradient_batch(a, b)
        ref_grads, ref_nonsmooth = giou_gradient_ref(np.ascontiguousarray(a), np.ascontiguousarray(b))
        assert _bits(grads) == _bits(ref_grads)
        assert np.array_equal(nonsmooth, ref_nonsmooth) and nonsmooth.any()


class TestCenterCorner:
    def test_full_frame(self):
        corners, passthrough = center_to_corner_batch([0.5, 0.5, 1.0, 1.0])
        assert corners.tolist() == [0.0, 0.0, 1.0, 1.0]
        assert not passthrough.any()

    def test_zero_area_at_center(self):
        corners, _ = center_to_corner_batch([0.5, 0.5, 0.0, 0.0])
        assert corners.tolist() == [0.5, 0.5, 0.5, 0.5]
        assert Box(*corners).area == 0.0

    def test_clamping(self):
        corners, passthrough = center_to_corner_batch([0.1, 0.1, 0.4, 0.4])
        assert corners[:2].tolist() == [0.0, 0.0]
        assert corners[2:] == pytest.approx([0.3, 0.3], abs=1e-15)
        assert passthrough.tolist() == [False, False, True, True]

    @given(st.lists(center_boxes(), min_size=1, max_size=20))
    def test_conversion_always_valid(self, cs):
        corners, _ = center_to_corner_batch(np.array(cs))
        for row in corners:
            Box(*row)  # the constructor validates the corners

    @given(st.lists(boxes(), min_size=1, max_size=20))
    def test_corner_roundtrip_exact(self, bs):
        corners = _rows(bs)
        back, _ = center_to_corner_batch(corner_to_center_batch(corners))
        # interior boxes round-trip exactly up to the arithmetic of /2
        assert np.abs(back - corners).max() <= 1e-15

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        cs = rng.uniform(0, 1, size=(100, 4))
        corners, passthrough = center_to_corner_batch(cs)
        assert [Box(*row) for row in corners] == [center_to_corner_ref(*row) for row in cs]
        raw_x1 = cs[:, 0] - cs[:, 2] / 2
        assert np.array_equal(passthrough[:, 0], (raw_x1 > 0) & (raw_x1 < 1))

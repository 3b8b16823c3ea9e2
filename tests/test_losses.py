import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from proxydet.errors import ConfigError
from proxydet.losses import (
    AslParams,
    CombinedLossWeights,
    DetectionLossParams,
    LsePoolParams,
    asl,
    asl_grad,
    combined_loss,
    finite_difference_check,
    fixed_match_detection_loss,
    fixed_match_detection_loss_grad,
    loc_loss,
    loc_loss_grad,
    lse_pool,
    lse_pool_grad,
    mil_loss,
    mil_loss_grad,
)

BCE_LIKE = AslParams(gamma_pos=0.0, gamma_neg=0.0, clip=0.0)


def _bce_ref(p: float, y: float) -> float:
    return -(y * math.log(max(p, 1e-8)) + (1 - y) * math.log(max(1 - p, 1e-8)))


class TestAsl:
    def test_reduces_to_bce(self):
        for p in np.arange(0.01, 1.0, 0.01):
            for y in (0.0, 1.0):
                assert asl(float(p), y, BCE_LIKE) == pytest.approx(
                    _bce_ref(float(p), y), abs=1e-12
                )

    def test_half_probability_positive(self):
        assert asl(0.5, 1, BCE_LIKE) == pytest.approx(math.log(2), abs=1e-15)

    def test_clip_zeroes_easy_negative(self):
        assert asl(0.05, 0, AslParams(clip=0.05)) == 0.0

    def test_perfect_positive(self):
        assert asl(1.0, 1) == 0.0

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0, 1, size=(3, 4))
        y = rng.integers(0, 2, size=(3, 4)).astype(float)
        out = asl(p, y)
        for i in range(3):
            for j in range(4):
                assert out[i, j] == asl(float(p[i, j]), float(y[i, j]))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        params = AslParams()
        for _ in range(100):
            p = float(rng.uniform(0.01, 0.99))
            if abs(p - params.clip) < 1e-3:
                continue
            y = float(rng.integers(0, 2))
            rep = finite_difference_check(
                lambda v: asl(float(v[0]), y, params),
                np.array([p]),
                np.array([asl_grad(p, y, params)]),
            )
            assert rep.max_rel_error <= 1e-4

    def test_grad_zero_below_clip(self):
        assert asl_grad(0.03, 0, AslParams(clip=0.05)) == 0.0

    @given(st.floats(0.0, 1.0), st.integers(0, 1))
    def test_nonnegative_and_finite(self, p, y):
        v = asl(p, float(y))
        assert v >= 0.0 and math.isfinite(v)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            AslParams(gamma_neg=-1)
        with pytest.raises(ValueError):
            AslParams(clip=1.0)


class TestLsePool:
    def test_constant_vector(self):
        for r in (0.5, 1.0, 10.0, 100.0):
            assert lse_pool([0.3, 0.3, 0.3], LsePoolParams(r=r)) == pytest.approx(0.3, abs=1e-12)

    def test_two_element_example(self):
        # (1/10) * ln((e^9 + e^1) / 2), evaluated at 40-digit precision
        expected = 0.83071882258129504594
        assert lse_pool([0.9, 0.1], LsePoolParams(r=10.0)) == pytest.approx(expected, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            lse_pool([])
        with pytest.raises(ValueError):
            lse_pool_grad([])

    def test_grad_is_softmax(self):
        x = np.array([0.9, 0.1, 0.4])
        g = lse_pool_grad(x, LsePoolParams(r=10.0))
        assert g.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(g > 0)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.uniform(0, 1, size=int(rng.integers(1, 9)))
            rep = finite_difference_check(
                lambda v: lse_pool(v), x, lse_pool_grad(x)
            )
            assert rep.max_rel_error <= 1e-4

    def test_bounds(self):
        rng = np.random.default_rng(3)
        params = LsePoolParams(r=10.0)
        for _ in range(1000):
            x = rng.uniform(0, 1, size=int(rng.integers(1, 12)))
            v = lse_pool(x, params)
            assert np.mean(x) - 1e-12 <= v <= np.max(x) + 1e-12
            assert v >= np.max(x) - np.log(x.size) / params.r - 1e-12

    def test_monotone_in_every_input(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.uniform(0, 1, size=6)
            bumped = x.copy()
            i = int(rng.integers(0, 6))
            bumped[i] = min(1.0, bumped[i] + 0.05)
            assert lse_pool(bumped) >= lse_pool(x) - 1e-12

    def test_overflow_safety(self):
        # values scaled far beyond the unit interval must not overflow
        assert math.isfinite(lse_pool([300.0, 1.0], LsePoolParams(r=10.0)))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LsePoolParams(r=0.0)


class TestDetectionLoss:
    def _random_inputs(self, rng, r=4):
        presence = rng.uniform(0.05, 0.95, size=r)
        pred = np.column_stack(
            [rng.uniform(0.3, 0.7, size=(r, 2)), rng.uniform(0.1, 0.3, size=(r, 2))]
        )
        tgt = np.column_stack(
            [rng.uniform(0.3, 0.7, size=(r, 2)), rng.uniform(0.1, 0.3, size=(r, 2))]
        )
        present = rng.random(r) < 0.7
        present[0] = True
        return presence, pred, present, tgt

    def test_exact_boxes_zero_box_terms(self):
        boxes = np.array([[0.5, 0.5, 0.2, 0.3], [0.3, 0.6, 0.1, 0.1]])
        present = np.array([True, True])
        out = fixed_match_detection_loss(np.array([0.9, 0.8]), boxes, present, boxes)
        assert out.l1 == 0.0
        assert out.giou_penalty == pytest.approx(0.0, abs=1e-15)

    def test_perfect_presence_zero_bce(self):
        boxes = np.array([[0.5, 0.5, 0.2, 0.3], [0.3, 0.6, 0.1, 0.1]])
        present = np.array([True, False])
        out = fixed_match_detection_loss(np.array([1.0, 0.0]), boxes, present, boxes)
        assert out.presence_bce == 0.0

    def test_no_present_regions_skips_box_terms(self):
        boxes = np.array([[0.5, 0.5, 0.2, 0.3]])
        out = fixed_match_detection_loss(
            np.array([0.2]), boxes, np.array([False]), boxes
        )
        assert out.l1 == 0.0 and out.giou_penalty == 0.0
        assert out.total == pytest.approx(out.presence_bce, abs=1e-15)

    def test_weights_enter_total(self):
        rng = np.random.default_rng(5)
        presence, pred, present, tgt = self._random_inputs(rng)
        params = DetectionLossParams(l1_weight=5, giou_weight=2, presence_weight=1)
        out = fixed_match_detection_loss(presence, pred, present, tgt, params)
        assert out.total == pytest.approx(
            1 * out.presence_bce + 5 * out.l1 + 2 * out.giou_penalty, abs=1e-12
        )

    def test_region_permutation_invariance(self):
        rng = np.random.default_rng(6)
        presence, pred, present, tgt = self._random_inputs(rng, r=6)
        perm = rng.permutation(6)
        a = fixed_match_detection_loss(presence, pred, present, tgt)
        b = fixed_match_detection_loss(presence[perm], pred[perm], present[perm], tgt[perm])
        assert a.total == pytest.approx(b.total, abs=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            presence, pred, present, tgt = self._random_inputs(rng)
            if np.min(np.abs(pred - tgt)) < 1e-3:
                continue
            _, d_pres, d_boxes = fixed_match_detection_loss_grad(
                presence, pred, present, tgt
            )
            r = presence.shape[0]

            def f(vec):
                return fixed_match_detection_loss(
                    vec[:r], vec[r:].reshape(r, 4), present, tgt
                ).total

            rep = finite_difference_check(
                f,
                np.concatenate([presence, pred.ravel()]),
                np.concatenate([d_pres, d_boxes.ravel()]),
            )
            assert rep.max_rel_error <= 1e-4

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            fixed_match_detection_loss(
                np.zeros(2), np.zeros((3, 4)), np.zeros(2, dtype=bool), np.zeros((3, 4))
            )


class TestLocLoss:
    def test_perfect_predictions_zero(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        probs = labels.copy()  # 1 where positive, 0 (below clip) where negative
        present = np.array([True, True])
        assert loc_loss(probs, labels, present) == 0.0

    def test_single_pair_equals_scalar_asl(self):
        probs = np.array([[0.37]])
        labels = np.array([[1.0]])
        assert loc_loss(probs, labels, np.array([True])) == pytest.approx(
            asl(0.37, 1.0), abs=1e-15
        )

    def test_2x2_equals_hand_average(self):
        rng = np.random.default_rng(8)
        probs = rng.uniform(0.1, 0.9, size=(2, 2))
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        present = np.array([True, True])
        expected = np.mean(
            [asl(float(probs[i, j]), float(labels[i, j])) for i in range(2) for j in range(2)]
        )
        assert loc_loss(probs, labels, present) == pytest.approx(expected, abs=1e-15)

    def test_absent_regions_excluded(self):
        probs = np.array([[0.9], [0.2]])
        labels = np.array([[1.0], [1.0]])
        present = np.array([True, False])
        assert loc_loss(probs, labels, present) == pytest.approx(asl(0.9, 1.0), abs=1e-15)
        grad = loc_loss_grad(probs, labels, present)
        assert grad[1, 0] == 0.0

    def test_no_present_regions_is_zero(self, caplog):
        probs = np.array([[0.9]])
        labels = np.array([[1.0]])
        present = np.array([False])
        assert loc_loss(probs, labels, present) == 0.0
        assert np.all(loc_loss_grad(probs, labels, present) == 0.0)


class TestMilLoss:
    def test_single_instance_bag_equals_loc(self):
        probs = np.array([[0.3, 0.8]])
        labels = np.array([0.0, 1.0])
        present = np.array([True])
        # pooling over one region is the identity, so the image-level loss
        # equals the region-level loss with matching labels
        assert mil_loss(probs, labels, present) == pytest.approx(
            loc_loss(probs, labels.reshape(1, 2), present), abs=1e-15
        )

    def test_confident_region_bounds_pooled_loss(self):
        n = 6
        probs = np.zeros((n, 1))
        probs[2, 0] = 1.0
        labels = np.array([1.0])
        present = np.ones(n, dtype=bool)
        lse = LsePoolParams(r=50.0)
        bound = 1.0 - math.log(n) / lse.r
        loss = mil_loss(probs, labels, present, lse)
        assert loss <= asl(bound, 1.0) + 1e-12

    def test_no_present_regions_raises(self):
        with pytest.raises(ValueError):
            mil_loss(np.array([[0.5]]), np.array([1.0]), np.array([False]))
        with pytest.raises(ValueError):
            mil_loss_grad(np.array([[0.5]]), np.array([1.0]), np.array([False]))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            r, c = 4, 3
            probs = rng.uniform(0.15, 0.9, size=(r, c))
            labels = rng.integers(0, 2, size=c).astype(float)
            present = np.ones(r, dtype=bool)

            def f(vec):
                return mil_loss(vec.reshape(r, c), labels, present)

            rep = finite_difference_check(
                f, probs.ravel(), mil_loss_grad(probs, labels, present).ravel()
            )
            assert rep.max_rel_error <= 1e-4


class TestCombinedLoss:
    def test_weighted_sum(self):
        assert combined_loss(1.0, 2.0, CombinedLossWeights(asl_weight=0.01)) == pytest.approx(
            1.02, abs=1e-15
        )

    def test_zero_weight(self):
        assert combined_loss(3.5, 100.0, CombinedLossWeights(asl_weight=0.0)) == 3.5

    def test_default_weight(self):
        assert CombinedLossWeights().asl_weight == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            CombinedLossWeights(asl_weight=-0.1)


class TestLossSettings:
    """Every loss setting is checked by name; NaN and infinity are rejected like a bad range."""

    @pytest.mark.parametrize(
        "cls, name, out_of_range",
        [
            (AslParams, "gamma_pos", -1.0),
            (AslParams, "gamma_neg", -1.0),
            (AslParams, "clip", 1.0),
            (AslParams, "eps", 0.0),
            (LsePoolParams, "r", 0.0),
            (DetectionLossParams, "l1_weight", -1.0),
            (DetectionLossParams, "giou_weight", -1.0),
            (DetectionLossParams, "presence_weight", -1.0),
            (CombinedLossWeights, "asl_weight", -0.1),
        ],
    )
    @pytest.mark.parametrize("kind", ["nan", "inf", "-inf", "range"])
    def test_bad_value_named(self, cls, name, out_of_range, kind):
        value = out_of_range if kind == "range" else float(kind)
        with pytest.raises(ConfigError, match=rf"^{name} must be finite and .*, got {value!r}$"):
            cls(**{name: value})

    def test_boundaries_allowed(self):
        AslParams(gamma_pos=0.0, gamma_neg=0.0, clip=0.0)
        DetectionLossParams(l1_weight=0.0, giou_weight=0.0, presence_weight=0.0)
        CombinedLossWeights(asl_weight=0.0)


class TestFiniteDifferenceCheck:
    def test_quadratic(self):
        rep = finite_difference_check(
            lambda v: float(v[0] ** 2), np.array([3.0]), np.array([6.0])
        )
        assert rep.max_rel_error <= 1e-9
        assert rep.ok

    def test_clip_kink_detected_as_mismatch(self):
        # central differences straddle the kink at p == clip: the checker
        # reports the disagreement, which is why suites exclude such points
        params = AslParams()
        p = params.clip
        rep = finite_difference_check(
            lambda v: asl(float(v[0]), 0.0, params),
            np.array([p]),
            np.array([asl_grad(p, 0.0, params)]),
        )
        assert rep.max_rel_error > 1e-4 or rep.rel_errors[0] > 0

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nonfinite_reported(self):
        rep = finite_difference_check(
            lambda v: float(np.sqrt(v[0])), np.array([0.0]), np.array([0.0])
        )
        assert rep.nonfinite_coords == (0,)
        assert not rep.ok

    def test_input_validation(self):
        with pytest.raises(ValueError):
            finite_difference_check(lambda v: 0.0, np.zeros(2), np.zeros(3))

import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from helpers import AdamWRef, auroc, center_to_corner_ref, train_ref

from proxydet.errors import ConfigError, TrainingError
from proxydet.geometry import Box
from proxydet.head import (
    PARAM_FIELDS,
    AdamW,
    Batch,
    HeadParams,
    LossBreakdown,
    TrainConfig,
    TrainSample,
    batch_loss,
    batch_loss_and_grads,
    forward,
    init_head_params,
    predict_regions,
    train,
)
from proxydet.head import _sigmoid as _head_sigmoid
from proxydet.losses import CombinedLossWeights, asl_grad, finite_difference_check, region_targets


def _params(d=6, c=3, seed=0):
    return init_head_params(d, c, np.random.default_rng(seed))


def _zero_params(d=4, c=2):
    p = _params(d, c)
    for arr in p.to_dict().values():
        arr[...] = 0.0
    return p


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _forward_oracle(x, p):
    """Independent re-implementation with explicit loops."""
    r = x.shape[0]
    presence = np.empty(r)
    probs = np.empty((r, p.n_classes))
    boxes = np.empty((r, 4))
    for i in range(r):
        presence[i] = _sigmoid(float(x[i] @ p.presence_weight + p.presence_bias[0]))
        for c in range(p.n_classes):
            probs[i, c] = _sigmoid(float(p.pathology_weight[c] @ x[i] + p.pathology_bias[c]))
        h1 = np.maximum(p.box_w1 @ x[i] + p.box_b1, 0.0)
        h2 = np.maximum(p.box_w2 @ h1 + p.box_b2, 0.0)
        boxes[i] = _sigmoid(p.box_w3 @ h2 + p.box_b3)
    return presence, boxes, probs


class TestForward:
    def test_zero_parameters_give_half_everywhere(self):
        p = _zero_params()
        out = forward(np.random.default_rng(0).normal(size=(3, 4)), p)
        assert np.all(out.presence == 0.5)
        assert np.all(out.pathology_probs == 0.5)
        assert np.all(out.boxes == 0.5)

    def test_weight_sharing_duplicated_row(self):
        p = _params()
        x = np.random.default_rng(1).normal(size=(2, 6))
        x[1] = x[0]
        out = forward(x, p)
        assert np.array_equal(out.presence[0], out.presence[1])
        assert np.array_equal(out.boxes[0], out.boxes[1])
        assert np.array_equal(out.pathology_probs[0], out.pathology_probs[1])

    def test_matches_loop_oracle(self):
        p = _params(d=5, c=4, seed=2)
        x = np.random.default_rng(3).normal(size=(7, 5))
        out = forward(x, p)
        presence, boxes, probs = _forward_oracle(x, p)
        assert np.allclose(out.presence, presence, atol=1e-12)
        assert np.allclose(out.boxes, boxes, atol=1e-12)
        assert np.allclose(out.pathology_probs, probs, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            forward(np.zeros((2, 7)), _params(d=6))
        with pytest.raises(ValueError):
            forward(np.zeros(6), _params(d=6))

    def test_predict_regions_packaging(self):
        p = _params(d=6, c=3)
        x = np.random.default_rng(4).normal(size=(4, 6))
        dets = predict_regions(x, p)
        out = forward(x, p)
        assert dets.boxes.shape == (4, 4)
        assert np.array_equal(dets.presence, out.presence)
        assert np.array_equal(dets.pathology_probs, out.pathology_probs)
        for i, (cx, cy, w, h) in enumerate(out.boxes):
            assert dets.boxes[i, 0] == pytest.approx(max(cx - w / 2, 0.0), abs=1e-15)


    @given(st.lists(st.floats(min_value=-800.0, max_value=800.0), min_size=1, max_size=20))
    def test_sigmoid_equals_masked_form(self, values):
        z = np.array(values)
        pos = z >= 0
        masked = np.empty_like(z)
        masked[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        e = np.exp(z[~pos])
        masked[~pos] = e / (1.0 + e)
        assert _head_sigmoid(z).tolist() == masked.tolist()

    @given(seed=st.integers(min_value=0, max_value=2**16), r=st.integers(min_value=1, max_value=9))
    def test_predict_regions_matches_scalar_conversion(self, seed, r):
        rng = np.random.default_rng(seed)
        p = _params(d=5, c=2, seed=seed)
        x = rng.normal(size=(r, 5)) * 3.0
        out = forward(x, p)
        boxes = [center_to_corner_ref(*row) for row in out.boxes]
        dets = predict_regions(x, p)
        assert [Box(*row) for row in dets.boxes.tolist()] == boxes
        assert dets.presence.tolist() == out.presence.tolist()


def _random_batch(rng, b=2, r=3, d=6, c=3, with_anatomy=True, with_image=True, present=None):
    features = rng.normal(size=(b, r, d)) * 0.7
    tgt = np.column_stack(
        [rng.uniform(0.3, 0.7, size=(b * r, 2)), rng.uniform(0.1, 0.3, size=(b * r, 2))]
    ).reshape(b, r, 4)
    present = np.ones((b, r), dtype=bool) if present is None else present
    anatomy = rng.integers(0, 2, size=(b, r, c)).astype(float) if with_anatomy else None
    image = (anatomy.sum(axis=1) > 0).astype(float) if (with_image and with_anatomy) else (
        rng.integers(0, 2, size=(b, c)).astype(float) if with_image else None
    )
    return Batch.of(features, tgt, present, anatomy, image)


class TestBackward:
    def test_zero_asl_weight_decouples_pathology_head(self):
        rng = np.random.default_rng(5)
        batch = _random_batch(rng)
        cfg = TrainConfig(mode="loc", weights=CombinedLossWeights(asl_weight=0.0))
        _, grads = batch_loss_and_grads(batch, _params(), cfg)
        assert np.all(grads.pathology_weight == 0.0)
        assert np.all(grads.pathology_bias == 0.0)
        # detection-side gradients still flow
        assert np.any(grads.presence_weight != 0.0)
        assert np.any(grads.box_w3 != 0.0)

    def test_single_region_single_class_hand_chain_rule(self):
        rng = np.random.default_rng(6)
        params = _params(d=4, c=1, seed=7)
        x = rng.normal(size=(1, 1, 4))
        tgt = np.array([[[0.5, 0.5, 0.3, 0.3]]])
        anatomy = np.array([[[1.0]]])
        batch = Batch.of(x, tgt, np.ones((1, 1), dtype=bool), anatomy, None)
        cfg = TrainConfig(mode="loc")
        _, grads = batch_loss_and_grads(batch, params, cfg)
        z = float(params.pathology_weight[0] @ x[0, 0] + params.pathology_bias[0])
        p = 1.0 / (1.0 + np.exp(-z))
        upstream = cfg.weights.asl_weight * asl_grad(p, 1.0, cfg.asl) * p * (1 - p)
        assert np.allclose(grads.pathology_weight[0], upstream * x[0, 0], atol=1e-12)
        assert grads.pathology_bias[0] == pytest.approx(upstream, abs=1e-12)

    @pytest.mark.parametrize("mode", ["loc", "mil", "loc_mil"])
    def test_gradients_match_finite_differences(self, mode):
        rng = np.random.default_rng(8)
        params = _params(d=5, c=2, seed=9)
        batch = _random_batch(rng, b=2, r=3, d=5, c=2)
        cfg = TrainConfig(mode=mode)
        _, grads = batch_loss_and_grads(batch, params, cfg)

        def f(vec):
            return batch_loss(batch, HeadParams.from_flat(vec, 5, 2), cfg).total

        rep = finite_difference_check(f, params.flat.copy(), grads.flat)
        assert rep.max_rel_error <= 1e-4

    def test_finite_differences_derive_the_targets_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return region_targets(*args, **kwargs)

        monkeypatch.setattr("proxydet.head.region_targets", counted)
        params = _params(d=5, c=2, seed=9)
        batch = _random_batch(np.random.default_rng(8), b=2, r=3, d=5, c=2)
        cfg = TrainConfig(mode="loc_mil")
        _, grads = batch_loss_and_grads(batch, params, cfg)

        def f(vec):
            return batch_loss(batch, HeadParams.from_flat(vec, 5, 2), cfg).total

        assert finite_difference_check(f, params.flat.copy(), grads.flat).max_rel_error <= 1e-4
        assert len(calls) == 1

    def test_batch_without_labels_rejected(self):
        batch = _random_batch(np.random.default_rng(3))
        with pytest.raises(ConfigError, match="samples carry neither anatomy-level nor image-level labels"):
            Batch.of(batch.features, batch.targets.boxes, batch.targets.present, None, None)

    def test_gradient_record_is_the_named_gradients_in_order(self):
        batch = _random_batch(np.random.default_rng(3))
        _, grads = batch_loss_and_grads(batch, _params(), TrainConfig(mode="loc_mil"))
        named = np.concatenate([getattr(grads, name).ravel() for name in PARAM_FIELDS])
        assert grads.flat.tobytes() == named.tobytes()

    def test_missing_labels_rejected(self):
        rng = np.random.default_rng(10)
        batch = _random_batch(rng, with_anatomy=False, with_image=True)
        with pytest.raises(ConfigError):
            batch_loss(batch, _params(), TrainConfig(mode="loc"))
        batch = _random_batch(rng, with_anatomy=True, with_image=False)
        with pytest.raises(ConfigError):
            batch_loss(batch, _params(), TrainConfig(mode="mil"))

    def test_weight_sharing_region_permutation(self):
        rng = np.random.default_rng(11)
        batch = _random_batch(rng, b=2, r=4)
        cfg = TrainConfig(mode="loc_mil")
        params = _params()
        base = batch_loss(batch, params, cfg)
        perm = rng.permutation(4)
        permuted = Batch.of(
            batch.features[:, perm],
            batch.targets.boxes[:, perm],
            batch.targets.present[:, perm],
            batch.anatomy_labels[:, perm],
            batch.image_labels,
        )
        out = batch_loss(permuted, params, cfg)
        assert out.total == pytest.approx(base.total, abs=1e-12)

    def test_loc_mil_sums_both_terms(self):
        rng = np.random.default_rng(12)
        batch = _random_batch(rng)
        params = _params()
        both = batch_loss(batch, params, TrainConfig(mode="loc_mil"))
        assert both.loc_asl > 0 and both.mil_asl > 0
        assert both.total == pytest.approx(
            both.detection + 0.01 * (both.loc_asl + both.mil_asl), abs=1e-12
        )

    @pytest.mark.parametrize("mode", ["loc", "mil", "loc_mil"])
    def test_batch_is_mean_of_single_samples_with_absent_regions(self, mode):
        rng = np.random.default_rng(14)
        present = np.array(
            [[True, False, True, False], [False, False, False, True], [True, True, True, False]]
        )
        if mode == "loc":
            present[1] = False  # a sample without present regions weighs 0 in its terms
        batch = _random_batch(rng, b=3, r=4, d=5, c=2, present=present)
        params = _params(d=5, c=2, seed=15)
        cfg = TrainConfig(mode=mode)
        whole, grads = batch_loss_and_grads(batch, params, cfg)
        singles = [
            batch_loss_and_grads(
                Batch.of(
                    batch.features[i : i + 1],
                    batch.targets.boxes[i : i + 1],
                    batch.targets.present[i : i + 1],
                    batch.anatomy_labels[i : i + 1],
                    batch.image_labels[i : i + 1],
                ),
                params,
                cfg,
            )
            for i in range(3)
        ]
        for name in (f.name for f in dataclasses.fields(LossBreakdown)):
            expected = np.mean([getattr(one, name) for one, _ in singles])
            assert getattr(whole, name) == pytest.approx(expected, abs=1e-12), name
        for name, grad in grads.to_dict().items():
            expected = np.mean([getattr(one, name) for _, one in singles], axis=0)
            assert grad == pytest.approx(expected, abs=1e-12), name

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_loss_raises_training_error(self):
        rng = np.random.default_rng(13)
        batch = _random_batch(rng)
        params = _params()
        params.presence_weight[...] = np.inf
        with pytest.raises(TrainingError):
            batch_loss_and_grads(batch, params, TrainConfig(mode="loc"))


class TestHeadParams:
    def test_from_flat_shares_memory_with_its_vector(self):
        vec = np.arange(_params().flat.size, dtype=np.float64)
        params = HeadParams.from_flat(vec, 6, 3)
        assert np.shares_memory(params.flat, vec)
        params.box_b3[...] = -1.0
        assert np.all(vec[-4:] == -1.0)

    def test_named_arrays_are_views_of_the_vector_in_order(self):
        params = _params()
        named = np.concatenate([arr.ravel() for arr in params.to_dict().values()])
        assert list(params.to_dict()) == list(PARAM_FIELDS)
        assert named.tobytes() == params.flat.tobytes()
        assert all(np.shares_memory(arr, params.flat) for arr in params.to_dict().values())

    @pytest.mark.parametrize(
        "vec", [np.zeros(139), np.zeros((1, 140)), np.zeros(140, np.float32)], ids=["length", "2-D", "float32"]
    )
    def test_wrong_vector_rejected(self, vec):
        # D=6, C=3 take 3*6 + 3 + 6 + 1 + 2*(6*6 + 6) + 4*6 + 4 = 140 values
        with pytest.raises(ValueError, match="float64 vector of length 140"):
            HeadParams(vec, 6, 3)


class TestAdamW:
    def test_zero_grad_no_decay_keeps_params(self):
        opt = AdamW(learning_rate=0.1, weight_decay=0.0)
        params = np.array([1.0, -2.0])
        before = params.copy()
        opt.step(params, np.zeros(2))
        assert np.array_equal(params, before)

    def test_zero_grad_decay_scales_params(self):
        lr, wd = 0.1, 0.5
        opt = AdamW(learning_rate=lr, weight_decay=wd)
        params = np.array([1.0, -2.0])
        opt.step(params, np.zeros(2))
        assert np.allclose(params, np.array([1.0, -2.0]) * (1 - lr * wd), atol=1e-15)
        opt.step(params, np.zeros(2))
        assert np.allclose(params, np.array([1.0, -2.0]) * (1 - lr * wd) ** 2, atol=1e-15)

    def test_two_step_scalar_recurrence(self):
        opt = AdamW(learning_rate=0.1)
        params = np.array([1.0])
        grad = np.array([0.5])
        # transcription of the bias-corrected update equations
        x, m, v = 1.0, 0.0, 0.0
        expected = []
        for t in (1, 2):
            m = 0.9 * m + 0.1 * 0.5
            v = 0.999 * v + 0.001 * 0.25
            x = x - 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            expected.append(x)
        opt.step(params, grad)
        assert params[0] == pytest.approx(expected[0], rel=1e-12)
        opt.step(params, grad)
        assert params[0] == pytest.approx(expected[1], rel=1e-12)
        # frozen values from the same recurrence evaluated independently
        assert params[0] == pytest.approx(0.8000000040000005, abs=1e-12)

    def test_step_counter(self):
        opt = AdamW(learning_rate=0.1)
        params = np.array([1.0])
        for _ in range(3):
            opt.step(params, np.array([0.1]))
        assert opt.step_count == 3

    def test_vector_length_fixed_by_the_first_step(self):
        opt = AdamW(learning_rate=0.1)
        opt.step(np.ones(3), np.zeros(3))
        with pytest.raises(ValueError, match="length 3"):
            opt.step(np.ones(3), np.zeros(4))
        with pytest.raises(ValueError, match="length 3"):
            opt.step(np.ones((1, 3)), np.zeros((1, 3)))
        assert opt.step_count == 1

    def test_flat_buffers_over_several_chunks_bit_equal_to_reference(self):
        # at D=128 the update runs in three chunks, the last one partial
        rng = np.random.default_rng(0)
        params = init_head_params(128, 5, rng)
        assert params.flat.size > 2 * AdamW._CHUNK and params.flat.size % AdamW._CHUNK
        ref_params = {k: v.copy() for k, v in params.to_dict().items()}
        opt, ref = AdamW(0.01, 1e-4), AdamWRef(0.01, 1e-4)
        for _ in range(3):
            grads = HeadParams.from_flat(rng.normal(size=params.flat.size), 128, 5)
            opt.step(params.flat, grads.flat)
            ref.step(ref_params, grads.to_dict())
        for name, arr in params.to_dict().items():
            assert arr.tobytes() == ref_params[name].tobytes(), name


def _toy_samples(n=40, seed=0, r=4, c=2, d=8):
    rng = np.random.default_rng(seed)
    samples = []
    sigs = rng.normal(size=(c, d))
    sigs /= np.linalg.norm(sigs, axis=1, keepdims=True)
    for _ in range(n):
        anatomy = (rng.random((r, c)) < 0.4).astype(float)
        feats = np.zeros((r, d))
        feats[:, :r] = np.eye(r)
        feats += anatomy @ sigs + 0.05 * rng.normal(size=(r, d))
        tgt = np.column_stack(
            [rng.uniform(0.3, 0.7, size=(r, 2)), rng.uniform(0.1, 0.3, size=(r, 2))]
        )
        samples.append(
            TrainSample(
                features=feats,
                target_boxes=tgt,
                present=np.ones(r, dtype=bool),
                anatomy_labels=anatomy,
                image_labels=(anatomy.sum(axis=0) > 0).astype(float),
            )
        )
    return samples


class TestTrain:
    def test_zero_learning_rate_keeps_init_and_constant_history(self):
        samples = _toy_samples(10)
        cfg = TrainConfig(mode="loc", batch_size=64, max_steps=20, seed=3, learning_rate=0.0)
        result = train(samples, cfg)
        init = init_head_params(8, 2, np.random.default_rng([3, 0]))
        for name, arr in result.params.to_dict().items():
            assert np.array_equal(arr, init.to_dict()[name])
        totals = {row.total for _, row in result.history}
        assert len(totals) == 1

    def test_loss_decreases(self):
        samples = _toy_samples(60)
        cfg = TrainConfig(mode="loc", batch_size=32, max_steps=600, seed=0, learning_rate=5e-3)
        result = train(samples, cfg)
        first = np.mean([row.total for _, row in result.history[:50]])
        last = np.mean([row.total for _, row in result.history[-50:]])
        assert last < first
        assert last < result.history[0][1].total

    def test_bit_reproducible(self):
        samples = _toy_samples(30)
        cfg = TrainConfig(mode="mil", batch_size=16, max_steps=80, seed=5, learning_rate=1e-3)
        a = train(samples, cfg)
        b = train(samples, cfg)
        for name, arr in a.params.to_dict().items():
            assert np.array_equal(arr, b.params.to_dict()[name])
        assert [r.total for _, r in a.history] == [r.total for _, r in b.history]

    def test_mode_label_requirements(self):
        samples = _toy_samples(8)
        for s in samples:
            s.anatomy_labels = None
        with pytest.raises(ConfigError):
            train(samples, TrainConfig(mode="loc", max_steps=1))
        # image-level labels alone are the premise of mil training
        result = train(
            samples, TrainConfig(mode="mil", max_steps=5, learning_rate=1e-3)
        )
        assert result.steps_run == 5

    @pytest.mark.parametrize("mode", ["loc", "mil", "loc_mil"])
    def test_samples_without_any_labels_named_before_the_mode(self, mode):
        samples = _toy_samples(8)
        for s in samples:
            s.anatomy_labels = s.image_labels = None
        with pytest.raises(ConfigError, match="^samples carry neither anatomy-level nor image-level labels$"):
            train(samples, TrainConfig(mode=mode, max_steps=1))

    def test_learning_rate_defaults_per_mode(self):
        assert TrainConfig(mode="loc").lr == 3e-5
        assert TrainConfig(mode="mil").lr == 1e-4
        assert TrainConfig(mode="loc").wd == 1e-5
        assert TrainConfig(mode="mil").wd == 1e-4
        assert TrainConfig(mode="loc", learning_rate=0.5).lr == 0.5

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(mode="semi")

    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
    @pytest.mark.parametrize("value", [-0.01, float("nan"), float("inf")])
    def test_negative_or_non_finite_step_sizes_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite and >= 0"):
            TrainConfig(mode="loc", **{field: value})

    def test_zero_step_sizes_allowed(self):
        cfg = TrainConfig(mode="mil", learning_rate=0.0, weight_decay=0.0)
        assert (cfg.lr, cfg.wd) == (0.0, 0.0)

    def test_early_stopping(self):
        samples = _toy_samples(10)
        cfg = TrainConfig(
            mode="loc", batch_size=64, max_steps=500, patience=10, seed=1, learning_rate=0.0
        )
        result = train(samples, cfg)
        # constant loss never improves on step 0, so patience triggers
        assert result.stopped_early
        assert result.steps_run == 11

    def test_loc_training_learns_anatomy_auroc(self):
        # train and held-out must come from the same world (same signatures)
        world = _toy_samples(180, seed=2)
        samples, held_out = world[:120], world[120:]
        cfg = TrainConfig(mode="loc", batch_size=64, max_steps=800, seed=0, learning_rate=1e-2)
        result = train(samples, cfg)
        scores, labels = [], []
        for s in held_out:
            out = forward(s.features, result.params)
            scores.append(out.pathology_probs.ravel())
            labels.append(s.anatomy_labels.ravel())
        assert auroc(np.concatenate(scores), np.concatenate(labels)) > 0.9

    def test_mil_training_learns_image_auroc(self):
        world = _toy_samples(180, seed=2)
        samples, held_out = world[:120], world[120:]
        cfg = TrainConfig(mode="mil", batch_size=64, max_steps=800, seed=0, learning_rate=1e-2)
        result = train(samples, cfg)
        scores, labels = [], []
        for s in held_out:
            out = forward(s.features, result.params)
            pooled = np.log(np.mean(np.exp(10.0 * out.pathology_probs), axis=0)) / 10.0
            scores.append(pooled)
            labels.append(s.image_labels)
        assert auroc(np.concatenate(scores), np.concatenate(labels)) > 0.9

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train([], TrainConfig(mode="loc"))


class TestTrainMatchesReferenceLoop:
    def test_loc_mil_with_dropout_bit_equal(self):
        from proxydet.benchmark import scene_to_train_sample
        from proxydet.synth import SynthConfig, generate_dataset

        scenes = generate_dataset(SynthConfig(n_images=60, region_dropout=0.2, seed=5))
        samples = [scene_to_train_sample(s) for s in scenes]
        assert not all(s.present.all() for s in samples)
        cfg = TrainConfig(mode="loc_mil", batch_size=16, max_steps=50, patience=50, seed=2, learning_rate=0.01)
        result = train(samples, cfg)
        ref_params, ref_history = train_ref(samples, cfg, n_classes=5)
        for name, arr in result.params.to_dict().items():
            assert arr.tobytes() == ref_params.to_dict()[name].tobytes(), name
        assert len(result.history) == len(ref_history) == 50

        def hexed(history):
            return [(step, [float(v).hex() for v in dataclasses.astuple(row)]) for step, row in history]

        assert hexed(result.history) == hexed(ref_history)

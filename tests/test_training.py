"""Tests for corpus assembly and the seeded training loop."""

import hashlib
import weakref
from dataclasses import replace

import numpy as np
import pytest

import skelflow.data as data
import skelflow.flow as flow
import skelflow.numcore as nc
import skelflow.skeleton as skeleton
import skelflow.training as training

from conftest import TINY_SKELETON_TEXT, make_tiny_config, random_model
from oracles import segment_nll_per_frame

# sha256 of the 112 windows of `training.synthetic_corpus()`, each window's
# positions, controls, then "fps source\n"
DEFAULT_CORPUS_SHA256 = (
    "b76217fa268e7dd8843330cbce2862ea6d903ab681fc8ed5f4736d2c3dfd813d")


def small_model(seed=0, history=4):
    config = flow.ModelConfig(
        markers=21, channels=3, history=history, flow_steps=2,
        kernel_schedule=(3, 3), encoder_kernel_scale=3, lstm_hidden=8,
        lstm_layers=2, graph_channels=4, encoder_channels=(4, 6),
        temporal_kernel=3)
    return flow.FlowModel.create(config, skeleton.default_skeleton(),
                                 seed=seed)


def small_corpus():
    return training.synthetic_corpus(specs=("line:speed=70",), steps=12)


@pytest.fixture(scope="module")
def corpus():
    return small_corpus()


class TestTrainConfig:
    def test_defaults_validate(self):
        training.TrainConfig().validate()

    def test_rejects_bad_values(self):
        for bad in (dict(steps=0), dict(batch_size=0), dict(nll_frames=0),
                    dict(learning_rate=0.0), dict(grad_clip=-1.0),
                    dict(eval_every=0), dict(init_batch=1)):
            with pytest.raises(ValueError):
                training.TrainConfig(**bad).validate()


class TestSyntheticCorpus:
    def test_window_count_and_shape(self, corpus):
        # One 12-step walker yields one 80-frame window, then 4 augmented
        # variants of it.
        assert len(corpus) == 4
        for w in corpus:
            assert w.positions.shape == (21, 3, 80)
            assert w.controls.shape == (3, 80)
            assert w.root_relative

    def test_augmentation_provenance_mix(self, corpus):
        # the corpus is the walker's one window and its three augmented variants
        clip, _ = data.synth_gait("line:speed=70", steps=12, noise_std=0.25)
        spec = skeleton.default_skeleton()
        window = data.windows(data.to_root_relative(clip, spec))[0]
        expect = data.augment(window, spec)
        assert len(corpus) == len(expect)
        for got, want in zip(corpus, expect):
            np.testing.assert_array_equal(got.positions, want.positions)
            np.testing.assert_array_equal(got.controls, want.controls)

    def test_default_corpus_is_pinned(self):
        # every window's bytes in order; a change to the walker, windowing
        # or augmentation shows here (the bench only checks that set-up
        # repeats)
        digest = hashlib.sha256()
        for w in training.synthetic_corpus():
            digest.update(w.positions.tobytes())
            digest.update(w.controls.tobytes())
            digest.update(f"{w.fps!r} {w.source}\n".encode())
        assert digest.hexdigest() == DEFAULT_CORPUS_SHA256

    def test_clips_shorter_than_a_window_are_rejected(self):
        clip, _ = data.synth_gait("line:speed=70", steps=2)
        with pytest.raises(ValueError, match="shorter than one training window"):
            training.augmented_windows([clip], skeleton.default_skeleton())

    def test_deterministic_given_seed(self):
        a = small_corpus()
        b = small_corpus()
        for wa, wb in zip(a, b):
            np.testing.assert_array_equal(wa.positions, wb.positions)
            np.testing.assert_array_equal(wa.controls, wb.controls)

    def test_seed_changes_noise(self):
        a = training.synthetic_corpus(specs=("line:speed=70",), steps=12,
                                      seed=0)
        b = training.synthetic_corpus(specs=("line:speed=70",), steps=12,
                                      seed=1)
        assert not np.array_equal(a[0].positions, b[0].positions)

    def test_default_corpus_is_sizable(self):
        corpus = training.synthetic_corpus()
        assert len(corpus) >= 80

    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            training.synthetic_corpus(specs=())


class TestSplitCorpus:
    def test_split_is_disjoint_and_complete(self):
        windows = list(range(23))
        train, hold = training.split_corpus(windows, holdout_every=5)
        assert len(train) + len(hold) == 23
        assert set(train).isdisjoint(hold)
        assert hold == [0, 5, 10, 15, 20]

    def test_needs_enough_windows(self):
        with pytest.raises(ValueError):
            training.split_corpus([1], holdout_every=5)
        with pytest.raises(ValueError):
            training.split_corpus(list(range(10)), holdout_every=1)


class TestSegmentNll:
    def test_matches_manual_frame_loop(self, corpus):
        model = small_model()
        cfg = training.TrainConfig(init_batch=16)
        training.initialize_from_corpus(model, corpus, cfg)
        t_h = model.config.history
        pos = np.stack([w.positions[:, :, :t_h + 3] for w in corpus[:2]])
        ctl = np.stack([w.controls[:, :t_h + 3] for w in corpus[:2]])
        loss = training.segment_nll(model, pos, ctl, 3)
        states = None
        parts = []
        for t in range(t_h, t_h + 3):
            logp, states = model.log_likelihood(
                pos[:, :, :, t], pos[:, :, :, t - t_h:t],
                ctl[:, :, t - t_h:t + 1], states=states)
            parts.append(np.mean(nc._data(logp)))
        want = -np.mean(parts)
        np.testing.assert_allclose(float(nc._data(loss)), want, rtol=1e-12)

    def test_state_threading_matters(self, corpus):
        # Evaluating each frame with fresh states must disagree with the
        # threaded segment loss once the LSTM has nonzero weights.
        rng = np.random.default_rng(3)
        config = small_model(seed=9).config
        model = random_model(config, skeleton.default_skeleton(), seed=9)
        for name, p in model.named_parameters():
            if "lstm" in name:
                model.set_parameter(name, nc._data(p)
                                    + 0.1 * rng.normal(size=nc._data(p).shape))
        cfg = training.TrainConfig(init_batch=16)
        training.initialize_from_corpus(model, corpus, cfg)
        t_h = model.config.history
        pos = np.stack([w.positions[:, :, :t_h + 3] for w in corpus[:2]])
        ctl = np.stack([w.controls[:, :t_h + 3] for w in corpus[:2]])
        threaded = float(nc._data(training.segment_nll(model, pos, ctl, 3)))
        fresh = []
        for t in range(t_h, t_h + 3):
            logp, _ = model.log_likelihood(
                pos[:, :, :, t], pos[:, :, :, t - t_h:t],
                ctl[:, :, t - t_h:t + 1])
            fresh.append(np.mean(nc._data(logp)))
        assert abs(threaded - (-np.mean(fresh))) > 1e-8


def loss_and_grads(nll, model, pos, ctl, n_frames):
    lifted = nc.lift(model)
    try:
        loss = nll(model, pos, ctl, n_frames)
        grads = nc.grad(loss, list(lifted.values()))
    finally:
        nc.restore(model)
    return float(nc._data(loss)), dict(zip(lifted, grads))


def assert_matches_per_frame_oracle(model, pos, ctl, n_frames):
    """The layer-major segment loss, without and with a tape, and every
    parameter gradient agree with the frame-by-frame oracle to 1e-10."""
    want = float(segment_nll_per_frame(model, pos, ctl, n_frames))
    got = training.segment_nll(model, pos, ctl, n_frames)
    assert not isinstance(got, nc.Var)
    assert abs(float(got) - want) <= 1e-10 * abs(want)
    got_loss, got_grads = loss_and_grads(training.segment_nll, model, pos,
                                         ctl, n_frames)
    want_loss, want_grads = loss_and_grads(segment_nll_per_frame, model, pos,
                                           ctl, n_frames)
    assert abs(got_loss - want_loss) <= 1e-10 * abs(want_loss)
    assert got_grads.keys() == want_grads.keys()
    for name, want_grad in want_grads.items():
        scale = float(np.max(np.abs(want_grad)))
        assert scale > 0.0, name
        err = float(np.max(np.abs(got_grads[name] - want_grad)))
        assert err <= 1e-10 * scale, (name, err / scale)


class TestLayerMajorSegment:
    @pytest.mark.parametrize("ablation", ["stmg", "smg", "mg"])
    def test_tiny_matches_per_frame_oracle(self, ablation):
        model = random_model(
            make_tiny_config(ablation),
            skeleton.build_skeleton(TINY_SKELETON_TEXT), seed=4)
        t_h = model.config.history
        rng = np.random.default_rng(5)
        pos = rng.normal(size=(3, 4, 2, t_h + 5))
        ctl = rng.normal(size=(3, 3, t_h + 5))
        assert_matches_per_frame_oracle(model, pos, ctl, 5)

    def test_desk_matches_per_frame_oracle(self, corpus):
        model = random_model(flow.desk_config(),
                             skeleton.default_skeleton(), seed=2)
        cfg = training.TrainConfig(init_batch=16)
        training.initialize_from_corpus(model, corpus, cfg)
        t_h = model.config.history
        picks = training._random_picks(corpus, np.random.default_rng(6), 8,
                                       t_h, 8)
        pos, ctl = training._stack_crops(corpus, picks, t_h, 8)
        assert_matches_per_frame_oracle(model, pos, ctl, 8)


class TestTrainLoop:
    def run_short(self, steps=30, seed=0):
        corpus_w = small_corpus()
        train_w, hold_w = training.split_corpus(corpus_w, holdout_every=4)
        model = small_model(seed=seed)
        cfg = training.TrainConfig(steps=steps, batch_size=4, nll_frames=4,
                                   eval_every=10, init_batch=16, seed=seed)
        training.initialize_from_corpus(model, train_w, cfg)
        nll0 = training.evaluate_nll(model, hold_w, cfg)
        log = training.train(model, train_w, hold_w, cfg)
        return model, cfg, nll0, log

    def test_loss_decreases_and_log_shapes(self):
        model, cfg, nll0, log = self.run_short()
        assert len(log.train_nll) == 30
        assert log.eval_steps == [10, 20, 30]
        assert log.eval_nll[-1] < nll0
        assert np.mean(log.train_nll[-5:]) < np.mean(log.train_nll[:5])

    def test_bit_identical_reruns(self):
        model_a, _, _, log_a = self.run_short(seed=5)
        model_b, _, _, log_b = self.run_short(seed=5)
        assert log_a.train_nll == log_b.train_nll
        assert log_a.eval_nll == log_b.eval_nll
        for (ka, va), (kb, vb) in zip(model_a.named_parameters(),
                                      model_b.named_parameters()):
            assert ka == kb
            np.testing.assert_array_equal(nc._data(va), nc._data(vb))

    def test_grad_norm_is_recorded_before_clipping(self, corpus,
                                                   monkeypatch):
        train_w, hold_w = training.split_corpus(corpus, holdout_every=4)
        model = small_model()
        cfg = training.TrainConfig(steps=4, batch_size=2, nll_frames=2,
                                   eval_every=4, init_batch=16,
                                   grad_clip=1e-3)
        training.initialize_from_corpus(model, train_w, cfg)
        unclipped = []
        real_grad = nc.grad

        def recording_grad(loss, leaves):
            grads = real_grad(loss, leaves)
            unclipped.append(np.sqrt(sum(np.sum(g * g) for g in grads)))
            return grads

        monkeypatch.setattr(nc, "grad", recording_grad)
        log = training.train(model, train_w, hold_w, cfg)
        assert len(log.grad_norm) == 4
        np.testing.assert_allclose(log.grad_norm, unclipped, rtol=1e-12)
        assert all(n > cfg.grad_clip for n in log.grad_norm)
        assert "grad" not in log.to_text()

    def test_train_updates_the_parameter_arrays_in_place(self, corpus):
        train_w, hold_w = training.split_corpus(corpus, holdout_every=4)
        model = small_model()
        cfg = training.TrainConfig(steps=3, batch_size=2, nll_frames=2,
                                   eval_every=3, init_batch=16)
        training.initialize_from_corpus(model, train_w, cfg)
        arrays = dict(model.named_parameters())
        values = {k: v.copy() for k, v in arrays.items()}
        training.train(model, train_w, hold_w, cfg)
        for k, v in model.named_parameters():
            assert v is arrays[k], k
        assert any(not np.array_equal(v, values[k]) for k, v in arrays.items())

    def test_train_calls_its_hooks_through_module_attributes(
            self, corpus, monkeypatch):
        # perfbench marks steps and evals, and traces the optimizer, by
        # wrapping these module attributes
        train_w, hold_w = training.split_corpus(corpus, holdout_every=4)
        model = small_model()
        cfg = training.TrainConfig(steps=4, batch_size=2, nll_frames=2,
                                   eval_every=2, init_batch=16)
        training.initialize_from_corpus(model, train_w, cfg)
        calls = {}

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for name in ("lift", "grad", "clip_grad_norm", "adam_step"):
            counting(nc, name)
        counting(training, "evaluate_nll")
        training.train(model, train_w, hold_w, cfg)
        assert calls == {"lift": 4, "grad": 4, "clip_grad_norm": 4,
                         "adam_step": 4, "evaluate_nll": 2}

    def test_train_releases_each_tape_before_the_next_forward_and_eval(
            self, corpus, monkeypatch):
        # a step's loss holds its whole tape; a weak reference to the loss
        # value (Var has __slots__, so not to the Var) dies with the tape
        train_w, hold_w = training.split_corpus(corpus, holdout_every=4)
        model = small_model()
        cfg = training.TrainConfig(steps=4, batch_size=2, nll_frames=2,
                                   eval_every=2, init_batch=16)
        training.initialize_from_corpus(model, train_w, cfg)
        losses, checked = [], []
        real_segment_nll, real_evaluate_nll = (training.segment_nll,
                                               training.evaluate_nll)

        def assert_tapes_released(name):
            checked.append((name, len(losses)))
            assert all(ref() is None for ref in losses), name

        def segment_nll(*args, **kwargs):
            assert_tapes_released("segment_nll")
            loss = real_segment_nll(*args, **kwargs)
            if isinstance(loss, nc.Var):
                losses.append(weakref.ref(loss.data))
            return loss

        def evaluate_nll(*args, **kwargs):
            assert_tapes_released("evaluate_nll")
            return real_evaluate_nll(*args, **kwargs)

        monkeypatch.setattr(training, "segment_nll", segment_nll)
        monkeypatch.setattr(training, "evaluate_nll", evaluate_nll)
        training.train(model, train_w, hold_w, cfg)
        # (call, tapes built before it): each eval runs one tape-free segment
        assert checked == [
            ("segment_nll", 0), ("segment_nll", 1),
            ("evaluate_nll", 2), ("segment_nll", 2),
            ("segment_nll", 2), ("segment_nll", 3),
            ("evaluate_nll", 4), ("segment_nll", 4)]

    def test_evaluate_nll_is_deterministic(self, corpus):
        model = small_model()
        cfg = training.TrainConfig(init_batch=16, nll_frames=4)
        training.initialize_from_corpus(model, corpus, cfg)
        assert training.evaluate_nll(model, corpus, cfg) == \
            training.evaluate_nll(model, corpus, cfg)

    def test_nan_parameter_aborts_with_snapshot(self, corpus):
        train_w, hold_w = training.split_corpus(corpus, holdout_every=4)
        model = small_model()
        cfg = training.TrainConfig(steps=5, batch_size=2, nll_frames=2,
                                   eval_every=5, init_batch=16)
        training.initialize_from_corpus(model, train_w, cfg)
        _, p = next(iter(model.named_parameters()))
        p.flat[0] = np.nan
        before = {k: v.copy() for k, v in model.named_parameters()}
        with pytest.raises(training.TrainingDivergedError) as err:
            training.train(model, train_w, hold_w, cfg)
        assert err.value.step == 1
        assert err.value.last_good_step == 0
        for k, v in model.named_parameters():
            np.testing.assert_array_equal(v, before[k])

    def test_nonfinite_gradient_aborts_with_snapshot(self, corpus,
                                                     monkeypatch):
        # a finite loss with a NaN gradient must still stop training
        train_w, hold_w = training.split_corpus(corpus, holdout_every=4)
        model = small_model()
        cfg = training.TrainConfig(steps=5, batch_size=2, nll_frames=2,
                                   eval_every=5, init_batch=16)
        training.initialize_from_corpus(model, train_w, cfg)
        before = {k: nc._data(v).copy() for k, v in model.named_parameters()}
        real_grad = nc.grad

        def nan_grad(loss, leaves):
            grads = real_grad(loss, leaves)
            grads[-1] = np.full_like(grads[-1], np.nan)
            return grads

        monkeypatch.setattr(nc, "grad", nan_grad)
        with pytest.raises(training.TrainingDivergedError) as err:
            training.train(model, train_w, hold_w, cfg)
        assert err.value.step == 1
        assert err.value.last_good_step == 0
        assert isinstance(err.value.__cause__, nc.NonFiniteGradientError)
        for k, v in model.named_parameters():
            np.testing.assert_array_equal(v, before[k])

    def test_gradient_divergence_between_evals_keeps_last_finite_step(
            self, corpus, monkeypatch):
        # eval_every=5: the model must hold step 2's parameters, not step 0's
        train_w, hold_w = training.split_corpus(corpus, holdout_every=4)
        cfg = training.TrainConfig(steps=5, batch_size=2, nll_frames=2,
                                   eval_every=5, init_batch=16)
        reference = small_model()
        training.initialize_from_corpus(reference, train_w, cfg)
        training.train(reference, train_w, hold_w, replace(cfg, steps=2))
        model = small_model()
        training.initialize_from_corpus(model, train_w, cfg)
        real_grad = nc.grad
        calls = []

        def nan_at_step_3(loss, leaves):
            grads = real_grad(loss, leaves)
            calls.append(1)
            if len(calls) == 3:
                grads[0] = np.full_like(grads[0], np.nan)
            return grads

        monkeypatch.setattr(nc, "grad", nan_at_step_3)
        with pytest.raises(training.TrainingDivergedError) as err:
            training.train(model, train_w, hold_w, cfg)
        assert err.value.step == 3
        assert err.value.last_good_step == 2
        for (k, v), (kr, vr) in zip(model.named_parameters(),
                                    reference.named_parameters()):
            assert k == kr
            np.testing.assert_array_equal(v, vr)

    def test_window_too_short_for_segment(self, corpus):
        model = small_model(history=70)
        cfg = training.TrainConfig(steps=1, nll_frames=20, init_batch=16)
        with pytest.raises(ValueError, match="cannot fit"):
            training.train(model, corpus, corpus, cfg)


class TestTrainLog:
    def test_text_rendering(self):
        log = training.TrainLog(train_nll=[3.5, 3.25],
                                eval_steps=[2], eval_nll=[3.125])
        assert log.to_text() == ("step 1 train_nll 3.500000\n"
                                 "step 2 train_nll 3.250000\n"
                                 "eval_at 2 holdout_nll 3.125000\n")

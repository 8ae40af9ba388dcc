"""Rollout loop, time reversal, mask presets and masked-window
reconstruction."""

import numpy as np
import pytest

from skelflow import flow, sequence
from skelflow.sequence import (
    AllMarkersMissingError, GenerationRequest, MaskPresetError,
    NonFiniteFrameError, ReconstructionRequest, generate, generate_batch,
    impute_history, mask_preset, reconstruct, reconstruct_batch, reverse_sequence,
)
from skelflow.skeleton import build_skeleton, default_skeleton

from conftest import TINY_SKELETON_TEXT, identity_model, make_tiny_config, random_model


@pytest.fixture(scope="module")
def tiny_model():
    skel = build_skeleton(TINY_SKELETON_TEXT)
    model = random_model(make_tiny_config(), skel, seed=3)
    rng = np.random.default_rng(0)
    model.set_standardization(rng.normal(size=(4, 2)) * 0.1,
                              np.abs(rng.normal(size=(4, 2))) + 0.5)
    return model


def _request(model, rng, horizon=6, **kw):
    cfg = model.config
    history = rng.normal(size=(cfg.markers, cfg.channels, cfg.history))
    controls = rng.normal(size=(3, cfg.history + horizon)) * 0.1
    return GenerationRequest(history=history, controls=controls,
                             horizon=horizon, **kw)


class RecordingModel:
    """Stub with the frame-model call surface for a batch of one request;
    logs that request's conditioning set and emits a recognizable constant
    frame per step.  Its data mean is -7 everywhere."""

    def __init__(self, config):
        self.config = config
        self.data_mean = np.full((config.markers, config.channels), -7.0)
        self.histories = []
        self.windows = []
        self.calls = 0

    def initial_state(self, batch):
        return ("state", 0)

    def inverse_transform_frame(self, z, history, controls, states):
        self.histories.append(np.array(history[0]))
        self.windows.append(np.array(controls[0]))
        self.calls += 1
        frame = np.full((1, self.config.markers, self.config.channels), float(self.calls))
        return frame, ("state", self.calls)


# -- generate -------------------------------------------------------------------------


class TestGenerate:
    def test_output_shape(self, tiny_model):
        rng = np.random.default_rng(1)
        out = generate(tiny_model, _request(tiny_model, rng, horizon=7, seed=4))
        assert out.shape == (4, 2, 7)
        assert np.all(np.isfinite(out))

    def test_same_seed_is_bit_identical(self, tiny_model):
        rng = np.random.default_rng(2)
        req = _request(tiny_model, rng, temperature=0.8, seed=11)
        assert np.array_equal(generate(tiny_model, req), generate(tiny_model, req))

    def test_zero_temperature_ignores_seed(self, tiny_model):
        rng = np.random.default_rng(3)
        req_a = _request(tiny_model, rng, temperature=0.0, seed=1)
        req_b = GenerationRequest(history=req_a.history, controls=req_a.controls,
                                  horizon=req_a.horizon, temperature=0.0, seed=999)
        assert np.array_equal(generate(tiny_model, req_a), generate(tiny_model, req_b))

    def test_identity_model_mode_rollout_is_mean_pose(self):
        skel = build_skeleton(TINY_SKELETON_TEXT)
        model = identity_model(make_tiny_config(), skel)
        rng = np.random.default_rng(4)
        mean = rng.normal(size=(4, 2))
        model.set_standardization(mean, np.abs(rng.normal(size=(4, 2))) + 0.5)
        out = generate(model, _request(model, rng, horizon=5, temperature=0.0))
        np.testing.assert_allclose(out, np.repeat(mean[:, :, None], 5, axis=2),
                                   atol=1e-12)

    def test_rolling_history_law(self):
        config = make_tiny_config()
        model = RecordingModel(config)
        rng = np.random.default_rng(5)
        horizon = 6
        history = rng.normal(size=(config.markers, config.channels, config.history))
        controls = rng.normal(size=(3, config.history + horizon))
        mask = np.ones((config.markers, config.history))
        mask[1, :] = 0.0
        seed_window = impute_history(model, history, mask)
        generate(model, GenerationRequest(history=seed_window, controls=controls,
                                          horizon=horizon, seed=0))
        frames = [np.full((config.markers, config.channels), float(k + 1))
                  for k in range(horizon)]
        timeline = np.concatenate([seed_window] + [f[:, :, None] for f in frames], axis=2)
        for k in range(horizon):
            t = config.history + k
            # conditioning history is exactly the last T_h frames so far
            assert np.array_equal(model.histories[k], timeline[:, :, k:t])
            # control window spans those frames plus the one being generated
            assert np.array_equal(model.windows[k], controls[:, t - config.history:t + 1])
        # the imputed seed cells slide out one column per generated frame
        for k in range(horizon):
            seeded = max(config.history - k, 0)
            assert np.all(model.histories[k][1, :, :seeded] == -7.0)
            assert np.all(model.histories[k][1, :, seeded:] > 0.0)

    def test_short_control_track_rejected(self, tiny_model):
        rng = np.random.default_rng(6)
        req = _request(tiny_model, rng, horizon=6)
        req.controls = req.controls[:, :-1]
        with pytest.raises(ValueError, match="history plus horizon"):
            generate(tiny_model, req)

    def test_bad_history_shape_rejected(self, tiny_model):
        rng = np.random.default_rng(7)
        req = _request(tiny_model, rng)
        req.history = req.history[:, :, :-1]
        with pytest.raises(ValueError, match="history"):
            generate(tiny_model, req)

    def test_zero_horizon_rejected(self, tiny_model):
        rng = np.random.default_rng(8)
        req = _request(tiny_model, rng)
        req.horizon = 0
        with pytest.raises(ValueError):
            generate(tiny_model, req)

    def test_non_finite_frame_aborts_with_step_index(self):
        config = make_tiny_config()

        class ExplodingModel(RecordingModel):
            def inverse_transform_frame(self, z, history, controls, states):
                frame, states = super().inverse_transform_frame(
                    z, history, controls, states)
                if self.calls == 3:
                    frame[0, 0, 0] = np.nan
                return frame, states

        rng = np.random.default_rng(9)
        model = ExplodingModel(config)
        req = GenerationRequest(
            history=rng.normal(size=(config.markers, config.channels, config.history)),
            controls=rng.normal(size=(3, config.history + 5)), horizon=5)
        with pytest.raises(NonFiniteFrameError, match="step 2"):
            generate(model, req)


# -- generate_batch -------------------------------------------------------------------


BATCH_TOL = 1e-10


@pytest.fixture(scope="module")
def desk_model():
    model = random_model(flow.desk_config(), default_skeleton(), seed=4)
    rng = np.random.default_rng(1)
    model.set_standardization(rng.normal(size=(21, 3)), np.abs(rng.normal(size=(21, 3))) + 2.0)
    return model


def _mixed_requests(model, rng, count, horizon=5):
    """Requests with their own tracks, seeds, temperatures (0 included) and
    imputed seed windows (some fully observed)."""
    cfg = model.config
    temperatures = (1.0, 0.0, 0.6, 1.3, 0.0, 0.9, 1.0, 0.4)
    requests = []
    for i in range(count):
        mask = None
        if i % 3 == 1:
            mask = np.ones((cfg.markers, cfg.history))
            mask[i % cfg.markers, :] = 0.0
        elif i % 3 == 2:
            mask = mask_preset("random4", markers=cfg.markers, history=cfg.history,
                               seed=i) if cfg.markers > 4 else None
        request = _request(model, rng, horizon=horizon, seed=100 + 7 * i,
                           temperature=temperatures[i])
        if mask is not None:
            request.history = impute_history(model, request.history, mask)
        requests.append(request)
    return requests


class TestGenerateBatch:
    @pytest.mark.parametrize("count", [3, 5, 8])
    def test_matches_each_request_alone(self, tiny_model, count):
        rng = np.random.default_rng(20 + count)
        requests = _mixed_requests(tiny_model, rng, count)
        batch = generate_batch(tiny_model, requests)
        assert batch.shape == (count, 4, 2, 5)
        for frames, request in zip(batch, requests):
            assert np.max(np.abs(frames - generate(tiny_model, request))) <= BATCH_TOL

    def test_matches_each_request_alone_at_desk_size(self, desk_model):
        rng = np.random.default_rng(30)
        requests = _mixed_requests(desk_model, rng, 4, horizon=4)
        batch = generate_batch(desk_model, requests)
        for frames, request in zip(batch, requests):
            want = generate(desk_model, request)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(frames - want)) <= BATCH_TOL * scale

    def test_single_request_is_generate(self, tiny_model):
        request = _request(tiny_model, np.random.default_rng(31), seed=2)
        assert np.array_equal(generate_batch(tiny_model, [request])[0],
                              generate(tiny_model, request))

    def test_mismatched_requests_rejected(self, tiny_model):
        rng = np.random.default_rng(32)
        cfg = tiny_model.config
        good = _request(tiny_model, rng, horizon=5)
        with pytest.raises(ValueError, match="horizon"):
            generate_batch(tiny_model, [good, _request(tiny_model, rng, horizon=4)])
        bad_history = GenerationRequest(
            history=np.zeros((cfg.markers, cfg.channels, cfg.history + 1)),
            controls=good.controls, horizon=5)
        with pytest.raises(ValueError, match="history"):
            generate_batch(tiny_model, [good, bad_history])
        short = GenerationRequest(history=good.history, controls=good.controls[:, :-1],
                                  horizon=5)
        with pytest.raises(ValueError, match="control"):
            generate_batch(tiny_model, [good, short])
        hot = GenerationRequest(history=good.history, controls=good.controls,
                                horizon=5, temperature=float("nan"))
        with pytest.raises(ValueError, match="temperature"):
            generate_batch(tiny_model, [good, hot])
        with pytest.raises(ValueError):
            generate_batch(tiny_model, [])


class TestImputeHistory:
    def test_masked_cells_take_the_data_mean(self, tiny_model):
        cfg = tiny_model.config
        history = np.random.default_rng(33).normal(
            size=(cfg.markers, cfg.channels, cfg.history))
        mask = np.ones((cfg.markers, cfg.history))
        mask[2, :] = 0.0
        mask[0, 1] = 0.0
        imputed = impute_history(tiny_model, history, mask)
        observed = np.broadcast_to(mask.astype(bool)[:, None, :], history.shape)
        assert np.array_equal(imputed[observed], history[observed])
        mean = np.broadcast_to(tiny_model.data_mean[:, :, None], history.shape)
        assert np.array_equal(imputed[~observed], mean[~observed])
        assert np.array_equal(impute_history(tiny_model, history, np.ones_like(mask)),
                              history)

    def test_bad_inputs_raise_the_rollout_errors(self, tiny_model):
        cfg = tiny_model.config
        history = np.zeros((cfg.markers, cfg.channels, cfg.history))
        with pytest.raises(ValueError, match="mask"):
            impute_history(tiny_model, history, np.ones((cfg.markers, 2)))
        with pytest.raises(ValueError, match="0 or 1"):
            impute_history(tiny_model, history, np.full((cfg.markers, cfg.history), 0.5))
        missing = np.ones((cfg.markers, cfg.history))
        missing[:, 1] = 0.0
        with pytest.raises(AllMarkersMissingError, match="frame 1"):
            impute_history(tiny_model, history, missing)
        with pytest.raises(ValueError, match="history"):
            impute_history(tiny_model, history[..., :-1], missing[:, :-1])


class TestReconstructBatch:
    def _requests(self, model, rng, count):
        cfg = model.config
        requests = []
        for i in range(count):
            history = rng.normal(size=(cfg.markers, cfg.channels, cfg.history))
            controls = rng.normal(size=(3, 2 * cfg.history)) * 0.1
            mask = np.ones((cfg.markers, cfg.history))
            mask[i % cfg.markers, :] = 0.0
            mask[(i + 2) % cfg.markers, i % cfg.history] = 0.0
            requests.append(ReconstructionRequest(
                history=history, mask=mask, controls=controls,
                temperature=(0.0, 1.0, 0.5, 0.8)[i % 4], seed=40 + i))
        return requests

    def test_observed_cells_bit_exact_per_request(self, tiny_model):
        requests = self._requests(tiny_model, np.random.default_rng(41), 4)
        results = reconstruct_batch(tiny_model, requests)
        for request, result in zip(requests, results):
            observed = np.broadcast_to(result.observed[:, None, :], request.history.shape)
            assert np.array_equal(result.observed, request.mask.astype(bool))
            assert np.array_equal(result.past[observed], request.history[observed])
            alone = reconstruct(tiny_model, request.history, request.mask,
                                request.controls, temperature=request.temperature,
                                seed=request.seed)
            assert np.max(np.abs(result.past - alone.past)) <= BATCH_TOL
            assert np.max(np.abs(result.future - alone.future)) <= BATCH_TOL

    def test_mismatched_horizons_rejected(self, tiny_model):
        a, b = self._requests(tiny_model, np.random.default_rng(42), 2)
        b.horizon = tiny_model.config.history + 1
        b.controls = np.zeros((3, 2 * tiny_model.config.history + 1))
        with pytest.raises(ValueError, match="horizon"):
            reconstruct_batch(tiny_model, [a, b])
        with pytest.raises(ValueError):
            reconstruct_batch(tiny_model, [])


# -- reverse_sequence -----------------------------------------------------------------


class TestReverseSequence:
    def test_involution(self):
        rng = np.random.default_rng(10)
        frames = rng.normal(size=(4, 3, 9))
        controls = rng.normal(size=(3, 9))
        rf, rc = reverse_sequence(*reverse_sequence(frames, controls))
        assert np.array_equal(rf, frames)
        assert np.array_equal(rc, controls)

    def test_single_frame_keeps_pose_negates_velocity(self):
        rng = np.random.default_rng(11)
        frames = rng.normal(size=(4, 3, 1))
        controls = rng.normal(size=(3, 1))
        rf, rc = reverse_sequence(frames, controls)
        assert np.array_equal(rf, frames)
        assert np.array_equal(rc, -controls)

    def test_frame_order_flips(self):
        frames = np.arange(24.0).reshape(2, 3, 4)
        rf, _ = reverse_sequence(frames, np.zeros((3, 4)))
        assert np.array_equal(rf, frames[:, :, ::-1])

    def test_constant_velocity_walk_reverses_displacement(self):
        from skelflow import data
        frames = 40
        positions = np.zeros((2, 3, frames))
        controls = np.zeros((3, frames))
        controls[0, :] = 3.5  # forward cm per frame
        clip = data.MotionClip(positions, controls, 20.0, root_relative=True)
        fwd = data.world_positions(clip)
        rp, rc = reverse_sequence(clip.positions, clip.controls)
        rev = data.world_positions(data.MotionClip(rp, rc, 20.0, root_relative=True))
        d_fwd = fwd[0, :, 1:] - fwd[0, :, :-1]
        d_rev = rev[0, :, 1:] - rev[0, :, :-1]
        np.testing.assert_allclose(d_rev, -d_fwd, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reverse_sequence(np.zeros((2, 3, 5)), np.zeros((3, 4)))


# -- mask presets ---------------------------------------------------------------------


class TestMaskPresets:
    def test_none_observes_everything(self):
        assert np.all(mask_preset("none", 21, 10) == 1.0)

    def test_right_arm_zeroes_three_rows(self):
        mask = mask_preset("right_arm", 21, 10)
        zero_rows = np.where((mask == 0).all(axis=1))[0]
        assert list(zero_rows) == [18, 19, 20]
        assert mask.sum() == (21 - 3) * 10

    def test_union_preset_is_elementwise_product(self):
        both = mask_preset("right_arm_left_leg", 21, 10)
        assert np.array_equal(
            both, mask_preset("right_arm", 21, 10) * mask_preset("left_leg", 21, 10))

    def test_random4_is_seeded_and_distinct(self):
        a = mask_preset("random4", 21, 10, seed=42)
        b = mask_preset("random4", 21, 10, seed=42)
        c = mask_preset("random4", 21, 10, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert int((a == 0).all(axis=1).sum()) == 4

    def test_skeleton_groups_override_indices(self):
        spec = build_skeleton(
            "markers 4\ncenter 1\nheels 0 3\nedge 0 1\nedge 1 2\nedge 2 3\n"
            "group right_arm 2\ngroup left_leg 0\n")
        mask = mask_preset("right_arm", 4, 5, skeleton_spec=spec)
        assert np.all(mask[2] == 0.0)
        assert mask.sum() == 3 * 5

    def test_unknown_preset_rejected(self):
        with pytest.raises(MaskPresetError):
            mask_preset("torso", 21, 10)

    def test_default_skeleton_carries_preset_groups(self):
        spec = default_skeleton()
        assert spec.groups["right_arm"] == (18, 19, 20)
        assert spec.groups["left_leg"] == (2, 3, 4)


# -- reconstruction -------------------------------------------------------------------


class TestReconstruct:
    def _inputs(self, model, rng, horizon=None):
        cfg = model.config
        history = rng.normal(size=(cfg.markers, cfg.channels, cfg.history))
        horizon = horizon or cfg.history
        controls = rng.normal(size=(3, cfg.history + horizon)) * 0.1
        return history, controls

    def test_observed_cells_bit_exact(self, tiny_model):
        rng = np.random.default_rng(12)
        history, controls = self._inputs(tiny_model, rng)
        mask = np.ones((4, tiny_model.config.history))
        mask[2, :] = 0.0
        mask[0, 1] = 0.0
        res = reconstruct(tiny_model, history, mask, controls, seed=5)
        observed = res.observed
        assert np.array_equal(observed, mask.astype(bool))
        for m in range(4):
            for t in range(tiny_model.config.history):
                if observed[m, t]:
                    assert np.array_equal(res.past[m, :, t], history[m, :, t])
                else:
                    assert not np.array_equal(res.past[m, :, t], history[m, :, t])
        assert np.all(np.isfinite(res.past))

    def test_nothing_missing_is_a_noop(self, tiny_model):
        rng = np.random.default_rng(13)
        history, controls = self._inputs(tiny_model, rng)
        res = reconstruct(tiny_model, history, np.ones((4, tiny_model.config.history)),
                          controls, seed=1)
        assert np.array_equal(res.past, history)

    def test_future_has_requested_horizon(self, tiny_model):
        rng = np.random.default_rng(14)
        history, controls = self._inputs(tiny_model, rng, horizon=7)
        mask = np.ones((4, tiny_model.config.history))
        mask[1, :] = 0.0
        res = reconstruct(tiny_model, history, mask, controls, horizon=7, seed=2)
        assert res.future.shape == (4, 2, 7)

    def test_reversed_rollout_wiring_beyond_history_length(self):
        config = make_tiny_config()
        model = RecordingModel(config)
        rng = np.random.default_rng(18)
        t_h, horizon = config.history, config.history + 2
        history = rng.normal(size=(config.markers, config.channels, t_h))
        controls = rng.normal(size=(3, t_h + horizon))
        mask = np.ones((config.markers, t_h))
        mask[1, :] = 0.0
        res = reconstruct(model, history, mask, controls, horizon=horizon)
        assert model.calls == horizon + t_h
        # step 2 starts from the first T_h generated frames, reversed
        assert np.array_equal(model.histories[horizon], res.future[:, :, :t_h][..., ::-1])
        # and reads the negated, reversed track from index horizon - T_h
        reversed_track = -controls[:, ::-1]
        start = horizon - t_h
        for k in range(t_h):
            assert np.array_equal(model.windows[horizon + k],
                                  reversed_track[:, start + k:start + k + t_h + 1])
        # its frames, un-reversed, fill the masked marker
        expect = np.arange(horizon + t_h, horizon, -1.0)
        assert np.array_equal(res.past[1], np.broadcast_to(expect, (config.channels, t_h)))

    def test_deterministic_under_seed(self, tiny_model):
        rng = np.random.default_rng(15)
        history, controls = self._inputs(tiny_model, rng)
        mask = np.ones((4, tiny_model.config.history))
        mask[3, :] = 0.0
        a = reconstruct(tiny_model, history, mask, controls, temperature=0.5, seed=8)
        b = reconstruct(tiny_model, history, mask, controls, temperature=0.5, seed=8)
        assert np.array_equal(a.past, b.past)
        assert np.array_equal(a.future, b.future)

    def test_all_markers_missing_rejected(self, tiny_model):
        rng = np.random.default_rng(16)
        history, controls = self._inputs(tiny_model, rng)
        mask = np.ones((4, tiny_model.config.history))
        mask[:, 2] = 0.0
        with pytest.raises(AllMarkersMissingError):
            reconstruct(tiny_model, history, mask, controls)

    def test_short_horizon_rejected(self, tiny_model):
        rng = np.random.default_rng(17)
        history, controls = self._inputs(tiny_model, rng)
        with pytest.raises(ValueError, match="horizon"):
            reconstruct(tiny_model, history, np.ones((4, tiny_model.config.history)),
                        controls, horizon=1)

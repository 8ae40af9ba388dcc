"""Clip formats, resampling, windowing, augmentation, control extraction and
the synthetic walker, checked against analytic constructions."""

import hashlib

import numpy as np
import pytest

from skelflow import data
from skelflow.data import (
    ClipFormatError, ClipParseError, MissingMirrorMapError, MotionClip,
    PathSpecError, UpsampleRequestError,
)
from skelflow.skeleton import build_skeleton, default_skeleton
from skelflow.training import DEFAULT_CORPUS_SPECS

from oracles import synth_gait_per_frame


def _file_sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def skel():
    return default_skeleton()


@pytest.fixture(scope="module")
def walker(skel):
    clip, truth = data.synth_gait("line:speed=70", steps=12, fps=20, seed=0)
    return clip, truth


@pytest.fixture(scope="module")
def base_pose(walker):
    """A plausible static 21-marker pose with the root at the origin."""
    pose = walker[0].positions[:, :, 0].copy()
    pose[:, 0] -= pose[0, 0]
    pose[:, 1] -= pose[0, 1]
    return pose


def _random_clip(rng, markers=5, frames=30, fps=25.0, **kw):
    return MotionClip(rng.normal(size=(markers, 3, frames)),
                      rng.normal(size=(3, frames)), fps, **kw)


# -- MotionClip validation -----------------------------------------------------------


class TestMotionClip:
    def test_rejects_bad_position_shape(self):
        with pytest.raises(ClipFormatError):
            MotionClip(np.zeros((5, 2, 7)), np.zeros((3, 7)), 20.0)

    def test_rejects_control_length_mismatch(self):
        with pytest.raises(ClipFormatError):
            MotionClip(np.zeros((5, 3, 7)), np.zeros((3, 6)), 20.0)

    def test_rejects_nonpositive_fps(self):
        with pytest.raises(ClipFormatError):
            MotionClip(np.zeros((5, 3, 7)), np.zeros((3, 7)), 0.0)

    @pytest.mark.parametrize("fps", [np.inf, np.nan])
    def test_rejects_non_finite_fps(self, fps):
        with pytest.raises(ClipFormatError, match="fps must be finite"):
            MotionClip(np.zeros((5, 3, 7)), np.zeros((3, 7)), fps)

    def test_rejects_zero_frames(self):
        with pytest.raises(ClipFormatError, match="no frames"):
            MotionClip(np.zeros((5, 3, 0)), np.zeros((3, 0)), 20.0)

    def test_rejects_nan(self):
        bad = np.zeros((5, 3, 7))
        bad[2, 1, 3] = np.nan
        with pytest.raises(ClipFormatError):
            MotionClip(bad, np.zeros((3, 7)), 20.0)

    def test_duration(self):
        clip = MotionClip(np.zeros((2, 3, 41)), np.zeros((3, 41)), 20.0)
        assert clip.duration == 2.0


# -- file formats --------------------------------------------------------------------


class TestClipFiles:
    def test_text_roundtrip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        clip = _random_clip(rng, root_relative=True, source="unit fixture")
        path = tmp_path / "clip.txt"
        data.save_clip(clip, path, "text")
        back = data.load_clip(path)
        assert np.array_equal(back.positions, clip.positions)
        assert np.array_equal(back.controls, clip.controls)
        assert back.fps == clip.fps
        assert back.root_relative is True
        assert back.source == "unit fixture"

    def test_binary_roundtrip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(1)
        clip = _random_clip(rng, source="bin fixture")
        path = tmp_path / "clip.skc"
        data.save_clip(clip, path, "binary")
        back = data.load_clip(path)
        assert np.array_equal(back.positions, clip.positions)
        assert np.array_equal(back.controls, clip.controls)
        assert back.root_relative is False

    def test_saved_files_are_deterministic(self, tmp_path):
        rng = np.random.default_rng(2)
        clip = _random_clip(rng)
        for fmt, ext in (("text", "txt"), ("binary", "skc")):
            a, b = tmp_path / f"a.{ext}", tmp_path / f"b.{ext}"
            data.save_clip(clip, a, fmt)
            data.save_clip(clip, b, fmt)
            assert _file_sha(a) == _file_sha(b)

    def test_save_load_save_hash_stable(self, tmp_path, walker):
        clip = walker[0]
        first = tmp_path / "one.txt"
        second = tmp_path / "two.txt"
        data.save_clip(clip, first, "text")
        data.save_clip(data.load_clip(first), second, "text")
        assert _file_sha(first) == _file_sha(second)

    def test_auto_format_detection(self, tmp_path):
        rng = np.random.default_rng(3)
        clip = _random_clip(rng)
        t, b = tmp_path / "x.txt", tmp_path / "x.skc"
        data.save_clip(clip, t, "text")
        data.save_clip(clip, b, "binary")
        assert np.array_equal(data.load_clip(t).positions, clip.positions)
        assert np.array_equal(data.load_clip(b).positions, clip.positions)

    def test_text_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# fps 20\n# markers 1\n1 2 3 4 5 6\n1 2 oops 4 5 6\n")
        with pytest.raises(ClipParseError, match="line 4"):
            data.load_clip(path)

    def test_text_marker_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# fps 20\n# markers 2\n1 2 3 4 5 6\n")
        with pytest.raises(ClipParseError, match="marker-count mismatch"):
            data.load_clip(path)

    def test_text_missing_fps_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# markers 1\n1 2 3 4 5 6\n")
        with pytest.raises(ClipParseError, match="fps"):
            data.load_clip(path)

    def test_truncated_binary_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        clip = _random_clip(rng)
        path = tmp_path / "x.skc"
        data.save_clip(clip, path, "binary")
        payload = path.read_bytes()
        path.write_bytes(payload[:-16])
        with pytest.raises(ClipFormatError):
            data.load_clip(path)

    def test_unknown_format_rejected(self, tmp_path):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            data.save_clip(_random_clip(rng), tmp_path / "x", "yaml")


# -- resampling ----------------------------------------------------------------------


class TestResample:
    def test_same_rate_is_identity(self):
        rng = np.random.default_rng(6)
        clip = _random_clip(rng, fps=20.0)
        out = data.resample(clip, 20.0)
        assert out is not clip
        assert np.array_equal(out.positions, clip.positions)
        assert np.array_equal(out.controls, clip.controls)

    def test_upsampling_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(UpsampleRequestError):
            data.resample(_random_clip(rng, fps=20.0), 40.0)

    def test_halving_halves_frame_count(self):
        rng = np.random.default_rng(8)
        clip = _random_clip(rng, frames=160, fps=40.0)
        assert data.resample(clip, 20.0).frame_count == 80

    def test_constant_velocity_displacement_preserved(self):
        speed, fps = 70.0, 50.0
        frames = 151
        rng = np.random.default_rng(9)
        pose = rng.normal(size=(4, 3, 1))
        positions = np.repeat(pose, frames, axis=2)
        positions[:, 1, :] += speed * np.arange(frames) / fps
        controls = np.zeros((3, frames))
        controls[0, :] = speed / fps
        clip = MotionClip(positions, controls, fps)
        out = data.resample(clip, 20.0)
        assert out.fps == 20.0
        # per-second displacement encoded in the controls survives
        np.testing.assert_allclose(out.controls[0] * 20.0, speed, atol=1e-9)
        np.testing.assert_allclose(out.controls[1:], 0.0, atol=1e-9)
        # positions stay on the same straight world line
        expect = pose[:, 1, 0][:, None] + speed * np.arange(out.frame_count) / 20.0
        np.testing.assert_allclose(out.positions[:, 1, :], expect, atol=1e-9)

    def test_turning_controls_survive_resampling(self, skel):
        clip, _ = data.synth_gait("circle:radius=200,speed=60", steps=12, fps=40)
        out = data.resample(clip, 20.0)
        src_rot = clip.controls[2, 1:].sum()
        dst_rot = out.controls[2, 1:].sum()
        assert abs(src_rot - dst_rot) < 1e-6


# -- windowing -----------------------------------------------------------------------


class TestWindows:
    def _clip(self, frames, fps=20.0):
        return MotionClip(np.zeros((3, 3, frames)), np.zeros((3, frames)), fps,
                          root_relative=True)

    def test_160_frames_give_three_windows(self):
        rng = np.random.default_rng(4)
        clip = _random_clip(rng, frames=160, root_relative=True, source="s")
        out = data.windows(clip, length=80, overlap=0.5)
        assert len(out) == 3
        for k, w in enumerate(out):
            # window k is the clip slice at k * stride, in its own arrays
            assert np.array_equal(w.positions, clip.positions[:, :, 40 * k:40 * k + 80])
            assert np.array_equal(w.controls, clip.controls[:, 40 * k:40 * k + 80])
            assert not np.shares_memory(w.positions, clip.positions)
            assert not np.shares_memory(w.controls, clip.controls)
            assert (w.fps, w.root_relative, w.source) == (25.0, True, "s")

    def test_exact_fit_gives_one_window(self):
        assert len(data.windows(self._clip(80))) == 1

    def test_short_clip_gives_empty_list(self):
        assert data.windows(self._clip(79)) == []

    def test_window_spans_four_seconds_at_20fps(self):
        w = data.windows(self._clip(80), length=80)[0]
        assert w.frame_count == 80
        assert w.frame_count / w.fps == 4.0

    def test_bad_overlap_rejected(self):
        with pytest.raises(ValueError):
            data.windows(self._clip(100), overlap=1.0)


# -- augmentation --------------------------------------------------------------------


def _window_from(clip, skel, length=80):
    return data.windows(data.to_root_relative(clip, skel), length=length)[0]


class TestAugment:
    def test_yields_four_variants(self, walker, skel):
        win = _window_from(walker[0], skel)
        mirrored = data.mirror_window(win, skel)
        expect = [win, mirrored, data.reverse_window(win),
                  data.reverse_window(mirrored)]
        out = data.augment(win, skel)
        assert len(out) == 4
        for got, want in zip(out, expect):
            assert isinstance(got, MotionClip)
            assert np.array_equal(got.positions, want.positions)
            assert np.array_equal(got.controls, want.controls)

    def test_mirror_twice_is_identity(self, walker, skel):
        win = _window_from(walker[0], skel)
        back = data.mirror_window(data.mirror_window(win, skel), skel)
        assert np.array_equal(back.positions, win.positions)
        assert np.array_equal(back.controls, win.controls)

    def test_reverse_twice_is_identity(self, walker, skel):
        win = _window_from(walker[0], skel)
        back = data.reverse_window(data.reverse_window(win))
        assert np.array_equal(back.positions, win.positions)
        assert np.array_equal(back.controls, win.controls)

    def test_mirror_and_reverse_commute(self, walker, skel):
        win = _window_from(walker[0], skel)
        a = data.reverse_window(data.mirror_window(win, skel))
        b = data.mirror_window(data.reverse_window(win), skel)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.controls, b.controls)

    def test_mirror_swaps_pairs_and_flips_lateral_channel(self, walker, skel):
        win = _window_from(walker[0], skel)
        mir = data.mirror_window(win, skel)
        perm = skel.mirror_permutation()
        assert np.array_equal(mir.positions[perm][:, 0], -win.positions[:, 0])
        assert np.array_equal(mir.positions[perm][:, 1:], win.positions[:, 1:])
        assert np.array_equal(mir.controls[0], win.controls[0])
        assert np.array_equal(mir.controls[1], -win.controls[1])
        assert np.array_equal(mir.controls[2], -win.controls[2])

    def test_mirror_rule_matches_mirrored_geometry(self, skel):
        # Reflect the world-frame walker, relabel left/right markers, and
        # re-extract the controls: forward must survive, sideways and
        # rotation must flip sign.
        clip, _ = data.synth_gait("s_curve:sway=0.5,wavelength=400,speed=65",
                                  steps=14, fps=20)
        perm = skel.mirror_permutation()
        mirrored = clip.positions[perm].copy()
        mirrored[:, 0, :] *= -1.0
        c_orig = data.extract_controls(clip.positions, skel)
        c_mirr = data.extract_controls(mirrored, skel)
        np.testing.assert_allclose(c_mirr[0], c_orig[0], atol=1e-12)
        np.testing.assert_allclose(c_mirr[1], -c_orig[1], atol=1e-12)
        np.testing.assert_allclose(c_mirr[2], -c_orig[2], atol=1e-12)

    def test_mirror_needs_pair_map(self, walker):
        bare = build_skeleton(
            "markers 21\ncenter 10\nheels 3 7\nlateral 1 5\n"
            + "\n".join(f"edge {a} {b}" for a, b in default_skeleton().edges))
        win = _window_from(walker[0], default_skeleton())
        with pytest.raises(MissingMirrorMapError):
            data.mirror_window(win, bare)

    def test_mirror_requires_root_relative(self, walker, skel):
        win = data.windows(walker[0], length=80)[0]
        with pytest.raises(ValueError):
            data.mirror_window(win, skel)


# -- control extraction ---------------------------------------------------------------


class TestExtractControls:
    def test_stationary_pose_gives_exact_zeros(self, base_pose, skel):
        positions = np.repeat(base_pose[:, :, None], 40, axis=2)
        controls = data.extract_controls(positions, skel)
        assert np.all(controls == 0.0)

    def test_constant_velocity_straight_walk(self, base_pose, skel):
        frames, fps, speed = 60, 20.0, 70.0
        positions = np.repeat(base_pose[:, :, None], frames, axis=2)
        positions[:, 1, :] += speed * np.arange(frames) / fps
        controls = data.extract_controls(positions, skel)
        np.testing.assert_allclose(controls[0], speed / fps, atol=1e-9)
        np.testing.assert_allclose(controls[1], 0.0, atol=1e-9)
        np.testing.assert_allclose(controls[2], 0.0, atol=1e-9)

    def test_pure_rotation_in_place(self, base_pose, skel):
        frames, fps, omega = 60, 20.0, 0.8
        ang = omega * np.arange(frames) / fps
        cos, sin = np.cos(ang), np.sin(ang)
        positions = np.empty((21, 3, frames))
        positions[:, 0, :] = base_pose[:, 0:1] * cos[None] - base_pose[:, 1:2] * sin[None]
        positions[:, 1, :] = base_pose[:, 0:1] * sin[None] + base_pose[:, 1:2] * cos[None]
        positions[:, 2, :] = base_pose[:, 2:3]
        controls = data.extract_controls(positions, skel)
        assert np.all(controls[0] == 0.0)
        assert np.all(controls[1] == 0.0)
        np.testing.assert_allclose(controls[2], omega / fps, atol=1e-12)

    def test_too_short_clip_rejected(self, base_pose, skel):
        with pytest.raises(ValueError):
            data.extract_controls(base_pose[:, :, None], skel)


# -- root-relative conversion ----------------------------------------------------------


class TestRootRelative:
    def test_roundtrip_reproduces_world_positions(self, walker, skel):
        clip = walker[0]
        local = data.to_root_relative(clip, skel)
        assert local.root_relative
        ref_xy, theta = data._reference_trajectory(clip.positions, skel)
        back = data.world_positions(local, initial_xy=ref_xy[:, 0],
                                    initial_heading=theta[0])
        np.testing.assert_allclose(back, clip.positions, atol=1e-9)

    def test_world_clip_passes_through(self, walker):
        out = data.world_positions(walker[0])
        assert np.array_equal(out, walker[0].positions)

    def test_already_root_relative_copies(self, walker, skel):
        local = data.to_root_relative(walker[0], skel)
        again = data.to_root_relative(local, skel)
        assert again is not local
        assert np.array_equal(again.positions, local.positions)

    def test_no_degenerate_channels_after_conversion(self, walker, skel):
        local = data.to_root_relative(walker[0], skel)
        assert local.positions.std(axis=2).min() > 0.1

    def test_vertical_coordinates_untouched(self, walker, skel):
        local = data.to_root_relative(walker[0], skel)
        assert np.array_equal(local.positions[:, 2, :], walker[0].positions[:, 2, :])


# -- standardization -------------------------------------------------------------------


class TestStandardizeFit:
    def _windows(self, rng, n=3, markers=4, length=20):
        return [MotionClip(rng.normal(size=(markers, 3, length)) * 3 + 1,
                           rng.normal(size=(3, length)), 20.0)
                for _ in range(n)]

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(10)
        ws = self._windows(rng)
        mean, std = data.standardize_fit(ws)
        stacked = np.concatenate([w.positions for w in ws], axis=2)
        # two-pass: mean first, then rms deviation
        om = stacked.sum(axis=2) / stacked.shape[2]
        ov = np.sqrt(((stacked - om[:, :, None]) ** 2).sum(axis=2) / stacked.shape[2])
        np.testing.assert_allclose(mean, om, atol=1e-12)
        np.testing.assert_allclose(std, ov, atol=1e-12)

    def test_pre_standardized_data_is_near_unit(self):
        rng = np.random.default_rng(11)
        ws = self._windows(rng, n=6, length=400)
        mean, std = data.standardize_fit(ws)
        zs = [MotionClip((w.positions - mean[:, :, None]) / std[:, :, None],
                         w.controls, w.fps) for w in ws]
        m2, s2 = data.standardize_fit(zs)
        np.testing.assert_allclose(m2, 0.0, atol=1e-12)
        np.testing.assert_allclose(s2, 1.0, atol=1e-12)

    def test_constant_channel_floors(self):
        rng = np.random.default_rng(12)
        ws = self._windows(rng)
        for w in ws:
            w.positions[1, 2, :] = 7.0
        _, std = data.standardize_fit(ws)
        assert std[1, 2] == pytest.approx(1e-6)

    def test_needs_two_windows(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            data.standardize_fit(self._windows(rng, n=1))


# -- walker paths ----------------------------------------------------------------------


class TestPathSpecs:
    def test_defaults_fill_in(self):
        params = data.parse_path_spec("line")
        assert params == {"kind": "line", "speed": 70.0}

    def test_full_spec_parses(self):
        params = data.parse_path_spec("circle:radius=220,speed=60")
        assert params["radius"] == 220.0 and params["speed"] == 60.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(PathSpecError):
            data.parse_path_spec("zigzag:speed=10")

    def test_unknown_key_rejected(self):
        with pytest.raises(PathSpecError):
            data.parse_path_spec("line:pace=10")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(PathSpecError):
            data.parse_path_spec("line:speed=fast")

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(PathSpecError):
            data.parse_path_spec("line:speed=0")

    def test_canonical_string_roundtrips(self):
        params = data.parse_path_spec("circle:radius=220,speed=60")
        assert data.parse_path_spec(data.path_spec_string(params)) == params

    def test_circle_path_controls_turn_at_speed_over_radius(self):
        speed, radius, fps = 60.0, 220.0, 20.0
        dpsi = speed / fps / radius
        psi = dpsi * np.arange(100)
        pc = data._controls_from_path(
            radius * np.stack([np.cos(psi) - 1.0, np.sin(psi)]), psi)
        np.testing.assert_allclose(pc[2, 1:] * fps, speed / radius, atol=1e-12)
        # chord of the per-frame arc, in the previous heading frame
        np.testing.assert_allclose(pc[0, 1:], radius * np.sin(dpsi), atol=1e-9)
        np.testing.assert_allclose(pc[1, 1:], radius * (np.cos(dpsi) - 1.0), atol=1e-9)


class TestSynthGait:
    def test_bone_lengths_rigid(self, skel):
        for spec in ("line:speed=70", "circle:radius=220,speed=60",
                     "s_curve:sway=0.5,wavelength=400,speed=65"):
            clip, truth = data.synth_gait(spec, steps=10, fps=20, seed=0)
            for (a, b), ref in zip(skel.edges, truth.bone_lengths):
                lengths = np.linalg.norm(clip.positions[a] - clip.positions[b], axis=0)
                assert np.abs(lengths - ref).max() < 1e-12, (a, b)

    def test_heels_exactly_planted_during_stances(self, walker):
        clip, truth = walker
        for start, end, heel in truth.footstep_intervals:
            lo = int(np.ceil(start * clip.fps - 1e-9))
            hi = int(np.floor(end * clip.fps + 1e-9))
            segment = clip.positions[heel, :, lo:hi + 1]
            assert np.ptp(segment, axis=1).max() == 0.0

    def test_twenty_steps_at_two_per_second_in_ten_seconds(self):
        clip, truth = data.synth_gait("line:speed=70", steps=20, fps=20, cadence=2.0)
        assert truth.step_count == 20
        assert len(truth.footstep_intervals) == 20
        assert clip.duration <= 10.0

    def test_stances_alternate_feet(self, walker):
        heels = [h for _, _, h in walker[1].footstep_intervals]
        assert heels[0] == 3
        assert all(h in (3, 7) for h in heels)
        assert all(a != b for a, b in zip(heels, heels[1:]))

    def test_circle_heading_rate_matches_speed_over_radius(self):
        speed, radius, fps, cadence = 60.0, 220.0, 20.0, 2.0
        clip, _ = data.synth_gait(f"circle:radius={radius},speed={speed}",
                                  steps=16, fps=fps, cadence=cadence)
        cycle = int(round(fps * 2.0 / cadence))  # frames per full gait cycle
        t1 = 12
        t2 = t1 + 3 * cycle
        rate = clip.controls[2, t1 + 1:t2 + 1].sum() / (t2 - t1) * fps
        assert abs(rate - speed / radius) < 1e-9

    def test_seeded_noise_is_reproducible_and_nonzero(self):
        a, _ = data.synth_gait("line:speed=70", steps=4, fps=20, seed=9, noise_std=0.25)
        b, _ = data.synth_gait("line:speed=70", steps=4, fps=20, seed=9, noise_std=0.25)
        c, _ = data.synth_gait("line:speed=70", steps=4, fps=20, seed=10, noise_std=0.25)
        assert np.array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, c.positions)

    def test_unreachable_stride_rejected(self):
        with pytest.raises(PathSpecError, match="reach"):
            data.synth_gait("line:speed=230", steps=4, fps=20)

    def test_low_fps_rejected(self):
        with pytest.raises(ValueError, match="fps"):
            data.synth_gait("line:speed=70", steps=4, fps=8, cadence=2.0)

    def test_source_tag_carries_canonical_spec(self, walker):
        assert walker[0].source == "synth:line:speed=70"


def _same_walker(args, kwargs):
    clip, truth = data.synth_gait(*args, **kwargs)
    ref_clip, ref_truth = synth_gait_per_frame(*args, **kwargs)
    assert clip.positions.tobytes() == ref_clip.positions.tobytes(), (args, kwargs)
    assert clip.controls.tobytes() == ref_clip.controls.tobytes(), (args, kwargs)
    assert (clip.fps, clip.source) == (ref_clip.fps, ref_clip.source)
    assert truth == ref_truth


class TestSynthGaitMatchesPerFrameWalker:
    """The whole-trajectory walker reproduces the per-frame one byte for byte."""

    @pytest.mark.parametrize("spec", DEFAULT_CORPUS_SPECS + (
        "circle:radius=-150,speed=60", "s_curve:sway=1.2,wavelength=300,speed=65"))
    def test_positions_controls_and_truth(self, spec):
        for steps in (2, 8, 24):
            for fps in (10.0, 20.0, 47.0):
                for noise_std in (0.0, 0.25):
                    _same_walker((spec,), dict(steps=steps, fps=fps, seed=7,
                                               noise_std=noise_std))

    def test_swing_lift_rounds_like_scalar_power(self):
        # An array `** 2` in the heel lift moves heel and knee markers here.
        _same_walker(("line:speed=51",), dict(steps=8, fps=26.0, cadence=1.47))

    @pytest.mark.parametrize("spec, fps", (
        ("line:speed=180", 20.0), ("line:speed=230", 20.0),
        ("circle:radius=40,speed=170", 20.0),
        # legs overreach in different frames: the error names the earlier one
        ("line:speed=165", 47.0)))
    def test_out_of_reach_error_text(self, spec, fps):
        with pytest.raises(PathSpecError) as ref:
            synth_gait_per_frame(spec, steps=6, fps=fps)
        with pytest.raises(PathSpecError) as err:
            data.synth_gait(spec, steps=6, fps=fps)
        assert str(err.value) == str(ref.value)


"""Tests for footstep detection and bone-length reporting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skelflow.data as data
import skelflow.metrics as metrics
import skelflow.skeleton as skeleton
from oracles import (brute_force_footsteps, footstep_counts_per_tolerance,
                     footstep_sweep_reference)
from test_acceptance import WALKERS

FPS = 20.0

THREE_MARKER_TEXT = """
markers 3
center 1
heels 0 2
root 0
edge 0 1
edge 1 2
"""

THREE_MARKER_WITH_BONES = THREE_MARKER_TEXT + """
bone_cm 0 1 50.0
bone_cm 1 2 40.0
"""


@pytest.fixture(scope="module")
def skel():
    return skeleton.default_skeleton()


@pytest.fixture(scope="module")
def tiny_skel():
    return skeleton.build_skeleton(THREE_MARKER_TEXT)


@pytest.fixture(scope="module")
def walker():
    clip, truth = data.synth_gait("line:speed=70", steps=12, fps=FPS)
    return clip, truth


def make_clip(positions, fps=FPS, root_relative=False):
    t = positions.shape[2]
    return data.MotionClip(positions=positions, controls=np.zeros((3, t)),
                           fps=fps, root_relative=root_relative)


class TestHeelSpeeds:
    def test_stationary_clip_gives_zero_speeds(self, tiny_skel):
        pos = np.ones((3, 3, 40))
        speeds = metrics.heel_speeds(make_clip(pos), tiny_skel)
        assert speeds.shape == (2, 40)
        assert np.all(speeds == 0.0)

    def test_constant_velocity_speed_in_mm_s(self, tiny_skel):
        # 1.5 cm per frame at 20 fps is 300 mm/s.
        pos = np.zeros((3, 3, 30))
        pos[:, 0, :] = 1.5 * np.arange(30)
        speeds = metrics.heel_speeds(make_clip(pos), tiny_skel)
        np.testing.assert_allclose(speeds, 300.0, atol=1e-9)

    def test_first_column_repeats_second(self, tiny_skel):
        rng = np.random.default_rng(0)
        speeds = metrics.heel_speeds(make_clip(rng.normal(size=(3, 3, 25))),
                                     tiny_skel)
        np.testing.assert_array_equal(speeds[:, 0], speeds[:, 1])

    def test_vertical_motion_is_ignored(self, tiny_skel):
        pos = np.zeros((3, 3, 30))
        pos[:, 2, :] = np.sin(np.arange(30))
        speeds = metrics.heel_speeds(make_clip(pos), tiny_skel)
        assert np.all(speeds == 0.0)

    def test_diagonal_motion_uses_both_axes(self, tiny_skel):
        pos = np.zeros((3, 3, 10))
        pos[:, 0, :] = 3.0 * np.arange(10)
        pos[:, 1, :] = 4.0 * np.arange(10)
        speeds = metrics.heel_speeds(make_clip(pos), tiny_skel)
        np.testing.assert_allclose(speeds, 5.0 * FPS * 10.0, atol=1e-9)

    def test_root_relative_clip_recomposes_global_travel(self, skel, walker):
        clip, _ = walker
        rel = data.to_root_relative(clip, skeleton_spec=skel)
        got = metrics.heel_speeds(rel, skel)
        want = metrics.heel_speeds(clip, skel)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_no_heels_raises(self):
        bare = skeleton.SkeletonSpec(marker_count=2, edges=((0, 1),),
                                     center_marker=0, heel_markers=())
        with pytest.raises(ValueError, match="heel"):
            metrics.heel_speeds(make_clip(np.zeros((2, 3, 5))), bare)

    @pytest.mark.parametrize("markers", (2, 4))
    def test_marker_count_mismatch_raises(self, tiny_skel, markers):
        clip = make_clip(np.zeros((markers, 3, 5)))
        with pytest.raises(ValueError, match=f"clip has {markers} markers but the "
                                             "skeleton has 3"):
            metrics.heel_speeds(clip, tiny_skel)


class TestCountFootsteps:
    def square_wave(self, low_frames, high_frames, cycles, high=500.0):
        row = []
        for _ in range(cycles):
            row.extend([0.0] * low_frames)
            row.extend([high] * high_frames)
        return np.asarray([row])

    def test_square_wave_counts_and_durations(self):
        speeds = self.square_wave(6, 6, 4)
        count, durations = metrics.count_footsteps(speeds, 100.0, FPS)
        assert count == 4
        np.testing.assert_allclose(durations, [0.3] * 4)

    def test_zero_tolerance_counts_nothing(self):
        speeds = self.square_wave(6, 6, 4)
        count, durations = metrics.count_footsteps(speeds, 0.0, FPS)
        assert count == 0 and durations == ()

    def test_tolerance_above_peak_spans_whole_clip(self):
        speeds = np.vstack([self.square_wave(6, 6, 4)] * 2)
        count, durations = metrics.count_footsteps(speeds, 1e9, FPS)
        assert count == 2
        np.testing.assert_allclose(durations, [48 / FPS] * 2)

    def test_short_dips_filtered_by_min_duration(self):
        speeds = np.asarray([[500.0, 0.0, 500.0, 0.0, 0.0, 500.0]])
        count, durations = metrics.count_footsteps(speeds, 100.0, FPS)
        assert count == 1
        np.testing.assert_allclose(durations, [0.1])
        count, _ = metrics.count_footsteps(speeds, 100.0, FPS,
                                           min_duration_frames=1)
        assert count == 2

    def test_run_touching_clip_end_is_counted(self):
        speeds = np.asarray([[500.0, 500.0, 0.0, 0.0, 0.0]])
        count, durations = metrics.count_footsteps(speeds, 100.0, FPS)
        assert count == 1
        np.testing.assert_allclose(durations, [0.15])

    def test_threshold_is_strict(self):
        speeds = np.asarray([[100.0, 100.0, 100.0]])
        count, _ = metrics.count_footsteps(speeds, 100.0, FPS)
        assert count == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            metrics.count_footsteps(np.zeros((1, 5)), -1.0, FPS)
        with pytest.raises(ValueError, match="non-negative"):
            metrics.count_footsteps(np.zeros((1, 5)), float("nan"), FPS)
        with pytest.raises(ValueError):
            metrics.count_footsteps(np.zeros((1, 5)), 10.0, FPS,
                                    min_duration_frames=0)

    def test_matches_brute_force_on_random_signals(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = rng.integers(1, 60)
            rows = rng.integers(1, 4)
            speeds = rng.uniform(0.0, 400.0, size=(rows, t))
            speeds[rng.uniform(size=speeds.shape) < 0.4] = 0.0
            v_tol = float(rng.uniform(0.0, 400.0))
            min_frames = int(rng.integers(1, 5))
            count, durations = metrics.count_footsteps(
                speeds, v_tol, FPS, min_duration_frames=min_frames)
            ref_count, ref_frames = brute_force_footsteps(
                speeds, v_tol, min_frames)
            assert count == ref_count
            np.testing.assert_allclose(
                durations, [f / FPS for f in ref_frames])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1,
                    max_size=50),
           st.integers(min_value=1, max_value=4))
    def test_property_matches_brute_force(self, levels, min_frames):
        speeds = np.asarray([[100.0 * v for v in levels]])
        count, durations = metrics.count_footsteps(
            speeds, 150.0, FPS, min_duration_frames=min_frames)
        ref_count, ref_frames = brute_force_footsteps(speeds, 150.0, min_frames)
        assert count == ref_count
        np.testing.assert_allclose(durations, [f / FPS for f in ref_frames])

    def test_count_monotone_when_runs_cannot_merge(self):
        # Distinct dip levels separated by a ceiling the sweep never
        # reaches, so raising the tolerance can only add runs.
        rng = np.random.default_rng(21)
        levels = rng.uniform(10.0, 590.0, size=40)
        row = np.full(2 * levels.size + 1, 1e9)
        row[1::2] = levels
        last = 0
        for v in np.arange(0.0, 601.0, 20.0):
            count, _ = metrics.count_footsteps(row[None, :], v, FPS,
                                               min_duration_frames=1)
            assert count == int(np.sum(levels < v))
            assert count >= last
            last = count
        assert last == levels.size


class TestFootstepSweep:
    def test_walker_peak_count_matches_step_count(self, skel, walker):
        clip, truth = walker
        report = metrics.footstep_sweep(clip, skel)
        assert report.max_count == truth.step_count
        assert report.counts[0] == 0
        assert report.v_tol_95 <= 50.0
        assert report.step_mean > 0.0
        assert report.step_std >= 0.0

    def test_walker_curve_saturates_and_stays_flat(self, skel, walker):
        clip, truth = walker
        report = metrics.footstep_sweep(clip, skel)
        counts = np.asarray(report.counts)
        assert np.all(counts[1:] == truth.step_count)

    def test_v_tol_95_is_first_grid_value_reaching_threshold(self, skel, walker):
        clip, _ = walker
        report = metrics.footstep_sweep(clip, skel)
        counts = np.asarray(report.counts)
        threshold = int(np.ceil(0.95 * report.max_count))
        first = np.flatnonzero(counts >= threshold)[0]
        assert report.v_tol_95 == report.grid[first]

    def test_stationary_clip_reports_zero_statistics_gracefully(self, tiny_skel):
        clip = make_clip(np.ones((3, 3, 40)))
        report = metrics.footstep_sweep(clip, tiny_skel,
                                        grid=np.asarray([0.0, 10.0]))
        # v_tol=0 never fires because the comparison is strict, so the max
        # lives at 10 where each heel is one clip-long interval.
        assert report.max_count == 2
        assert report.v_tol_95 == 10.0
        np.testing.assert_allclose(report.step_mean, 2.0)

    def test_custom_grid_and_validation(self, tiny_skel):
        clip = make_clip(np.ones((3, 3, 10)))
        with pytest.raises(ValueError, match="empty"):
            metrics.footstep_sweep(clip, tiny_skel, grid=np.asarray([]))
        with pytest.raises(ValueError, match="increasing"):
            metrics.footstep_sweep(clip, tiny_skel,
                                   grid=np.asarray([0.0, 5.0, 5.0]))
        for bad in ([0.0, np.inf], [np.nan], [-1.0, 0.0], [np.inf]):
            with pytest.raises(ValueError, match="sweep grid.*finite"):
                metrics.footstep_sweep(clip, tiny_skel, grid=np.asarray(bad))

    def test_default_grid_covers_0_to_600(self, skel, walker):
        clip, _ = walker
        report = metrics.footstep_sweep(clip, skel)
        assert report.grid[0] == 0.0
        assert report.grid[-1] == 600.0
        assert len(report.grid) == 601


# Speed levels that tie with SWEEP_GRID values, zero plateaus and inf.
SPEED_LEVELS = (0.0, 50.0, 100.0, 125.0, 150.0, 300.0, np.inf)
SWEEP_GRID = np.arange(0.0, 301.0, 25.0)


class TestSweepCountsMatchPerToleranceLoop:
    def test_random_traces(self):
        rng = np.random.default_rng(41)
        for _ in range(400):
            t = int(rng.integers(0, 40))
            rows = int(rng.integers(1, 3))
            d = int(rng.integers(1, 6))
            if rng.uniform() < 0.5:
                speeds = rng.choice(SPEED_LEVELS, size=(rows, t))
            else:
                speeds = rng.uniform(0.0, 300.0, size=(rows, t))
                speeds[rng.uniform(size=speeds.shape) < 0.3] = 0.0
                speeds[rng.uniform(size=speeds.shape) < 0.05] = np.nan
            np.testing.assert_array_equal(
                metrics._sweep_counts(speeds, SWEEP_GRID, d),
                footstep_counts_per_tolerance(speeds, SWEEP_GRID, FPS, d))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=30).flatmap(
               lambda t: st.lists(st.lists(st.sampled_from(SPEED_LEVELS),
                                           min_size=t, max_size=t),
                                  min_size=1, max_size=2)),
           st.integers(min_value=1, max_value=5))
    def test_property(self, rows, d):
        speeds = np.asarray(rows, dtype=np.float64)
        np.testing.assert_array_equal(
            metrics._sweep_counts(speeds, SWEEP_GRID, d),
            footstep_counts_per_tolerance(speeds, SWEEP_GRID, FPS, d))

    def test_reports_equal_on_walkers(self, skel, walker):
        clips = [walker[0]] + [
            data.synth_gait(path, steps=steps, fps=FPS, seed=50 + i,
                            noise_std=0.0)[0]
            for i, (path, steps) in enumerate(WALKERS)]
        grid = metrics.DEFAULT_SWEEP_GRID_MM_S
        for clip in clips:
            for d in (1, 2, 4):
                assert metrics.footstep_sweep(
                    clip, skel, min_duration_frames=d) \
                    == footstep_sweep_reference(clip, skel, grid, d)

    def test_sweep_counts_with_one_threshold_per_clip(self, skel, walker,
                                                      monkeypatch):
        # The count curve comes from one pass over the trace; only the step
        # statistics at v_tol_95 threshold it.
        calls = []
        count = metrics.count_footsteps

        def counted(*args, **kwargs):
            calls.append(args[1])
            return count(*args, **kwargs)

        monkeypatch.setattr(metrics, "count_footsteps", counted)
        report = metrics.footstep_sweep(walker[0], skel)
        assert calls == [report.v_tol_95]


class TestBoneLengthAnalysis:
    def test_rigid_walker_has_near_zero_deviation(self, skel, walker):
        clip, truth = walker
        report = metrics.bone_length_analysis(clip, skel,
                                              reference=truth.bone_lengths)
        assert report.bl_rmse < 1e-12
        assert report.bl_sigma < 1e-12
        assert max(report.worst_per_frame) < 1e-12

    def test_uniform_scaling_has_closed_form_rmse(self, skel, walker):
        clip, truth = walker
        scaled = make_clip(clip.positions * 1.1, fps=clip.fps)
        report = metrics.bone_length_analysis(scaled, skel,
                                              reference=truth.bone_lengths)
        ref = np.asarray(truth.bone_lengths)
        want = 0.1 * np.sqrt(np.mean(ref ** 2))
        np.testing.assert_allclose(report.bl_rmse, want, rtol=1e-9)
        # Every bone stays constant, just at the wrong length.
        assert report.bl_sigma < 1e-12

    def test_rigid_transform_invariance(self, skel, walker):
        clip, truth = walker
        rng = np.random.default_rng(5)
        rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        if np.linalg.det(rot) < 0:
            rot[:, 0] = -rot[:, 0]
        moved = np.einsum("ij,mjt->mit", rot, clip.positions)
        moved += rng.normal(size=(1, 3, 1)) * 100.0
        base = metrics.bone_length_analysis(clip, skel,
                                            reference=truth.bone_lengths)
        after = metrics.bone_length_analysis(make_clip(moved, fps=clip.fps),
                                             skel,
                                             reference=truth.bone_lengths)
        np.testing.assert_allclose(after.bl_rmse, base.bl_rmse, atol=1e-9)
        np.testing.assert_allclose(after.bl_sigma, base.bl_sigma, atol=1e-9)

    def test_single_frame_has_zero_sigma(self, tiny_skel):
        pos = np.arange(9, dtype=np.float64).reshape(3, 3, 1)
        report = metrics.bone_length_analysis(make_clip(pos), tiny_skel)
        assert report.bl_sigma == 0.0
        assert report.bl_rmse == 0.0
        assert len(report.worst_per_frame) == 1

    def test_default_reference_prefers_config_lengths(self):
        spec = skeleton.build_skeleton(THREE_MARKER_WITH_BONES)
        pos = np.zeros((3, 3, 4))
        pos[1, 0, :] = 50.0
        pos[2, 0, :] = 90.0
        report = metrics.bone_length_analysis(make_clip(pos), spec)
        assert report.reference == (50.0, 40.0)
        assert report.bl_rmse == 0.0

    def test_default_reference_falls_back_to_clip_means(self, tiny_skel):
        assert tiny_skel.bone_lengths_cm is None
        pos = np.zeros((3, 3, 2))
        pos[1, 0, 0], pos[1, 0, 1] = 9.0, 11.0
        pos[2, 0, :] = pos[1, 0, :] + 5.0
        report = metrics.bone_length_analysis(make_clip(pos), tiny_skel)
        np.testing.assert_allclose(report.reference, (10.0, 5.0))
        np.testing.assert_allclose(report.bl_rmse, np.sqrt(0.5))
        np.testing.assert_allclose(report.bl_sigma, np.sqrt(0.5))

    def test_explicit_config_mode_requires_bone_lengths(self, tiny_skel):
        clip = make_clip(np.ones((3, 3, 4)))
        with pytest.raises(metrics.MissingReferenceError):
            metrics.bone_length_analysis(clip, tiny_skel, reference="config")

    def test_reference_shape_is_validated(self, tiny_skel):
        clip = make_clip(np.ones((3, 3, 4)))
        with pytest.raises(ValueError, match="per edge"):
            metrics.bone_length_analysis(clip, tiny_skel,
                                         reference=np.ones(5))
        with pytest.raises(ValueError, match="unknown reference"):
            metrics.bone_length_analysis(clip, tiny_skel, reference="truth")

    @pytest.mark.parametrize("markers", (2, 4))
    def test_marker_count_mismatch_raises(self, tiny_skel, markers):
        clip = make_clip(np.ones((markers, 3, 4)))
        with pytest.raises(ValueError, match=f"clip has {markers} markers but the "
                                             "skeleton has 3"):
            metrics.bone_length_analysis(clip, tiny_skel)

    def test_worst_per_frame_tracks_injected_glitch(self, skel, walker):
        clip, truth = walker
        pos = clip.positions.copy()
        # Stretch the knee-to-heel bone by exactly 2 cm at frame 17.
        bone = pos[3, :, 17] - pos[2, :, 17]
        pos[3, :, 17] += 2.0 * bone / np.linalg.norm(bone)
        report = metrics.bone_length_analysis(make_clip(pos, fps=clip.fps),
                                              skel,
                                              reference=truth.bone_lengths)
        worst = np.asarray(report.worst_per_frame)
        assert np.argmax(worst) == 17
        assert worst[17] > 1.9
        assert worst[16] < 1e-9


class TestReportText:
    def test_footstep_report_rendering(self):
        report = metrics.FootstepReport(
            grid=(0.0, 1.0), counts=(0, 5), max_count=5, v_tol_95=306.0,
            step_mean=0.315, step_std=0.273)
        text = metrics.footstep_report_text(report)
        assert text == ("footsteps 5\n"
                        "v_tol_95 306\n"
                        "step_mean_s 0.315000\n"
                        "step_std_s 0.273000\n")

    def test_sweep_table_rendering(self):
        report = metrics.FootstepReport(
            grid=(0.0, 1.0, 2.0), counts=(0, 3, 3), max_count=3,
            v_tol_95=1.0, step_mean=0.2, step_std=0.0)
        lines = metrics.sweep_table_text(report).splitlines()
        assert lines[0] == "# v_tol_mm_s f_est"
        assert lines[1:] == ["0 0", "1 3", "2 3"]

    def test_bone_report_rendering(self):
        report = metrics.BoneLengthReport(
            reference=(45.0,), bl_rmse=0.125, bl_sigma=0.0625,
            worst_per_frame=(0.5, 0.25))
        text = metrics.bone_report_text(report)
        assert text == ("bl_rmse_cm 0.125000\n"
                        "bl_sigma_cm 0.062500\n"
                        "worst_frame_dev_cm 0.500000\n")

    def test_rendering_is_deterministic(self, skel, walker):
        clip, _ = walker
        report = metrics.footstep_sweep(clip, skel)
        assert metrics.sweep_table_text(report) == metrics.sweep_table_text(report)
        assert metrics.footstep_report_text(report) == metrics.footstep_report_text(report)


class TestAggregation:
    def test_mean_and_median_of_peaks(self):
        reports = [
            metrics.FootstepReport(grid=(0.0,), counts=(n,), max_count=n,
                                   v_tol_95=0.0, step_mean=0.0, step_std=0.0)
            for n in (4, 7, 10)
        ]
        agg = metrics.aggregate_footstep_counts(reports)
        assert agg == {"mean": 7.0, "median": 7.0}

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            metrics.aggregate_footstep_counts([])

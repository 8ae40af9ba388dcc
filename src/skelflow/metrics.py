"""Footstep analysis and bone-length analysis of motion clips.

Footsteps are detected as maximal runs of frames where a heel's horizontal
world-frame speed stays below a tolerance; sweeping the tolerance yields a
count curve whose saturation point characterizes how crisply the feet stop.
Bone-length reports quantify rigidity of generated motion against reference
segment lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import data as _data

DEFAULT_SWEEP_GRID_MM_S = np.arange(0.0, 601.0)
DEFAULT_MIN_DURATION_FRAMES = 2


class MissingReferenceError(ValueError):
    """Bone reference lengths were requested from a config that has none."""


@dataclass(frozen=True)
class FootstepReport:
    """Footstep counts over a tolerance sweep.

    grid: tolerances in mm/s, strictly increasing.
    counts: detected footsteps at each tolerance.
    max_count: peak of `counts`.
    v_tol_95: first tolerance whose count reaches 95% of the peak.
    step_mean / step_std: step-duration statistics (seconds) at v_tol_95.
    """

    grid: tuple
    counts: tuple
    max_count: int
    v_tol_95: float
    step_mean: float
    step_std: float


@dataclass(frozen=True)
class BoneLengthReport:
    """Bone rigidity summary.

    reference: per-edge reference lengths (cm), aligned with skeleton edges.
    bl_rmse: root mean squared deviation from the reference, over all
        frames and edges.
    bl_sigma: pooled standard deviation of each bone around its own mean.
    worst_per_frame: per-frame maximum absolute deviation from the
        reference (cm).
    """

    reference: tuple
    bl_rmse: float
    bl_sigma: float
    worst_per_frame: tuple


def _check_marker_count(clip, skeleton_spec):
    if clip.marker_count != skeleton_spec.marker_count:
        raise ValueError(f"clip has {clip.marker_count} markers but the skeleton "
                         f"has {skeleton_spec.marker_count}")


def heel_speeds(clip, skeleton_spec):
    """Horizontal heel speeds in mm/s, shape (2, T).

    Root-relative clips are recomposed to world coordinates first so global
    travel contributes.  Speeds are backward differences; frame 0 repeats
    frame 1 so the track has no leading artifact.
    """
    _check_marker_count(clip, skeleton_spec)
    if not skeleton_spec.heel_markers:
        raise ValueError("skeleton config declares no heel markers")
    world = _data.world_positions(clip) if clip.root_relative else clip.positions
    xy = world[list(skeleton_spec.heel_markers), 0:2, :]
    step = np.hypot(xy[:, 0, 1:] - xy[:, 0, :-1],
                    xy[:, 1, 1:] - xy[:, 1, :-1]) * clip.fps * 10.0
    return np.concatenate([step[:, :1], step], axis=1)


def _runs(below):
    """(start, length) of each maximal True run in a boolean vector."""
    padded = np.concatenate([[False], below, [False]])
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return zip(edges[0::2], edges[1::2] - edges[0::2])


def count_footsteps(speeds, v_tol, fps, min_duration_frames=DEFAULT_MIN_DURATION_FRAMES):
    """Count sub-tolerance heel intervals; returns (count, durations).

    A footstep is a maximal run of consecutive frames with speed strictly
    below v_tol on one heel, lasting at least min_duration_frames.  Counts
    sum over heels; durations are seconds, heel-major and chronological.
    """
    if not v_tol >= 0:
        raise ValueError("v_tol must be non-negative")
    if min_duration_frames < 1:
        raise ValueError("min_duration_frames must be >= 1")
    speeds = np.atleast_2d(np.asarray(speeds, dtype=np.float64))
    count = 0
    durations = []
    for row in speeds:
        for _, length in _runs(row < v_tol):
            if length >= min_duration_frames:
                count += 1
                durations.append(length / float(fps))
    return count, tuple(durations)


def _sweep_counts(speeds, grid, min_duration_frames):
    """Footstep counts at every grid tolerance, summed over heels.

    Frame t starts a counted run at tolerance v exactly when every speed in
    the window t..t+d-1 is below v and speed[t-1] is not (or t == 0), i.e.
    for v in (lo_t, hi_t] with lo_t the window maximum and hi_t = speed[t-1]
    (+inf at t == 0, or when speed[t-1] is NaN).  Counting those half-open
    intervals below each v gives the same counts as thresholding the trace
    once per tolerance, from comparisons alone.
    """
    speeds = np.atleast_2d(np.asarray(speeds, dtype=np.float64))
    d = min_duration_frames
    if speeds.shape[1] < d:
        return np.zeros(len(grid), dtype=np.int64)
    lo = sliding_window_view(speeds, d, axis=1).max(axis=2)
    prev = np.full_like(lo, np.inf)
    prev[:, 1:] = speeds[:, :lo.shape[1] - 1]
    prev[np.isnan(prev)] = np.inf
    # A NaN window maximum never opens a run; maximum() carries the NaN into
    # hi so the interval is empty on both sides of the subtraction.
    hi = np.maximum(prev, lo)
    return (np.searchsorted(np.sort(lo, axis=None), grid, "left")
            - np.searchsorted(np.sort(hi, axis=None), grid, "left"))


def footstep_sweep(clip, skeleton_spec, grid=None,
                   min_duration_frames=DEFAULT_MIN_DURATION_FRAMES):
    """Sweep the speed tolerance and report the footstep-count curve."""
    grid = DEFAULT_SWEEP_GRID_MM_S if grid is None else np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("sweep grid is empty")
    if not np.all(np.isfinite(grid)) or np.any(grid < 0):
        raise ValueError("sweep grid values must be finite and non-negative")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("sweep grid must be strictly increasing")
    if min_duration_frames < 1:
        raise ValueError("min_duration_frames must be >= 1")
    speeds = heel_speeds(clip, skeleton_spec)
    counts = _sweep_counts(speeds, grid, min_duration_frames)
    max_count = int(counts.max())
    threshold = math.ceil(0.95 * max_count)
    hit = int(np.argmax(counts >= threshold))
    _, durations = count_footsteps(speeds, grid[hit], clip.fps, min_duration_frames)
    mean = float(np.mean(durations)) if durations else 0.0
    std = float(np.std(durations)) if durations else 0.0
    return FootstepReport(
        grid=tuple(grid.tolist()),
        counts=tuple(counts.tolist()),
        max_count=max_count,
        v_tol_95=float(grid[hit]),
        step_mean=mean,
        step_std=std,
    )


def _resolve_reference(clip, skeleton_spec, reference, lengths):
    if reference is None:
        if skeleton_spec.bone_lengths_cm is not None:
            return np.asarray(skeleton_spec.bone_lengths_cm, dtype=np.float64)
        return lengths.mean(axis=1)
    if isinstance(reference, str):
        if reference == "config":
            if skeleton_spec.bone_lengths_cm is None:
                raise MissingReferenceError(
                    "skeleton config declares no bone_cm reference lengths")
            return np.asarray(skeleton_spec.bone_lengths_cm, dtype=np.float64)
        if reference == "self":
            return lengths.mean(axis=1)
        raise ValueError(f"unknown reference mode '{reference}'")
    reference = np.asarray(reference, dtype=np.float64)
    if reference.shape != (lengths.shape[0],):
        raise ValueError(
            f"reference must have one length per edge ({lengths.shape[0]}), "
            f"got shape {reference.shape}")
    return reference


def bone_length_analysis(clip, skeleton_spec, reference=None):
    """Bone-length deviation report for one clip.

    Edge lengths are Euclidean distances per frame; the root-relative
    transform is rigid per frame, so positions can be used as stored.
    reference: explicit per-edge array, 'config' (skeleton bone_cm,
    required), 'self' (per-bone clip means), or None for config-else-self.
    """
    _check_marker_count(clip, skeleton_spec)
    ia, ib = np.asarray(skeleton_spec.edges, dtype=np.intp).T
    pos = clip.positions
    lengths = np.linalg.norm(pos[ia] - pos[ib], axis=1)
    ref = _resolve_reference(clip, skeleton_spec, reference, lengths)
    dev = lengths - ref[:, None]
    per_bone_mean = lengths.mean(axis=1)
    wobble = lengths - per_bone_mean[:, None]
    return BoneLengthReport(
        reference=tuple(float(r) for r in ref),
        bl_rmse=float(np.sqrt(np.mean(dev ** 2))),
        bl_sigma=float(np.sqrt(np.mean(wobble ** 2))),
        worst_per_frame=tuple(float(w) for w in np.abs(dev).max(axis=0)),
    )


# -- serialization --------------------------------------------------------------------


def footstep_report_text(report):
    """Deterministic key-value rendering of a footstep report."""
    return (
        f"footsteps {report.max_count}\n"
        f"v_tol_95 {report.v_tol_95:g}\n"
        f"step_mean_s {report.step_mean:.6f}\n"
        f"step_std_s {report.step_std:.6f}\n"
    )


def sweep_table_text(report):
    """Two-column (v_tol, f_est) table for external plotting."""
    lines = ["# v_tol_mm_s f_est"]
    lines.extend(f"{v:g} {c}" for v, c in zip(report.grid, report.counts))
    return "\n".join(lines) + "\n"


def bone_report_text(report):
    """Deterministic key-value rendering of a bone-length report."""
    worst = max(report.worst_per_frame) if report.worst_per_frame else 0.0
    return (
        f"bl_rmse_cm {report.bl_rmse:.6f}\n"
        f"bl_sigma_cm {report.bl_sigma:.6f}\n"
        f"worst_frame_dev_cm {worst:.6f}\n"
    )


def aggregate_footstep_counts(reports):
    """Mean and median of the peak footstep count across clips."""
    if not reports:
        raise ValueError("no reports to aggregate")
    peaks = [r.max_count for r in reports]
    return {"mean": float(np.mean(peaks)), "median": float(np.median(peaks))}

"""Seeded desk-scale training: corpus assembly, segment NLL, Adam loop.

The objective is the exact per-frame log density summed over short window
segments, with recurrent conditioner state threaded across the segment so
gradients see the same dynamics generation uses.  Everything is driven by
explicit seeds; two runs with the same config produce identical parameter
trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import data as _data
from . import numcore as nc
from . import skeleton as _skeleton

DEFAULT_CORPUS_SPECS = (
    "line:speed=55",
    "line:speed=70",
    "line:speed=85",
    "circle:radius=200",
    "circle:radius=300",
    "s_curve:speed=70",
    "s_curve:speed=85,sway=0.35",
)


class TrainingDivergedError(ArithmeticError):
    """Loss or gradients went non-finite at `step`; the model still holds the
    parameters of `last_good_step`, the step before."""

    def __init__(self, step):
        super().__init__(f"non-finite loss or gradient at step {step}")
        self.step = step
        self.last_good_step = step - 1


def require_finite(**values):
    """Raise ValueError naming the first value that is not a finite number;
    NaN and inf slip through every `< 0` and `<= 0` range check."""
    for name, value in values.items():
        try:
            finite = math.isfinite(value)
        except TypeError:
            finite = False
        if not finite:
            raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 2000
    batch_size: int = 8
    nll_frames: int = 8
    learning_rate: float = 3e-3
    grad_clip: float = 5.0
    seed: int = 0
    eval_every: int = 100
    init_batch: int = 64

    @classmethod
    def from_dict(cls, d):
        """Read a (partial) train config (see `data.config_fields`)."""
        return cls(**_data.config_fields(cls, d, "train."))

    def validate(self):
        require_finite(learning_rate=self.learning_rate, grad_clip=self.grad_clip)
        if self.steps < 1 or self.batch_size < 1 or self.nll_frames < 1:
            raise ValueError("steps, batch_size and nll_frames must be >= 1")
        if self.learning_rate <= 0 or self.grad_clip <= 0:
            raise ValueError("learning_rate and grad_clip must be positive")
        if self.eval_every < 1 or self.init_batch < 2:
            raise ValueError("eval_every must be >= 1 and init_batch >= 2")
        return self


@dataclass
class TrainLog:
    """Per-step training NLL plus periodic held-out evaluations, all in
    nats per frame, and the per-step global gradient norm before clipping.
    `to_text` renders the NLLs only."""

    train_nll: list = field(default_factory=list)
    eval_steps: list = field(default_factory=list)
    eval_nll: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)

    def to_text(self):
        lines = [f"step {i + 1} train_nll {v:.6f}"
                 for i, v in enumerate(self.train_nll)]
        lines.extend(f"eval_at {s} holdout_nll {v:.6f}"
                     for s, v in zip(self.eval_steps, self.eval_nll))
        return "\n".join(lines) + "\n"


def augmented_windows(clips, skeleton_spec):
    """Root-relative training windows of clips: each clip goes to the root
    frame, is cut by `data.windows` and each window gets its four
    `data.augment` variants, in clip and window order."""
    out = []
    for clip in clips:
        rel = _data.to_root_relative(clip, skeleton_spec=skeleton_spec)
        for window in _data.windows(rel):
            out.extend(_data.augment(window, skeleton_spec))
    if not out:
        raise ValueError("clips are shorter than one training window")
    return out


def synthetic_corpus(specs=DEFAULT_CORPUS_SPECS, steps=24, fps=20.0, seed=0,
                     noise_std=0.25, skeleton_spec=None):
    """Training windows (`augmented_windows`) of one synthetic walker per
    path spec, each with its own sub-seed."""
    skeleton_spec = skeleton_spec or _skeleton.default_skeleton()
    return augmented_windows(
        (_data.synth_gait(spec, steps=steps, fps=fps, seed=seed + 1000 * i,
                          noise_std=noise_std)[0]
         for i, spec in enumerate(specs)), skeleton_spec)


def split_corpus(window_list, holdout_every=5):
    """Deterministic train/holdout split: every holdout_every-th window."""
    if holdout_every < 2:
        raise ValueError("holdout_every must be >= 2")
    train = [w for i, w in enumerate(window_list) if i % holdout_every]
    holdout = [w for i, w in enumerate(window_list) if i % holdout_every == 0]
    if not train or not holdout:
        raise ValueError("not enough windows to split")
    return train, holdout


def _stack_crops(window_list, picks, t_h, n_frames):
    """Gather (positions, controls) segments: positions (B, M, C, t_h+n),
    controls (B, 3, t_h+n)."""
    pos, ctl = [], []
    for w_idx, t0 in picks:
        w = window_list[w_idx]
        pos.append(w.positions[:, :, t0 - t_h:t0 + n_frames])
        ctl.append(w.controls[:, t0 - t_h:t0 + n_frames])
    return np.stack(pos), np.stack(ctl)


def _random_picks(window_list, rng, batch_size, t_h, n_frames):
    t = window_list[0].positions.shape[2]
    if t < t_h + n_frames:
        raise ValueError(
            f"windows of {t} frames cannot fit history {t_h} plus "
            f"segment {n_frames}")
    idx = rng.integers(0, len(window_list), size=batch_size)
    t0s = rng.integers(t_h, t - n_frames + 1, size=batch_size)
    return list(zip(idx, t0s))


def segment_nll(model, positions, controls, n_frames):
    """Mean NLL in nats per frame over a batched segment.

    positions (B, M, C, t_h + n_frames), controls (B, 3, same).  Recurrent
    state threads across the segment exactly as in generation.  The
    segment is evaluated layer-major: the frames, their history windows and
    their control windows are stacked on a leading time axis (as views), so
    each flow step runs once for the whole segment.
    """
    t_h = model.config.history
    frames = np.moveaxis(positions[..., t_h:t_h + n_frames], -1, 0)
    histories = np.moveaxis(sliding_window_view(
        positions[..., :t_h + n_frames - 1], t_h, axis=-1), -2, 0)
    windows = np.moveaxis(sliding_window_view(
        controls[..., :t_h + n_frames], t_h + 1, axis=-1), -2, 0)
    logp, _ = model.log_likelihood(frames, histories, windows)
    return nc.neg(nc.vmean(logp))


def initialize_from_corpus(model, window_list, config):
    """Fit standardization and run the data-dependent actnorm init."""
    mean, std = _data.standardize_fit(window_list)
    model.set_standardization(mean, std)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 17)))
    picks = _random_picks(window_list, rng, config.init_batch,
                          model.config.history, 1)
    pos, ctl = _stack_crops(window_list, picks, model.config.history, 1)
    model.init_actnorm(pos[:, :, :, -1], pos[:, :, :, :-1], ctl)
    return model


def evaluate_nll(model, window_list, config):
    """Deterministic held-out NLL in nats per frame (fixed crops)."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 23)))
    picks = _random_picks(window_list, rng, len(window_list),
                          model.config.history, config.nll_frames)
    pos, ctl = _stack_crops(window_list, picks, model.config.history,
                            config.nll_frames)
    loss = segment_nll(model, pos, ctl, config.nll_frames)
    return float(nc._data(loss))


def train(model, train_windows, holdout_windows, config, on_eval=None):
    """Run the Adam loop, updating the model's parameter arrays in place;
    returns a TrainLog.

    Raises TrainingDivergedError on a non-finite loss or gradient.  The loss
    is checked before the update and `adam_step` scans every gradient before
    it writes, so the model is then left with the parameters of the last
    step whose loss and gradient were finite, for callers to persist.
    """
    config.validate()
    t_h = model.config.history
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 11)))
    log = TrainLog()
    adam_state = nc.adam_init(dict(model.named_parameters()))
    for step in range(1, config.steps + 1):
        picks = _random_picks(train_windows, rng, config.batch_size,
                              t_h, config.nll_frames)
        pos, ctl = _stack_crops(train_windows, picks, t_h, config.nll_frames)
        lifted = nc.lift(model)
        try:
            loss = segment_nll(model, pos, ctl, config.nll_frames)
            grads_list = nc.grad(loss, list(lifted.values()))
        finally:
            nc.restore(model)
        loss_value = float(nc._data(loss))
        # the loss holds the whole tape: release it before the eval and the
        # next step's forward build theirs
        del loss
        if not np.isfinite(loss_value):
            raise TrainingDivergedError(step)
        grads = dict(zip(lifted.keys(), grads_list))
        grad_norm = nc.clip_grad_norm(grads, config.grad_clip)
        try:
            nc.adam_step(dict(model.named_parameters()), grads, adam_state,
                         step_size=config.learning_rate)
        except nc.NonFiniteGradientError as exc:
            raise TrainingDivergedError(step) from exc
        log.train_nll.append(loss_value)
        log.grad_norm.append(grad_norm)
        if step % config.eval_every == 0 or step == config.steps:
            held = evaluate_nll(model, holdout_windows, config)
            log.eval_steps.append(step)
            log.eval_nll.append(held)
            if on_eval is not None:
                on_eval(step, loss_value, held)
    return log

"""Autoregressive rollout and time-reversal reconstruction of masked frames.

The flow transforms one frame at a time, so rolling out a sequence means:
draw a latent frame, invert the flow under the current history window and
recurrent states, append the result to the history, repeat.  Reconstruction
of a partially observed window runs one rollout forward from the masked
window, reverses the generated future in time, rolls out again across the
reversed window, and keeps generated values only where the input was
missing.  Observed cells pass through bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numcore as nc

# Marker indices used by the mask presets when the skeleton config does not
# override them through named groups.
RIGHT_ARM_MARKERS = (18, 19, 20)
LEFT_LEG_MARKERS = (2, 3, 4)

MASK_PRESETS = ("none", "right_arm", "left_leg", "right_arm_left_leg", "random4")


class NonFiniteFrameError(ArithmeticError):
    """A rollout produced a non-finite frame; the message carries the step."""


class MaskPresetError(ValueError):
    """Unknown mask preset name."""


class AllMarkersMissingError(ValueError):
    """Some history frame has every marker masked out."""


@dataclass
class GenerationRequest:
    """One rollout job.

    history: (M, C, T_h) seed window, oldest frame first.
    controls: (3, >= T_h + horizon) track covering the seed window and every
        generated frame; column t holds the per-frame forward, sideways and
        rotational velocities at frame t.
    horizon: number of frames to generate, >= 1.
    temperature: latent scale; 0 gives the deterministic mode rollout.
    seed: int or numpy SeedSequence for the latent draws.
    history_mask: optional (M, T_h) binary matrix, 1 = observed.
    """

    history: object
    controls: object
    horizon: int
    temperature: float = 1.0
    seed: object = 0
    history_mask: object = None


def _check_mask(mask, markers, history):
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != (markers, history):
        raise ValueError(f"mask must be ({markers}, {history}), got {mask.shape}")
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ValueError("mask entries must be 0 or 1")
    if np.any(mask.sum(axis=0) < 1.0):
        frame = int(np.argmin(mask.sum(axis=0)))
        raise AllMarkersMissingError(f"history frame {frame} has no observed markers")
    return mask


def _check_history(history, cfg):
    history = nc._data(history)
    shape = (cfg.markers, cfg.channels, cfg.history)
    if history.shape != shape:
        raise ValueError(f"history must be {shape}, got {history.shape}")
    return history


def _check_controls(controls, need):
    controls = nc._data(controls)
    if controls.ndim != 2 or controls.shape[0] != 3 or controls.shape[1] < need:
        raise ValueError(
            f"control track must cover history plus horizon: need (3, >= {need}), "
            f"got {controls.shape}")
    return controls


def generate_batch(model, requests):
    """Roll B requests forward as one batch; returns their (B, M, C, T) frames.

    The requests share one horizon; histories, controls and masks are
    stacked, and every frame is one (B, ...) call of `model.sample_frame`.
    Request b draws its latents from its own generator, in the order a
    rollout of it alone draws them, and rollouts do not interact, so a
    request's frames match its own B=1 rollout up to the floating-point
    order of the batched products.  The conditioning history at step k is
    exactly the last T_h frames of seed-window-plus-output; recurrent
    states advance once per frame.  A single request rolls out unbatched.
    """
    cfg = model.config
    markers, channels, t_h = cfg.markers, cfg.channels, cfg.history
    requests = list(requests)
    if not requests:
        raise ValueError("need at least one generation request")
    horizon = int(requests[0].horizon)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    b, span = len(requests), t_h + horizon
    # seed window plus output; the history of frame k is [k, k + T_h)
    timeline = np.empty((b, markers, channels, span))
    controls = np.empty((b, 3, span))
    masks = None  # (B, M, span): 1 after the seed window, or None if unmasked
    latents = np.empty((b, horizon, markers, channels))
    temperature = np.empty((b, 1, 1))
    for i, request in enumerate(requests):
        if int(request.horizon) != horizon:
            raise ValueError(
                f"requests must share one horizon: {int(request.horizon)} != {horizon}")
        timeline[i, :, :, :t_h] = _check_history(request.history, cfg)
        controls[i] = _check_controls(request.controls, span)[:, :span]
        if request.history_mask is not None:
            if masks is None:
                masks = np.ones((b, markers, span))
            masks[i, :, :t_h] = _check_mask(request.history_mask, markers, t_h)
        latents[i] = np.random.default_rng(request.seed).standard_normal(
            (horizon, markers, channels))
        tau = float(request.temperature)
        if not math.isfinite(tau):
            raise ValueError(f"temperature must be finite, got {tau}")
        temperature[i] = tau

    one = slice(None) if b > 1 else 0  # index that keeps or drops the batch axis
    states = model.initial_state(b)
    for k in range(horizon):
        t = t_h + k
        try:
            x, states = model.sample_frame(
                latents[one, k], timeline[one, :, :, k:t], controls[one, :, k:t + 1],
                states, temperature=temperature[one],
                history_mask=None if masks is None else masks[one, :, k:t])
        except nc.NonFiniteError as exc:
            raise NonFiniteFrameError(f"non-finite frame at rollout step {k}") from exc
        x = nc._data(x)
        if not np.isfinite(x).all():
            raise NonFiniteFrameError(f"non-finite frame at rollout step {k}")
        timeline[one, :, :, t] = x
    return timeline[..., t_h:].copy()


def generate(model, request):
    """Roll the model forward and return the generated (M, C, T) frames:
    `generate_batch` of the one request."""
    return generate_batch(model, [request])[0]


def reverse_sequence(frames, controls):
    """Reverse a clip in time.

    Frame order flips; the control track flips and every channel negates,
    because forward, sideways and rotational controls are per-frame
    velocities.  Applying the operation twice returns the input.
    """
    frames = np.asarray(frames, dtype=np.float64)
    controls = np.asarray(controls, dtype=np.float64)
    if controls.ndim != 2 or controls.shape[0] != 3:
        raise ValueError(f"controls must be (3, T), got {controls.shape}")
    if frames.shape[-1] != controls.shape[-1]:
        raise ValueError(
            f"frames cover {frames.shape[-1]} steps but controls cover {controls.shape[-1]}")
    return frames[..., ::-1].copy(), (-controls[:, ::-1]).copy()


def _preset_group(skeleton_spec, name, default):
    if skeleton_spec is not None and name in skeleton_spec.groups:
        return tuple(skeleton_spec.groups[name])
    return default


def mask_preset(name, markers=21, history=10, skeleton_spec=None, seed=0):
    """Build an (M, T_h) observation mask for a named corruption setting.

    right_arm and left_leg zero whole marker rows for the full window;
    right_arm_left_leg is their union; random4 zeroes 4 distinct markers
    drawn from the given seed; none observes everything.  The marker sets
    come from skeleton groups of the same names when present.
    """
    mask = np.ones((markers, history))
    if name == "none":
        return mask
    if name == "right_arm":
        rows = _preset_group(skeleton_spec, "right_arm", RIGHT_ARM_MARKERS)
    elif name == "left_leg":
        rows = _preset_group(skeleton_spec, "left_leg", LEFT_LEG_MARKERS)
    elif name == "right_arm_left_leg":
        rows = (_preset_group(skeleton_spec, "right_arm", RIGHT_ARM_MARKERS)
                + _preset_group(skeleton_spec, "left_leg", LEFT_LEG_MARKERS))
    elif name == "random4":
        rng = np.random.default_rng(seed)
        rows = tuple(int(i) for i in rng.choice(markers, size=4, replace=False))
    else:
        raise MaskPresetError(
            f"unknown mask preset '{name}'; expected one of {MASK_PRESETS}")
    for row in rows:
        if not 0 <= row < markers:
            raise MaskPresetError(
                f"preset '{name}' marker {row} out of range for {markers} markers")
        mask[row, :] = 0.0
    return mask


@dataclass
class ReconstructionResult:
    """Completed past window, generated future, and per-cell provenance.

    observed is an (M, T_h) boolean matrix; True cells in `past` are
    bit-identical to the input history, False cells were generated.
    """

    past: np.ndarray
    future: np.ndarray
    observed: np.ndarray


@dataclass
class ReconstructionRequest:
    """One reconstruction job; the arguments of `reconstruct`."""

    history: object
    mask: object
    controls: object
    horizon: object = None
    temperature: float = 0.0
    seed: object = 0


def reconstruct_batch(model, requests):
    """Fill masked markers of B windows via forward rollout plus
    time-reversed rollout, each step one `generate_batch` call.

    Step 1 generates `horizon` future frames from each masked window (the
    requests share one horizon, T_h by default).  Step 2 reverses each
    generated future together with its controls, rolls the model across
    the reversed window (recurrent states restart from zero, since states
    from step 1 are not time-symmetric), un-reverses the result, and
    writes it into the masked cells only.  Returns one
    ReconstructionResult per request.
    """
    cfg = model.config
    markers, t_h = cfg.markers, cfg.history
    requests = list(requests)
    if not requests:
        raise ValueError("need at least one reconstruction request")
    forward, backward = [], []
    for request in requests:
        history = _check_history(request.history, cfg)
        mask = _check_mask(request.mask, markers, t_h)
        horizon = t_h if request.horizon is None else int(request.horizon)
        if horizon < t_h:
            raise ValueError(
                f"reconstruction horizon must be >= the history length {t_h}")
        controls = _check_controls(request.controls, t_h + horizon)
        seed = request.seed
        entropy = seed if isinstance(seed, np.random.SeedSequence) \
            else np.random.SeedSequence(seed)
        seed_fwd, seed_bwd = entropy.spawn(2)
        forward.append(GenerationRequest(
            history=history, controls=controls, horizon=horizon,
            temperature=request.temperature, seed=seed_fwd, history_mask=mask))
        # Reverse the combined past-plus-future timeline; its final T_h
        # frames, regenerated in step 2, are the original past in reverse.
        rev_controls = (-controls[:, :t_h + horizon][:, ::-1]).copy()
        backward.append((rev_controls[:, horizon - t_h:], request.temperature, seed_bwd))
    futures = generate_batch(model, forward)
    rev_pasts = generate_batch(model, [
        GenerationRequest(history=future[:, :, :t_h][..., ::-1].copy(),
                          controls=rev_controls, horizon=t_h,
                          temperature=temperature, seed=seed_bwd)
        for future, (rev_controls, temperature, seed_bwd) in zip(futures, backward)])
    results = []
    for request, future, rev_past in zip(forward, futures, rev_pasts):
        observed = request.history_mask.astype(bool)
        past = np.where(observed[:, None, :], request.history, rev_past[..., ::-1])
        results.append(ReconstructionResult(past=past, future=future, observed=observed))
    return results


def reconstruct(model, history, mask, controls, horizon=None, temperature=0.0, seed=0):
    """Fill masked markers of one window: `reconstruct_batch` of one
    request (see there)."""
    return reconstruct_batch(model, [ReconstructionRequest(
        history=history, mask=mask, controls=controls, horizon=horizon,
        temperature=temperature, seed=seed)])[0]

"""Command-line jobs: synthesize data, train, generate, reconstruct, evaluate.

Every command resolves one JobConfig (defaults, then JSON config file, then
flags), runs deterministically under its seed, and writes a manifest with the
config hash and output checksums so reruns can be compared byte for byte.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from . import data as _data
from . import flow as _flow
from .conditioning import ABLATIONS
from . import metrics as _metrics
from . import numcore as nc
from . import sequence as _sequence
from . import skeleton as _skeleton
from . import training as _training

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

DATA_DIR_ENV = "SKELFLOW_DATA_DIR"
CLIP_EXTENSIONS = (".txt", ".bin")


class EmptyBatchError(OSError):
    """An input directory matched no clip files."""


@dataclass
class JobConfig:
    """One resolved CLI job; model defaults follow the published setup."""

    out: str = "out"
    checkpoint: str = "model.ckpt"
    skeleton_path: str = ""
    data_dir: str = ""
    clip_format: str = "text"
    fps: float = 20.0
    seed: int = 0
    # synthesis
    paths: tuple = _training.DEFAULT_CORPUS_SPECS
    walker_steps: int = 24
    noise_std: float = 0.25
    # generation / reconstruction
    horizon: int = 100
    temperature: float = 1.0
    num_sequences: int = 3
    control: str = "line:speed=70"
    mask: str = "none"
    # metrics
    grid_max: float = 600.0
    grid_step: float = 1.0
    min_duration_frames: int = 2
    reference: str = "auto"
    model: _flow.ModelConfig = field(default_factory=_flow.ModelConfig)
    train: _training.TrainConfig = field(default_factory=_training.TrainConfig)

    def validate(self):
        if self.clip_format not in ("text", "binary"):
            raise ValueError(f"clip_format must be text or binary, got '{self.clip_format}'")
        _training.require_finite(
            fps=self.fps, temperature=self.temperature, noise_std=self.noise_std,
            grid_max=self.grid_max, grid_step=self.grid_step)
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.horizon < 1 or self.num_sequences < 1 or self.walker_steps < 2:
            raise ValueError("horizon, num_sequences and walker_steps must be positive")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.grid_max <= 0 or self.grid_step <= 0:
            raise ValueError("metric grid must have positive extent and step")
        if self.min_duration_frames < 1:
            raise ValueError("min_duration_frames must be >= 1")
        if self.reference not in ("auto", "config", "self"):
            raise ValueError("reference must be auto, config or self")
        if not self.paths:
            raise ValueError("at least one path spec is required")
        self.model.validate()
        self.train.validate()
        return self

    def to_dict(self):
        d = asdict(self)
        d["paths"] = list(self.paths)
        d["model"] = self.model.to_dict()
        d["train"] = asdict(self.train)
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "model" in d:
            d["model"] = _flow.ModelConfig.from_dict(d["model"])
        if "train" in d:
            d["train"] = _training.TrainConfig(**d["train"])
        if "paths" in d:
            d["paths"] = tuple(d["paths"])
        return cls(**d)


# -- manifest / file plumbing ----------------------------------------------------------


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _sha256_bytes(blob):
    return hashlib.sha256(blob).hexdigest()


def _sha256_file(path):
    with open(path, "rb") as fh:
        return _sha256_bytes(fh.read())


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def write_manifest(config, command, out_dir, output_paths):
    """Record config hash, seed, version and output checksums."""
    cfg_json = _canonical_json(config.to_dict())
    payload = {
        "command": command,
        "version": __version__,
        "seed": config.seed,
        "config": config.to_dict(),
        "config_sha256": _sha256_bytes(cfg_json.encode()),
        "outputs": {os.path.basename(p): _sha256_file(p)
                    for p in sorted(output_paths)},
    }
    path = os.path.join(out_dir, f"manifest_{command}.json")
    _write_text(path, _canonical_json(payload))
    return path


def _clip_name(prefix, index, config):
    ext = ".txt" if config.clip_format == "text" else ".bin"
    return f"{prefix}_{index:03d}{ext}"


def _ensure_out(config):
    os.makedirs(config.out, exist_ok=True)
    return config.out


def _load_skeleton(config):
    if config.skeleton_path:
        return _skeleton.load_skeleton(config.skeleton_path)
    return _skeleton.default_skeleton()


def _load_model(config):
    model, meta = _flow.load_checkpoint(config.checkpoint)
    if config.skeleton_path:
        spec = _skeleton.load_skeleton(config.skeleton_path)
        if _skeleton.to_config_text(spec) != _skeleton.to_config_text(model.skeleton):
            raise ValueError(
                "checkpoint skeleton does not match --skeleton "
                f"({model.skeleton.marker_count} vs {spec.marker_count} markers)")
    return model, meta


def _metric_grid(config):
    return np.arange(0.0, config.grid_max + 0.5 * config.grid_step,
                     config.grid_step)


# -- synth ------------------------------------------------------------------------------


def _truth_dict(spec_string, steps, fps, seed, truth):
    return {
        "path_spec": spec_string,
        "steps": steps,
        "fps": fps,
        "seed": seed,
        "step_count": truth.step_count,
        "cadence": truth.cadence,
        "speed": truth.speed,
        "duty": truth.duty,
        "heel_markers": list(truth.heel_markers),
        "bone_lengths": [float(b) for b in truth.bone_lengths],
        "footstep_intervals": [[float(a), float(b), int(heel)]
                               for a, b, heel in truth.footstep_intervals],
    }


def cmd_synth(config):
    out = _ensure_out(config)
    written = []
    for i, spec_string in enumerate(config.paths):
        clip, truth = _data.synth_gait(
            spec_string, steps=config.walker_steps, fps=config.fps,
            seed=config.seed + 1000 * i, noise_std=config.noise_std)
        clip_path = os.path.join(out, _clip_name("clip", i, config))
        _data.save_clip(clip, clip_path, format=config.clip_format)
        truth_path = os.path.join(out, f"clip_{i:03d}.truth.json")
        _write_text(truth_path, _canonical_json(
            _truth_dict(spec_string, config.walker_steps, config.fps,
                        config.seed + 1000 * i, truth)))
        written.extend([clip_path, truth_path])
        print(f"wrote {os.path.basename(clip_path)} "
              f"({truth.step_count} steps along {spec_string})")
    write_manifest(config, "synth", out, written)
    return EXIT_OK


# -- train ------------------------------------------------------------------------------


def _ingest_directory(config, spec):
    paths = sorted(
        os.path.join(config.data_dir, n) for n in os.listdir(config.data_dir)
        if os.path.splitext(n)[1] in CLIP_EXTENSIONS)
    if not paths:
        raise EmptyBatchError(f"no clip files in '{config.data_dir}'")
    out = []
    for p in paths:
        clip = _data.load_clip(p)
        clip = _data.resample(clip, target_fps=config.fps)
        rel = clip if clip.root_relative else _data.to_root_relative(
            clip, skeleton_spec=spec)
        for w in _data.windows(rel):
            out.extend(_data.augment(w, spec))
    if not out:
        raise ValueError("ingested clips are shorter than one training window")
    return out


def _training_windows(config, spec):
    data_dir = config.data_dir or os.environ.get(DATA_DIR_ENV, "")
    if data_dir:
        return _ingest_directory(replace(config, data_dir=data_dir), spec)
    return _training.synthetic_corpus(
        specs=config.paths, steps=config.walker_steps, fps=config.fps,
        seed=config.seed, noise_std=config.noise_std, skeleton_spec=spec)


def cmd_train(config, init_from=""):
    out = _ensure_out(config)
    spec = _load_skeleton(config)
    windows = _training_windows(config, spec)
    train_w, hold_w = _training.split_corpus(windows)
    if init_from:
        model, _ = _flow.load_checkpoint(init_from)
        if _skeleton.to_config_text(model.skeleton) != _skeleton.to_config_text(spec):
            raise ValueError("--init-from checkpoint skeleton does not match")
    else:
        model = _flow.FlowModel.create(config.model, spec, seed=config.seed)
        _training.initialize_from_corpus(model, train_w, config.train)
    nll0 = _training.evaluate_nll(model, hold_w, config.train)
    print(f"windows train {len(train_w)} holdout {len(hold_w)} "
          f"post-init holdout nll {nll0:.6f}")
    ckpt_path = os.path.join(out, config.checkpoint)
    meta = {"seed": config.train.seed, "train": asdict(config.train),
            "ablation": config.model.ablation, "post_init_nll": nll0}
    try:
        log = _training.train(
            model, train_w, hold_w, config.train,
            on_eval=lambda s, t, h: print(
                f"step {s} train {t:.6f} holdout {h:.6f}"))
    except _training.TrainingDivergedError as err:
        _training.restore_snapshot(model, err.snapshot)
        meta["aborted_at_step"] = err.step
        meta["last_good_step"] = err.last_good_step
        _flow.save_checkpoint(model, ckpt_path, meta=meta)
        print(f"training diverged at step {err.step}; "
              f"saved last good parameters from step {err.last_good_step}",
              file=sys.stderr)
        raise
    meta["final_holdout_nll"] = log.eval_nll[-1]
    meta["steps_done"] = config.train.steps
    _flow.save_checkpoint(model, ckpt_path, meta=meta)
    log_path = os.path.join(out, "train_log.txt")
    _write_text(log_path,
                f"post_init_holdout_nll {nll0:.6f}\n" + log.to_text())
    write_manifest(config, "train", out, [ckpt_path, log_path])
    print(f"final holdout nll {log.eval_nll[-1]:.6f} "
          f"({100.0 * (1.0 - log.eval_nll[-1] / nll0):.1f}% below post-init)")
    return EXIT_OK


# -- generate ---------------------------------------------------------------------------


def _seed_material(config, model, frames_needed):
    """Walker history and control track along the configured path."""
    cadence = 2.0
    steps = max(2, math.ceil(cadence * (frames_needed + 1) / config.fps) + 2)
    clip, _ = _data.synth_gait(config.control, steps=steps, fps=config.fps,
                               seed=config.seed)
    rel = _data.to_root_relative(clip, skeleton_spec=model.skeleton)
    if rel.frame_count < frames_needed:
        raise ValueError(
            f"seed walker too short: {rel.frame_count} < {frames_needed}")
    t_h = model.config.history
    return rel.positions[:, :, :t_h], rel.controls[:, :frames_needed]


def cmd_generate(config, with_report=False):
    out = _ensure_out(config)
    model, _ = _load_model(config)
    t_h = model.config.history
    history, controls = _seed_material(config, model,
                                       t_h + config.horizon)
    children = np.random.SeedSequence(config.seed).spawn(config.num_sequences)
    batch = _sequence.generate_batch(model, [
        _sequence.GenerationRequest(
            history=history, controls=controls, horizon=config.horizon,
            temperature=config.temperature, seed=child)
        for child in children])
    written = []
    report_lines = ["# clip bl_rmse_cm bl_sigma_cm"]
    for i, frames in enumerate(batch):
        full = np.concatenate([history, frames], axis=2)
        clip = _data.MotionClip(
            positions=full, controls=controls[:, :full.shape[2]],
            fps=config.fps, root_relative=True,
            source=f"generated:{config.control}")
        path = os.path.join(out, _clip_name("gen", i, config))
        _data.save_clip(clip, path, format=config.clip_format)
        written.append(path)
        bone = _metrics.bone_length_analysis(clip, model.skeleton)
        report_lines.append(f"{os.path.basename(path)} "
                            f"{bone.bl_rmse:.6f} {bone.bl_sigma:.6f}")
        print(f"wrote {os.path.basename(path)} bl_rmse {bone.bl_rmse:.4f} cm")
    if with_report:
        report_path = os.path.join(out, "generate_report.txt")
        _write_text(report_path, "\n".join(report_lines) + "\n")
        written.append(report_path)
    write_manifest(config, "generate", out, written)
    return EXIT_OK


# -- reconstruct ------------------------------------------------------------------------


def _reconstruction_input(config, model, clip_path):
    t_h = model.config.history
    needed = t_h + max(config.horizon, t_h)
    if not clip_path:
        return _seed_material(config, model, needed)
    clip = _data.load_clip(clip_path)
    rel = clip if clip.root_relative else _data.to_root_relative(
        clip, skeleton_spec=model.skeleton)
    if rel.frame_count < needed:
        raise ValueError(
            f"clip has {rel.frame_count} frames; reconstruction needs "
            f">= {needed} (history {t_h} + horizon)")
    return rel.positions[:, :, :t_h], rel.controls[:, :needed]


def cmd_reconstruct(config, clip_path=""):
    out = _ensure_out(config)
    model, _ = _load_model(config)
    t_h = model.config.history
    horizon = max(config.horizon, t_h)
    history, controls = _reconstruction_input(config, model, clip_path)
    mask_seeds = np.random.SeedSequence((config.seed, 1)).spawn(config.num_sequences)
    run_seeds = np.random.SeedSequence((config.seed, 2)).spawn(config.num_sequences)
    masks = [_sequence.mask_preset(
        config.mask, markers=model.config.markers, history=t_h,
        skeleton_spec=model.skeleton, seed=mask_seed) for mask_seed in mask_seeds]
    results = _sequence.reconstruct_batch(model, [
        _sequence.ReconstructionRequest(
            history=history, mask=mask, controls=controls, horizon=horizon,
            temperature=config.temperature, seed=run_seed)
        for mask, run_seed in zip(masks, run_seeds)])
    written = []
    summary = ["# clip preset masked_markers bl_rmse_cm"]
    for i, (mask, result) in enumerate(zip(masks, results)):
        full = np.concatenate([result.past, result.future], axis=2)
        clip = _data.MotionClip(
            positions=full, controls=controls[:, :full.shape[2]],
            fps=config.fps, root_relative=True,
            source=f"reconstructed:{config.mask}")
        path = os.path.join(out, _clip_name("recon", i, config))
        _data.save_clip(clip, path, format=config.clip_format)
        masked_rows = sorted(int(m) for m in
                             np.flatnonzero(~mask.astype(bool).any(axis=1)))
        sidecar = {
            "preset": config.mask,
            "masked_markers": masked_rows,
            "observed_cells": int(mask.sum()),
            "history_frames": t_h,
            "horizon": horizon,
            "mask_sha256": _sha256_bytes(
                mask.astype(np.uint8).tobytes()),
        }
        side_path = os.path.join(out, f"recon_{i:03d}.provenance.json")
        _write_text(side_path, _canonical_json(sidecar))
        bone = _metrics.bone_length_analysis(clip, model.skeleton)
        summary.append(f"{os.path.basename(path)} {config.mask} "
                       f"{','.join(str(m) for m in masked_rows) or '-'} "
                       f"{bone.bl_rmse:.6f}")
        written.extend([path, side_path])
        print(f"wrote {os.path.basename(path)} masked={masked_rows}")
    summary_path = os.path.join(out, "reconstruct_summary.txt")
    _write_text(summary_path, "\n".join(summary) + "\n")
    written.append(summary_path)
    write_manifest(config, "reconstruct", out, written)
    return EXIT_OK


# -- evaluate ---------------------------------------------------------------------------


SUMMARY_HEADER = ("# clip max_f_est v_tol_95 step_mean_s step_std_s "
                  "bl_rmse_cm bl_sigma_cm")


def cmd_evaluate(config, clips_dir=""):
    out = _ensure_out(config)
    spec = _load_skeleton(config)
    source = clips_dir or config.data_dir or os.environ.get(DATA_DIR_ENV, "")
    if not source:
        raise ValueError("evaluate needs --clips (or data_dir/config)")
    paths = sorted(
        os.path.join(source, n) for n in os.listdir(source)
        if os.path.splitext(n)[1] in CLIP_EXTENSIONS)
    if not paths:
        raise EmptyBatchError(f"no clip files in '{source}'")
    grid = _metric_grid(config)
    reference = None if config.reference == "auto" else config.reference
    written = []
    rows = [SUMMARY_HEADER]
    reports = []
    for p in paths:
        clip = _data.load_clip(p)
        stem = os.path.splitext(os.path.basename(p))[0]
        sweep = _metrics.footstep_sweep(
            clip, spec, grid=grid,
            min_duration_frames=config.min_duration_frames)
        bone = _metrics.bone_length_analysis(clip, spec, reference=reference)
        reports.append(sweep)
        for name, text in ((f"{stem}.footsteps.txt",
                            _metrics.footstep_report_text(sweep)),
                           (f"{stem}.sweep.txt",
                            _metrics.sweep_table_text(sweep)),
                           (f"{stem}.bones.txt",
                            _metrics.bone_report_text(bone))):
            path = os.path.join(out, name)
            _write_text(path, text)
            written.append(path)
        rows.append(f"{stem} {sweep.max_count} {sweep.v_tol_95:g} "
                    f"{sweep.step_mean:.6f} {sweep.step_std:.6f} "
                    f"{bone.bl_rmse:.6f} {bone.bl_sigma:.6f}")
        print(rows[-1])
    agg = _metrics.aggregate_footstep_counts(reports)
    rows.append(f"# aggregate mean_f_est {agg['mean']:.6f} "
                f"median_f_est {agg['median']:.6f}")
    summary_path = os.path.join(out, "evaluate_summary.txt")
    _write_text(summary_path, "\n".join(rows) + "\n")
    written.append(summary_path)
    write_manifest(config, "evaluate", out, written)
    print(rows[-1])
    return EXIT_OK


# -- argument parsing -------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--config", default="", help="JSON job config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--skeleton", default=None,
                        help="skeleton config file (default: bundled 21-marker)")
    parser.add_argument("--format", choices=("text", "binary"), default=None,
                        help="clip file format")
    parser.add_argument("--fps", type=float, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skelflow",
        description="Graph-based autoregressive flow for skeletal motion")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write synthetic walker clips")
    _add_common(p)
    p.add_argument("--path", action="append", default=None,
                   help="path spec kind:key=value,... (repeatable)")
    p.add_argument("--steps", type=int, default=None, help="footsteps per walker")
    p.add_argument("--noise", type=float, default=None, help="marker noise std (cm)")

    p = sub.add_parser("train", help="train a model")
    _add_common(p)
    p.add_argument("--data-dir", default=None,
                   help=f"clip directory (default: synthetic corpus or ${DATA_DIR_ENV})")
    p.add_argument("--path", action="append", default=None,
                   help="synthetic corpus path spec (repeatable)")
    p.add_argument("--walker-steps", type=int, default=None,
                   help="footsteps per synthetic corpus walker")
    p.add_argument("--noise", type=float, default=None,
                   help="synthetic corpus marker noise std (cm)")
    p.add_argument("--scale", choices=("desk", "full"), default="desk",
                   help="model size preset")
    p.add_argument("--ablation", choices=ABLATIONS, default=None)
    p.add_argument("--steps", type=int, default=None, help="optimizer steps")
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--nll-frames", type=int, default=None)
    p.add_argument("--eval-every", type=int, default=None)
    p.add_argument("--grad-clip", type=float, default=None)
    p.add_argument("--checkpoint", default=None, help="checkpoint file name")
    p.add_argument("--init-from", default="", help="checkpoint to continue from")

    p = sub.add_parser("generate", help="sample sequences from a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", default=None, help="checkpoint file path")
    p.add_argument("--num", type=int, default=None, help="sequences to write")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--control", default=None, help="path spec for controls")
    p.add_argument("--report", action="store_true",
                   help="also write a bone-length report")

    p = sub.add_parser("reconstruct", help="fill masked markers in a window")
    _add_common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--clip", default="", help="input clip (default: synthetic)")
    p.add_argument("--mask", default=None,
                   help="masking preset: " + ", ".join(_sequence.MASK_PRESETS))
    p.add_argument("--num", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--control", default=None)

    p = sub.add_parser("evaluate", help="footstep and bone reports for clips")
    _add_common(p)
    p.add_argument("--clips", default="", help="directory of clip files")
    p.add_argument("--grid-max", type=float, default=None)
    p.add_argument("--grid-step", type=float, default=None)
    p.add_argument("--min-duration", type=int, default=None)
    p.add_argument("--reference", choices=("auto", "config", "self"),
                   default=None)
    return parser


# argparse attribute -> JobConfig field, applied only when the flag was given
_FLAG_FIELDS = (
    ("out", "out"), ("seed", "seed"), ("fps", "fps"),
    ("skeleton", "skeleton_path"), ("format", "clip_format"),
    ("data_dir", "data_dir"), ("num", "num_sequences"),
    ("horizon", "horizon"), ("temperature", "temperature"),
    ("control", "control"), ("mask", "mask"), ("noise", "noise_std"),
    ("walker_steps", "walker_steps"),
    ("grid_max", "grid_max"), ("grid_step", "grid_step"),
    ("min_duration", "min_duration_frames"), ("reference", "reference"),
)


def resolve_config(args):
    if args.config:
        with open(args.config) as fh:
            config = JobConfig.from_dict(json.load(fh))
    else:
        config = JobConfig()
    for flag, fname in _FLAG_FIELDS:
        value = getattr(args, flag, None)
        if value is not None:
            config = replace(config, **{fname: value})
    if getattr(args, "path", None):
        config = replace(config, paths=tuple(args.path))
    if args.command == "synth" and getattr(args, "steps", None) is not None:
        config = replace(config, walker_steps=args.steps)
    if args.command == "train":
        config = _resolve_train_flags(args, config)
    if args.command in ("generate", "reconstruct") \
            and getattr(args, "checkpoint", None) is not None:
        config = replace(config, checkpoint=args.checkpoint)
    config.validate()
    return config


def _resolve_train_flags(args, config):
    model = config.model
    if args.scale == "desk":
        model = _flow.desk_config(markers=model.markers,
                                  ablation=model.ablation)
    if args.ablation is not None:
        model = replace(model, ablation=args.ablation)
    train = config.train
    overrides = {}
    for flag, fname in (("steps", "steps"), ("batch_size", "batch_size"),
                        ("learning_rate", "learning_rate"),
                        ("nll_frames", "nll_frames"),
                        ("eval_every", "eval_every"),
                        ("grad_clip", "grad_clip")):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[fname] = value
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        train = replace(train, **overrides)
    if args.checkpoint is not None:
        config = replace(config, checkpoint=args.checkpoint)
    return replace(config, model=model.validate(), train=train.validate())


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        if args.command == "synth":
            return cmd_synth(config)
        if args.command == "train":
            return cmd_train(config, init_from=args.init_from)
        if args.command == "generate":
            return cmd_generate(config, with_report=args.report)
        if args.command == "reconstruct":
            return cmd_reconstruct(config, clip_path=args.clip)
        if args.command == "evaluate":
            return cmd_evaluate(config, clips_dir=args.clips)
        raise ValueError(f"unknown command '{args.command}'")
    except (OSError, _data.ClipFormatError, _flow.CheckpointFormatError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except ArithmeticError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

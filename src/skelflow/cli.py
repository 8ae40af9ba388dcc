"""Command-line jobs: synthesize data, train, generate, reconstruct, evaluate.

Every command resolves one JobConfig (defaults, then JSON config file, then
flags), runs deterministically under its seed, and writes a manifest with the
config hash and output checksums so reruns can be compared byte for byte.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
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
# the default metric grid has 601 points
MAX_GRID_POINTS = 1_000_000
CLIP_EXTENSIONS = (".txt", ".bin")


class EmptyBatchError(OSError):
    """An input directory matched no clip files."""


class DuplicateStemError(OSError):
    """Two clips of an input directory share a file stem (and so report names)."""


@dataclass
class JobConfig:
    """One resolved CLI job; model defaults follow the published setup."""

    out: str = "out"
    checkpoint: str = "model.ckpt"
    init_from: str = ""     # train: the checkpoint to continue from
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
    clip: str = ""          # reconstruct: input clip ("" for a synthetic walker)
    report: bool = False    # generate: also write a bone-length report
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
        # the point count of `_metric_grid`'s arange, which is the ceiling
        # of this ratio
        points = (self.grid_max + 0.5 * self.grid_step) / self.grid_step
        if points > MAX_GRID_POINTS:
            raise ValueError(
                f"metric grid grid_max / grid_step has {points:.3g} points, "
                f"more than {MAX_GRID_POINTS}")
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
        """Read a (partial) job config (see `data.config_fields`)."""
        return cls(**_data.config_fields(cls, d))


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


# the environment variables that set the BLAS thread count, which decides
# how a GEMM groups its sums and so the last bits of its output: every one
# numcore sizes its worker pool by, and MKL's
BLAS_THREAD_VARS = nc.BLAS_THREAD_VARS + ("MKL_NUM_THREADS",)


def numeric_env():
    """What a run's bytes depend on besides its config: numpy's version,
    the BLAS library numpy was built with, the SIMD extensions numpy
    dispatches its ufuncs on (its `exp` and `tanh` differ between them in
    the last bits), and the BLAS thread settings.  Neither the CPU count
    nor numcore's worker count is recorded: they differ between machines
    and change no byte."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 has no dict form
        config = {}
    try:
        blas = config["Build Dependencies"]["blas"]
        blas_id = f"{blas['name']} {blas['version']}"
    except KeyError:
        blas_id = "unknown"
    env = {"numpy": np.__version__, "blas": blas_id,
           "simd": config.get("SIMD Extensions", "unknown")}
    env.update((name, os.environ.get(name, "unset")) for name in BLAS_THREAD_VARS)
    return env


def write_manifest(config, command, out_dir, output_paths):
    """Record config hash, seed, version, numeric environment and output
    checksums."""
    cfg_json = _canonical_json(config.to_dict())
    payload = {
        "command": command,
        "version": __version__,
        "seed": config.seed,
        "config": config.to_dict(),
        "config_sha256": _sha256_bytes(cfg_json.encode()),
        "numeric_env": numeric_env(),
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
    """Create the output directory; each command calls it only after its
    inputs are read and checked, so a job that fails on one leaves none."""
    os.makedirs(config.out, exist_ok=True)
    return config.out


def _load_skeleton(config):
    if config.skeleton_path:
        return _skeleton.load_skeleton(config.skeleton_path)
    return _skeleton.default_skeleton()


def _load_model(config, path, spec=None):
    """The checkpoint's model, and the job config with its model in place, so
    the manifest records what ran.  The checkpoint's skeleton must match
    `spec`, or else the job's `--skeleton` file if it names one."""
    model, _ = _flow.load_checkpoint(path)
    if spec is None and config.skeleton_path:
        spec = _skeleton.load_skeleton(config.skeleton_path)
    if spec is not None and \
            _skeleton.to_config_text(spec) != _skeleton.to_config_text(model.skeleton):
        raise ValueError(
            f"checkpoint '{path}' skeleton does not match the job's "
            f"({model.skeleton.marker_count} vs {spec.marker_count} markers)")
    return model, replace(config, model=model.config)


def _write_clip(config, name, positions, controls, source, spec):
    """Save root-relative `positions` with their controls as clip `name` of
    the output directory; its path and bone-length analysis."""
    clip = _data.MotionClip(
        positions=positions, controls=controls[:, :positions.shape[2]],
        fps=config.fps, root_relative=True, source=source)
    path = os.path.join(config.out, name)
    _data.save_clip(clip, path, format=config.clip_format)
    return path, _metrics.bone_length_analysis(clip, spec)


def _metric_grid(config):
    return np.arange(0.0, config.grid_max + 0.5 * config.grid_step,
                     config.grid_step)


# -- synth ------------------------------------------------------------------------------


def cmd_synth(config):
    walkers = [_data.synth_gait(
        spec_string, steps=config.walker_steps, fps=config.fps,
        seed=config.seed + 1000 * i, noise_std=config.noise_std)
        for i, spec_string in enumerate(config.paths)]
    out = _ensure_out(config)
    written = []
    for i, (spec_string, (clip, truth)) in enumerate(zip(config.paths, walkers)):
        clip_path = os.path.join(out, _clip_name("clip", i, config))
        _data.save_clip(clip, clip_path, format=config.clip_format)
        truth_path = os.path.join(out, f"clip_{i:03d}.truth.json")
        _write_text(truth_path, _canonical_json({
            "path_spec": spec_string, "steps": config.walker_steps,
            "fps": config.fps, "seed": config.seed + 1000 * i, **asdict(truth)}))
        written.extend([clip_path, truth_path])
        print(f"wrote {os.path.basename(clip_path)} "
              f"({truth.step_count} steps along {spec_string})")
    write_manifest(config, "synth", out, written)
    return EXIT_OK


# -- train ------------------------------------------------------------------------------


def _clip_paths(directory):
    """Sorted clip files of a directory; EmptyBatchError if there are none."""
    paths = sorted(
        os.path.join(directory, n) for n in os.listdir(directory)
        if os.path.splitext(n)[1] in CLIP_EXTENSIONS)
    if not paths:
        raise EmptyBatchError(f"no clip files in '{directory}'")
    return paths


def _training_windows(config, spec):
    if config.data_dir:
        return _training.augmented_windows(
            (_data.resample(_data.load_clip(p), target_fps=config.fps)
             for p in _clip_paths(config.data_dir)), spec)
    return _training.synthetic_corpus(
        specs=config.paths, steps=config.walker_steps, fps=config.fps,
        seed=config.seed, noise_std=config.noise_std, skeleton_spec=spec)


def cmd_train(config):
    spec = _load_skeleton(config)
    windows = _training_windows(config, spec)
    train_w, hold_w = _training.split_corpus(windows)
    if config.init_from:
        # the manifest and the checkpoint's meta record the model that runs
        model, config = _load_model(config, config.init_from, spec)
    else:
        model = _flow.FlowModel.create(config.model, spec, seed=config.seed)
        _training.initialize_from_corpus(model, train_w, config.train)
    out = _ensure_out(config)
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
        # the model holds the parameters of the last good step
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


def cmd_generate(config):
    model, config = _load_model(config, config.checkpoint)
    t_h = model.config.history
    history, controls = _seed_material(config, model,
                                       t_h + config.horizon)
    children = np.random.SeedSequence(config.seed).spawn(config.num_sequences)
    batch = _sequence.generate_batch(model, [
        _sequence.GenerationRequest(
            history=history, controls=controls, horizon=config.horizon,
            temperature=config.temperature, seed=child)
        for child in children])
    out = _ensure_out(config)
    written = []
    report_lines = ["# clip bl_rmse_cm bl_sigma_cm"]
    for i, frames in enumerate(batch):
        path, bone = _write_clip(config, _clip_name("gen", i, config),
                                 np.concatenate([history, frames], axis=2), controls,
                                 f"generated:{config.control}", model.skeleton)
        written.append(path)
        report_lines.append(f"{os.path.basename(path)} "
                            f"{bone.bl_rmse:.6f} {bone.bl_sigma:.6f}")
        print(f"wrote {os.path.basename(path)} bl_rmse {bone.bl_rmse:.4f} cm")
    if config.report:
        report_path = os.path.join(out, "generate_report.txt")
        _write_text(report_path, "\n".join(report_lines) + "\n")
        written.append(report_path)
    write_manifest(config, "generate", out, written)
    return EXIT_OK


# -- reconstruct ------------------------------------------------------------------------


def _reconstruction_input(config, model):
    t_h = model.config.history
    needed = t_h + max(config.horizon, t_h)
    if not config.clip:
        return _seed_material(config, model, needed)
    clip = _data.resample(_data.load_clip(config.clip), target_fps=config.fps)
    rel = clip if clip.root_relative else _data.to_root_relative(
        clip, skeleton_spec=model.skeleton)
    if rel.frame_count < needed:
        raise ValueError(
            f"clip has {rel.frame_count} frames; reconstruction needs "
            f">= {needed} (history {t_h} + horizon)")
    return rel.positions[:, :, :t_h], rel.controls[:, :needed]


def cmd_reconstruct(config):
    model, config = _load_model(config, config.checkpoint)
    t_h = model.config.history
    horizon = max(config.horizon, t_h)
    history, controls = _reconstruction_input(config, model)
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
    out = _ensure_out(config)
    written = []
    summary = ["# clip preset masked_markers bl_rmse_cm"]
    for i, (mask, result) in enumerate(zip(masks, results)):
        path, bone = _write_clip(
            config, _clip_name("recon", i, config),
            np.concatenate([result.past, result.future], axis=2),
            controls, f"reconstructed:{config.mask}", model.skeleton)
        masked_rows = sorted(int(m) for m in
                             np.flatnonzero(~mask.astype(bool).any(axis=1)))
        sidecar = {
            "preset": config.mask,
            "masked_markers": masked_rows,
            "observed_cells": int(mask.sum()),
            "history_frames": t_h,
            "horizon": horizon,
            "mask_sha256": _sha256_bytes(mask.astype(np.uint8).tobytes()),
        }
        side_path = os.path.join(out, f"recon_{i:03d}.provenance.json")
        _write_text(side_path, _canonical_json(sidecar))
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


def cmd_evaluate(config):
    spec = _load_skeleton(config)
    if not config.data_dir:
        raise ValueError("evaluate needs --clips (or data_dir/config)")
    stems = {}
    for p in _clip_paths(config.data_dir):
        stem = os.path.splitext(os.path.basename(p))[0]
        if stem in stems:
            raise DuplicateStemError(f"clips '{stems[stem]}' and '{p}' share "
                                     f"the stem '{stem}' of their reports")
        stems[stem] = p
    grid = _metric_grid(config)
    reference = None if config.reference == "auto" else config.reference
    rows = [SUMMARY_HEADER]
    reports = []
    texts = {}  # report file name -> text, written once every clip is done
    for stem, p in stems.items():
        clip = _data.load_clip(p)
        sweep = _metrics.footstep_sweep(
            clip, spec, grid=grid,
            min_duration_frames=config.min_duration_frames)
        bone = _metrics.bone_length_analysis(clip, spec, reference=reference)
        reports.append(sweep)
        texts[f"{stem}.footsteps.txt"] = _metrics.footstep_report_text(sweep)
        texts[f"{stem}.sweep.txt"] = _metrics.sweep_table_text(sweep)
        texts[f"{stem}.bones.txt"] = _metrics.bone_report_text(bone)
        rows.append(f"{stem} {sweep.max_count} {sweep.v_tol_95:g} "
                    f"{sweep.step_mean:.6f} {sweep.step_std:.6f} "
                    f"{bone.bl_rmse:.6f} {bone.bl_sigma:.6f}")
        print(rows[-1])
    agg = _metrics.aggregate_footstep_counts(reports)
    rows.append(f"# aggregate mean_f_est {agg['mean']:.6f} "
                f"median_f_est {agg['median']:.6f}")
    out = _ensure_out(config)
    written = []
    for name, text in texts.items():
        path = os.path.join(out, name)
        _write_text(path, text)
        written.append(path)
    summary_path = os.path.join(out, "evaluate_summary.txt")
    _write_text(summary_path, "\n".join(rows) + "\n")
    written.append(summary_path)
    write_manifest(config, "evaluate", out, written)
    print(rows[-1])
    return EXIT_OK


# -- argument parsing -------------------------------------------------------------------


# Every flag's argparse `dest` is the JobConfig field it sets ("train.<field>"
# and "model.<field>" for the nested configs); only these dests are read by
# `resolve_config` itself.
COMMAND_INPUTS = ("config", "scale", "command")

# `train --scale` model presets; each keeps the markers and ablation it is given
MODEL_SCALES = {"desk": _flow.desk_config, "full": _flow.ModelConfig}


def _add_common(parser):
    parser.add_argument("--config", default="", help="JSON job config file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--skeleton", dest="skeleton_path",
                        help="skeleton config file (default: bundled 21-marker)")
    parser.add_argument("--format", dest="clip_format", choices=("text", "binary"),
                        help="clip file format")
    parser.add_argument("--fps", type=float)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built once per process and shared by every
    call (parse with it; do not change it)."""
    parser = argparse.ArgumentParser(
        prog="skelflow",
        description="Graph-based autoregressive flow for skeletal motion")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write synthetic walker clips")
    _add_common(p)
    p.add_argument("--path", dest="paths", action="append",
                   help="path spec kind:key=value,... (repeatable)")
    p.add_argument("--steps", dest="walker_steps", type=int,
                   help="footsteps per walker")
    p.add_argument("--noise", dest="noise_std", type=float,
                   help="marker noise std (cm)")

    p = sub.add_parser("train", help="train a model")
    _add_common(p)
    p.add_argument("--data-dir",
                   help=f"clip directory (default: synthetic corpus or ${DATA_DIR_ENV})")
    p.add_argument("--path", dest="paths", action="append",
                   help="synthetic corpus path spec (repeatable)")
    p.add_argument("--walker-steps", type=int,
                   help="footsteps per synthetic corpus walker")
    p.add_argument("--noise", dest="noise_std", type=float,
                   help="synthetic corpus marker noise std (cm)")
    p.add_argument("--scale", choices=tuple(MODEL_SCALES),
                   help="model size preset (default model: desk)")
    p.add_argument("--ablation", dest="model.ablation", choices=ABLATIONS)
    p.add_argument("--steps", dest="train.steps", type=int, help="optimizer steps")
    p.add_argument("--batch-size", dest="train.batch_size", type=int)
    p.add_argument("--learning-rate", dest="train.learning_rate", type=float)
    p.add_argument("--nll-frames", dest="train.nll_frames", type=int)
    p.add_argument("--eval-every", dest="train.eval_every", type=int)
    p.add_argument("--grad-clip", dest="train.grad_clip", type=float)
    p.add_argument("--checkpoint", help="checkpoint file name")
    p.add_argument("--init-from", help="checkpoint to continue from")

    p = sub.add_parser("generate", help="sample sequences from a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", help="checkpoint file path")
    p.add_argument("--num", dest="num_sequences", type=int, help="sequences to write")
    p.add_argument("--horizon", type=int)
    p.add_argument("--temperature", type=float)
    p.add_argument("--control", help="path spec for controls")
    p.add_argument("--report", action="store_true", default=None,
                   help="also write a bone-length report")

    p = sub.add_parser("reconstruct", help="fill masked markers in a window")
    _add_common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--clip", help="input clip (default: synthetic)")
    p.add_argument("--mask",
                   help="masking preset: " + ", ".join(_sequence.MASK_PRESETS))
    p.add_argument("--num", dest="num_sequences", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--temperature", type=float)
    p.add_argument("--control")

    p = sub.add_parser("evaluate", help="footstep and bone reports for clips")
    _add_common(p)
    p.add_argument("--clips", dest="data_dir", help="directory of clip files")
    p.add_argument("--grid-max", type=float)
    p.add_argument("--grid-step", type=float)
    p.add_argument("--min-duration", dest="min_duration_frames", type=int)
    p.add_argument("--reference", choices=("auto", "config", "self"))
    return parser


def _set_field(config, key, value):
    """`config` with field `key` ("seed", "train.steps") set to `value`."""
    section, _, name = key.rpartition(".")
    if section:
        value = replace(getattr(config, section), **{name: value})
        name = section
    return replace(config, **{name: value})


def resolve_config(args):
    """Defaults, then the --config file, then the flags actually given.

    `train` defaults to the desk model, and its training seed to the job
    seed unless the file's `train` object sets one; `--scale` swaps in a
    preset that keeps the current model's markers and ablation.  For the
    commands that read clips from `data_dir` (train, evaluate), an empty
    `data_dir` takes the value of $SKELFLOW_DATA_DIR, so the manifest
    records the directory that was read."""
    config = JobConfig(model=_flow.desk_config() if args.command == "train"
                       else _flow.ModelConfig())
    file_train_seed = False
    if args.config:
        with open(args.config) as fh:
            blob = json.load(fh)
        config = replace(config, **_data.config_fields(JobConfig, blob))
        file_train_seed = "seed" in blob.get("train", {})
    if getattr(args, "scale", None):
        config = replace(config, model=MODEL_SCALES[args.scale](
            markers=config.model.markers, ablation=config.model.ablation))
    given = {key: value for key, value in vars(args).items()
             if value is not None and key not in COMMAND_INPUTS}
    for key, value in given.items():
        config = _set_field(config, key,
                            tuple(value) if isinstance(value, list) else value)
    if args.command == "train" and ("seed" in given or not file_train_seed):
        config = _set_field(config, "train.seed", config.seed)
    if args.command in ("train", "evaluate") and not config.data_dir:
        config = replace(config, data_dir=os.environ.get(DATA_DIR_ENV, ""))
    return config.validate()


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        # looked up per call, so a wrapped or patched command runs
        return globals()[f"cmd_{args.command}"](config)
    except (OSError, _data.ClipFormatError, _flow.CheckpointFormatError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_IO
    except ArithmeticError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

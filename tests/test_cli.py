"""End-to-end tests for the command-line interface."""

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import skelflow.cli as cli
import skelflow.data as data
import skelflow.flow as flow
import skelflow.metrics as metrics
import skelflow.numcore as nc
import skelflow.sequence as sequence
import skelflow.skeleton as skeleton
import skelflow.training as training

TINY_SKELETON = "markers 3\ncenter 1\nheels 0 2\nroot 0\nedge 0 1\nedge 1 2\n"


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_text(path):
    with open(path) as fh:
        return fh.read()


def run(args):
    return cli.main(args)


def other_skeleton(tmp_path):
    """A 21-marker skeleton file that differs from the default one (its
    center marker), so clips fit it but checkpoints of the default do not."""
    path = tmp_path / "center9.txt"
    path.write_text(skeleton.to_config_text(skeleton.default_skeleton())
                    .replace("center 10\n", "center 9\n"))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth dir and one short desk-scale training run, shared."""
    base = tmp_path_factory.mktemp("cli")
    synth_dir = str(base / "synth")
    run_dir = str(base / "run")
    assert run(["synth", "--out", synth_dir, "--steps", "12", "--noise", "0",
                "--path", "line:speed=70", "--path", "circle:radius=250",
                "--seed", "3"]) == 0
    assert run(["train", "--out", run_dir, "--steps", "12",
                "--batch-size", "2", "--nll-frames", "2", "--eval-every", "4",
                "--walker-steps", "12", "--path", "line:speed=70",
                "--seed", "3"]) == 0
    return {"base": base, "synth": synth_dir, "run": run_dir,
            "checkpoint": os.path.join(run_dir, "model.ckpt")}


class TestSynth:
    def test_writes_clips_truth_and_manifest(self, workspace):
        names = sorted(os.listdir(workspace["synth"]))
        assert names == ["clip_000.truth.json", "clip_000.txt",
                         "clip_001.truth.json", "clip_001.txt",
                         "manifest_synth.json"]
        clip = data.load_clip(os.path.join(workspace["synth"], "clip_000.txt"))
        assert clip.marker_count == 21
        truth = read_json(os.path.join(workspace["synth"], "clip_000.truth.json"))
        assert truth["step_count"] == 12
        assert truth["path_spec"] == "line:speed=70"
        assert len(truth["footstep_intervals"]) == 12

    def test_truth_keys_are_gait_truth_plus_job_keys(self, workspace):
        truth = read_json(os.path.join(workspace["synth"], "clip_001.truth.json"))
        assert set(truth) == {f.name for f in dataclasses.fields(data.GaitTruth)} | {
            "path_spec", "steps", "fps", "seed"}
        assert (truth["path_spec"], truth["seed"]) == ("circle:radius=250", 1003)

    def test_manifest_hashes_match_files(self, workspace):
        manifest = read_json(os.path.join(workspace["synth"], "manifest_synth.json"))
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 3
        for name, digest in manifest["outputs"].items():
            assert sha(os.path.join(workspace["synth"], name)) == digest

    def test_rerun_is_bit_identical(self, workspace, tmp_path):
        again = str(tmp_path / "synth")
        assert run(["synth", "--out", again, "--steps", "12", "--noise", "0",
                    "--path", "line:speed=70", "--path", "circle:radius=250",
                    "--seed", "3"]) == 0
        for name in ("clip_000.txt", "clip_001.txt", "clip_000.truth.json"):
            assert sha(os.path.join(again, name)) == \
                sha(os.path.join(workspace["synth"], name))

    def test_bad_path_spec_is_config_error(self, tmp_path):
        assert run(["synth", "--out", str(tmp_path / "x"),
                    "--path", "zigzag:speed=70"]) == cli.EXIT_CONFIG
        assert run(["synth", "--out", str(tmp_path / "x"),
                    "--path", "circle:radius=nan"]) == cli.EXIT_CONFIG


class TestTrain:
    def test_checkpoint_and_log(self, workspace):
        model, meta = flow.load_checkpoint(workspace["checkpoint"])
        assert meta["steps_done"] == 12
        assert meta["ablation"] == "stmg"
        assert model.config.flow_steps == 6  # desk preset
        lines = read_text(os.path.join(workspace["run"], "train_log.txt")).splitlines()
        assert lines[0].startswith("post_init_holdout_nll ")
        assert sum(1 for l in lines if l.startswith("step ")) == 12
        post_init = float(lines[0].split()[1])
        assert meta["final_holdout_nll"] < post_init

    def test_resume_from_checkpoint(self, workspace, tmp_path):
        out = str(tmp_path / "resumed")
        assert run(["train", "--out", out, "--steps", "4",
                    "--batch-size", "2", "--nll-frames", "2",
                    "--eval-every", "4", "--walker-steps", "12",
                    "--path", "line:speed=70", "--seed", "4",
                    "--init-from", workspace["checkpoint"]]) == 0
        model, meta = flow.load_checkpoint(os.path.join(out, "model.ckpt"))
        assert meta["steps_done"] == 4

    def test_init_from_records_the_loaded_model(self, tmp_path):
        """Continuing an `mg` checkpoint under the job's default `stmg`
        model: the manifest and the checkpoint's meta name the model that
        was trained."""
        args = ["--steps", "2", "--batch-size", "2", "--nll-frames", "2",
                "--eval-every", "2", "--walker-steps", "12", "--path", "line:speed=70"]
        first = str(tmp_path / "mg")
        assert run(["train", "--out", first, "--ablation", "mg"] + args) == 0
        out = str(tmp_path / "continued")
        assert run(["train", "--out", out,
                    "--init-from", os.path.join(first, "model.ckpt")] + args) == 0
        model, meta = flow.load_checkpoint(os.path.join(out, "model.ckpt"))
        manifest = read_json(os.path.join(out, "manifest_train.json"))
        assert model.config.ablation == meta["ablation"] == "mg"
        assert manifest["config"]["model"] == json.loads(json.dumps(model.config.to_dict()))

    def test_init_from_checkpoint_of_another_skeleton_is_config_error(
            self, workspace, tmp_path, capsys):
        """`train --init-from` checks the checkpoint against the job's
        skeleton, here given by --skeleton."""
        assert run(["train", "--out", str(tmp_path / "o"), "--steps", "2",
                    "--walker-steps", "12", "--path", "line:speed=70",
                    "--skeleton", other_skeleton(tmp_path),
                    "--init-from", workspace["checkpoint"]]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: checkpoint ")
        assert "skeleton does not match the job's (21 vs 21 markers)" in err
        assert not (tmp_path / "o" / "model.ckpt").exists()

    def test_mg_ablation_has_no_graph_parameters(self, tmp_path):
        out = str(tmp_path / "mg")
        assert run(["train", "--out", out, "--steps", "2",
                    "--batch-size", "2", "--nll-frames", "2",
                    "--eval-every", "2", "--walker-steps", "12",
                    "--path", "line:speed=70", "--ablation", "mg"]) == 0
        model, _ = flow.load_checkpoint(os.path.join(out, "model.ckpt"))
        census = model.census()
        assert census["graph"] == 0

    def test_empty_data_dir_is_io_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["train", "--out", str(tmp_path / "o"),
                    "--data-dir", str(empty), "--steps", "2"]) == cli.EXIT_IO

    def test_ingests_clip_directory(self, workspace, tmp_path):
        out = str(tmp_path / "ingest")
        assert run(["train", "--out", out, "--data-dir", workspace["synth"],
                    "--steps", "2", "--batch-size", "2", "--nll-frames", "2",
                    "--eval-every", "2"]) == 0
        assert os.path.exists(os.path.join(out, "model.ckpt"))

    def test_data_dir_from_environment_is_recorded(self, workspace, tmp_path,
                                                  monkeypatch):
        """$SKELFLOW_DATA_DIR trains like --data-dir, and the manifest
        records the directory either way."""
        args = ["--steps", "2", "--batch-size", "2", "--nll-frames", "2",
                "--eval-every", "2"]
        flag, env = str(tmp_path / "flag"), str(tmp_path / "env")
        assert run(["train", "--out", flag, "--data-dir", workspace["synth"]] + args) == 0
        monkeypatch.setenv(cli.DATA_DIR_ENV, workspace["synth"])
        assert run(["train", "--out", env] + args) == 0
        assert sha(os.path.join(env, "model.ckpt")) == sha(os.path.join(flag, "model.ckpt"))
        configs = [read_json(os.path.join(out, "manifest_train.json"))["config"]
                   for out in (flag, env)]
        assert configs[1]["data_dir"] == workspace["synth"]
        assert {**configs[1], "out": flag} == configs[0]

    def test_divergence_saves_last_good_parameters(self, tmp_path,
                                                   monkeypatch):
        args = ["--batch-size", "2", "--nll-frames", "2", "--eval-every", "5",
                "--walker-steps", "12", "--path", "line:speed=70",
                "--seed", "3"]
        good = str(tmp_path / "good")
        assert run(["train", "--out", good, "--steps", "2"] + args) == 0
        real_grad = nc.grad
        calls = []

        def nan_at_step_3(loss, leaves):
            grads = real_grad(loss, leaves)
            calls.append(1)
            if len(calls) == 3:
                grads[0] = np.full_like(grads[0], np.nan)
            return grads

        monkeypatch.setattr(nc, "grad", nan_at_step_3)
        out = str(tmp_path / "diverged")
        assert run(["train", "--out", out, "--steps", "5"] + args) == \
            cli.EXIT_NUMERIC
        model, meta = flow.load_checkpoint(os.path.join(out, "model.ckpt"))
        assert meta["aborted_at_step"] == 3
        assert meta["last_good_step"] == 2
        assert "steps_done" not in meta
        reference, _ = flow.load_checkpoint(os.path.join(good, "model.ckpt"))
        for (k, v), (kr, vr) in zip(model.named_parameters(),
                                    reference.named_parameters()):
            assert k == kr
            np.testing.assert_array_equal(v, vr)


class TestGenerate:
    def test_sequences_are_distinct_but_reruns_identical(self, workspace,
                                                         tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        args = ["generate", "--checkpoint", workspace["checkpoint"],
                "--num", "3", "--horizon", "30", "--seed", "11"]
        assert run(args + ["--out", out_a]) == 0
        assert run(args + ["--out", out_b]) == 0
        hashes = [sha(os.path.join(out_a, f"gen_{i:03d}.txt"))
                  for i in range(3)]
        assert len(set(hashes)) == 3
        for i in range(3):
            assert hashes[i] == sha(os.path.join(out_b, f"gen_{i:03d}.txt"))

    def test_zero_temperature_collapses_to_one_sequence(self, workspace,
                                                        tmp_path):
        out = str(tmp_path / "t0")
        assert run(["generate", "--checkpoint", workspace["checkpoint"],
                    "--num", "2", "--horizon", "20", "--seed", "11",
                    "--temperature", "0", "--out", out]) == 0
        assert sha(os.path.join(out, "gen_000.txt")) == \
            sha(os.path.join(out, "gen_001.txt"))

    def test_generated_clips_are_finite_with_sane_bones(self, workspace,
                                                        tmp_path):
        out = str(tmp_path / "chk")
        assert run(["generate", "--checkpoint", workspace["checkpoint"],
                    "--num", "1", "--horizon", "30", "--seed", "2",
                    "--out", out, "--report"]) == 0
        clip = data.load_clip(os.path.join(out, "gen_000.txt"))
        assert np.all(np.isfinite(clip.positions))
        report = metrics.bone_length_analysis(clip, skeleton.default_skeleton())
        assert np.isfinite(report.bl_rmse)
        assert os.path.exists(os.path.join(out, "generate_report.txt"))

    def test_missing_checkpoint_is_io_error(self, tmp_path):
        assert run(["generate", "--checkpoint",
                    str(tmp_path / "nope.ckpt"),
                    "--out", str(tmp_path / "o")]) == cli.EXIT_IO

    def test_skeleton_mismatch_is_config_error(self, workspace, tmp_path):
        other = tmp_path / "tiny.txt"
        other.write_text(TINY_SKELETON)
        assert run(["generate", "--checkpoint", workspace["checkpoint"],
                    "--skeleton", str(other),
                    "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG

    def test_skeleton_is_checked_only_when_given(self, workspace, tmp_path, capsys):
        """Without --skeleton, generate runs the checkpoint's own skeleton,
        even one that is not the default; a --skeleton of the same marker
        count that the checkpoint was not trained on exits 2."""
        other = other_skeleton(tmp_path)
        trained = str(tmp_path / "run")
        assert run(["train", "--out", trained, "--skeleton", other, "--steps", "1",
                    "--batch-size", "2", "--nll-frames", "2", "--eval-every", "1",
                    "--walker-steps", "12", "--path", "line:speed=70"]) == 0
        args = ["generate", "--num", "1", "--horizon", "4"]
        assert run(args + ["--checkpoint", os.path.join(trained, "model.ckpt"),
                           "--out", str(tmp_path / "ok")]) == 0
        capsys.readouterr()
        assert run(args + ["--checkpoint", workspace["checkpoint"], "--skeleton", other,
                           "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert "skeleton does not match the job's (21 vs 21 markers)" in \
            capsys.readouterr().err
        assert not (tmp_path / "o" / "gen_000.txt").exists()


class TestReconstruct:
    def test_right_arm_provenance(self, workspace, tmp_path):
        out = str(tmp_path / "rec")
        assert run(["reconstruct", "--checkpoint", workspace["checkpoint"],
                    "--mask", "right_arm", "--num", "2", "--horizon", "12",
                    "--seed", "9", "--out", out]) == 0
        for i in range(2):
            side = read_json(os.path.join(
                out, f"recon_{i:03d}.provenance.json"))
            assert side["masked_markers"] == [18, 19, 20]
            assert side["preset"] == "right_arm"
        summary = read_text(os.path.join(out, "reconstruct_summary.txt"))
        assert summary.splitlines()[0] == \
            "# clip preset masked_markers bl_rmse_cm"
        assert "18,19,20" in summary

    def test_none_preset_preserves_input_past(self, workspace, tmp_path):
        out = str(tmp_path / "none")
        assert run(["reconstruct", "--checkpoint", workspace["checkpoint"],
                    "--mask", "none", "--num", "1", "--horizon", "10",
                    "--seed", "5", "--out", out]) == 0
        model, _ = flow.load_checkpoint(workspace["checkpoint"])
        config = cli.resolve_config(cli.build_parser().parse_args(
            ["reconstruct", "--checkpoint", workspace["checkpoint"],
             "--mask", "none", "--num", "1", "--horizon", "10",
             "--seed", "5", "--out", out]))
        history, _ = cli._reconstruction_input(config, model)
        clip = data.load_clip(os.path.join(out, "recon_000.txt"))
        t_h = model.config.history
        np.testing.assert_array_equal(clip.positions[:, :, :t_h], history)

    def test_clip_is_resampled_to_the_job_rate(self, workspace, tmp_path):
        """A 40 fps clip is reconstructed on its 20 fps resampling, and the
        output is a 20 fps clip whose past is that resampled history."""
        synth = str(tmp_path / "fast")
        assert run(["synth", "--out", synth, "--fps", "40", "--steps", "6",
                    "--noise", "0", "--path", "line:speed=70", "--seed", "4"]) == 0
        clip_path = os.path.join(synth, "clip_000.txt")
        out = str(tmp_path / "rec")
        assert run(["reconstruct", "--checkpoint", workspace["checkpoint"],
                    "--clip", clip_path, "--mask", "none", "--num", "1",
                    "--horizon", "10", "--out", out]) == 0
        model, _ = flow.load_checkpoint(workspace["checkpoint"])
        t_h = model.config.history
        want = data.to_root_relative(
            data.resample(data.load_clip(clip_path), target_fps=20.0),
            skeleton_spec=model.skeleton)
        recon = data.load_clip(os.path.join(out, "recon_000.txt"))
        assert recon.fps == 20.0
        assert recon.frame_count == t_h + 10
        np.testing.assert_array_equal(recon.positions[:, :, :t_h],
                                      want.positions[:, :, :t_h])
        np.testing.assert_array_equal(recon.controls, want.controls[:, :t_h + 10])

    def test_unknown_preset_is_config_error(self, workspace, tmp_path):
        assert run(["reconstruct", "--checkpoint", workspace["checkpoint"],
                    "--mask", "torso", "--out",
                    str(tmp_path / "o")]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("command, flags", [
    ("generate", ["--num", "1", "--horizon", "4"]),
    ("reconstruct", ["--num", "1", "--horizon", "10", "--mask", "right_arm"]),
])
def test_manifest_records_the_checkpoint_model(workspace, tmp_path, command, flags):
    """A desk checkpoint's manifest names the desk model it ran, not the
    job's default `full` model."""
    out = str(tmp_path / command)
    assert run([command, "--checkpoint", workspace["checkpoint"], *flags,
                "--out", out]) == 0
    manifest = read_json(os.path.join(out, f"manifest_{command}.json"))
    model, _ = flow.load_checkpoint(workspace["checkpoint"])
    assert model.config == flow.desk_config()
    assert manifest["config"]["model"] == json.loads(json.dumps(model.config.to_dict()))
    assert manifest["config_sha256"] == hashlib.sha256(
        cli._canonical_json(manifest["config"]).encode()).hexdigest()


@pytest.mark.parametrize("command, flags, key, value", [
    ("evaluate", ["--clips", "{synth}"], "data_dir", "{synth}"),
    ("train", ["--init-from", "{checkpoint}", "--steps", "1", "--batch-size", "2",
               "--nll-frames", "2", "--eval-every", "1", "--walker-steps", "12",
               "--path", "line:speed=70"], "init_from", "{checkpoint}"),
    ("reconstruct", ["--checkpoint", "{checkpoint}", "--clip", "{clip}",
                     "--num", "1", "--horizon", "10"], "clip", "{clip}"),
    ("generate", ["--checkpoint", "{checkpoint}", "--num", "1", "--horizon", "4",
                  "--report"], "report", True),
])
def test_manifest_names_every_input(workspace, tmp_path, command, flags, key, value):
    """Each input a command reads is a job key, so its manifest and config
    hash record it."""
    paths = {"synth": workspace["synth"], "checkpoint": workspace["checkpoint"],
             "clip": os.path.join(workspace["synth"], "clip_000.txt")}
    out = str(tmp_path / command)
    assert run([command, *(f.format(**paths) for f in flags), "--out", out]) == 0
    manifest = read_json(os.path.join(out, f"manifest_{command}.json"))
    if isinstance(value, str):
        value = value.format(**paths)
    assert manifest["config"][key] == value


@pytest.mark.parametrize("command, flags, code", [
    ("synth", ["--path", "zigzag:speed=1"], cli.EXIT_CONFIG),
    ("synth", ["--path", "line:speed=70", "--path", "zigzag:speed=1"], cli.EXIT_CONFIG),
    ("train", ["--init-from", "{missing}", "--steps", "1", "--walker-steps", "12",
               "--path", "line:speed=70"], cli.EXIT_IO),
    ("generate", ["--checkpoint", "{missing}"], cli.EXIT_IO),
    ("reconstruct", ["--checkpoint", "{missing}"], cli.EXIT_IO),
    ("reconstruct", ["--checkpoint", "{checkpoint}", "--clip", "{missing}"], cli.EXIT_IO),
    ("evaluate", ["--clips", "{missing}"], cli.EXIT_IO),
    # a malformed clip sorted after a good one, whose reports come first
    ("evaluate", ["--clips", "{bad_clips}"], cli.EXIT_IO),
    # the default skeleton has no bone_cm lines to take as the reference
    ("evaluate", ["--clips", "{synth}", "--reference", "config"], cli.EXIT_CONFIG),
    # a 10 fps clip cannot be resampled up to the job's 20 fps
    ("reconstruct", ["--checkpoint", "{checkpoint}", "--clip", "{clip_10fps}",
                     "--num", "1", "--horizon", "10"], cli.EXIT_CONFIG),
])
def test_bad_input_leaves_no_output_directory(workspace, tmp_path, command, flags, code):
    """Every command reads and checks its inputs before it creates --out."""
    good = os.path.join(workspace["synth"], "clip_000.txt")
    bad_clips = tmp_path / "bad_clips"
    bad_clips.mkdir()
    data.save_clip(data.load_clip(good), str(bad_clips / "clip_000.txt"))
    (bad_clips / "zbad.txt").write_text("not a clip\n")
    clip_10fps = str(tmp_path / "slow.txt")
    data.save_clip(data.resample(data.load_clip(good), target_fps=10.0), clip_10fps)
    paths = {"checkpoint": workspace["checkpoint"], "missing": str(tmp_path / "nope"),
             "synth": workspace["synth"], "bad_clips": str(bad_clips),
             "clip_10fps": clip_10fps}
    out = tmp_path / "out"
    assert run([command, *(f.format(**paths) for f in flags), "--out", str(out)]) == code
    assert not out.exists()


def test_rollouts_submit_nothing_to_the_pool(workspace, tmp_path, set_workers,
                                            monkeypatch):
    """A B=1 generate, a reconstruct and a `generate --num 8` job run every
    encoder call as one chunk, inline, even with a pool to hand."""
    set_workers(2)
    submitted = []
    real_pool = nc._pool

    class CountingPool:
        def submit(self, *args):
            submitted.append(args)
            return real_pool().submit(*args)

    monkeypatch.setattr(nc, "_pool", CountingPool)
    model, _ = flow.load_checkpoint(workspace["checkpoint"])
    cfg = model.config
    rng = np.random.default_rng(6)
    history = rng.normal(size=(cfg.markers, cfg.channels, cfg.history))
    controls = rng.normal(size=(3, 2 * cfg.history)) * 0.1
    sequence.generate(model, sequence.GenerationRequest(
        history=history, controls=controls, horizon=cfg.history, seed=1))
    mask = sequence.mask_preset("right_arm", markers=cfg.markers, history=cfg.history)
    sequence.reconstruct(model, history, mask, controls, seed=2)
    assert run(["generate", "--checkpoint", workspace["checkpoint"], "--num", "8",
                "--horizon", "6", "--seed", "3", "--out", str(tmp_path / "g8")]) == 0
    assert submitted == []
    # the count does see pooled work: an Adam step's scan and update
    params = {"a": np.zeros(2), "b": np.zeros(2)}
    nc.adam_step(params, {"a": np.ones(2), "b": np.ones(2)}, nc.adam_init(params), 0.1)
    assert len(submitted) == 2


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def train_in_subprocess(cwd, blas_threads):
    """`skelflow train --steps 2 --out run` in cwd, in a fresh interpreter
    importing this tree's package, at `blas_threads` OpenBLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join(
                   [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run(
        [sys.executable, "-m", "skelflow.cli", "train", "--out", "run", "--steps", "2",
         "--batch-size", "2", "--nll-frames", "2", "--eval-every", "2",
         "--walker-steps", "12", "--path", "line:speed=70", "--seed", "3"],
        cwd=cwd, env=env, check=True, timeout=300, capture_output=True)
    return os.path.join(cwd, "run")


def test_manifest_records_numeric_env_and_reruns_repeat_under_it(tmp_path):
    """At 1 and at 2 BLAS threads, each manifest records its own setting,
    and a rerun at the same setting writes the same bytes."""
    for threads in (1, 2):
        cwd = tmp_path / f"blas{threads}"
        cwd.mkdir()
        first = train_in_subprocess(cwd, threads)
        os.rename(first, cwd / "first")
        again = train_in_subprocess(cwd, threads)
        names = sorted(os.listdir(again))
        assert names == sorted(os.listdir(cwd / "first"))
        assert names == ["manifest_train.json", "model.ckpt", "train_log.txt"]
        for name in names:
            assert sha(os.path.join(again, name)) == sha(cwd / "first" / name), name
        env = read_json(os.path.join(again, "manifest_train.json"))["numeric_env"]
        assert env["OPENBLAS_NUM_THREADS"] == str(threads)
        assert env["numpy"] == np.__version__
        assert set(env) == {"numpy", "blas", "simd", "OPENBLAS_NUM_THREADS",
                            "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}


def synth_manifest_env(cwd, extra_env):
    """The `numeric_env` of a `skelflow synth` run in a fresh interpreter
    importing this tree's package, with `extra_env` set."""
    env = dict(os.environ, **extra_env, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run([sys.executable, "-m", "skelflow.cli", "synth", "--out", "run",
                    "--steps", "4", "--path", "line"],
                   cwd=cwd, env=env, check=True, timeout=300, capture_output=True)
    return read_json(os.path.join(cwd, "run", "manifest_synth.json"))["numeric_env"]


def test_numeric_env_records_the_simd_extensions_numpy_uses(tmp_path):
    """numpy's `exp` and `tanh` give different last bits on different SIMD
    extensions, so a run with the highest one numpy found switched off
    records a different `numeric_env`."""
    found = cli.numeric_env()["simd"]
    if not isinstance(found, dict) or not found.get("found"):
        pytest.skip("numpy reports no SIMD extension beyond its baseline")
    disabled = " ".join([os.environ.get("NPY_DISABLE_CPU_FEATURES", ""),
                         found["found"][-1]]).strip()
    (tmp_path / "as_run").mkdir()
    (tmp_path / "disabled").mkdir()
    as_run = synth_manifest_env(tmp_path / "as_run", {})
    without = synth_manifest_env(tmp_path / "disabled",
                                 {"NPY_DISABLE_CPU_FEATURES": disabled})
    assert as_run["simd"] == found
    assert found["found"][-1] not in without["simd"]["found"]
    assert without != as_run


def test_numeric_env_records_every_variable_the_pool_reads(monkeypatch):
    """Every variable numcore reads the BLAS thread count from is in the
    manifest's numeric environment: with GOTO_NUM_THREADS=1 alone, BLAS
    and the pool's sizing rule take one thread, and the manifest says so."""
    for name in cli.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("GOTO_NUM_THREADS", "1")
    env = cli.numeric_env()
    assert env["GOTO_NUM_THREADS"] == "1"
    assert set(nc.BLAS_THREAD_VARS) <= set(env)
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "unset"
    assert nc._blas_threads(64) == 1


class TestEvaluate:
    def test_reports_recover_generator_step_count(self, workspace, tmp_path):
        out = str(tmp_path / "ev")
        assert run(["evaluate", "--clips", workspace["synth"],
                    "--out", out]) == 0
        lines = read_text(os.path.join(out, "evaluate_summary.txt")).splitlines()
        assert lines[0] == cli.SUMMARY_HEADER
        body = [l for l in lines if not l.startswith("#")]
        assert len(body) == 2
        for row in body:
            assert int(row.split()[1]) == 12
        assert lines[-1].startswith("# aggregate mean_f_est 12.000000")

    def test_per_clip_artifacts_written(self, workspace, tmp_path):
        out = str(tmp_path / "ev2")
        assert run(["evaluate", "--clips", workspace["synth"],
                    "--out", out]) == 0
        for stem in ("clip_000", "clip_001"):
            for suffix in (".footsteps.txt", ".sweep.txt", ".bones.txt"):
                assert os.path.exists(os.path.join(out, stem + suffix))
        sweep = read_text(os.path.join(out, "clip_000.sweep.txt"))
        assert sweep.splitlines()[0] == "# v_tol_mm_s f_est"
        assert len(sweep.splitlines()) == 602

    def test_data_dir_from_environment_is_recorded(self, workspace, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv(cli.DATA_DIR_ENV, workspace["synth"])
        out = str(tmp_path / "env")
        assert run(["evaluate", "--out", out]) == 0
        manifest = read_json(os.path.join(out, "manifest_evaluate.json"))
        assert manifest["config"]["data_dir"] == workspace["synth"]
        assert "clip_001.sweep.txt" in manifest["outputs"]

    def test_clips_sharing_a_stem_are_io_error(self, workspace, tmp_path, capsys):
        """`w.txt` and `w.bin` would write the same `w.*.txt` reports: the
        directory is refused before anything is written."""
        clips = tmp_path / "clips"
        clips.mkdir()
        clip = data.load_clip(os.path.join(workspace["synth"], "clip_000.txt"))
        data.save_clip(clip, str(clips / "w.txt"))
        data.save_clip(clip, str(clips / "w.bin"), format="binary")
        out = tmp_path / "o"
        assert run(["evaluate", "--clips", str(clips), "--out", str(out)]) == \
            cli.EXIT_IO
        err = capsys.readouterr().err
        assert str(clips / "w.txt") in err and str(clips / "w.bin") in err
        assert not out.exists()

    def test_non_finite_bone_length_is_config_error(self, workspace, tmp_path,
                                                    capsys):
        spec = skeleton.default_skeleton()
        text = skeleton.to_config_text(spec) + "".join(
            f"bone_cm {i} {j} {'nan' if n == 0 else 10.0}\n"
            for n, (i, j) in enumerate(spec.edges))
        path = tmp_path / "nan_bone.txt"
        path.write_text(text)
        assert run(["evaluate", "--clips", workspace["synth"], "--skeleton", str(path),
                    "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert "must be positive and finite" in capsys.readouterr().err

    def test_empty_dir_is_explicit_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert run(["evaluate", "--clips", str(empty),
                    "--out", str(tmp_path / "o")]) == cli.EXIT_IO

    @pytest.mark.parametrize("markers", (5, 25))
    def test_marker_count_mismatch_is_config_error(self, tmp_path, capsys, markers):
        clips = tmp_path / "clips"
        clips.mkdir()
        rng = np.random.default_rng(markers)
        clip = data.MotionClip(rng.normal(size=(markers, 3, 30)),
                               np.zeros((3, 30)), 20.0)
        data.save_clip(clip, str(clips / "odd.txt"))
        assert run(["evaluate", "--clips", str(clips),
                    "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert f"clip has {markers} markers but the skeleton has 21" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--grid-step", "1e-12"),
                                            ("--grid-max", "1e300"),
                                            ("--grid-max", "1e15")])
    def test_oversized_metric_grid_is_config_error(self, workspace, tmp_path,
                                                   capsys, flag, value):
        out = tmp_path / "o"
        assert run(["evaluate", "--clips", workspace["synth"], "--out", str(out),
                    flag, value]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"more than {cli.MAX_GRID_POINTS}" in err
        assert not out.exists()

    def test_largest_metric_grid_is_accepted(self):
        config = cli.JobConfig(grid_max=float(cli.MAX_GRID_POINTS - 1), grid_step=1.0)
        config.validate()
        assert len(cli._metric_grid(config)) == cli.MAX_GRID_POINTS
        with pytest.raises(ValueError, match="points"):
            cli.JobConfig(grid_max=float(cli.MAX_GRID_POINTS), grid_step=1.0).validate()

    def test_skeleton_with_too_few_edges_is_config_error(self, workspace, tmp_path,
                                                         capsys):
        big = tmp_path / "big.txt"
        big.write_text("markers 3000\ncenter 0\nheels 0 1\n")
        assert run(["evaluate", "--clips", workspace["synth"], "--skeleton", str(big),
                    "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == ("config error: 3000 markers need at least 2999 "
                       "edge lines, got 0\n")

    def test_missing_clips_flag_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)
        assert run(["evaluate", "--out",
                    str(tmp_path / "o")]) == cli.EXIT_CONFIG

    def test_reruns_are_bit_identical(self, workspace, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        for out in (out_a, out_b):
            assert run(["evaluate", "--clips", workspace["synth"],
                        "--out", out]) == 0
        assert sha(os.path.join(out_a, "evaluate_summary.txt")) == \
            sha(os.path.join(out_b, "evaluate_summary.txt"))


class TestJobConfig:
    def test_json_config_round_trip(self, tmp_path):
        config = cli.JobConfig()
        blob = json.dumps(config.to_dict())
        again = cli.JobConfig.from_dict(json.loads(blob))
        assert again == config

    def test_defaults_follow_published_setup(self):
        model = cli.JobConfig().model
        assert model.flow_steps == 16
        assert model.history == 10
        assert tuple(model.kernel_schedule) == (3,) * 10 + (5,) * 4 + (7,) * 2
        assert model.temporal_kernel == 9
        assert model.lstm_hidden == 512 and model.lstm_layers == 2

    def test_train_config_with_too_short_stmg_history_is_config_error(
            self, tmp_path, capsys):
        model = dataclasses.replace(flow.desk_config(), history=3).to_dict()
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"model": model}))
        assert run(["train", "--config", str(path), "--steps", "1",
                    "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert "too short for temporal kernel 9" in capsys.readouterr().err
        assert not (tmp_path / "o" / "model.ckpt").exists()

    def test_unknown_config_key_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"horizont": 5}))
        assert run(["synth", "--config", str(bad),
                    "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG

    def test_config_file_values_apply_and_flags_override(self, tmp_path):
        blob = tmp_path / "cfg.json"
        blob.write_text(json.dumps({"horizon": 55, "temperature": 0.5, "fps": 20,
                                    "train": {"learning_rate": 1}}))
        args = cli.build_parser().parse_args(
            ["generate", "--config", str(blob), "--temperature", "0.25"])
        config = cli.resolve_config(args)
        assert config.horizon == 55
        assert config.temperature == 0.25
        # an int is read as a float for a float field
        assert type(config.fps) is float and config.fps == 20.0
        assert type(config.train.learning_rate) is float

    @pytest.mark.parametrize("blob,key", [
        ('{"horizon": "5"}', "horizon"),
        ('{"seed": 1.5}', "seed"),
        ('{"seed": true}', "seed"),
        ('{"paths": "line:speed=70"}', "paths"),
        ('{"paths": ["line:speed=70", 3]}', "paths"),
        ('{"train": {"steps": "3"}}', "train.steps"),
        ('{"train": {"bogus": 1}}', "train.bogus"),
        ('{"train": [1]}', "train"),
        ('{"model": {"markers": 21}}', "kernel_schedule"),
        ('[1, 2]', "config"),
    ])
    def test_wrong_typed_config_file_values_are_config_errors(self, tmp_path, capsys,
                                                              blob, key):
        path = tmp_path / "cfg.json"
        path.write_text(blob)
        assert run(["synth", "--config", str(path),
                    "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    def test_invalid_values_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"clip_format": "parquet"}))
        assert run(["synth", "--config", str(bad),
                    "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG

    # (command, flag, value, JobConfig or TrainConfig field)
    NON_FINITE = [
        ("synth", "--noise", "nan", "noise_std"),
        ("synth", "--noise", "inf", "noise_std"),
        ("synth", "--fps", "nan", "fps"),
        ("synth", "--fps", "inf", "fps"),
        ("generate", "--temperature", "nan", "temperature"),
        ("generate", "--temperature", "inf", "temperature"),
        ("reconstruct", "--temperature", "nan", "temperature"),
        ("evaluate", "--grid-max", "inf", "grid_max"),
        ("evaluate", "--grid-step", "nan", "grid_step"),
        ("train", "--learning-rate", "nan", "learning_rate"),
        ("train", "--grad-clip", "inf", "grad_clip"),
    ]

    @pytest.mark.parametrize("command,flag,value,field", NON_FINITE)
    def test_non_finite_floats_are_config_errors(self, tmp_path, capsys,
                                                 command, flag, value, field):
        out = tmp_path / "o"
        args = [command, "--out", str(out), flag, value]
        if command in ("generate", "reconstruct"):
            # rejected before the (missing) checkpoint is opened
            args += ["--checkpoint", str(tmp_path / "missing.ckpt")]
        assert run(args) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("blob,field", [
        ('{"noise_std": NaN}', "noise_std"),
        ('{"temperature": Infinity}', "temperature"),
        ('{"train": {"learning_rate": NaN}}', "learning_rate"),
    ])
    def test_non_finite_config_file_values_are_config_errors(self, tmp_path, capsys,
                                                             blob, field):
        path = tmp_path / "cfg.json"
        path.write_text(blob)
        assert run(["synth", "--config", str(path),
                    "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err

    def test_malformed_json_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["synth", "--config", str(bad),
                    "--out", str(tmp_path / "o")]) == cli.EXIT_IO


def resolve(argv):
    return cli.resolve_config(cli.build_parser().parse_args(argv))


def write_config(tmp_path, blob):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(blob))
    return str(path)


class TestResolveConfig:
    """Defaults, then the --config file, then the flags actually given."""

    def test_train_defaults_to_the_desk_model(self):
        assert resolve(["train"]).model == flow.desk_config()
        assert resolve(["synth"]).model == flow.ModelConfig()
        assert resolve(["train", "--scale", "full"]).model == flow.ModelConfig()

    def test_train_uses_the_config_file_model(self, tmp_path):
        model = flow.desk_config(markers=5, ablation="mg").to_dict()
        model["lstm_hidden"] = 20
        path = write_config(tmp_path, {"model": model})
        assert resolve(["train", "--config", path]).model == \
            flow.ModelConfig.from_dict(model)
        # an explicit preset keeps the file's markers and ablation
        assert resolve(["train", "--config", path, "--scale", "desk"]).model == \
            flow.desk_config(markers=5, ablation="mg")
        assert resolve(["train", "--config", path, "--scale", "full"]).model == \
            flow.ModelConfig(markers=5, ablation="mg")
        assert resolve(["train", "--config", path, "--scale", "desk",
                        "--ablation", "smg"]).model == \
            flow.desk_config(markers=5, ablation="smg")

    def test_file_seed_and_seed_flag_resolve_alike(self, tmp_path):
        from_file = resolve(["train", "--config", write_config(tmp_path, {"seed": 5})])
        assert from_file == resolve(["train", "--seed", "5"])
        assert from_file.train.seed == 5
        # the file's train object may set its own seed; --seed sets both
        path = write_config(tmp_path, {"seed": 5, "train": {"seed": 7}})
        config = resolve(["train", "--config", path])
        assert (config.seed, config.train.seed) == (5, 7)
        config = resolve(["train", "--config", path, "--seed", "9"])
        assert (config.seed, config.train.seed) == (9, 9)

    def test_flags_not_given_leave_the_file_values(self, tmp_path):
        path = write_config(tmp_path, {
            "walker_steps": 9, "checkpoint": "a.ckpt", "paths": ["circle:radius=250"],
            "train": {"steps": 7, "batch_size": 3}})
        config = resolve(["train", "--config", path])
        assert (config.walker_steps, config.checkpoint, config.paths) == \
            (9, "a.ckpt", ("circle:radius=250",))
        assert (config.train.steps, config.train.batch_size) == (7, 3)
        config = resolve(["train", "--config", path, "--steps", "3",
                          "--path", "line:speed=70", "--path", "s_curve:speed=70"])
        assert (config.train.steps, config.train.batch_size) == (3, 3)
        assert config.paths == ("line:speed=70", "s_curve:speed=70")
        assert config.walker_steps == 9

    def test_every_flag_names_a_config_field(self):
        assert set(cli.COMMAND_INPUTS) == {"config", "scale", "command"}
        assert not set(cli.COMMAND_INPUTS) & set(cli.JobConfig.__dataclass_fields__)
        nested = {"": cli.JobConfig, "train": training.TrainConfig,
                  "model": flow.ModelConfig}
        parser = cli.build_parser()
        commands, = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
        actions = [("", a) for a in parser._actions] + [
            (name, a) for name, sub in commands.choices.items() for a in sub._actions]
        bad = []
        for command, action in actions:
            if action.default is argparse.SUPPRESS:  # -h/--help
                continue
            section, _, name = action.dest.rpartition(".")
            if action.dest not in cli.COMMAND_INPUTS and \
                    name not in getattr(nested.get(section), "__dataclass_fields__", ()):
                bad.append((command, action.option_strings, action.dest))
        assert not bad
        assert {name for name, _ in actions} == {
            "", "synth", "train", "generate", "reconstruct", "evaluate"}

    def test_report_flag_not_given_leaves_the_file_value(self, tmp_path):
        path = write_config(tmp_path, {"report": True, "clip": "a.txt",
                                       "init_from": "b.ckpt"})
        assert resolve(["generate", "--config", path]).report is True
        assert resolve(["generate"]).report is False
        assert resolve(["generate", "--report"]).report is True
        assert resolve(["reconstruct", "--config", path]).clip == "a.txt"
        assert resolve(["train", "--config", path]).init_from == "b.ckpt"
        assert resolve(["evaluate", "--clips", "d"]).data_dir == "d"

    def test_two_calls_build_at_most_one_parser(self, tmp_path, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        empty = tmp_path / "empty"
        empty.mkdir()
        for _ in range(2):
            assert run(["evaluate", "--clips", str(empty),
                        "--out", str(tmp_path / "o")]) == cli.EXIT_IO
        assert built.count("skelflow") <= 1


class TestOutOfMemory:
    @pytest.mark.parametrize("command, name", [("train", "cmd_train"),
                                               ("generate", "cmd_generate")])
    def test_memory_error_is_io_error(self, tmp_path, capsys, monkeypatch,
                                      command, name):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 840. MiB")
        monkeypatch.setattr(cli, name, exhausted)
        assert run([command, "--out", str(tmp_path / "o")]) == cli.EXIT_IO
        assert capsys.readouterr().err == \
            "error: out of memory: Unable to allocate 840. MiB\n"

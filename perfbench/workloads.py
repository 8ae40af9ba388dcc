"""The three benchmark workloads: train, rollout and evaluate_clips.

Each workload is a closed loop with one client: it sends its next request
only after the previous one returned.  Inputs come from the workload seed
alone; skelflow only ever sees the generated inputs, through its public
functions and its command line (`cli.main`, in process).

A workload has `setup(seed, work_dir, in_process)` returning its state,
`setup_reps`, the number of set-up repetitions per run, a
`fingerprint(state)` that must repeat across set-up repetitions, and
`run(state, run)` that issues ops until `run.time_up()`, calls
`run.between_ops()` between them, and checks their outputs.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import traceback
from dataclasses import dataclass, field

import numpy as np

from spans import Patches

from skelflow import (cli, data, flow, numcore, sequence, skeleton,
                      training)

T_H = flow.desk_config().history
# Request shapes; README.md gives the reasons.  A B=1 request is cut from
# the command line's default horizon to 24 frames so that a run holds over
# 100 of them: its time per frame does not depend on the horizon (within
# 4% from 24 to 100 frames on the reference machine), because it has no
# fixed cost beyond the frames.  A generate job keeps the command line's
# defaults apart from --num, and a reconstruction uses
# `sequence.reconstruct`'s default horizon, T_H.
GEN_HORIZON = 24
BATCH_NUM = 8
BATCH_HORIZON = cli.JobConfig().horizon
RECON_FRAMES = 2 * T_H   # forward pass plus the time-reversed pass
ROUNDTRIP_TOL = 1e-6     # acceptance check 01's invertibility tolerance
REFERENCE_RTOL = 1e-9
MAX_GROWTH = 1.0         # share by which a window may grow to reach min_ops
EVAL_EVERY = 9
MASKS = ("right_arm", "left_leg", "right_arm_left_leg", "random4")
TRACK_KINDS = ("line", "circle", "s_curve")

# Losses of `reference_training()` (nats per frame) recorded at the commit
# that introduced this benchmark.  Float64 with one BLAS thread is
# deterministic, so a rewrite that keeps the arithmetic keeps these to
# rounding; REFERENCE_RTOL leaves room for reordered sums only.
REFERENCE_TRAIN_NLL = (
    116.11263059195507, 117.62974665082454, 119.17095302780598,
    116.50749092822335)
REFERENCE_EVAL_NLL = (116.21427210033411, 114.90801942181102)


@dataclass
class Op:
    """One timed request.  `seconds` is what the end-to-end metrics use;
    `wall` is the interval the op's root span covered (a train step's
    includes its holdout eval), for the span residual check."""

    kind: str
    seconds: float
    units: float
    traced: bool
    ok: bool = True
    span_op: object = None
    wall: float = 0.0


@dataclass
class Run:
    """The ops and checks of one benchmark run."""

    trace: bool
    tracer: object
    clock: object
    ops: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)   # name -> [passed, failed]
    errors: list = field(default_factory=list)
    run_checks: list = field(default_factory=list)  # (name, ok, detail)
    censuses: list = field(default_factory=list)
    # A coin flip, not alternation, picks the traced ops: train steps
    # alternate in speed, and alternate tracing would line up with that.
    coin: random.Random = field(default_factory=lambda: random.Random(0))
    deadline: float = 0.0
    last_call: float = 0.0
    due_setups: list = field(default_factory=list)  # [(due time, fn)]
    min_kinds: tuple = ()
    min_ops: int = 0

    def start_clock(self, seconds, setups, min_kinds, min_ops):
        """Open the measured window.  `setups` are set-up repetitions to run
        at even intervals inside it; the window grows by their time.  It
        also grows until there are `min_ops` ops of each of `min_kinds`, by
        at most MAX_GROWTH of its length."""
        now = self.clock()
        self.deadline = now + seconds
        self.last_call = now + (1 + MAX_GROWTH) * seconds
        self.min_kinds, self.min_ops = min_kinds, min_ops
        self.due_setups = [(now + seconds * (k + 1) / (len(setups) + 1), fn)
                           for k, fn in enumerate(setups)]

    def time_up(self):
        now = self.clock()
        if now < self.deadline:
            return False
        done = collections.Counter(op.kind for op in self.ops)
        return (all(done[kind] >= self.min_ops for kind in self.min_kinds)
                or now >= self.last_call)

    def between_ops(self):
        """Run a set-up repetition if one is due; return the seconds it took,
        which no op is charged for."""
        if not self.due_setups or self.clock() < self.due_setups[0][0]:
            return 0.0
        _, fn = self.due_setups.pop(0)
        t0 = self.clock()
        fn()
        spent = self.clock() - t0
        self.deadline += spent
        self.last_call += spent
        self.due_setups = [(t + spent, f) for t, f in self.due_setups]
        return spent

    def finish_setups(self):
        """Run the set-up repetitions the client loop ended before."""
        for _, fn in self.due_setups:
            fn()
        self.due_setups = []

    def pick_traced(self):
        """In a traced run, about half of the ops are traced."""
        return self.trace and self.coin.random() < 0.5

    def timed(self, kind, units, fn):
        """Time one request, traced if `pick_traced` says so."""
        traced = self.pick_traced()
        index = len(self.ops)
        op = Op(kind, 0.0, units, traced, span_op=index if traced else None)
        t0 = self.clock()
        root = self.tracer.begin_op(index, kind) if traced else None
        try:
            result = fn()
        except Exception:  # a failed request counts; the loop goes on
            result = None
            self.fail(op, f"{kind} raised:\n{traceback.format_exc(limit=-4)}")
        finally:
            if root is not None:
                self.tracer.end_op(root)
        op.seconds = op.wall = self.clock() - t0
        self.ops.append(op)
        return op, result

    def fail(self, op, message):
        op.ok = False
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, op, name, ok, detail=""):
        """Record an output check of `op`; a failed check fails the op."""
        tally = self.checks.setdefault(name, [0, 0])
        tally[0 if ok else 1] += 1
        if not ok:
            self.fail(op, f"{name}: {detail}")

    def run_check(self, name, ok, detail=""):
        """A check of the whole run; counted as one attempted op."""
        self.run_checks.append((name, bool(ok), detail))
        if not ok and len(self.errors) < 20:
            self.errors.append(f"{name}: {detail}")


def _in_child(fn):
    """Run `fn()` in a forked child and return its JSON-able result.

    The child's memory does not count toward this process's peak RSS.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as fh:
                json.dump(fn(), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"set-up child exited with status {status}")
    return json.loads(payload)


def _quiet(argv):
    """Run the skelflow command line in process, discarding its output."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    return code, err.getvalue().strip()


def _sha256_files(paths):
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _track_spec(kind, rng):
    """A walker path of `kind` with seeded parameters.  The ranges are narrow
    because walking speed changes how much work the footstep sweep does."""
    speed = rng.uniform(62.0, 78.0)
    if kind == "line":
        return f"line:speed={speed:.2f}"
    if kind == "circle":
        radius = rng.uniform(220.0, 300.0)
        return f"circle:radius={radius:.1f},speed={speed:.2f}"
    return f"s_curve:speed={speed:.2f}"


def reference_training():
    """The fixed desk run behind REFERENCE_*: corpus and model seed 0, four
    Adam steps at batch 8 x 8 frames, holdout evals after steps 2 and 4."""
    spec = skeleton.default_skeleton()
    windows = training.synthetic_corpus(seed=0, skeleton_spec=spec)
    train_w, hold_w = training.split_corpus(windows)
    model = flow.FlowModel.create(flow.desk_config(), spec, seed=0)
    config = training.TrainConfig(steps=4, eval_every=2, seed=0)
    training.initialize_from_corpus(model, train_w, config)
    return model, training.train(model, train_w, hold_w, config)


def reference_losses(log):
    return tuple(log.train_nll) + tuple(log.eval_nll)


def check_reference(run, got):
    want = REFERENCE_TRAIN_NLL + REFERENCE_EVAL_NLL
    ok = len(got) == len(want) and bool(np.all(np.isfinite(got))) and all(
        abs(g - w) <= REFERENCE_RTOL * abs(w) for g, w in zip(got, want))
    run.run_check("reference_loss", ok,
                  f"got {list(got)} want {list(want)} rtol {REFERENCE_RTOL}")


# -- train --------------------------------------------------------------------


class _TimeUp(Exception):
    """Raised from the eval callback to end the training run at a deadline."""


class Train:
    """One `training.train` run at batch 8 x 8 frames on the default corpus.

    The ops are optimizer steps and holdout evals inside that single call,
    so their boundaries come from two clocks wrapped around the public
    calls the loop makes once per step (`numcore.lift`) and once per eval
    (`training.evaluate_nll`).  A step's time excludes the eval it holds.
    """

    name = "train"
    unit = "step"
    setup_reps = 9

    def setup(self, seed, work_dir, in_process):
        spec = skeleton.default_skeleton()
        windows = training.synthetic_corpus(seed=seed, skeleton_spec=spec)
        train_w, hold_w = training.split_corpus(windows)
        model = flow.FlowModel.create(flow.desk_config(), spec, seed=seed)
        config = training.TrainConfig(steps=10 ** 9, batch_size=8,
                                      nll_frames=8, eval_every=EVAL_EVERY,
                                      seed=seed)
        training.initialize_from_corpus(model, train_w, config)
        return model, train_w, hold_w, config

    def fingerprint(self, state):
        model, train_w, hold_w, _ = state
        digest = hashlib.sha256()
        for _, arr in model.named_parameters():
            digest.update(np.ascontiguousarray(arr).tobytes())
        for window in train_w + hold_w:
            digest.update(window.positions.tobytes())
        return digest.hexdigest()

    def run(self, state, run):
        model, train_w, hold_w, config = state
        clock, tracer = run.clock, run.tracer
        step = {"op": None, "start": 0.0, "eval_s": 0.0, "root": None,
                "index": 0}

        def finish_step(now):
            op = step["op"]
            if op is None:
                return
            if step["root"] is not None:
                tracer.end_op(step["root"])
                step["root"] = None
            op.wall = now - step["start"]
            op.seconds = op.wall - step["eval_s"]
            run.ops.append(op)
            step["op"] = None

        def lift_clock(fn):
            def wrapper(module):
                finish_step(clock())
                run.between_ops()
                now = clock()
                index = step["index"]
                traced = run.pick_traced()
                step.update(index=index + 1, start=now, eval_s=0.0,
                            op=Op("train_step", 0.0, 1.0, traced,
                                  span_op=index if traced else None))
                if traced:
                    step["root"] = tracer.begin_op(index, "train_step")
                return fn(module)
            return wrapper

        def eval_clock(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                held = fn(*args, **kwargs)
                seconds = clock() - t0
                step["eval_s"] += seconds
                op = Op("holdout_eval", seconds, 0.0, step["op"].traced)
                run.ops.append(op)
                run.check(op, "holdout_nll_finite", np.isfinite(held),
                          f"holdout nll {held}")
                return held
            return wrapper

        def on_eval(step_number, loss, held):
            run.check(step["op"], "train_loss_finite", np.isfinite(loss),
                      f"loss {loss} at step {step_number}")
            if run.time_up():
                raise _TimeUp

        patches = Patches()
        patches.wrap(numcore, "lift", lift_clock)
        patches.wrap(training, "evaluate_nll", eval_clock)
        try:
            training.train(model, train_w, hold_w, config, on_eval=on_eval)
        except _TimeUp:
            pass
        except training.TrainingDivergedError as exc:
            if step["op"] is not None:
                run.fail(step["op"], f"training diverged: {exc}")
        finally:
            finish_step(clock())
            patches.undo()

        _, log = reference_training()
        check_reference(run, reference_losses(log))
        if run.trace:
            first = run.censuses[0] if run.censuses else None
            run.run_check(
                "tape_census_repeats",
                first is not None and all(c == first for c in run.censuses),
                f"{len(run.censuses)} censuses, "
                f"{len(set(sum(c.values()) for c in run.censuses))} totals")


# -- rollout ------------------------------------------------------------------


class Rollout:
    """Interleaved B=1 generate requests, `skelflow generate --num 8` jobs
    and reconstructions, against a checkpoint written during set-up.

    Set-up trains and writes the checkpoint in a forked child, so that
    the training tape does not set the peak RSS of the client phase.  A
    traced run sets up in process, where the spans are recorded, and does
    not report peak RSS.
    """

    name = "rollout"
    unit = "frame"
    setup_reps = 3          # a set-up takes 2 to 3 s
    # About equal frames per kind (792, 800 and 800 per block), so each
    # path weighs about the same in the frame-weighted percentiles.
    BLOCK = ("gen",) * 33 + ("batch",) + ("recon",) * 40

    def setup(self, seed, work_dir, in_process):
        path = os.path.join(work_dir, "model.ckpt")

        def train_and_save():
            model, log = reference_training()
            flow.save_checkpoint(model, path, meta={"benchmark": "rollout"})
            return reference_losses(log)

        losses = tuple(train_and_save() if in_process
                       else _in_child(train_and_save))
        model, _ = flow.load_checkpoint(path)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        tracks = []
        for i, kind in enumerate(TRACK_KINDS):
            spec = _track_spec(kind, rng)
            clip, _ = data.synth_gait(spec, steps=8, seed=seed + 1000 * i)
            rel = data.to_root_relative(clip, skeleton_spec=model.skeleton)
            tracks.append((spec, rel.positions[:, :, :T_H], rel.controls))
        return {"model": model, "losses": losses, "path": path,
                "tracks": tracks, "seed": seed, "work_dir": work_dir}

    def fingerprint(self, state):
        tracks = [np.concatenate([h.ravel(), c.ravel()])
                  for _, h, c in state["tracks"]]
        return _sha256_files([state["path"]]) + hashlib.sha256(
            np.concatenate(tracks).tobytes()).hexdigest()

    def run(self, state, run):
        check_reference(run, state["losses"])
        model, tracks, seed = state["model"], state["tracks"], state["seed"]
        rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
        gen_dir = os.path.join(state["work_dir"], "gen")
        counters = {"gen": 0, "batch": 0, "recon": 0}
        while True:
            for kind in rng.permutation(self.BLOCK):
                run.between_ops()
                if run.time_up():
                    return
                i = counters[kind]
                counters[kind] += 1
                request_seed = int(rng.integers(2 ** 31))
                if kind == "gen":
                    self._generate(run, model, tracks[i % 3], request_seed, i)
                elif kind == "batch":
                    self._batch(run, state["path"], gen_dir, tracks[i % 3][0],
                                request_seed, i)
                else:
                    self._reconstruct(run, model, tracks[i % 3], MASKS[i % 4],
                                      request_seed)

    def _generate(self, run, model, track, request_seed, i):
        _, history, controls = track
        request = sequence.GenerationRequest(
            history=history, controls=controls[:, :T_H + GEN_HORIZON],
            horizon=GEN_HORIZON, temperature=1.0, seed=request_seed)
        op, frames = run.timed("gen", GEN_HORIZON,
                               lambda: sequence.generate(model, request))
        if frames is None:
            return
        run.check(op, "generated_frames_finite",
                  frames.shape[-1] == GEN_HORIZON
                  and bool(np.all(np.isfinite(frames))))
        if i % 4 == 0:
            # spot check: z -> x -> z at one frame of this rollout's window
            k = i % GEN_HORIZON
            timeline = np.concatenate([history, frames], axis=2)
            z = np.random.default_rng(request_seed).standard_normal(
                frames.shape[:2])
            window = controls[:, k:k + T_H + 1]
            x, _ = model.inverse_transform_frame(z, timeline[..., k:k + T_H],
                                                 window)
            back, _, _ = model.transform_frame(x, timeline[..., k:k + T_H],
                                               window)
            err = float(np.max(np.abs(back - z)))
            run.check(op, "roundtrip_z", err < ROUNDTRIP_TOL,
                      f"max |z - f(f^-1(z))| = {err:.3g}")

    def _batch(self, run, checkpoint, gen_dir, control, request_seed, i):
        fmt = ("text", "binary")[i % 2]
        argv = ["generate", "--out", gen_dir, "--checkpoint", checkpoint,
                "--num", str(BATCH_NUM), "--seed", str(request_seed),
                "--control", control, "--format", fmt]
        shutil.rmtree(gen_dir, ignore_errors=True)
        op, result = run.timed("batch", BATCH_NUM * BATCH_HORIZON,
                               lambda: _quiet(argv))
        if result is None:
            return
        code, err = result
        ext = ".txt" if fmt == "text" else ".bin"
        paths = [os.path.join(gen_dir, f"gen_{n:03d}{ext}")
                 for n in range(BATCH_NUM)]
        ok = code == 0 and all(os.path.exists(p) for p in paths)
        if ok:
            clips = [data.load_clip(p) for p in paths]
            ok = all(c.frame_count == T_H + BATCH_HORIZON
                     and np.all(np.isfinite(c.positions)) for c in clips)
        run.check(op, "generate_job_frames_finite", ok,
                  f"exit {code} {err}")

    def _reconstruct(self, run, model, track, mask_name, request_seed):
        _, history, controls = track
        mask = sequence.mask_preset(mask_name, markers=model.config.markers,
                                    history=T_H, skeleton_spec=model.skeleton,
                                    seed=request_seed)
        op, result = run.timed(
            "recon", RECON_FRAMES,
            lambda: sequence.reconstruct(
                model, history, mask, controls, temperature=1.0,
                seed=request_seed))
        if result is None:
            return
        observed = np.broadcast_to(result.observed[:, None, :], history.shape)
        run.check(op, "observed_cells_bit_exact",
                  np.array_equal(result.past[observed], history[observed])
                  and np.all(np.isfinite(result.past))
                  and np.all(np.isfinite(result.future)))


# -- evaluate_clips -----------------------------------------------------------


class EvaluateClips:
    """Repeated `skelflow evaluate` over one seeded directory of walkers."""

    name = "evaluate_clips"
    unit = "clip"
    setup_reps = 15
    CLIPS = 6
    STEPS = (8, 12, 16)
    NOISE_FREE = (0, 2, 4)   # one of each length, text and binary
    NOISE_STD = cli.JobConfig().noise_std   # cm; noise sets the sweep's cost

    def setup(self, seed, work_dir, in_process):
        clip_dir = os.path.join(work_dir, "clips")
        shutil.rmtree(clip_dir, ignore_errors=True)
        os.makedirs(clip_dir)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
        truths = {}
        for i in range(self.CLIPS):
            # every path kind at two lengths, in both formats
            spec = _track_spec(TRACK_KINDS[(i + i // 3) % 3], rng)
            noise = 0.0 if i in self.NOISE_FREE else self.NOISE_STD
            clip, truth = data.synth_gait(
                spec, steps=self.STEPS[i % 3], seed=int(rng.integers(2 ** 31)),
                noise_std=noise)
            fmt = "text" if i < self.CLIPS // 2 else "binary"
            name = f"walker_{i:02d}"
            data.save_clip(clip, os.path.join(
                clip_dir, name + (".txt" if fmt == "text" else ".bin")),
                format=fmt)
            if noise == 0.0:
                truths[name] = truth.step_count
        return {"clip_dir": clip_dir, "truths": truths,
                "out_dir": os.path.join(work_dir, "evaluate")}

    def fingerprint(self, state):
        clip_dir = state["clip_dir"]
        return _sha256_files(sorted(os.path.join(clip_dir, n)
                                    for n in os.listdir(clip_dir)))

    def run(self, state, run):
        argv = ["evaluate", "--out", state["out_dir"],
                "--clips", state["clip_dir"]]
        summary_path = os.path.join(state["out_dir"], "evaluate_summary.txt")
        while not run.time_up():
            op, result = run.timed("evaluate", self.CLIPS,
                                   lambda: _quiet(argv))
            if result is None:
                continue
            code, err = result
            counts = {}
            if code == 0:
                with open(summary_path) as fh:
                    for line in fh:
                        if not line.startswith("#"):
                            stem, max_count = line.split()[:2]
                            counts[stem] = int(max_count)
            run.check(op, "evaluate_job_ok",
                      code == 0 and len(counts) == self.CLIPS,
                      f"exit {code} {err}")
            run.check(op, "footsteps_match_truth",
                      all(counts.get(stem) == steps
                          for stem, steps in state["truths"].items()),
                      f"{counts} vs truth {state['truths']}")
            run.between_ops()


WORKLOADS = {w.name: w for w in (Train(), Rollout(), EvaluateClips())}

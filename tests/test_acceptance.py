"""End-to-end checks for the package's headline guarantees.

One test per numbered guarantee, each printing a single PASS/FAIL line with
the measured quantities so the run log doubles as a checklist.  The desk-scale
training run (guarantee 6) is shared by the generation and reconstruction
checks that need a trained model, so this file takes several minutes.
"""

import hashlib
import os
import time

import numpy as np
import pytest

import skelflow.cli as cli
import skelflow.data as sd
import skelflow.flow as flow
import skelflow.metrics as metrics
import skelflow.numcore as nc
import skelflow.sequence as sequence
import skelflow.skeleton as sk
import skelflow.training as training

from conftest import (TINY_SKELETON_TEXT, make_tiny_config, random_frame_inputs,
                      random_model)
from oracles import brute_force_footsteps, fd_jacobian_logdet

FPS = 20.0
TINY = sk.build_skeleton(TINY_SKELETON_TEXT)


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {name}: "
              f"{'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


# -- shared model checks (also rerun under the mg ablation in test 10) ------------------


def _full_model(ablation, seed=0):
    """Full-size 16-step model with active heads and random standardization."""
    config = flow.ModelConfig(ablation=ablation).validate()
    model = random_model(config, sk.default_skeleton(), seed=seed)
    rng = np.random.default_rng(seed + 100)
    model.set_standardization(
        rng.normal(scale=20.0, size=(config.markers, config.channels)),
        rng.uniform(0.5, 30.0, size=(config.markers, config.channels)))
    return model


def _roundtrip_error(model, seed=1, frames=100):
    rng = np.random.default_rng(seed)
    frame, history, controls = random_frame_inputs(model.config, rng,
                                                   batch=frames)
    frame = frame * 30.0
    history = history * 30.0
    z, _, _ = model.transform_frame(frame, history, controls)
    back, _ = model.inverse_transform_frame(z, history, controls)
    assert np.all(np.isfinite(z))
    return float(np.max(np.abs(back - frame)))


def _tiny_model(ablation, seed):
    model = random_model(make_tiny_config(ablation), TINY, seed=seed)
    rng = np.random.default_rng(seed + 50)
    model.set_standardization(rng.normal(scale=2.0, size=(4, 2)),
                              rng.uniform(0.5, 3.0, size=(4, 2)))
    return model


def _logdet_worst_error(ablation, states=20, seed=2):
    """Analytic logdet vs dense numerical Jacobian on the tiny config."""
    model = _tiny_model(ablation, seed)
    rng = np.random.default_rng(seed + 5)
    worst = 0.0
    for _ in range(states):
        frame, history, controls = random_frame_inputs(model.config, rng)
        _, logdet, _ = model.transform_frame(frame[0], history[0], controls[0])
        want = fd_jacobian_logdet(model, frame[0], history[0], controls[0])
        worst = max(worst, abs(float(logdet) - want))
    return worst


def _grad_check_all(ablation, seed=3):
    """grad_check every named parameter array of the tiny model.

    Each array is probed through its own layer so that the scalar loss
    depends on it directly: encoder arrays through an encoder readout,
    conditioner arrays (graph mix, LSTM stack, output head) through two
    state-threaded conditioner calls so the recurrent weights act on a
    nonzero hidden state, and actnorm/mixing arrays through their forward
    transform plus log-determinant.  Saturated LSTM gates leave a few
    entries with near-zero true gradients, where central differences at
    a single step cannot resolve a relative error; the recurrent path is
    smooth, so each array is certified at the best of several valid step
    sizes.  A wrong backward pass produces a step-independent mismatch
    and still fails at every step.
    """
    model = _tiny_model(ablation, seed)
    rng = np.random.default_rng(seed + 7)
    b = 2
    m, c, t_h = model.config.markers, model.config.channels, model.config.history
    x = rng.normal(size=(b, m, c))
    histories = rng.normal(size=(b, m, c, t_h))
    pooled = nc._data(model.encoder(model._prep_history(histories)))
    ctrl = rng.normal(size=(b, 3 * (t_h + 1)))
    xb1_a = rng.normal(size=(b, m, model.config.c1))
    xb1_b = rng.normal(size=(b, m, model.config.c1))

    def encoder_probe():
        return nc.vsum(nc.tanh(model.encoder(model._prep_history(histories))))

    def actnorm_probe(step_obj):
        def probe():
            y, logdet = step_obj.actnorm.forward(x)
            return nc.add(nc.vsum(nc.tanh(y)), logdet)
        return probe

    def mix_probe(step_obj):
        def probe():
            y, logdet = step_obj.mix.forward(x, m)
            return nc.add(nc.vsum(nc.tanh(y)), logdet)
        return probe

    def conditioner_probe(step_obj):
        def probe():
            s1, o1, state = step_obj.conditioner(
                xb1_a, pooled, ctrl, step_obj.initial_state(b))
            s2, o2, _ = step_obj.conditioner(xb1_b, pooled, ctrl, state)
            return nc.add(
                nc.add(nc.vsum(nc.tanh(s1)), nc.vsum(nc.tanh(o1))),
                nc.add(nc.vsum(nc.tanh(s2)), nc.vsum(nc.tanh(o2))))
        return probe

    small_steps = (1e-5, 1e-4)
    wide_steps = (1e-5, 1e-4, 1e-3, 3e-3, 1e-2)
    errors = {}
    for path, value in list(model.named_parameters()):
        if path.startswith("encoder."):
            probe, steps = encoder_probe, small_steps
        else:
            step_obj = model.steps[int(path.split(".")[1])]
            if ".actnorm." in path:
                probe, steps = actnorm_probe(step_obj), small_steps
            elif ".mix." in path:
                probe, steps = mix_probe(step_obj), small_steps
            else:
                probe, steps = conditioner_probe(step_obj), wide_steps
        base = nc._data(value).copy()

        def loss_fn(p, path=path, base=base, probe=probe):
            model.set_parameter(path, p)
            try:
                return probe()
            finally:
                model.set_parameter(path, base)

        errors[path] = min(
            nc.grad_check(loss_fn, base, step=s) for s in steps)
    return errors


def _actnorm_worst_stats(ablation, seed=4):
    """Replay init_actnorm and measure each step's post-init batch stats."""
    model = flow.FlowModel.create(make_tiny_config(ablation), TINY, seed=seed)
    rng = np.random.default_rng(seed + 9)
    n = 256
    frames = rng.normal(1.5, 3.0, size=(n, 4, 2))
    histories = rng.normal(size=(n, 4, 2, 3))
    controls = rng.normal(size=(n, 3, 4))
    model.init_actnorm(frames, histories, controls)
    pooled = model.encoder(nc._data(model._prep_history(histories)))
    ctrl = controls.reshape(n, -1)
    h = nc._data(model.standardize(frames))
    worst_mean = worst_std = 0.0
    for step, state in zip(model.steps, model.initial_state(n)):
        y, _ = step.actnorm.forward(h)
        worst_mean = max(worst_mean, float(np.max(np.abs(y.mean(axis=0)))))
        worst_std = max(worst_std, float(np.max(np.abs(y.std(axis=0) - 1.0))))
        h, _, _ = step.forward(h, pooled, ctrl, state)
    return worst_mean, worst_std


# -- 1..4: core flow contracts ------------------------------------------------------------


def test_01_full_model_invertibility(capsys):
    t0 = time.perf_counter()
    err = _roundtrip_error(_full_model("stmg"), seed=1, frames=100)
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 1, "invertibility", err < 1e-6 and elapsed < 60.0,
             f"max roundtrip err {err:.2e} over 100 frames, 16 steps, "
             f"{elapsed:.1f}s")


def test_02_logdet_matches_numerical_jacobian(capsys):
    t0 = time.perf_counter()
    worst = _logdet_worst_error("stmg")
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 2, "exact logdet", worst < 1e-4 and elapsed < 60.0,
             f"max |analytic - numerical Jacobian| {worst:.2e} "
             f"over 20 states, {elapsed:.1f}s")


def test_03_gradients_match_finite_differences(capsys):
    t0 = time.perf_counter()
    errors = _grad_check_all("stmg")
    elapsed = time.perf_counter() - t0
    worst_path = max(errors, key=errors.get)
    worst = errors[worst_path]
    _verdict(capsys, 3, "gradient correctness",
             worst < 1e-4 and elapsed < 300.0,
             f"worst rel err {worst:.2e} at {worst_path}, "
             f"{len(errors)} parameter arrays, {elapsed:.1f}s")


def test_04_actnorm_data_init_statistics(capsys):
    worst_mean, worst_std = _actnorm_worst_stats("stmg")
    _verdict(capsys, 4, "actnorm init contract",
             worst_mean < 1e-6 and worst_std < 1e-4,
             f"post-init |mean| {worst_mean:.2e}, |std-1| {worst_std:.2e} "
             f"across all steps")


# -- 5: partition fidelity ------------------------------------------------------------------


def _oracle_hops(n, edges):
    """All-pairs hop counts via adjacency-matrix powers (no BFS)."""
    adj = np.zeros((n, n), dtype=np.int64)
    for a, b in edges:
        adj[a, b] = adj[b, a] = 1
    hops = np.where(np.eye(n, dtype=bool), 0, -1)
    reach = np.eye(n, dtype=np.int64)
    for k in range(1, n):
        reach = reach @ adj
        hops[(hops < 0) & (reach > 0)] = k
    return hops


def _oracle_partition(n, edges, center, kernel_scale):
    """Self / closer-to-center / farther subsets by exhaustive enumeration."""
    hops = _oracle_hops(n, edges)
    out = []
    for i in range(n):
        subsets = [(i,)]
        for r in range(1, (kernel_scale - 1) // 2 + 1):
            ring = [j for j in range(n) if hops[i, j] == r]
            subsets.append(tuple(j for j in ring
                                 if hops[j, center] < hops[i, center]))
            subsets.append(tuple(j for j in ring
                                 if hops[j, center] >= hops[i, center]))
        out.append(subsets)
    return out


def _random_connected_graph(rng):
    n = int(rng.integers(5, 10))
    edges = set()
    for k in range(1, n):
        edges.add((int(rng.integers(0, k)), k))
    for _ in range(int(rng.integers(0, 3))):
        a, b = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        edges.add((a, b))
    center = int(rng.integers(0, n))
    return n, tuple(sorted(edges)), center


def test_05_partition_matches_hop_oracle(capsys):
    got = sk.partition_subsets(sk.default_skeleton(), 3)[0]
    pelvis_ok = got == [(0,), (9,), (1, 5)]

    rng = np.random.default_rng(13)
    oracle_ok = True
    for _ in range(10):
        n, edges, center = _random_connected_graph(rng)
        spec = sk.SkeletonSpec(marker_count=n, edges=edges,
                               center_marker=center, heel_markers=(0, 1))
        for d in (3, 5):
            if sk.partition_subsets(spec, d) != _oracle_partition(
                    n, edges, center, d):
                oracle_ok = False
    _verdict(capsys, 5, "partition fidelity", pelvis_ok and oracle_ok,
             f"pelvis subsets {got}, oracle equality on 10 random graphs "
             f"at scales 3 and 5: {oracle_ok}")


# -- 6..8: trained-model properties -----------------------------------------------------------


def _live_print(request, line):
    capman = request.config.pluginmanager.getplugin("capturemanager")
    if capman is None:
        print(line, flush=True)
    else:
        with capman.global_and_fixture_disabled():
            print(line, flush=True)


@pytest.fixture(scope="module")
def trained(request):
    """Full desk-scale training run shared by the generation checks."""
    spec = sk.default_skeleton()
    config = training.TrainConfig()
    t0 = time.perf_counter()
    corpus = training.synthetic_corpus()
    train_w, hold_w = training.split_corpus(corpus)
    model = flow.FlowModel.create(flow.desk_config(), spec, seed=config.seed)
    training.initialize_from_corpus(model, train_w, config)
    nll0 = training.evaluate_nll(model, hold_w, config)
    _live_print(request,
                f"\n[training] {config.steps} steps on {len(train_w)} train / "
                f"{len(hold_w)} holdout windows, post-init holdout nll "
                f"{nll0:.3f} nats/frame")
    log = training.train(
        model, train_w, hold_w, config,
        on_eval=lambda s, t, h: _live_print(
            request, f"[training] step {s}/{config.steps} "
            f"train {t:.3f} holdout {h:.3f}"))
    elapsed = time.perf_counter() - t0
    return {"spec": spec, "model": model, "config": config, "nll0": nll0,
            "final": log.eval_nll[-1], "elapsed": elapsed}


@pytest.mark.slow
def test_06_desk_training_cuts_holdout_nll(trained, capsys):
    nll0, final = trained["nll0"], trained["final"]
    cut = 1.0 - final / nll0
    _verdict(capsys, 6, "desk-scale training",
             final <= 0.7 * nll0 and trained["elapsed"] < 1800.0,
             f"holdout nll {nll0:.3f} -> {final:.3f} nats/frame "
             f"({100.0 * cut:.1f}% cut, need >= 30%) after "
             f"{trained['config'].steps} steps in {trained['elapsed']:.0f}s")


@pytest.fixture(scope="module")
def generation(trained):
    """50 sampled 100-frame sequences plus their bone-length scores."""
    spec, model = trained["spec"], trained["model"]
    t_h = model.config.history
    clip, truth = sd.synth_gait("line:speed=70", steps=14, fps=FPS, seed=321)
    rel = sd.to_root_relative(clip, skeleton_spec=spec)
    history = rel.positions[:, :, :t_h]
    controls = rel.controls[:, :t_h + 100]
    reference = np.asarray(truth.bone_lengths)
    scores = []
    finite = True
    for child in np.random.SeedSequence(2024).spawn(50):
        frames = sequence.generate(model, sequence.GenerationRequest(
            history=history, controls=controls, horizon=100,
            temperature=1.0, seed=child))
        finite = finite and bool(np.all(np.isfinite(frames)))
        gen_clip = sd.MotionClip(positions=frames, controls=controls[:, t_h:],
                                 fps=FPS, root_relative=True,
                                 source="generated:line:speed=70")
        scores.append(metrics.bone_length_analysis(
            gen_clip, spec, reference=reference).bl_rmse)
    return {"history": history, "controls": controls, "truth": truth,
            "reference": reference, "scores": scores, "finite": finite}


@pytest.mark.slow
def test_07_generated_sequences_keep_bone_lengths(generation, capsys):
    bound = 0.10 * float(np.mean(generation["reference"]))
    worst = max(generation["scores"])
    _verdict(capsys, 7, "generation quality proxy",
             generation["finite"] and worst < bound,
             f"50 sequences x 100 frames, worst bl_rmse {worst:.3f} cm "
             f"(bound {bound:.3f} = 10% of mean bone length), "
             f"all finite: {generation['finite']}")


@pytest.mark.slow
def test_08_reconstruction_contract(trained, generation, capsys):
    spec, model = trained["spec"], trained["model"]
    t_h = model.config.history
    history_true = generation["history"]
    controls = generation["controls"]
    reference = generation["reference"]
    baseline = float(np.mean(generation["scores"]))

    presets = ("right_arm", "left_leg", "right_arm_left_leg", "random4")
    bit_exact = filled = finite = True
    preset_rmse = {}
    for p_idx, preset in enumerate(presets):
        vals = []
        for rep in range(4):
            mask = sequence.mask_preset(preset, markers=21, history=t_h,
                                        skeleton_spec=spec, seed=1000 + rep)
            history_in = history_true * mask[:, None, :]
            result = sequence.reconstruct(
                model, history_in, mask, controls,
                seed=np.random.SeedSequence((p_idx, rep)))
            obs3 = np.broadcast_to(result.observed[:, None, :],
                                   result.past.shape)
            bit_exact = bit_exact and np.array_equal(
                result.past[obs3], history_in[obs3])
            finite = finite and bool(np.all(np.isfinite(result.past))
                                     and np.all(np.isfinite(result.future)))
            for row in np.flatnonzero(~result.observed.any(axis=1)):
                filled = filled and bool(
                    np.any(result.past[row][:, mask[row] == 0] != 0.0))
            past_clip = sd.MotionClip(
                positions=result.past, controls=controls[:, :t_h],
                fps=FPS, root_relative=True, source=f"reconstructed:{preset}")
            vals.append(metrics.bone_length_analysis(
                past_clip, spec, reference=reference).bl_rmse)
        preset_rmse[preset] = float(np.mean(vals))

    within = all(v <= 2.0 * baseline for v in preset_rmse.values())
    worst_preset = max(preset_rmse, key=preset_rmse.get)
    _verdict(capsys, 8, "reconstruction contract",
             bit_exact and filled and finite and within,
             f"observed bit-exact: {bit_exact}, masked filled: {filled}, "
             f"worst preset {worst_preset} bl_rmse "
             f"{preset_rmse[worst_preset]:.3f} cm vs bound "
             f"{2.0 * baseline:.3f} (2x unmasked-generation {baseline:.3f})")


# -- 9: footstep analyzer ----------------------------------------------------------------------


WALKERS = (("line:speed=70", 10), ("circle:radius=250", 17),
           ("s_curve:speed=70", 24), ("line:speed=55", 30))


def test_09_footstep_analyzer_exactness(capsys):
    spec = sk.default_skeleton()
    exact = shape_ok = True
    found = []
    for i, (path, steps) in enumerate(WALKERS):
        clip, truth = sd.synth_gait(path, steps=steps, fps=FPS,
                                    seed=50 + i, noise_std=0.0)
        report = metrics.footstep_sweep(clip, spec)
        counts = np.asarray(report.counts)
        exact = exact and report.max_count == steps == truth.step_count
        first = int(np.argmax(counts == report.max_count))
        shape_ok = shape_ok and counts[0] == 0 \
            and bool(np.all(np.diff(counts[:first + 1]) >= 0)) \
            and bool(np.all(counts[first:] == report.max_count))
        found.append(f"{path}:{report.max_count}/{steps}")

    rng = np.random.default_rng(99)
    agree = True
    for _ in range(1000):
        t = int(rng.integers(1, 80))
        rows = int(rng.integers(1, 4))
        speeds = rng.uniform(0.0, 500.0, size=(rows, t))
        speeds[rng.uniform(size=speeds.shape) < 0.35] = 0.0
        v_tol = float(rng.uniform(0.0, 500.0))
        min_frames = int(rng.integers(1, 5))
        count, durations = metrics.count_footsteps(
            speeds, v_tol, FPS, min_duration_frames=min_frames)
        ref_count, ref_frames = brute_force_footsteps(speeds, v_tol,
                                                      min_frames)
        agree = agree and count == ref_count \
            and np.allclose(durations, [f / FPS for f in ref_frames])

    _verdict(capsys, 9, "footstep analyzer", exact and shape_ok and agree,
             f"max f_est exact on {', '.join(found)}; rise-then-plateau: "
             f"{shape_ok}; 1000-signal brute-force oracle: {agree}")


# -- 10: mg ablation reruns 1..4 ------------------------------------------------------------------


def test_10_mg_ablation_plumbing(capsys):
    census_desk = flow.FlowModel.create(
        flow.desk_config(ablation="mg"), sk.default_skeleton()).census()
    full_mg = _full_model("mg", seed=20)
    census_full = full_mg.census()
    no_graph = census_desk["graph"] == 0 and census_full["graph"] == 0

    err1 = _roundtrip_error(full_mg, seed=21, frames=100)
    err2 = _logdet_worst_error("mg", seed=22)
    errors3 = _grad_check_all("mg", seed=23)
    err3 = max(errors3.values())
    mean4, std4 = _actnorm_worst_stats("mg", seed=24)

    ok = no_graph and err1 < 1e-6 and err2 < 1e-4 and err3 < 1e-4 \
        and mean4 < 1e-6 and std4 < 1e-4
    _verdict(capsys, 10, "mg ablation plumbing", ok,
             f"graph params desk {census_desk['graph']} / full "
             f"{census_full['graph']}; reruns: roundtrip {err1:.2e}, "
             f"logdet {err2:.2e}, grad {err3:.2e}, actnorm mean {mean4:.2e} "
             f"std {std4:.2e}")


# -- 11: bit-identical reruns over the whole pipeline -----------------------------------------------


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _pipeline_digests(base):
    """train -> generate -> evaluate under `base`, hashing every output."""
    os.makedirs(base, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(base)
    try:
        assert cli.main([
            "train", "--out", "run", "--steps", "20", "--batch-size", "4",
            "--nll-frames", "4", "--eval-every", "5", "--walker-steps", "12",
            "--path", "line:speed=70", "--path", "circle:radius=250",
            "--seed", "11"]) == 0
        assert cli.main([
            "generate", "--out", "gen", "--checkpoint", "run/model.ckpt",
            "--num", "2", "--horizon", "40", "--control", "line:speed=70",
            "--seed", "11"]) == 0
        assert cli.main([
            "evaluate", "--out", "eval", "--clips", "gen",
            "--seed", "11"]) == 0
        return {f"{root}/{name}": _sha256(os.path.join(root, name))
                for root in ("run", "gen", "eval")
                for name in sorted(os.listdir(root))}
    finally:
        os.chdir(cwd)


def test_11_cli_chain_bit_identical_reruns(tmp_path, capsys):
    first = _pipeline_digests(str(tmp_path / "a"))
    second = _pipeline_digests(str(tmp_path / "b"))
    expected = {"run/model.ckpt", "run/train_log.txt", "run/manifest_train.json",
                "gen/gen_000.txt", "gen/gen_001.txt", "gen/manifest_generate.json",
                "eval/evaluate_summary.txt", "eval/manifest_evaluate.json"}
    complete = expected <= set(first)
    identical = first == second
    _verdict(capsys, 11, "seeded reproducibility", complete and identical,
             f"train/generate/evaluate reruns: {len(first)} output files, "
             f"all checksums identical: {identical}")

import dataclasses
import os

import numpy as np
import pytest

from skelflow import flow
from skelflow import numcore as nc

from skelflow import skeleton as sk

from conftest import make_tiny_config, random_frame_inputs
from oracles import fd_jacobian_logdet, inverse_transform_frame_reference


def make_model(tiny_skeleton, ablation="stmg", seed=0, init="random"):
    return flow.FlowModel.create(make_tiny_config(ablation), tiny_skeleton, seed=seed, init=init)


# --- graph operators -------------------------------------------------------------


def test_graph_convs_share_one_partition_per_scale():
    """A desk model stores one partition per kernel scale: every spatial
    graph conv at that scale, and the encoder's graph operands, hold that
    same `stacked` array."""
    config = flow.desk_config()
    spec = sk.default_skeleton()
    model = flow.FlowModel.create(config, spec, seed=0)
    convs = [block.sgcn for block in model.encoder.blocks]
    convs += [step.conditioner.sgcn for step in model.steps]
    stored = {}
    for conv in convs:
        stacked = conv.adjacency.stacked
        assert stored.setdefault(conv.adjacency.kernel_scale, stacked) is stacked
    assert set(stored) == set(config.kernel_schedule) | {config.encoder_kernel_scale}
    for d, stacked in stored.items():
        assert np.array_equal(stacked, sk.partition(spec, d).stacked)
    for block in model.encoder.blocks:
        graph, _, _ = block.operands(config.history)
        assert graph[0] is block.sgcn.adjacency.stacked


# --- config -------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        flow.ModelConfig(flow_steps=3, kernel_schedule=(3, 3)).validate()
    with pytest.raises(ValueError):
        flow.ModelConfig(flow_steps=1, kernel_schedule=(4,)).validate()
    with pytest.raises(ValueError):
        flow.ModelConfig(ablation="foo").validate()
    cfg = flow.ModelConfig()
    assert cfg.validate() is cfg
    assert cfg.c1 == 2 and cfg.c2 == 1
    assert len(flow.DEFAULT_SCHEDULE) == 16


def test_config_rejects_stmg_history_shorter_than_temporal_padding():
    # desk_config's temporal kernel 9 pads 4 frames on each side
    with pytest.raises(ValueError, match="history of 3 frames too short"):
        dataclasses.replace(flow.desk_config(), history=3).validate()
    assert dataclasses.replace(flow.desk_config(), history=4).validate()
    # smg and mg run no temporal conv, so any history of >= 1 frame works
    for ablation in ("smg", "mg"):
        assert dataclasses.replace(flow.desk_config(ablation=ablation), history=1).validate()


def test_config_roundtrip_dict():
    cfg = make_tiny_config("smg")
    again = flow.ModelConfig.from_dict(cfg.to_dict())
    assert again == cfg


# --- actnorm --------------------------------------------------------------------

def test_actnorm_init_statistics():
    rng = np.random.default_rng(0)
    layer = flow.ActNorm(4, 2)
    batch = rng.normal(3.0, 2.5, size=(64, 4, 2))
    layer.init_from_batch(batch)
    out, _ = layer.forward(batch)
    assert np.max(np.abs(out.mean(axis=0))) < 1e-6
    assert np.max(np.abs(out.std(axis=0) - 1.0)) < 1e-4


def test_actnorm_degenerate_batch_raises():
    batch = np.random.default_rng(1).normal(size=(32, 4, 2))
    batch[:, 2, 1] = 7.0  # constant cell
    layer = flow.ActNorm(4, 2)
    with pytest.raises(flow.DegenerateBatchError):
        layer.init_from_batch(batch)
    with pytest.raises(flow.DegenerateBatchError):
        layer.init_from_batch(np.zeros((1, 4, 2)))


def test_actnorm_zero_scale_raises():
    layer = flow.ActNorm(2, 2)
    layer.scale[0, 0] = 0.0
    with pytest.raises(flow.ZeroScaleError):
        layer.forward(np.zeros((1, 2, 2)))
    with pytest.raises(flow.ZeroScaleError):
        layer.inverse(np.zeros((1, 2, 2)))


def test_actnorm_logdet_value():
    layer = flow.ActNorm(2, 2)
    layer.scale = np.array([[2.0, 1.0], [0.5, -4.0]])
    want = np.log(2.0) + 0.0 + np.log(0.5) + np.log(4.0)
    assert abs(layer.logdet() - want) < 1e-12


# --- invertible mix ----------------------------------------------------------------

def test_mix_starts_as_rotation():
    layer = flow.InvertibleMix(3, np.random.default_rng(2))
    w = layer.weight
    assert np.max(np.abs(w @ w.T - np.eye(3))) < 1e-12
    assert abs(np.linalg.det(w) - 1.0) < 1e-12


def test_mix_singular_raises():
    layer = flow.InvertibleMix(2)
    layer.weight = np.ones((2, 2))
    with pytest.raises(nc.SingularMatrixError):
        layer.forward(np.zeros((1, 3, 2)), 3)


def test_mix_inverse_follows_in_place_weight_edit():
    layer = flow.InvertibleMix(3, np.random.default_rng(3))
    y = np.random.default_rng(4).normal(size=(2, 5, 3))
    np.testing.assert_allclose(layer.inverse(y) @ layer.weight, y, atol=1e-12)
    layer.weight[0, 1] += 0.25
    layer.weight *= 2.0
    np.testing.assert_allclose(layer.inverse(y) @ layer.weight, y, atol=1e-12)


def test_mix_inverse_singular_weight_raises_every_call():
    layer = flow.InvertibleMix(2, np.random.default_rng(5))
    y = np.zeros((1, 3, 2))
    layer.inverse(y)
    layer.weight = np.ones((2, 2))
    for _ in range(2):
        with pytest.raises(nc.SingularMatrixError):
            layer.inverse(y)
    layer.weight[:] = [[1.0, 1.0], [1.0, 1.0 + 1e-13]]  # near singular, in place
    for _ in range(2):
        with pytest.raises(nc.SingularMatrixError):
            layer.inverse(y)


# --- full model: invertibility, logdet, identity -------------------------------------

@pytest.mark.parametrize("ablation", ["stmg", "smg", "mg"])
def test_roundtrip_all_ablations(tiny_skeleton, ablation):
    model = make_model(tiny_skeleton, ablation, seed=5)
    rng = np.random.default_rng(8)
    frame, history, controls = random_frame_inputs(model.config, rng, batch=3)
    z, logdet, _ = model.transform_frame(frame, history, controls)
    back, _ = model.inverse_transform_frame(z, history, controls)
    assert np.max(np.abs(back - frame)) < 1e-9
    assert logdet.shape == (3,)
    assert np.all(np.isfinite(z))


@pytest.mark.parametrize("ablation", ["stmg", "smg", "mg"])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("size", ["tiny", "desk"])
def test_inverse_is_bit_identical_to_op_by_op_reference(tiny_skeleton, ablation,
                                                         masked, size):
    """The plain-array inverse at B=1 against the numcore op composition it
    replaced, with LSTM states threaded through three frames."""
    if size == "tiny":
        model = make_model(tiny_skeleton, ablation, seed=21)
    else:
        model = flow.FlowModel.create(flow.desk_config(ablation=ablation),
                                      sk.default_skeleton(), seed=21, init="random")
    cfg = model.config
    rng = np.random.default_rng(22)
    model.set_standardization(rng.normal(size=(cfg.markers, cfg.channels)) * 0.1,
                              np.abs(rng.normal(size=(cfg.markers, cfg.channels))) + 0.5)
    _, history, controls = random_frame_inputs(cfg, rng)
    mask = None
    if masked:
        mask = np.ones((cfg.markers, cfg.history))
        mask[1, :] = 0.0
        mask[2, 0] = 0.0
    states = ref_states = None
    for _ in range(3):
        z = rng.standard_normal((cfg.markers, cfg.channels))
        x, states = model.inverse_transform_frame(z, history[0], controls[0],
                                                  states, mask)
        want, ref_states = inverse_transform_frame_reference(
            model, z, history[0], controls[0], ref_states, mask)
        assert np.array_equal(x, want)
        for step, ref_step in zip(states, ref_states):
            for (h, c), (ref_h, ref_c) in zip(step, ref_step):
                assert np.array_equal(h, ref_h) and np.array_equal(c, ref_c)


def test_unbatched_matches_batched(tiny_skeleton):
    model = make_model(tiny_skeleton, seed=6)
    rng = np.random.default_rng(9)
    frame, history, controls = random_frame_inputs(model.config, rng, batch=1)
    zb, ldb, _ = model.transform_frame(frame, history, controls)
    zu, ldu, _ = model.transform_frame(frame[0], history[0], controls[0])
    assert np.array_equal(zb[0], zu)
    assert ldb[0] == ldu
    lp_b, _ = model.log_likelihood(frame, history, controls)
    lp_u, _ = model.log_likelihood(frame[0], history[0], controls[0])
    assert lp_b[0] == lp_u


def test_logdet_matches_fd_jacobian_quick(tiny_skeleton):
    model = make_model(tiny_skeleton, seed=7)
    model.set_standardization(np.full((4, 2), 0.3), np.full((4, 2), 1.7))
    rng = np.random.default_rng(10)
    for _ in range(3):
        frame, history, controls = random_frame_inputs(model.config, rng)
        _, logdet, _ = model.transform_frame(frame[0], history[0], controls[0])
        want = fd_jacobian_logdet(model, frame[0], history[0], controls[0])
        assert abs(logdet - want) < 1e-6


def test_identity_init_is_identity(tiny_skeleton):
    model = make_model(tiny_skeleton, init="identity", seed=11)
    rng = np.random.default_rng(12)
    frame, history, controls = random_frame_inputs(model.config, rng)
    z, logdet, _ = model.transform_frame(frame[0], history[0], controls[0])
    assert np.max(np.abs(z - frame[0])) < 1e-12
    assert abs(logdet) < 1e-12
    # with standardization the map is (x - mean) / std
    mean = np.full((4, 2), 2.0)
    std = np.full((4, 2), 4.0)
    model.set_standardization(mean, std)
    z2, logdet2, _ = model.transform_frame(frame[0], history[0], controls[0])
    assert np.max(np.abs(z2 - (frame[0] - 2.0) / 4.0)) < 1e-12
    assert abs(logdet2 - (-np.sum(np.log(std)))) < 1e-12


def test_likelihood_of_identity_model_is_gaussian(tiny_skeleton):
    model = make_model(tiny_skeleton, init="identity", seed=13)
    rng = np.random.default_rng(14)
    frame, history, controls = random_frame_inputs(model.config, rng)
    lp, _ = model.log_likelihood(frame[0], history[0], controls[0])
    want = -0.5 * np.sum(frame[0] ** 2) - 0.5 * 8 * np.log(2 * np.pi)
    assert abs(lp - want) < 1e-10


def test_temperature_zero_is_deterministic_mode(tiny_skeleton):
    model = make_model(tiny_skeleton, seed=15)
    rng = np.random.default_rng(16)
    _, history, controls = random_frame_inputs(model.config, rng)
    z = rng.standard_normal((4, 2))
    x1, _ = model.sample_frame(z, history[0], controls[0], temperature=0.0)
    x2, _ = model.sample_frame(np.zeros((4, 2)), history[0], controls[0], temperature=0.0)
    assert np.array_equal(x1, x2)


def test_sample_then_loglik_states_agree(tiny_skeleton):
    model = make_model(tiny_skeleton, seed=17)
    rng = np.random.default_rng(18)
    _, history, controls = random_frame_inputs(model.config, rng)
    z = rng.standard_normal((1, 4, 2))
    x, st_inv = model.sample_frame(z, history, controls, temperature=1.0)
    z2, _, st_fwd = model.transform_frame(x, history, controls)
    assert np.max(np.abs(z2 - z)) < 1e-9
    for sa, sb in zip(st_inv, st_fwd):
        for (ha, ca), (hb, cb) in zip(sa, sb):
            assert np.max(np.abs(ha - hb)) < 1e-9
            assert np.max(np.abs(ca - cb)) < 1e-9


def test_masked_history_zeroes_after_standardization(tiny_skeleton):
    model = make_model(tiny_skeleton, seed=19)
    model.set_standardization(np.full((4, 2), 5.0), np.full((4, 2), 2.0))
    rng = np.random.default_rng(20)
    frame, history, controls = random_frame_inputs(model.config, rng)
    mask = np.ones((4, 3))
    mask[1] = 0.0
    # changing a masked marker's history must not change anything downstream
    history_b = history.copy()
    history_b[0, 1] = 999.0
    lp_a, _ = model.log_likelihood(frame, history, controls, history_mask=mask)
    lp_b, _ = model.log_likelihood(frame, history_b, controls, history_mask=mask)
    assert np.array_equal(lp_a, lp_b)
    lp_c, _ = model.log_likelihood(frame, history_b, controls)
    assert not np.array_equal(lp_a, lp_c)


# --- actnorm data init through the stack ----------------------------------------------

def test_init_actnorm_per_step_statistics(tiny_skeleton):
    model = make_model(tiny_skeleton, seed=21, init="default")
    rng = np.random.default_rng(22)
    n = 128
    frames = rng.normal(1.5, 3.0, size=(n, 4, 2))
    histories = rng.normal(size=(n, 4, 2, 3))
    controls = rng.normal(size=(n, 3, 4))
    model.init_actnorm(frames, histories, controls)
    # replay and check each step's actnorm output stats
    hist_std = model._prep_history(histories, None)
    pooled = model.encoder(nc._data(hist_std))
    ctrl = controls.reshape(n, -1)
    h = nc._data(model.standardize(frames))
    states = model.initial_state(n)
    for step, state in zip(model.steps, states):
        y, _ = step.actnorm.forward(h)
        assert np.max(np.abs(y.mean(axis=0))) < 1e-6
        assert np.max(np.abs(y.std(axis=0) - 1.0)) < 1e-4
        h, _, _ = step.forward(h, pooled, ctrl, state)


# --- census / ablations ------------------------------------------------------------------

def test_census_groups_sum_to_total(tiny_skeleton):
    model = make_model(tiny_skeleton, "stmg")
    c = model.census()
    assert c["total"] == sum(p.size for _, p in model.named_parameters())
    assert c["graph"] > 0 and c["lstm"] > 0 and c["projection"] > 0
    assert sum(v for k, v in c.items() if k != "total") == c["total"]


def test_census_mg_zero_graph_params(tiny_skeleton):
    model = make_model(tiny_skeleton, "mg")
    c = model.census()
    assert c["graph"] == 0
    assert c["lstm"] > 0


def test_census_smg_smaller_than_stmg(tiny_skeleton):
    stmg = make_model(tiny_skeleton, "stmg").census()
    smg = make_model(tiny_skeleton, "smg").census()
    assert smg["graph"] < stmg["graph"]


# --- checkpoints -----------------------------------------------------------------------

def test_checkpoint_roundtrip(tiny_skeleton, tmp_path):
    model = make_model(tiny_skeleton, seed=23)
    model.set_standardization(np.full((4, 2), 1.0), np.full((4, 2), 2.0))
    path = os.path.join(tmp_path, "m.ckpt")
    flow.save_checkpoint(model, path, meta={"seed": 23})
    again, meta = flow.load_checkpoint(path)
    assert meta == {"seed": 23}
    for (ka, va), (kb, vb) in zip(model.named_parameters(), again.named_parameters()):
        assert ka == kb
        assert np.array_equal(nc._data(va), nc._data(vb))
    assert np.array_equal(model.data_mean, again.data_mean)
    rng = np.random.default_rng(24)
    frame, history, controls = random_frame_inputs(model.config, rng)
    za, la, _ = model.transform_frame(frame, history, controls)
    zb, lb, _ = again.transform_frame(frame, history, controls)
    assert np.array_equal(za, zb) and np.array_equal(la, lb)


def test_checkpoint_bytes_deterministic(tiny_skeleton, tmp_path):
    model = make_model(tiny_skeleton, seed=25)
    p1 = os.path.join(tmp_path, "a.ckpt")
    p2 = os.path.join(tmp_path, "b.ckpt")
    flow.save_checkpoint(model, p1)
    flow.save_checkpoint(model, p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def assert_parameters_own_their_memory(model):
    arrays = [p for _, p in model.named_parameters()]
    assert all(type(p) is np.ndarray and p.flags.writeable for p in arrays)
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


@pytest.mark.parametrize("ablation", ["stmg", "smg", "mg"])
def test_parameters_are_separate_writeable_arrays(tiny_skeleton, tmp_path,
                                                  ablation):
    # adam_step writes every parameter array in place
    for init in ("default", "identity", "random"):
        assert_parameters_own_their_memory(
            make_model(tiny_skeleton, ablation, init=init))
    model = make_model(tiny_skeleton, ablation, init="default")
    model.init_actnorm(*random_frame_inputs(model.config,
                                            np.random.default_rng(5), batch=8))
    assert_parameters_own_their_memory(model)
    path = os.path.join(tmp_path, "m.ckpt")
    flow.save_checkpoint(model, path)
    assert_parameters_own_their_memory(flow.load_checkpoint(path)[0])


def test_checkpoint_rejects_garbage(tmp_path):
    path = os.path.join(tmp_path, "junk.bin")
    with open(path, "wb") as fh:
        fh.write(b"not a checkpoint at all")
    with pytest.raises(flow.CheckpointFormatError):
        flow.load_checkpoint(path)


# --- a short optimization actually reduces NLL --------------------------------------------

def test_200_adam_steps_cut_nll_by_20_percent(tiny_skeleton):
    model = make_model(tiny_skeleton, seed=26, init="default")
    rng = np.random.default_rng(27)
    n = 32
    # structured batch: pose depends linearly on the last history frame
    histories = rng.normal(size=(n, 4, 2, 3))
    frames = 0.8 * histories[:, :, :, -1] + 0.1 * rng.normal(size=(n, 4, 2))
    controls = 0.1 * rng.normal(size=(n, 3, 4))
    model.init_actnorm(frames, histories, controls)

    def batch_nll():
        logp, _ = model.log_likelihood(frames, histories, controls)
        return logp

    nll0 = -float(np.mean(nc._data(batch_nll())))
    params = dict(model.named_parameters())
    state = nc.adam_init(params)
    for _ in range(200):
        lifted = nc.lift(model)
        logp, _ = model.log_likelihood(frames, histories, controls)
        loss = nc.neg(nc.vmean(logp))
        gl = nc.grad(loss, list(lifted.values()))
        grads = dict(zip(lifted.keys(), gl))
        nc.restore(model)
        nc.clip_grad_norm(grads, 5.0)
        nc.adam_step(params, grads, state, step_size=3e-3)
    nll1 = -float(np.mean(nc._data(batch_nll())))
    assert nll1 < 0.8 * nll0, (nll0, nll1)

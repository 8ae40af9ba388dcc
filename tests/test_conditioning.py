import numpy as np
import pytest

from skelflow import conditioning as cond
from skelflow import numcore as nc
from skelflow import skeleton as sk

from conftest import apply_temporal_operator, make_tiny_config


@pytest.fixture
def tiny_adj(tiny_skeleton):
    return sk.partition(tiny_skeleton, 3)


# --- bounded scale -----------------------------------------------------------

def test_bounded_scale_at_zero_frozen_value():
    # sigmoid(2) + 1e-3
    assert abs(cond.bounded_scale(np.zeros(1))[0] - 0.8817970779778823) < 1e-15


def test_bounded_scale_range_and_monotone():
    x = np.linspace(-50, 50, 1001)
    s = cond.bounded_scale(x)
    assert np.all(s > 1e-3 - 1e-12)
    assert np.all(s < 1.0 + 1e-3 + 1e-12)
    assert np.all(np.diff(s) >= 0)


def test_identity_scale_raw_gives_unit_scale():
    raw = cond.identity_scale_raw()
    assert abs(cond.bounded_scale(np.array([raw]))[0] - 1.0) < 1e-12


# --- spatial graph conv --------------------------------------------------------

def test_sgcn_matches_einsum_oracle(tiny_adj):
    rng = np.random.default_rng(0)
    layer = cond.SpatialGraphConv(tiny_adj, 2, 5, rng)
    x = rng.normal(size=(3, 4, 2))  # (B, M, C)
    got = layer(x)
    conv = np.einsum("kmn,bnc,kcd->bmd", tiny_adj.matrices, x, layer.weight) + layer.bias
    want = np.maximum(conv, 0.0)
    assert np.any(want == 0.0) and np.any(want > 0.0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_sgcn_gradients(tiny_adj):
    rng = np.random.default_rng(1)
    layer = cond.SpatialGraphConv(tiny_adj, 2, 3, rng)
    x = rng.normal(size=(2, 4, 2))
    w0 = layer.weight.copy()

    def loss_fn(w):
        layer.weight = w
        return nc.vsum(nc.tanh(layer(x)))

    err = nc.grad_check(loss_fn, w0, step=1e-5)
    layer.weight = w0
    assert err < 1e-6


# --- temporal conv ---------------------------------------------------------------

def np_symmetric_conv(x, kernel, bias):
    """Direct oracle: symmetric pad + explicit tap loop, (B, T, M, C)."""
    k = kernel.shape[0]
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0), (0, 0)), mode="symmetric")
    t = x.shape[1]
    out = np.zeros(x.shape[:3] + (kernel.shape[2],))
    for tap in range(k):
        out += xp[:, tap:tap + t] @ kernel[tap]
    return out + bias


def test_temporal_conv_matches_numpy_pad_oracle():
    rng = np.random.default_rng(2)
    layer = cond.TemporalConv(3, 4, 5, rng)
    x = rng.normal(size=(2, 7, 4, 3))
    _, operator = layer.operator(7)
    got = apply_temporal_operator(x, operator, layer.bias)
    want = np_symmetric_conv(x, layer.kernel, layer.bias)
    assert np.max(np.abs(got - want)) < 1e-12


def test_temporal_conv_center_tap_identity():
    rng = np.random.default_rng(3)
    layer = cond.TemporalConv(3, 3, 5, rng)
    layer.kernel = np.zeros_like(layer.kernel)
    layer.kernel[2] = np.eye(3)
    layer.bias = np.zeros_like(layer.bias)
    x = rng.normal(size=(1, 6, 2, 3))
    _, operator = layer.operator(6)
    assert np.array_equal(operator, np.eye(6 * 3))
    assert np.array_equal(apply_temporal_operator(x, operator, layer.bias), x)


def test_temporal_conv_too_short_history_raises():
    rng = np.random.default_rng(4)
    layer = cond.TemporalConv(2, 2, 9, rng)
    with pytest.raises(ValueError, match="too short"):
        layer.operator(3)  # pad 4 > T 3


def test_temporal_conv_rejects_even_kernel():
    with pytest.raises(ValueError):
        cond.TemporalConv(2, 2, 4, np.random.default_rng(0))


# --- blocks / encoder --------------------------------------------------------------

def test_block_residual_identity_when_widths_match(tiny_adj):
    rng = np.random.default_rng(5)
    block = cond.GraphTemporalBlock(tiny_adj, 4, 4, 3, rng)
    assert block.res is None
    block2 = cond.GraphTemporalBlock(tiny_adj, 2, 4, 3, rng)
    assert block2.res is not None


def test_block_smg_variant_has_no_temporal_conv(tiny_adj):
    rng = np.random.default_rng(6)
    block = cond.GraphTemporalBlock(tiny_adj, 2, 4, 3, rng, use_temporal=False)
    assert block.tcn is None
    names = [k for k, _ in block.named_parameters()]
    assert not any("tcn" in n for n in names)


def param_count(module):
    return sum(p.size for _, p in module.named_parameters())


def test_encoder_widths_and_shapes(tiny_skeleton, tiny_adj):
    rng = np.random.default_rng(7)
    hist = rng.normal(size=(2, 4, 2, 3))  # (B, M, C, T)
    enc_full = cond.HistoryEncoder("stmg", tiny_adj, 4, 2, 3, (4, 5), 3, rng)
    enc_nt = cond.HistoryEncoder("smg", tiny_adj, 4, 2, 3, (4, 5), 3, rng)
    enc_flat = cond.HistoryEncoder("mg", tiny_adj, 4, 2, 3, (4, 5), 3, rng)
    assert enc_full(hist).shape == (2, 5)
    assert enc_nt(hist).shape == (2, 5)
    assert enc_flat(hist).shape == (2, 4 * 2 * 3)
    assert param_count(enc_flat) == 0
    assert param_count(enc_full) > param_count(enc_nt)


def test_encoder_mg_flatten_order(tiny_adj):
    # flatten must be plain row-major over (M, C, T)
    rng = np.random.default_rng(8)
    enc = cond.HistoryEncoder("mg", tiny_adj, 4, 2, 3, (4, 5), 3, rng)
    hist = np.arange(2 * 4 * 2 * 3, dtype=np.float64).reshape(2, 4, 2, 3)
    assert np.array_equal(enc(hist), hist.reshape(2, -1))


def test_encoder_rejects_unknown_variant(tiny_adj):
    with pytest.raises(ValueError):
        cond.HistoryEncoder("nope", tiny_adj, 4, 2, 3, (4,), 3, np.random.default_rng(0))


# --- lstm ------------------------------------------------------------------------

def lstm_cell_oracle(x, h, c, w_ih, w_hh, bias):
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    gates = x @ w_ih + h @ w_hh + bias
    n = h.shape[1]
    i, f, g, o = gates[:, :n], gates[:, n:2 * n], gates[:, 2 * n:3 * n], gates[:, 3 * n:]
    c_new = sig(f) * c + sig(i) * np.tanh(g)
    h_new = sig(o) * np.tanh(c_new)
    return h_new, c_new


def test_lstm_matches_oracle():
    rng = np.random.default_rng(9)
    layer = cond.LSTMLayer(5, 4, rng)
    x = rng.normal(size=(3, 5))
    h = rng.normal(size=(3, 4))
    c = rng.normal(size=(3, 4))
    got_h, got_c = layer(x, h, c)
    want_h, want_c = lstm_cell_oracle(x, h, c, layer.w_ih, layer.w_hh, layer.bias)
    assert np.max(np.abs(got_h - want_h)) < 1e-12
    assert np.max(np.abs(got_c - want_c)) < 1e-12


def test_lstm_stack_state_threading():
    rng = np.random.default_rng(10)
    stack = cond.LSTMStack(3, 4, 2, rng)
    state = stack.initial_state(2)
    assert len(state) == 2
    x = rng.normal(size=(2, 3))
    out1, st1 = stack(x, state)
    out2, st2 = stack(x, st1)
    assert out1.shape == (2, 4)
    # state actually matters
    assert np.max(np.abs(out1 - out2)) > 1e-8


def test_lstm_stack_time_major_rows_match_frame_loop():
    # (T*B, D) rows run T frames of B sequences; same outputs and final
    # state as T per-frame calls threading the state
    rng = np.random.default_rng(14)
    stack = cond.LSTMStack(3, 4, 2, rng)
    x = rng.normal(size=(5, 2, 3))
    out, state = stack(x.reshape(10, 3), stack.initial_state(2))
    want_state = stack.initial_state(2)
    for k in range(5):
        want, want_state = stack(x[k], want_state)
        np.testing.assert_allclose(out[2 * k:2 * k + 2], want, rtol=0, atol=1e-14)
    for (h, c), (wh, wc) in zip(state, want_state):
        np.testing.assert_allclose(h, wh, rtol=0, atol=1e-14)
        np.testing.assert_allclose(c, wc, rtol=0, atol=1e-14)


def test_lstm_forget_bias_init():
    layer = cond.LSTMLayer(2, 3, np.random.default_rng(0))
    assert np.all(layer.bias[3:6] == 1.0)
    assert np.all(layer.bias[:3] == 0.0)


# --- coupling conditioner ------------------------------------------------------------

def test_conditioner_zero_init_outputs(tiny_adj):
    rng = np.random.default_rng(11)
    c = cond.CouplingConditioner("stmg", tiny_adj, 4, 1, 1, 3, 5, 12, 6, 2, rng)
    state = c.initial_state(2)
    pose = rng.normal(size=(2, 4, 1))
    pooled = rng.normal(size=(2, 5))
    ctrl = rng.normal(size=(2, 12))
    s, b, new_state = c(pose, pooled, ctrl, state)
    assert s.shape == (2, 4, 1) and b.shape == (2, 4, 1)
    assert np.max(np.abs(s - 0.8817970779778823)) < 1e-12
    assert np.max(np.abs(b)) == 0.0
    assert len(new_state) == 2


def test_conditioner_mg_has_no_graph_params(tiny_adj):
    rng = np.random.default_rng(12)
    c = cond.CouplingConditioner("mg", tiny_adj, 4, 1, 1, 3, 24, 12, 6, 2, rng)
    names = [k for k, _ in c.named_parameters()]
    assert not any("sgcn" in n for n in names)
    pose = rng.normal(size=(2, 4, 1))
    s, b, _ = c(pose, rng.normal(size=(2, 24)), rng.normal(size=(2, 12)), c.initial_state(2))
    assert s.shape == (2, 4, 1)


def test_conditioner_gradcheck_lstm_weights(tiny_adj):
    rng = np.random.default_rng(13)
    c = cond.CouplingConditioner("stmg", tiny_adj, 4, 1, 1, 3, 5, 12, 6, 2, rng)
    # make the output head live so gradients reach everything
    c.out.weight = rng.normal(0.0, 0.1, size=c.out.weight.shape)
    c.out.bias = rng.normal(0.0, 0.1, size=c.out.bias.shape)
    pose = rng.normal(size=(2, 4, 1))
    pooled = rng.normal(size=(2, 5))
    ctrl = rng.normal(size=(2, 12))

    def loss_of(path):
        base = dict(c.named_parameters())[path].copy()

        def fn(value):
            c.set_parameter(path, value)
            s, b, _ = c(pose, pooled, ctrl, c.initial_state(2))
            out = nc.vsum(nc.log(s)) + nc.vsum(nc.mul(b, b)) if isinstance(s, nc.Var) \
                else float(np.sum(np.log(s)) + np.sum(b * b))
            c.set_parameter(path, base)
            return out

        return fn

    for path in ["lstm.layers.0.w_ih", "lstm.layers.1.w_hh", "out.weight", "sgcn.weight"]:
        err = nc.grad_check(loss_of(path), dict(c.named_parameters())[path], step=1e-5)
        assert err < 1e-4, (path, err)

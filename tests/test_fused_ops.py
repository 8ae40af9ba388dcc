"""The fused numcore ops against the op-by-op chains they replaced, against
finite differences, and by the size of the tape they build."""

import collections
import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skelflow import conditioning as cond
from skelflow import flow
from skelflow import numcore as nc
from skelflow import skeleton as sk
from skelflow import training

from conftest import apply_temporal_operator
from oracles import (accum_zeros_then_add, actnorm_chain, affine_coupling_chain,
                     coupling_head_chain, graph_conv_chain, history_encoder_chain,
                     lstm_sequence, lstm_sequence_chain, lstm_stack_chain, relu,
                     temporal_conv_chain)

TOL = 1e-10
GRAD_TOL = 1e-6


def assert_close(got, want):
    got, want = nc._data(got), nc._data(want)
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= TOL * scale


def weighted_tanh_sum(outputs, weights):
    """A scalar that depends on every output entry, nonlinearly."""
    total = 0.0
    for out, w in zip(outputs, weights):
        total = nc.add(total, nc.vsum(nc.mul(nc.tanh(out), w)))
    return total


def check_against_chain(fused, chain, inputs):
    """Values on ndarrays, then values and every input gradient on Vars."""
    for got, want in zip(fused(*inputs), chain(*inputs)):
        assert isinstance(got, np.ndarray)
        assert_close(got, want)
    grads = []
    for fn in (fused, chain):
        leaves = [nc.Var(np.array(a)) for a in inputs]
        outputs = fn(*leaves)
        weights = [np.random.default_rng(0).normal(size=nc._data(o).shape)
                   for o in outputs]
        grads.append(nc.grad(weighted_tanh_sum(outputs, weights), leaves))
    for got, want in zip(*grads):
        assert_close(got, want)


def grad_check_each(fn, inputs):
    """grad_check of a scalar of fn(*inputs) with respect to each input."""
    outputs = fn(*inputs)
    weights = [np.random.default_rng(1).normal(size=np.shape(o)) for o in outputs]
    for k, base in enumerate(inputs):
        def loss(value, k=k):
            args = list(inputs)
            args[k] = value
            return weighted_tanh_sum(fn(*args), weights)

        err = nc.grad_check(loss, base, step=1e-5)
        assert err <= GRAD_TOL, (k, err)


# --- graph_conv_relu as the spatial graph conv ----------------------------------


@pytest.fixture(scope="module")
def partitions():
    spec = sk.build_skeleton("""
markers 5
center 1
heels 0 4
root 0
edge 0 1
edge 1 2
edge 2 3
edge 1 4
mirror 0 4
""")
    return {d: sk.partition(spec, d) for d in (3, 5)}


def spatial_fused(adjacency):
    return lambda x, w, b: (nc.graph_conv_relu(x, adjacency.stacked, w, b),)


def spatial_chain(adjacency):
    return lambda x, w, b: (relu(graph_conv_chain(adjacency.matrices, x, w, b)),)


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("lead", [(2,), (2, 3)])
def test_graph_conv_matches_chain(partitions, d, lead):
    rng = np.random.default_rng(d)
    adj = partitions[d]
    inputs = [rng.normal(size=lead + (5, 3)), rng.normal(size=(d, 3, 4)),
              rng.normal(size=4)]
    out = spatial_fused(adj)(*inputs)[0]
    assert np.any(out == 0.0) and np.any(out > 0.0)  # the relu cuts
    check_against_chain(spatial_fused(adj), spatial_chain(adj), inputs)


@pytest.mark.parametrize("d", [3, 5])
def test_graph_conv_grad_check(partitions, d):
    rng = np.random.default_rng(10 + d)
    inputs = [rng.normal(size=(2, 5, 2)), rng.normal(size=(d, 2, 3)),
              rng.normal(size=3)]
    grad_check_each(spatial_fused(partitions[d]), inputs)


def test_graph_conv_without_input_grad(partitions):
    """On an ndarray input the node's parents are the weight and the bias,
    and their gradients match the chain's."""
    rng = np.random.default_rng(12)
    adj = partitions[3]
    x, weight, bias = (rng.normal(size=(4, 5, 3)), rng.normal(size=(3, 3, 4)),
                       rng.normal(size=4))
    g = rng.normal(size=(4, 5, 4))
    grads = []
    for fused, fn in ((True, spatial_fused(adj)), (False, spatial_chain(adj))):
        leaves = [nc.Var(weight.copy()), nc.Var(bias.copy())]
        out = fn(x, *leaves)[0]
        if fused:
            assert out._parents == tuple(leaves)
        grads.append(nc.grad(nc.vsum(nc.mul(out, g)), leaves))
    for got, want in zip(*grads):
        assert_close(got, want)


# --- the temporal conv's dense operator ----------------------------------------------

# (kernel, frames): kernels 1, 5 and 9, and frames equal to the padding
TEMPORAL_CASES = [(1, 4), (5, 6), (9, 10), (5, 2), (9, 4)]


def operator_parts(x, kernel):
    """The reflect shifts for x's frames, the dense operator of `kernel`
    and x as the (B*M, T*C_in) rows the operator multiplies."""
    b, t, m, c_in = x.shape
    shifts = cond.reflect_shifts(t, kernel.shape[0])
    rows = x.transpose(0, 2, 1, 3).reshape(b * m, t * c_in)
    return shifts, nc.shift_operator(shifts, kernel), rows


def operator_grads(x, kernel, g):
    """The input and kernel gradients of the operator conv of x under
    output gradient g, both (B, T, M, C): g @ D.T and `nc._kernel_grad`."""
    b, t, m, c_in = x.shape
    c_out = kernel.shape[2]
    shifts, dense, rows = operator_parts(x, kernel)
    g2 = g.transpose(0, 2, 1, 3).reshape(b * m, t * c_out)
    gx = (g2 @ dense.T).reshape(b, m, t, c_in).transpose(0, 2, 1, 3)
    return gx, nc._kernel_grad(shifts, rows, g2, c_in, c_out)


def temporal_inputs(k, t):
    rng = np.random.default_rng(k * 100 + t)
    return [rng.normal(size=(2, t, 3, 2)), rng.normal(size=(k, 2, 3)),
            rng.normal(size=3)]


@pytest.mark.parametrize("k, t", TEMPORAL_CASES)
def test_temporal_conv_matches_chain(k, t):
    """The layer's operator, applied as the encoder applies it."""
    x, kernel, bias = temporal_inputs(k, t)
    layer = cond.TemporalConv(cond.reflect_shifts(t, k), 2, 3, np.random.default_rng(0))
    layer.kernel = kernel
    assert_close(apply_temporal_operator(x, layer.operator(), bias),
                 temporal_conv_chain(x, kernel, bias))


@pytest.mark.parametrize("k, t", TEMPORAL_CASES)
def test_temporal_conv_op_matches_chain(k, t):
    """The operator's backward, g @ D.T for the input and the kernel fold,
    against the chain's gradients."""
    x, kernel, bias = temporal_inputs(k, t)
    g = np.random.default_rng(k + t).normal(size=x.shape[:3] + (3,))
    leaves = [nc.Var(x.copy()), nc.Var(kernel.copy())]
    loss = nc.vsum(nc.mul(temporal_conv_chain(*leaves, bias), g))
    want_x, want_kernel = nc.grad(loss, leaves)
    got_x, got_kernel = operator_grads(x, kernel, g)
    assert_close(got_x, want_x)
    assert_close(got_kernel, want_kernel)


@pytest.mark.parametrize("k, t", TEMPORAL_CASES)
def test_temporal_conv_grad_check(k, t):
    """The operator's input and kernel gradients of a weighted tanh sum
    against central differences."""
    rng = np.random.default_rng(k * 10 + t)
    x, kernel = rng.normal(size=(1, t, 2, 2)), rng.normal(size=(k, 2, 2))
    bias = rng.normal(size=2)
    weights = rng.normal(size=(1, t, 2, 2))

    def conv(x, kernel):
        _, dense, _ = operator_parts(x, kernel)
        return apply_temporal_operator(x, dense, bias)

    def loss(x, kernel):
        return float(np.sum(np.tanh(conv(x, kernel)) * weights))

    y = conv(x, kernel)
    analytic = operator_grads(x, kernel, weights * (1.0 - np.tanh(y) ** 2))
    step = 1e-5
    for k_arg, base in enumerate((x, kernel)):
        numeric = np.zeros_like(base)
        for i in range(base.size):
            args = [x, kernel]
            for sign in (1.0, -1.0):
                probe = base.copy()
                probe.reshape(-1)[i] += sign * step
                args[k_arg] = probe
                numeric.reshape(-1)[i] += sign * loss(*args) / (2.0 * step)
        err = np.abs(analytic[k_arg] - numeric) / (np.abs(numeric) + 1e-8)
        assert float(err.max()) <= GRAD_TOL, (k_arg, float(err.max()))


@pytest.mark.parametrize("k, t", TEMPORAL_CASES)
def test_shift_operator_entries(k, t):
    rng = np.random.default_rng(k + t)
    shifts = cond.reflect_shifts(t, k)
    kernel = rng.normal(size=(k, 2, 3))
    dense = nc.shift_operator(shifts, kernel)
    assert dense.shape == (t * 2, t * 3)
    for s in range(t):
        for tt in range(t):
            want = np.einsum("k,kio->io", shifts[:, tt, s], kernel)
            assert_close(dense[s * 2:(s + 1) * 2, tt * 3:(tt + 1) * 3], want)


@pytest.mark.parametrize("k, t", TEMPORAL_CASES)
def test_reflect_shifts_pick_one_frame_per_tap(k, t):
    shifts = cond.reflect_shifts(t, k)
    assert shifts.shape == (k, t, t)
    assert set(np.unique(shifts)) <= {0.0, 1.0}
    assert np.all(shifts.sum(axis=2) == 1.0)
    assert np.array_equal(shifts[(k - 1) // 2], np.eye(t))


def layer_conv(layer, x):
    """The layer's temporal conv of ndarray x through `operator`."""
    return apply_temporal_operator(x, layer.operator(), layer.bias)


def test_temporal_conv_layer_caches_operator_by_value():
    rng = np.random.default_rng(5)
    layer = cond.TemporalConv(cond.reflect_shifts(6, 9), 3, 4, rng)
    x = rng.normal(size=(2, 6, 5, 3))
    assert_close(layer_conv(layer, x), temporal_conv_chain(x, layer.kernel, layer.bias))
    operator = layer.operator()
    assert layer.operator() is operator
    # a new array with the same values keeps the operator
    layer.kernel = layer.kernel.copy()
    assert layer.operator() is operator
    # a lifted kernel gets a fresh operator of the same values and leaves
    # the cache alone
    kernel = layer.kernel
    layer.kernel = nc.Var(kernel)
    lifted_operator = layer.operator()
    assert lifted_operator is not operator
    assert np.array_equal(lifted_operator, operator)
    layer.kernel = kernel
    assert layer.operator() is operator


def test_temporal_conv_layer_follows_in_place_kernel_edit():
    rng = np.random.default_rng(6)
    layer = cond.TemporalConv(cond.reflect_shifts(6, 5), 3, 4, rng)
    x = rng.normal(size=(2, 6, 5, 3))
    before = layer_conv(layer, x)
    layer.kernel[2, 1, 0] += 0.5
    layer.kernel *= 1.5
    after = layer_conv(layer, x)
    assert not np.allclose(after, before)
    assert_close(after, temporal_conv_chain(x, layer.kernel, layer.bias))


# --- graph_temporal_encoder ------------------------------------------------------


def random_encoder(variant, spec, channels, history, block_channels, kernel,
                   scale, seed):
    """A history encoder with every parameter, biases included, drawn at
    random, so the relus cut on both sides."""
    rng = np.random.default_rng(seed)
    encoder = cond.HistoryEncoder(variant, sk.partition(spec, scale),
                                  spec.marker_count, channels, history,
                                  block_channels, kernel, rng)
    for path, value in list(encoder.named_parameters()):
        encoder.set_parameter(path, rng.normal(0.0, 0.5, size=value.shape))
    return encoder


def check_encoder_against_chain(encoder, history):
    """Values on ndarrays, then values and the gradients of every parameter
    on Vars."""
    assert_close(encoder(history), history_encoder_chain(encoder, history))
    weights = np.random.default_rng(0).normal(
        size=(history.shape[0], encoder.width))
    grads = []
    for fn in (encoder, lambda h: history_encoder_chain(encoder, h)):
        lifted = nc.lift(encoder)
        try:
            leaves = list(lifted.values())
            out = fn(history)
            loss = weighted_tanh_sum([out], [weights])
            grads.append((nc._data(out), nc.grad(loss, leaves)))
        finally:
            nc.restore(encoder)
    (got, got_grads), (want, want_grads) = grads
    assert_close(got, want)
    assert len(got_grads) == len(want_grads) == len(lifted)
    for g, w in zip(got_grads, want_grads):
        assert_close(g, w)


# (skeleton, channels, history, block channels, temporal kernel); the tiny
# blocks cover both the linear (2 -> 4) and the identity (4 -> 4) residual
ENCODER_CASES = {
    "tiny": ("tiny", 2, 3, (4, 4), 3),
    "default": ("default", 3, 10, (12, 24), 9),
}


def encoder_case(name, variant, tiny_skeleton, seed=0):
    skel, channels, history, blocks, kernel = ENCODER_CASES[name]
    spec = tiny_skeleton if skel == "tiny" else sk.default_skeleton()
    return random_encoder(variant, spec, channels, history, blocks, kernel, 3, seed)


@pytest.mark.parametrize("windows", [1, 64])
@pytest.mark.parametrize("variant", ["stmg", "smg"])
@pytest.mark.parametrize("case", sorted(ENCODER_CASES))
def test_encoder_matches_chain(tiny_skeleton, case, variant, windows):
    encoder = encoder_case(case, variant, tiny_skeleton)
    history = np.random.default_rng(windows).normal(
        size=(windows, encoder.markers, encoder.channels, encoder.history_len))
    check_encoder_against_chain(encoder, history)


@pytest.mark.parametrize("variant", ["stmg", "smg"])
def test_encoder_grad_check(tiny_skeleton, variant):
    encoder = encoder_case("tiny", variant, tiny_skeleton, seed=1)
    history = np.random.default_rng(2).normal(size=(2, 4, 2, 3))
    weights = np.random.default_rng(3).normal(size=(2, encoder.width))
    for path, base in list(encoder.named_parameters()):
        def loss(value, path=path, base=base):
            encoder.set_parameter(path, value)
            try:
                return weighted_tanh_sum([encoder(history)], [weights])
            finally:
                encoder.set_parameter(path, base)

        err = nc.grad_check(loss, base, step=1e-5)
        assert err <= GRAD_TOL, (path, err)


def test_encoder_is_one_tape_node(tiny_skeleton):
    encoder = encoder_case("tiny", "stmg", tiny_skeleton)
    lifted = nc.lift(encoder)
    try:
        out = encoder(np.ones((2, 4, 2, 3)))
    finally:
        nc.restore(encoder)
    assert out._parents == tuple(lifted.values())


@pytest.mark.parametrize("variant", ["stmg", "smg"])
def test_encoder_takes_no_var_history(tiny_skeleton, variant):
    """The history is data: the op raises TypeError on a Var history,
    with the parameters lifted or not."""
    encoder = encoder_case("tiny", variant, tiny_skeleton)
    history = nc.Var(np.ones((2, 4, 2, 3)))
    with pytest.raises(TypeError, match="history"):
        encoder(history)
    nc.lift(encoder)
    try:
        with pytest.raises(TypeError, match="history"):
            encoder(history)
    finally:
        nc.restore(encoder)


@st.composite
def encoder_configs(draw):
    """Random trees of 2-8 markers, 2-4 channels, 1-3 blocks, odd temporal
    kernels and histories that `ModelConfig.validate` accepts for stmg."""
    markers = draw(st.integers(2, 8))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, markers)]
    lines = [f"markers {markers}", "center 0", "heels 0 1"]
    lines += [f"edge {u} {v}" for v, u in enumerate(parents, start=1)]
    kernel = draw(st.sampled_from([1, 3, 5, 7, 9]))
    pad = (kernel - 1) // 2
    return dict(
        spec=sk.build_skeleton("\n".join(lines)),
        variant=draw(st.sampled_from(["stmg", "smg"])),
        channels=draw(st.integers(2, 4)),
        history=draw(st.integers(max(1, pad), pad + 3)),
        block_channels=tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))),
        kernel=kernel,
        scale=draw(st.sampled_from([3, 5])),
        windows=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2 ** 16)),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(encoder_configs())
def test_encoder_matches_chain_on_random_configs(cfg):
    encoder = random_encoder(cfg["variant"], cfg["spec"], cfg["channels"],
                             cfg["history"], cfg["block_channels"], cfg["kernel"],
                             cfg["scale"], cfg["seed"])
    history = np.random.default_rng(cfg["seed"]).normal(
        size=(cfg["windows"], encoder.markers, cfg["channels"], cfg["history"]))
    check_encoder_against_chain(encoder, history)


def recorded_value(encoder, history):
    """The encoder's value with its parameters lifted, so the op records."""
    nc.lift(encoder)
    try:
        return nc._data(encoder(history))
    finally:
        nc.restore(encoder)


def whole_batch(encoder, history, monkeypatch):
    """`recorded_value` with all windows in one chunk."""
    with monkeypatch.context() as patch:
        patch.setattr(nc, "ENCODER_CHUNK_WINDOWS", history.shape[0])
        return recorded_value(encoder, history)


@pytest.mark.parametrize("windows", [1, 7, 8, 9, 13, 64, 184])
@pytest.mark.parametrize("variant", ["stmg", "smg"])
def test_encoder_chunks_match_whole_batch(variant, windows, monkeypatch):
    """Chunk boundaries on the desk encoder's shapes: the pooled output,
    plain and recorded, equals a one-chunk run bit for bit, and the value
    and every parameter gradient match the oracle chain on the whole
    batch."""
    assert nc.ENCODER_CHUNK_WINDOWS == 8
    encoder = encoder_case("default", variant, None, seed=5)
    history = np.random.default_rng(windows).normal(
        size=(windows, encoder.markers, encoder.channels, encoder.history_len))
    want = whole_batch(encoder, history, monkeypatch)
    assert np.array_equal(encoder(history), want)
    assert np.array_equal(recorded_value(encoder, history), want)
    check_encoder_against_chain(encoder, history)


# --- lstm_sequence, the oracle, against its elementary chain ------------------------


def lstm_inputs(rng, frames, batch=3, d=4, n=3):
    k = 1.0 / np.sqrt(n)
    return [rng.normal(size=(frames, batch, d)), rng.normal(size=(batch, n)),
            rng.normal(size=(batch, n)),
            rng.uniform(-k, k, size=(d, 4 * n)),
            rng.uniform(-k, k, size=(n, 4 * n)), rng.normal(size=4 * n)]


def lstm_frames(x, h, c, w_ih, w_hh, bias):
    """The oracle lstm_sequence on the time-major rows of x (T, B, D), with
    the hidden outputs put back as (T, B, H), the chain's layout."""
    t, b, d = nc._data(x).shape
    hs, c_last = lstm_sequence(nc.reshape(x, (t * b, d)), h, c, w_ih, w_hh, bias)
    return nc.reshape(hs, (t, b, -1)), c_last


@pytest.mark.parametrize("frames", [1, 3, 8])
def test_lstm_sequence_matches_chain(frames):
    rng = np.random.default_rng(21 + frames)
    check_against_chain(lstm_frames, lstm_sequence_chain,
                        lstm_inputs(rng, frames))


@pytest.mark.parametrize("frames", [1, 3, 8])
def test_lstm_sequence_grad_check(frames):
    inputs = lstm_inputs(np.random.default_rng(22 + frames), frames, 2, 3, 2)
    grad_check_each(lstm_frames, inputs)


def test_lstm_sequence_var_outputs_share_one_node():
    rng = np.random.default_rng(23)
    x, h, c, w_ih, w_hh, bias = lstm_inputs(rng, 4)
    hs, c_last = lstm_sequence(nc.Var(x.reshape(12, 4)), h, c, w_ih, w_hh, bias)
    assert hs.shape == (12, 3) and c_last.shape == (3, 3)
    assert hs._parents[0] is c_last._parents[0]
    assert hs._parents[0].shape == (15, 3)


def test_lstm_sequence_rejects_partial_frames():
    rng = np.random.default_rng(24)
    x, h, c, w_ih, w_hh, bias = lstm_inputs(rng, 2)
    with pytest.raises(ValueError, match="whole frames"):
        lstm_sequence(x.reshape(6, 4)[:5], h, c, w_ih, w_hh, bias)


# --- lstm_stack against a chain of one-layer lstm_sequence nodes ------------------


def stack_inputs(rng, layers, frames, batch, d=5, n=4):
    """x (T*B, D) and, per layer, an (h0, c0) and a (w_ih, w_hh, bias)."""
    k = 1.0 / np.sqrt(n)
    x = rng.normal(size=(frames * batch, d))
    state = [(rng.normal(size=(batch, n)), rng.normal(size=(batch, n)))
             for _ in range(layers)]
    weights = [(rng.uniform(-k, k, size=(d if j == 0 else n, 4 * n)),
                rng.uniform(-k, k, size=(n, 4 * n)), rng.normal(size=4 * n))
               for j in range(layers)]
    return x, state, weights


def stack_flat(x, state, weights):
    """x, then every layer's h0 and c0, then every layer's weights."""
    return [x] + [v for pair in state for v in pair] + [w for layer in weights for w in layer]


def stack_unflat(flat, layers):
    """`stack_flat`'s inverse: (x, state, weights) for `layers` layers."""
    return (flat[0], [tuple(flat[1 + 2 * j:3 + 2 * j]) for j in range(layers)],
            [tuple(flat[1 + 2 * layers + 3 * j:4 + 2 * layers + 3 * j]) for j in range(layers)])


def stack_outputs(op, x, state, weights):
    """op's top rows and then each layer's final h and c, as one list."""
    hs, new_state = op(x, state, weights)
    return [hs] + [v for pair in new_state for v in pair]


def stack_value_and_grads(op, x, state, weights, read_states):
    """Every output, and the gradient of x and of every layer's h0, c0,
    w_ih, w_hh and bias under a loss that reads the top rows and, if
    `read_states`, every final (h, c) too: training reads only the top
    rows, so its final-state slices get no gradient."""
    leaves = [nc.Var(np.array(a)) for a in stack_flat(x, state, weights)]
    outputs = stack_outputs(op, *stack_unflat(leaves, len(weights)))
    read = outputs if read_states else outputs[:1]
    rng = np.random.default_rng(0)
    loss = weighted_tanh_sum(read, [rng.normal(size=o.shape) for o in read])
    return [o.data for o in outputs], nc.grad(loss, leaves)


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("frames", [1, 8])
@pytest.mark.parametrize("batch", [1, 8])
def test_lstm_stack_matches_sequence_chain_bit_for_bit(layers, frames, batch):
    inputs = stack_inputs(np.random.default_rng(100 * layers + 10 * frames + batch),
                          layers, frames, batch)
    got = stack_outputs(nc.lstm_stack, *inputs)
    want = stack_outputs(lstm_stack_chain, *inputs)
    assert len(got) == len(want) == 1 + 2 * layers
    for g, w in zip(got, want):
        assert isinstance(g, np.ndarray)
        assert np.array_equal(g, w)
    for read_states in (True, False):
        got_values, got_grads = stack_value_and_grads(nc.lstm_stack, *inputs, read_states)
        want_values, want_grads = stack_value_and_grads(lstm_stack_chain, *inputs,
                                                        read_states)
        for g, w in zip(got_values, want_values):
            assert np.array_equal(g, w)
        assert len(got_grads) == len(want_grads) == 1 + 5 * layers
        for g, w in zip(got_grads, want_grads):
            assert np.any(g)
            assert g.tobytes() == w.tobytes()  # the signs of zeros too


@pytest.mark.parametrize("frames", [1, 3])
def test_lstm_stack_grad_check(frames):
    inputs = stack_inputs(np.random.default_rng(32 + frames), 2, frames, 2, d=3, n=2)
    grad_check_each(lambda *flat: stack_outputs(nc.lstm_stack, *stack_unflat(flat, 2)),
                    stack_flat(*inputs))


def test_lstm_stack_var_outputs_share_one_node():
    x, state, weights = stack_inputs(np.random.default_rng(33), 2, 4, 3)
    hs, new_state = nc.lstm_stack(nc.Var(x), state, weights)
    assert hs.shape == (12, 4)
    node = hs._parents[0]
    assert node.shape == (12 + 2 * 2 * 3, 4)
    assert node._bw.__qualname__.split(".")[0] == "lstm_stack"
    for h, c in new_state:
        assert h.shape == c.shape == (3, 4)
        assert h._parents[0] is node and c._parents[0] is node


def test_lstm_stack_rejects_partial_frames():
    x, state, weights = stack_inputs(np.random.default_rng(34), 2, 2, 3)
    with pytest.raises(ValueError, match="whole frames"):
        nc.lstm_stack(x[:5], state, weights)


@pytest.mark.parametrize("given", [1, 3])
def test_lstm_stack_rejects_a_state_per_layer_mismatch(given):
    x, state, weights = stack_inputs(np.random.default_rng(35), 3, 2, 3)
    with pytest.raises(ValueError, match=f"{given} LSTM states for 2 layers"):
        nc.lstm_stack(x, state[:given], weights[:2])


# --- the flow-step ops ------------------------------------------------------------

FLOW_STEP_OPS = {"actnorm": (nc.actnorm, actnorm_chain),
                 "affine_coupling": (nc.affine_coupling, affine_coupling_chain)}


def flow_step_inputs(op, channels, rng, rows=5, markers=4):
    """(x, scale, bias) for actnorm, with scales of both signs, or
    (z, s, offset) for affine_coupling, with s positive on the last
    C - (C + 1) // 2 channels, as a flow step splits them.  The values
    keep `weighted_tanh_sum`'s tanh out of saturation, where central
    differences cannot resolve a relative error."""
    x = rng.normal(0.0, 0.5, size=(rows, markers, channels))
    if op == "actnorm":
        shape = (markers, channels)
        scale = rng.uniform(0.5, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        return [x, scale, rng.normal(0.0, 0.5, size=shape)]
    shape = (rows, markers, channels - (channels + 1) // 2)
    return [x, rng.uniform(0.5, 1.5, size=shape), rng.normal(0.0, 0.5, size=shape)]


@pytest.mark.parametrize("x_var", [False, True], ids=["x_array", "x_var"])
@pytest.mark.parametrize("channels", [3, 4])
@pytest.mark.parametrize("op", sorted(FLOW_STEP_OPS))
def test_flow_step_op_matches_chain_bit_for_bit(op, channels, x_var):
    """Output, logdet and every operand gradient equal the old chain's,
    with x an ndarray (the first flow step's input) or a Var."""
    fused, chain = FLOW_STEP_OPS[op]
    inputs = flow_step_inputs(op, channels, np.random.default_rng(channels))
    for got, want in zip(fused(*inputs), chain(*inputs)):
        assert not isinstance(got, nc.Var)
        assert np.array_equal(got, want)
    weights = [np.random.default_rng(0).normal(size=np.shape(o)) for o in fused(*inputs)]
    runs = []
    for fn in (fused, chain):
        leaves = [nc.Var(a.copy()) for a in inputs[0 if x_var else 1:]]
        outputs = fn(*([] if x_var else inputs[:1]) + leaves)
        loss = weighted_tanh_sum(outputs, weights)
        runs.append(([o.data for o in outputs] + [loss.data], nc.grad(loss, leaves)))
    (values, grads), (want_values, want_grads) = runs
    for got, want in zip(values + grads, want_values + want_grads):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("channels", [3, 4])
@pytest.mark.parametrize("op", sorted(FLOW_STEP_OPS))
def test_flow_step_op_grad_check(op, channels):
    grad_check_each(FLOW_STEP_OPS[op][0],
                    flow_step_inputs(op, channels, np.random.default_rng(30 + channels)))


@pytest.mark.parametrize("op", sorted(FLOW_STEP_OPS))
def test_flow_step_op_outputs_are_two_nodes(op):
    """The output's node has every operand as a parent, the logdet's only
    the scale; the bench's census reads each node's name."""
    leaves = [nc.Var(a) for a in flow_step_inputs(op, 3, np.random.default_rng(40))]
    out, logdet = FLOW_STEP_OPS[op][0](*leaves)
    assert out._parents == tuple(leaves) and logdet._parents == (leaves[1],)
    assert out._bw.__qualname__.split(".")[0] == op
    assert logdet._bw.__qualname__.split(".")[0] == op + "_logdet"


# --- the coupling head ------------------------------------------------------------

HEAD_SHAPES = [(21, 1), (3, 2)]


def head_fused(shape):
    return lambda h, w, b: nc.coupling_head(h, w, b, shape, cond.SCALE_SHIFT, cond.SCALE_FLOOR)


def head_chain(shape):
    return lambda h, w, b: coupling_head_chain(h, w, b, shape, cond.SCALE_SHIFT, cond.SCALE_FLOOR)


def head_inputs(shape, rng, rows=6, hidden=4):
    """(h, weight, bias) of a conditioner's output layer; raw values of
    a few units, so the scales spread over the sigmoid's bend."""
    width = 2 * int(np.prod(shape))
    return [rng.normal(0.0, 1.0, size=(rows, hidden)),
            rng.normal(0.0, 0.7, size=(hidden, width)), rng.normal(0.0, 0.7, size=width)]


@pytest.mark.parametrize("h_var", [False, True], ids=["h_array", "h_var"])
@pytest.mark.parametrize("shape", HEAD_SHAPES)
def test_coupling_head_matches_chain_bit_for_bit(shape, h_var):
    """s, offset and every operand gradient equal the old chain's (matmul,
    add, reshape, two slices, add, sigmoid, add), with the hidden rows an
    ndarray or a Var."""
    fused, chain = head_fused(shape), head_chain(shape)
    inputs = head_inputs(shape, np.random.default_rng(50 + shape[0]))
    for got, want in zip(fused(*inputs), chain(*inputs)):
        assert isinstance(got, np.ndarray) and got.shape == (6,) + shape
        assert np.array_equal(got, want)
    weights = [np.random.default_rng(0).normal(size=(6,) + shape) for _ in range(2)]
    runs = []
    for fn in (fused, chain):
        leaves = [nc.Var(a.copy()) for a in inputs[0 if h_var else 1:]]
        outputs = fn(*([] if h_var else inputs[:1]) + leaves)
        loss = weighted_tanh_sum(outputs, weights)
        runs.append(([o.data for o in outputs] + [loss.data], nc.grad(loss, leaves)))
    (values, grads), (want_values, want_grads) = runs
    assert len(grads) == (3 if h_var else 2)
    for got, want in zip(values + grads, want_values + want_grads):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", HEAD_SHAPES)
def test_coupling_head_grad_check(shape):
    grad_check_each(head_fused(shape), head_inputs(shape, np.random.default_rng(60 + shape[0]),
                                                   rows=3, hidden=2))


def test_coupling_head_outputs_are_two_slices_of_one_node():
    """s and offset are the two halves of one "coupling_head" node, whose
    parents are the Var operands; the bench's census reads its name."""
    h, w, b = head_inputs((3, 2), np.random.default_rng(70))
    leaves = [nc.Var(w), nc.Var(b)]
    s, offset = head_fused((3, 2))(h, *leaves)
    node = s._parents[0]
    assert s._parents == offset._parents == (node,)
    assert node._parents == tuple(leaves) and node.shape == (6, 2, 3, 2)
    assert node._bw.__qualname__.split(".")[0] == "coupling_head"
    assert np.array_equal(node.data[:, 0], s.data) and np.array_equal(node.data[:, 1], offset.data)


# --- tape size ------------------------------------------------------------------


def tape_ops(loss):
    """Vars reachable from `loss` by the op that made them ("leaf" for
    parameters and other leaves), read from each backward's name."""
    ops = collections.Counter()
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops[node._bw.__qualname__.split(".")[0] if node._bw else "leaf"] += 1
            stack.extend(node._parents)
    return ops


def build_desk_segment(ablation, steps=0):
    """A desk model of `ablation`, trained `steps` Adam steps past its
    init, and one batch 8 x 8 training segment."""
    spec = sk.default_skeleton()
    windows = training.synthetic_corpus(specs=("line:speed=70",), steps=12,
                                        skeleton_spec=spec)
    model = flow.FlowModel.create(flow.desk_config(ablation=ablation), spec, seed=0)
    config = training.TrainConfig(batch_size=8, nll_frames=8, init_batch=16)
    training.initialize_from_corpus(model, windows, config)
    if steps:
        training.train(model, windows, windows[:1],
                       dataclasses.replace(config, steps=steps))
    rng = np.random.default_rng(0)
    picks = training._random_picks(windows, rng, 8, model.config.history, 8)
    pos, ctl = training._stack_crops(windows, picks, model.config.history, 8)
    return model, pos, ctl


@pytest.fixture(scope="module")
def desk_segment():
    """A desk stmg model and one batch 8 x 8 training segment."""
    return build_desk_segment("stmg")


@pytest.fixture(scope="module", params=["stmg", "smg"])
def graph_desk_segment(request):
    """`desk_segment` for each ablation with a graph history encoder, one
    step past init: at init the coupling conditioners' zeroed output
    layers make every encoder gradient exactly 0."""
    return build_desk_segment(request.param, steps=1)


def desk_step(model, pos, ctl):
    """The segment loss and every parameter gradient."""
    lifted = nc.lift(model)
    try:
        loss = training.segment_nll(model, pos, ctl, 8)
        return loss, nc.grad(loss, list(lifted.values()))
    finally:
        nc.restore(model)


def test_desk_training_step_tape_census(desk_segment):
    model, pos, ctl = desk_segment
    nc.lift(model)
    try:
        loss = training.segment_nll(model, pos, ctl, 8)
    finally:
        nc.restore(model)
    ops = tape_ops(loss)
    assert sum(ops.values()) <= 215  # 90 leaves and 125 op nodes
    assert ops["graph_temporal_encoder"] == 1
    assert ops["lstm_stack"] == 6 and ops["lstm_sequence"] == 0  # one per conditioner
    assert ops["graph_conv_relu"] == 6  # one per coupling conditioner
    assert ops["actnorm"] == ops["affine_coupling"] == 6  # one per flow step
    assert ops["coupling_head"] == 6  # one per coupling conditioner
    assert ops["relu"] == 0 and ops["transpose"] == 0
    assert ops["absolute"] == ops["log"] == ops["neg"] == ops["sigmoid"] == 0


def test_desk_mg_training_step_op_nodes():
    """The flat-history ablation has no encoder or conditioner graph
    convs: 7 op nodes fewer than `stmg`'s 125."""
    model, pos, ctl = build_desk_segment("mg")
    nc.lift(model)
    try:
        loss = training.segment_nll(model, pos, ctl, 8)
    finally:
        nc.restore(model)
    ops = tape_ops(loss)
    assert sum(ops.values()) - ops["leaf"] <= 118
    assert ops["coupling_head"] == 6 and ops["graph_conv_relu"] == 0
    assert ops["neg"] == ops["sigmoid"] == 0


def test_desk_training_step_memory(desk_segment):
    """tracemalloc's peak over one desk segment_nll + grad.  It read 38.5 MB
    when the encoder node kept every block's activations for all 64
    windows, 14.2 MB with chunks of 8 windows fully recomputed in the
    backward, and 15.1 MB now that the node keeps each chunk's second
    block input (1.3 MB in all) and last relu mask (0.3 MB as bools) and
    the backward recomputes only the graph convs."""
    desk_step(*desk_segment)
    tracemalloc.start()
    try:
        desk_step(*desk_segment)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20_000_000


def test_first_accumulation_copy_is_bit_identical(graph_desk_segment, monkeypatch):
    """Copying the first gradient into a node, instead of adding it to
    zeros, leaves a desk step's loss and gradients unchanged, the nonzero
    encoder gradients of a model past its init included."""
    names = [name for name, _ in graph_desk_segment[0].named_parameters()]
    loss, grads = desk_step(*graph_desk_segment)
    monkeypatch.setattr(nc.Var, "_accum", accum_zeros_then_add)
    want_loss, want_grads = desk_step(*graph_desk_segment)
    assert float(loss.data) == float(want_loss.data)
    assert len(grads) == len(want_grads) == len(names)
    encoder = [g for name, g in zip(names, grads) if name.startswith("encoder.")]
    assert len(encoder) in (8, 12) and all(np.any(g) for g in encoder)
    for got, want in zip(grads, want_grads):
        assert np.array_equal(got, want)


def test_encoder_backward_reruns_no_block_forward(graph_desk_segment, monkeypatch):
    """The forward runs each of a desk segment's 8 encoder chunks through
    `_encoder_chunk` once; the backward recomputes only the graph convs
    from the kept block inputs and never runs a chunk forward again."""
    model, pos, ctl = graph_desk_segment
    calls = []
    chunk = nc._encoder_chunk

    def counted(*args):
        calls.append(args[0].shape[0])
        return chunk(*args)

    monkeypatch.setattr(nc, "_encoder_chunk", counted)
    lifted = nc.lift(model)
    try:
        loss = training.segment_nll(model, pos, ctl, 8)
        forward = list(calls)
        nc.grad(loss, list(lifted.values()))
    finally:
        nc.restore(model)
    assert forward == [nc.ENCODER_CHUNK_WINDOWS] * 8
    assert calls == forward


def test_desk_tape_replay_identical(graph_desk_segment):
    """A second backward over one desk tape, whose encoder node holds the
    kept block inputs and relu mask, gives the first pass's gradients bit
    for bit."""
    model, pos, ctl = graph_desk_segment
    lifted = nc.lift(model)
    try:
        loss = training.segment_nll(model, pos, ctl, 8)
        leaves = list(lifted.values())
        first = [g.copy() for g in nc.grad(loss, leaves)]
        second = nc.grad(loss, leaves)
    finally:
        nc.restore(model)
    assert len(first) == len(second) == len(leaves)
    encoder = [g for name, g in zip(lifted, first) if name.startswith("encoder.")]
    assert len(encoder) in (8, 12) and all(np.any(g) for g in encoder)
    for got, want in zip(second, first):
        assert np.array_equal(got, want)


def desk_adam_run(model, pos, ctl, steps=3):
    """A desk step's loss and every gradient, then the parameters and both
    Adam moments after `steps` clipped Adam steps on the same segment.
    The model's parameters are put back afterwards."""
    params = dict(model.named_parameters())
    start = {k: p.copy() for k, p in params.items()}
    loss, grads = desk_step(model, pos, ctl)
    out = [loss.data.copy()] + [g.copy() for g in grads]
    state = nc.adam_init(params)
    try:
        for _ in range(steps):
            _, grads = desk_step(model, pos, ctl)
            grads = dict(zip(params, grads))
            nc.clip_grad_norm(grads, 5.0)
            nc.adam_step(params, grads, state, step_size=3e-3)
        out += [p.copy() for p in params.values()]
        out += list(state.m.values()) + list(state.v.values())
    finally:
        for k, p in params.items():
            p[...] = start[k]
    return out


def test_same_bytes_at_any_worker_count(graph_desk_segment, set_workers):
    """One worker, two (the encoder's 8 chunks in halves), and three (an
    uneven 3/2/3 split): the loss, every gradient, and the parameters and
    Adam moments after 3 steps are equal bit for bit."""
    names = [name for name, _ in graph_desk_segment[0].named_parameters()]
    runs = []
    for workers in (1, 2, 3):
        set_workers(workers)
        runs.append(desk_adam_run(*graph_desk_segment))
    encoder = [g for name, g in zip(names, runs[0][1:]) if name.startswith("encoder.")]
    assert len(encoder) in (8, 12) and all(np.any(g) for g in encoder)
    assert len(runs[0]) == 1 + 4 * len(names)
    for run in runs[1:]:
        assert len(run) == len(runs[0])
        assert all(np.array_equal(got, want) for got, want in zip(run, runs[0]))


def test_pool_stress_more_workers_than_cores(graph_desk_segment, set_workers):
    """Eight workers, one encoder chunk each, with the interpreter
    switching threads every microsecond: a desk step's gradients still
    equal a one-worker run's bit for bit."""
    set_workers(1)
    want = desk_step(*graph_desk_segment)[1]
    set_workers(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = desk_step(*graph_desk_segment)[1]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))

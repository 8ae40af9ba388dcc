"""The fused numcore ops against the op-by-op chains they replaced, against
finite differences, and by the size of the tape they build."""

import numpy as np
import pytest

from skelflow import conditioning as cond
from skelflow import flow
from skelflow import numcore as nc
from skelflow import skeleton as sk
from skelflow import training

from oracles import graph_conv_chain, lstm_sequence_chain, temporal_conv_chain

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


# --- mix_project as the spatial graph conv -------------------------------------


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
    return {d: sk.partition(spec, d).matrices for d in (3, 5)}


def spatial_fused(matrices):
    return lambda x, w, b: (nc.mix_project(x, matrices, w, b),)


def spatial_chain(matrices):
    return lambda x, w, b: (graph_conv_chain(matrices, x, w, b),)


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("lead", [(2,), (2, 3)])
def test_graph_conv_matches_chain(partitions, d, lead):
    rng = np.random.default_rng(d)
    mats = partitions[d]
    inputs = [rng.normal(size=lead + (5, 3)), rng.normal(size=(d, 3, 4)),
              rng.normal(size=4)]
    check_against_chain(spatial_fused(mats), spatial_chain(mats), inputs)


@pytest.mark.parametrize("d", [3, 5])
def test_graph_conv_grad_check(partitions, d):
    rng = np.random.default_rng(10 + d)
    inputs = [rng.normal(size=(2, 5, 2)), rng.normal(size=(d, 2, 3)),
              rng.normal(size=3)]
    grad_check_each(spatial_fused(partitions[d]), inputs)


# --- temporal_conv ------------------------------------------------------------------

# (kernel, frames): kernels 1, 5 and 9, and frames equal to the padding
TEMPORAL_CASES = [(1, 4), (5, 6), (9, 10), (5, 2), (9, 4)]


def temporal_layer(x, kernel, bias):
    layer = cond.TemporalConv(1, 1, nc._data(kernel).shape[0],
                              np.random.default_rng(0))
    layer.kernel, layer.bias = kernel, bias
    return (layer(x),)


def temporal_op(x, kernel, bias):
    """nc.temporal_conv called directly on the time-major transpose."""
    shifts = cond.reflect_shifts(nc._data(x).shape[1], nc._data(kernel).shape[0])
    y = nc.temporal_conv(nc.transpose(x, (0, 2, 1, 3)), shifts, kernel, bias)
    return (nc.transpose(y, (0, 2, 1, 3)),)


def temporal_chain(x, kernel, bias):
    return (temporal_conv_chain(x, kernel, bias),)


def temporal_inputs(k, t):
    rng = np.random.default_rng(k * 100 + t)
    return [rng.normal(size=(2, t, 3, 2)), rng.normal(size=(k, 2, 3)),
            rng.normal(size=3)]


@pytest.mark.parametrize("k, t", TEMPORAL_CASES)
def test_temporal_conv_matches_chain(k, t):
    check_against_chain(temporal_layer, temporal_chain, temporal_inputs(k, t))


@pytest.mark.parametrize("k, t", TEMPORAL_CASES)
def test_temporal_conv_op_matches_chain(k, t):
    check_against_chain(temporal_op, temporal_chain, temporal_inputs(k, t))


@pytest.mark.parametrize("k, t", TEMPORAL_CASES)
def test_temporal_conv_grad_check(k, t):
    rng = np.random.default_rng(k * 10 + t)
    inputs = [rng.normal(size=(1, t, 2, 2)), rng.normal(size=(k, 2, 2)),
              rng.normal(size=2)]
    grad_check_each(temporal_layer, inputs)


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


def test_temporal_conv_layer_caches_operator_by_value():
    rng = np.random.default_rng(5)
    layer = cond.TemporalConv(3, 4, 9, rng)
    x = rng.normal(size=(2, 6, 5, 3))
    assert_close(layer(x), temporal_conv_chain(x, layer.kernel, layer.bias))
    operator = layer._operator
    layer(x)
    assert layer._operator is operator
    # a new array with the same values keeps the operator
    layer.kernel = layer.kernel.copy()
    layer(x)
    assert layer._operator is operator
    # a lifted kernel builds its operator per call and leaves the cache alone
    kernel = layer.kernel
    layer.kernel = nc.Var(kernel)
    assert_close(layer(x), temporal_conv_chain(x, kernel, layer.bias))
    assert layer._operator is operator


def test_temporal_conv_layer_follows_in_place_kernel_edit():
    rng = np.random.default_rng(6)
    layer = cond.TemporalConv(3, 4, 5, rng)
    x = rng.normal(size=(2, 6, 5, 3))
    before = layer(x)
    layer.kernel[2, 1, 0] += 0.5
    layer.kernel *= 1.5
    after = layer(x)
    assert not np.allclose(after, before)
    assert_close(after, temporal_conv_chain(x, layer.kernel, layer.bias))


def test_temporal_conv_layer_at_two_history_lengths():
    rng = np.random.default_rng(7)
    layer = cond.TemporalConv(3, 4, 5, rng)
    for t in (6, 4, 6):
        x = rng.normal(size=(2, t, 5, 3))
        assert_close(layer(x), temporal_conv_chain(x, layer.kernel, layer.bias))
    with pytest.raises(ValueError, match="too short"):
        layer(rng.normal(size=(2, 1, 5, 3)))
    x = rng.normal(size=(2, 6, 5, 3))
    assert_close(layer(x), temporal_conv_chain(x, layer.kernel, layer.bias))


# --- lstm_sequence ----------------------------------------------------------------


def lstm_inputs(rng, frames, batch=3, d=4, n=3):
    k = 1.0 / np.sqrt(n)
    return [rng.normal(size=(frames, batch, d)), rng.normal(size=(batch, n)),
            rng.normal(size=(batch, n)),
            rng.uniform(-k, k, size=(d, 4 * n)),
            rng.uniform(-k, k, size=(n, 4 * n)), rng.normal(size=4 * n)]


@pytest.mark.parametrize("frames", [1, 3, 8])
def test_lstm_sequence_matches_chain(frames):
    rng = np.random.default_rng(21 + frames)
    check_against_chain(nc.lstm_sequence, lstm_sequence_chain,
                        lstm_inputs(rng, frames))


@pytest.mark.parametrize("frames", [1, 3, 8])
def test_lstm_sequence_grad_check(frames):
    inputs = lstm_inputs(np.random.default_rng(22 + frames), frames, 2, 3, 2)
    grad_check_each(nc.lstm_sequence, inputs)


def test_lstm_sequence_var_outputs_share_one_node():
    rng = np.random.default_rng(23)
    x, h, c, w_ih, w_hh, bias = lstm_inputs(rng, 4)
    hs, c_last = nc.lstm_sequence(nc.Var(x), h, c, w_ih, w_hh, bias)
    assert hs.shape == (4, 3, 3) and c_last.shape == (3, 3)
    assert hs._parents[0] is c_last._parents[0]
    assert hs._parents[0].shape == (5, 3, 3)


# --- tape size ------------------------------------------------------------------


def tape_nodes(loss):
    """Number of Vars reachable from `loss`, leaves included."""
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_desk_training_step_tape_census():
    spec = sk.default_skeleton()
    windows = training.synthetic_corpus(specs=("line:speed=70",), steps=12,
                                        skeleton_spec=spec)
    model = flow.FlowModel.create(flow.desk_config(), spec, seed=0)
    config = training.TrainConfig(batch_size=8, nll_frames=8, init_batch=16)
    training.initialize_from_corpus(model, windows, config)
    rng = np.random.default_rng(0)
    picks = training._random_picks(windows, rng, 8, model.config.history, 8)
    pos, ctl = training._stack_crops(windows, picks, model.config.history, 8)
    nc.lift(model)
    try:
        loss = training.segment_nll(model, pos, ctl, 8)
    finally:
        nc.restore(model)
    assert tape_nodes(loss) <= 360

"""Conditioning networks for the flow: spatial graph convolutions over the
skeleton, temporal convolutions over the history window, and the recurrent
per-step conditioner that maps (current pose half, pooled history, controls)
to the coupling scale/offset.

Array layouts:
  history features           (B, M, C, T)
  encoder internal           (B, M, T, channels), marker-major
  per-frame pose slices      (B, M, channels)

All layers run on plain ndarrays or on numcore Vars; parameters are float64.
"""

from __future__ import annotations

import numpy as np

from . import numcore as nc

SCALE_SHIFT = 2.0
SCALE_FLOOR = 1e-3

ABLATIONS = ("stmg", "smg", "mg")


def bounded_scale(raw):
    """Map raw conditioner output to a positive coupling scale.

    sigmoid(raw + 2) + 1e-3: zero raw gives ~0.8818, and the scale stays in
    (1e-3, 1 + 1e-3) so the inverse pass never divides by ~0.
    """
    return nc.sigmoid(raw + SCALE_SHIFT) + SCALE_FLOOR


def identity_scale_raw():
    """Raw value at which bounded_scale returns exactly 1."""
    return float(np.log(999.0) - SCALE_SHIFT)


class Linear(nc.Module):
    param_attrs = ("weight", "bias")

    def __init__(self, in_dim, out_dim, rng, zero_init=False):
        if zero_init:
            self.weight = np.zeros((in_dim, out_dim))
            self.bias = np.zeros(out_dim)
        else:
            k = 1.0 / np.sqrt(in_dim)
            self.weight = rng.uniform(-k, k, size=(in_dim, out_dim))
            self.bias = np.zeros(out_dim)

    def __call__(self, x):
        return nc.matmul(x, self.weight) + self.bias


class SpatialGraphConv(nc.Module):
    """y_i = relu(sum_k A_k[i] x W_k + bias), with A_k the partition
    matrices: the graph conv and its relu, as every caller uses them.

    The conv mixes with the adjacency's own `stacked` array, which every
    conv at that kernel scale shares.
    """

    param_attrs = ("weight", "bias")

    def __init__(self, adjacency, in_channels, out_channels, rng):
        self.adjacency = adjacency  # PartitionedAdjacency, frozen
        d = adjacency.kernel_scale
        scale = 1.0 / np.sqrt(in_channels * d)
        self.weight = rng.normal(0.0, scale, size=(d, in_channels, out_channels))
        self.bias = np.zeros(out_channels)

    def __call__(self, x):
        # x: (..., M, in_channels)
        return nc.graph_conv_relu(x, self.adjacency.stacked, self.weight, self.bias)


def reflect_shifts(t, kernel_size):
    """(kernel, T, T) 0/1 matrices; tap j picks, for each output frame, the
    input frame at offset j - pad under edge-reflecting padding.

    Row t of shift j selects frame t + j - pad, reflected at the edges
    (frame -1 is frame 0, frame T is frame T - 1), so summing
    shifts[j] @ x @ kernel[j] over taps is the symmetric-padded
    convolution.  Requires T >= pad.
    """
    pad = (kernel_size - 1) // 2
    if t < pad:
        raise ValueError(f"history of {t} frames too short for kernel {kernel_size}")
    shifts = np.zeros((kernel_size, t, t))
    for tap in range(kernel_size):
        src = np.arange(t) + tap - pad
        src = np.where(src < 0, -src - 1, src)
        src = np.where(src >= t, 2 * t - 1 - src, src)
        shifts[tap, np.arange(t), src] = 1.0
    return shifts


class TemporalConv(nc.Module):
    """The parameters of a 1-d convolution along the time axis.

    Symmetric (edge-reflecting) padding keeps the output length equal to the
    input length.  Requires T >= (kernel - 1) // 2.  The padding and taps
    are one fixed stack of shift matrices per history length (see
    `reflect_shifts`), folded into the kernel as one dense operator, which
    `nc.graph_temporal_encoder` applies to the (rows, T*C_in) features.
    `operator` is the only builder of that operator.  While the kernel is
    a plain ndarray (rollout, evaluation) the layer keeps the operator it
    built, and rebuilds it when T or the kernel's bytes change.
    """

    param_attrs = ("kernel", "bias")

    def __init__(self, channels_in, channels_out, kernel_size, rng):
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ValueError(f"temporal kernel must be odd, got {kernel_size}")
        self.kernel_size = kernel_size
        scale = 1.0 / np.sqrt(channels_in * kernel_size)
        self.kernel = rng.normal(0.0, scale, size=(kernel_size, channels_in, channels_out))
        self.bias = np.zeros(channels_out)
        self._t = None  # history length the shifts are built for
        self._shifts = None
        self._built_from = None  # bytes of the kernel the operator was built from
        self._operator = None

    def operator(self, t):
        """(shifts, operator) for t frames: the shift matrices and the dense
        operator, cached for an ndarray kernel.  A lifted kernel, whose
        values change every training step, gets a freshly built operator
        and leaves the cache alone."""
        if t != self._t:
            self._shifts = reflect_shifts(t, self.kernel_size)
            self._t, self._built_from = t, None
        if isinstance(self.kernel, nc.Var):
            return self._shifts, nc.shift_operator(self._shifts, self.kernel.data)
        if self.kernel.tobytes() != self._built_from:
            self._operator = nc.shift_operator(self._shifts, self.kernel)
            self._built_from = self.kernel.tobytes()
        return self._shifts, self._operator


class GraphTemporalBlock(nc.Module):
    """Spatial graph conv -> (optional) temporal conv -> residual -> relu.

    The block holds the parameters; `HistoryEncoder` runs it.
    """

    param_attrs = ()
    child_attrs = ("sgcn", "tcn", "res")

    def __init__(self, adjacency, channels_in, channels_out, temporal_kernel, rng, use_temporal=True):
        self.sgcn = SpatialGraphConv(adjacency, channels_in, channels_out, rng)
        self.tcn = TemporalConv(channels_out, channels_out, temporal_kernel, rng) if use_temporal else None
        self.res = Linear(channels_in, channels_out, rng) if channels_in != channels_out else None

    def operands(self, t):
        """The block as `nc.graph_temporal_encoder` takes it, for t frames."""
        temporal = None
        if self.tcn is not None:
            shifts, operator = self.tcn.operator(t)
            temporal = (shifts, self.tcn.kernel, self.tcn.bias, operator)
        residual = None if self.res is None else (self.res.weight, self.res.bias)
        return ((self.sgcn.adjacency.stacked, self.sgcn.weight, self.sgcn.bias),
                temporal, residual)


class HistoryEncoder(nc.Module):
    """Pools the pose history into a fixed-width conditioning vector p_t.

    Variants: "stmg" runs graph + temporal convolutions, "smg" graph only,
    "mg" is a parameter-free flatten of the raw history.  The graph
    variants run all their blocks as one `nc.graph_temporal_encoder` node.
    """

    param_attrs = ()
    child_attrs = ("blocks",)

    def __init__(self, variant, adjacency, markers, channels, history_len,
                 block_channels, temporal_kernel, rng):
        if variant not in ABLATIONS:
            raise ValueError(f"unknown ablation variant '{variant}'")
        self.variant = variant
        self.markers = markers
        self.channels = channels
        self.history_len = history_len
        if variant == "mg":
            self.blocks = None
            self.width = markers * channels * history_len
        else:
            use_t = variant == "stmg"
            blocks = []
            cin = channels
            for cout in block_channels:
                blocks.append(GraphTemporalBlock(adjacency, cin, cout, temporal_kernel, rng, use_temporal=use_t))
                cin = cout
            self.blocks = blocks
            self.width = block_channels[-1]

    def __call__(self, history):
        # history: (B, M, C, T)
        if self.variant == "mg":
            b = history.shape[0]
            return nc.reshape(history, (b, self.width))
        t = history.shape[-1]
        return nc.graph_temporal_encoder(
            history, [block.operands(t) for block in self.blocks])  # (B, width)


class LSTMLayer(nc.Module):
    param_attrs = ("w_ih", "w_hh", "bias")

    def __init__(self, in_dim, hidden, rng):
        k = 1.0 / np.sqrt(hidden)
        self.w_ih = rng.uniform(-k, k, size=(in_dim, 4 * hidden))
        self.w_hh = rng.uniform(-k, k, size=(hidden, 4 * hidden))
        bias = np.zeros(4 * hidden)
        bias[hidden:2 * hidden] = 1.0  # forget gate starts open
        self.bias = bias

    def __call__(self, x, h, c):
        """Run the layer over the rows of x from state (h, c), each (B, H).

        x is (T*B, D): T consecutive frames of the B sequences, time-major,
        so one frame is (B, D).  Returns the hidden output of every row and
        the cell state after the last frame.
        """
        return nc.lstm_sequence(x, h, c, self.w_ih, self.w_hh, self.bias)


class LSTMStack(nc.Module):
    param_attrs = ()
    child_attrs = ("layers",)

    def __init__(self, in_dim, hidden, num_layers, rng):
        self.hidden = hidden
        layers = []
        d = in_dim
        for _ in range(num_layers):
            layers.append(LSTMLayer(d, hidden, rng))
            d = hidden
        self.layers = layers

    def initial_state(self, batch):
        return [(np.zeros((batch, self.hidden)), np.zeros((batch, self.hidden)))
                for _ in self.layers]

    def __call__(self, x, state):
        """x (T*B, D) holds T frames of the B sequences `state` belongs to,
        time-major (see `LSTMLayer`).  Returns the top layer's output for
        every row and the state after the last frame."""
        new_state = []
        h = x
        for layer, (h_prev, c_prev) in zip(self.layers, state):
            h, c = layer(h, h_prev, c_prev)
            b = c.shape[0]
            new_state.append((h if h.shape[0] == b else h[-b:], c))
        return h, new_state


class CouplingConditioner(nc.Module):
    """Produces the coupling (s, b) for one flow step.

    Input is the untransformed pose half, the pooled history vector and the
    flattened control window; a per-step LSTM carries state across frames.
    The output projection is zero-initialized so training starts near identity.
    """

    param_attrs = ()
    child_attrs = ("sgcn", "lstm", "out")

    def __init__(self, variant, adjacency, markers, in_channels, out_channels,
                 graph_channels, pooled_width, control_width, hidden, num_layers, rng):
        self.variant = variant
        self.markers = markers
        self.out_channels = out_channels
        if variant == "mg":
            self.sgcn = None
            pose_width = markers * in_channels
        else:
            self.sgcn = SpatialGraphConv(adjacency, in_channels, graph_channels, rng)
            pose_width = markers * graph_channels
        self.lstm = LSTMStack(pose_width + pooled_width + control_width, hidden, num_layers, rng)
        self.out = Linear(hidden, 2 * markers * out_channels, rng, zero_init=True)

    def initial_state(self, batch):
        return self.lstm.initial_state(batch)

    def __call__(self, pose_half, pooled, controls_flat, state):
        b = pose_half.shape[0]
        if self.sgcn is None:
            g = nc.reshape(pose_half, (b, -1))
        else:
            g = nc.reshape(self.sgcn(pose_half), (b, -1))
        u = nc.concat([g, pooled, controls_flat], axis=1)
        h, new_state = self.lstm(u, state)
        raw = nc.reshape(self.out(h), (b, 2, self.markers, self.out_channels))
        s = bounded_scale(raw[:, 0])
        offset = raw[:, 1]
        return s, offset, new_state

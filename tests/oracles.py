"""Independent reference implementations used by the test suites.

Everything here is deliberately brute-force and written against the public
array contracts only, so it can disagree with the library if the library is
wrong.
"""

import numpy as np

from skelflow import data, metrics
from skelflow import numcore as nc


def fd_jacobian_logdet(model, frame, history, controls, eps=1e-6):
    """log|det| of the dense numerically-differentiated Jacobian of the full
    frame transform (raw pose -> latent), conditioning held fixed."""
    m, c = frame.shape
    d = m * c
    jac = np.zeros((d, d))
    for i in range(d):
        xp = frame.reshape(-1).copy()
        xp[i] += eps
        zp, _, _ = model.transform_frame(xp.reshape(m, c), history, controls)
        xm = frame.reshape(-1).copy()
        xm[i] -= eps
        zm, _, _ = model.transform_frame(xm.reshape(m, c), history, controls)
        jac[:, i] = (zp - zm).reshape(-1) / (2.0 * eps)
    sign, logdet = np.linalg.slogdet(jac)
    if sign == 0.0:
        raise ValueError("numerical Jacobian is singular")
    return logdet


def brute_force_footsteps(speeds, v_tol, min_frames):
    """Count maximal runs of speed < v_tol lasting >= min_frames, per row,
    by explicit scanning.  speeds: (rows, T).  Returns (count, durations)."""
    speeds = np.atleast_2d(speeds)
    count = 0
    durations = []
    for row in speeds:
        run = 0
        for v in row:
            if v < v_tol:
                run += 1
            else:
                if run >= min_frames:
                    count += 1
                    durations.append(run)
                run = 0
        if run >= min_frames:
            count += 1
            durations.append(run)
    return count, durations


def footstep_counts_per_tolerance(speeds, grid, fps, d):
    """Footstep counts by re-thresholding the trace once per tolerance."""
    return np.array([metrics.count_footsteps(speeds, v, fps, d)[0]
                     for v in grid], dtype=np.int64)


def footstep_sweep_reference(clip, skeleton_spec, grid, d):
    """`metrics.footstep_sweep` built from the per-tolerance count loop."""
    grid = np.asarray(grid, dtype=np.float64)
    speeds = metrics.heel_speeds(clip, skeleton_spec)
    counts = footstep_counts_per_tolerance(speeds, grid, clip.fps, d)
    max_count = int(counts.max())
    hit = int(np.argmax(counts >= np.ceil(0.95 * max_count)))
    _, durations = metrics.count_footsteps(speeds, grid[hit], clip.fps, d)
    return metrics.FootstepReport(
        grid=tuple(float(v) for v in grid),
        counts=tuple(int(c) for c in counts),
        max_count=max_count,
        v_tol_95=float(grid[hit]),
        step_mean=float(np.mean(durations)) if durations else 0.0,
        step_std=float(np.std(durations)) if durations else 0.0,
    )


# --- skeleton graphs ---------------------------------------------------------


def hop_distances(spec):
    """All-pairs shortest hop counts of a skeleton, (M, M) int array, by one
    BFS per source over its edges; -1 where a marker is unreachable."""
    m = spec.marker_count
    adj = [[] for _ in range(m)]
    for i, j in spec.edges:
        adj[i].append(j)
        adj[j].append(i)
    table = np.full((m, m), -1, dtype=np.int64)
    for src in range(m):
        table[src, src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if table[src, v] < 0:
                        table[src, v] = table[src, u] + 1
                        nxt.append(v)
            frontier = nxt
    return table


def partition_from_hop_table(spec, kernel_scale):
    """The (D, M, M) matrices of `skeleton.partition`, every ring read off
    the all-pairs `hop_distances` table."""
    d = kernel_scale
    m = spec.marker_count
    hop = hop_distances(spec)
    to_center = hop[:, spec.center_marker]
    mats = np.zeros((d, m, m), dtype=np.float64)
    for i in range(m):
        mats[0, i, i] = 1.0
        for r in range(1, (d - 1) // 2 + 1):
            ring = np.where(hop[i] == r)[0]
            closer = ring[to_center[ring] < to_center[i]]
            farther = ring[to_center[ring] >= to_center[i]]
            if closer.size:
                mats[2 * r - 1, i, closer] = 1.0 / closer.size
            if farther.size:
                mats[2 * r, i, farther] = 1.0 / farther.size
    return mats


# --- elementary taped ops that only the references use ---------------------
# Each runs on ndarrays, or on Vars as one tape node named after the op
# (`vmean` as two).


def neg(a):
    if not isinstance(a, nc.Var):
        return -nc._data(a)
    return nc._node("neg", -a.data, ((a, lambda g: -g),))


def logistic(x):
    """1 / (1 + exp(-x)) written out, with -x clamped where `exp` would
    overflow: the formula `nc._logistic` computes, so the fused ops match
    the chains below bit for bit."""
    return 1.0 / (1.0 + np.exp(np.minimum(-x, nc._EXP_MAX)))


def sigmoid(a):
    if not isinstance(a, nc.Var):
        return logistic(nc._data(a))
    sd = logistic(a.data)
    return nc._node("sigmoid", sd, ((a, lambda g: g * sd * (1.0 - sd)),))


def div(a, b):
    """a / b with broadcasting."""
    if not nc._any_var(a, b):
        return nc._data(a) / nc._data(b)
    ad, bd = nc._data(a), nc._data(b)
    return nc._node("div", ad / bd, (
        (a, lambda g: nc._unbroadcast(g / bd, ad.shape)),
        (b, lambda g: nc._unbroadcast(-g * ad / (bd * bd), bd.shape))))


def transpose(a, axes):
    if not isinstance(a, nc.Var):
        return nc._data(a).transpose(axes)
    inv = np.argsort(axes)
    return nc._node("transpose", np.transpose(a.data, axes),
                    ((a, lambda g: np.transpose(g, inv)),))


def relu(a):
    if not isinstance(a, nc.Var):
        return np.maximum(nc._data(a), 0.0)
    # np.maximum (not where) so non-finite inputs stay visible in the output
    mask = a.data > 0.0
    return nc._node("relu", np.maximum(a.data, 0.0), ((a, lambda g: g * mask),))


def log(a):
    if not isinstance(a, nc.Var):
        return np.log(nc._data(a))
    return nc._node("log", np.log(a.data), ((a, lambda g: g / a.data),))


def absolute(a):
    if not isinstance(a, nc.Var):
        return np.abs(nc._data(a))
    sgn = np.sign(a.data)
    return nc._node("absolute", np.abs(a.data), ((a, lambda g: g * sgn),))


def vmean(a, axis=None):
    """The mean over `axis` (a tuple, or None for all) as a vsum and a mul."""
    ad = nc._data(a)
    n = ad.size if axis is None else int(np.prod([ad.shape[ax] for ax in axis]))
    return nc.mul(nc.vsum(a, axis=axis), 1.0 / n)


# --- op-by-op layer compositions ------------------------------------------
# Chains of elementary ops computing what the fused conditioner ops
# compute; the references for their values and gradients.  Each runs on
# ndarrays or on Vars.


def graph_conv_chain(matrices, x, weight, bias):
    """sum_k matrices[k] @ x @ weight[k] + bias as d separate chains."""
    out = None
    for k in range(matrices.shape[0]):
        term = nc.matmul(nc.matmul(matrices[k], x), weight[k])
        out = term if out is None else nc.add(out, term)
    return nc.add(out, bias)


def flip(a, axis):
    """np.flip as a taped op: the gradient flips back along the same axis."""
    if not isinstance(a, nc.Var):
        return np.flip(nc._data(a), axis=axis)
    out = nc.Var(np.flip(a.data, axis=axis), (a,))
    out._bw = lambda g: a._accum(np.flip(g, axis=axis))
    return out


def temporal_conv_chain(x, kernel, bias):
    """Edge-reflecting padding by flip and concat, then one sliced matmul
    per tap, along the time axis of (B, T, M, C) features."""
    t = nc._data(x).shape[1]
    k = nc._data(kernel).shape[0]
    pad = (k - 1) // 2
    if pad > 0:
        left = flip(x[:, :pad], axis=1)
        right = flip(x[:, t - pad:], axis=1)
        xp = nc.concat([left, x, right], axis=1)
    else:
        xp = x
    out = None
    for tap in range(k):
        term = nc.matmul(xp[:, tap:tap + t], kernel[tap])
        out = term if out is None else nc.add(out, term)
    return nc.add(out, bias)


def graph_temporal_block_chain(block, x):
    """A `conditioning.GraphTemporalBlock` on (B, T, M, C) features, op by
    op from its parameters: the graph conv chain, relu, temporal conv
    chain, residual add and relu."""
    sgcn = block.sgcn
    h = relu(graph_conv_chain(sgcn.adjacency.matrices, x, sgcn.weight, sgcn.bias))
    if block.tcn is not None:
        h = temporal_conv_chain(h, block.tcn.kernel, block.tcn.bias)
    if block.res is None:
        shortcut = x
    else:
        shortcut = nc.add(nc.matmul(x, block.res.weight), block.res.bias)
    return relu(nc.add(h, shortcut))


def history_encoder_chain(encoder, history):
    """An `stmg` or `smg` `conditioning.HistoryEncoder` on (B, M, C, T)
    histories, block by block on the time-major (B, T, M, C) transpose,
    then a mean over frames and markers."""
    x = transpose(history, (0, 3, 1, 2))
    for block in encoder.blocks:
        x = graph_temporal_block_chain(block, x)
    return vmean(x, axis=(1, 2))


# --- flow-step chains -------------------------------------------------------
# The op-by-op forms of numcore's flow-step ops, as flow steps built them
# before those ops existed.  Each runs on ndarrays or on Vars.


def actnorm_chain(x, scale, bias):
    """(x + bias) * scale as an add and a mul, and the logdet
    sum log|scale| as absolute, log and vsum."""
    return nc.mul(nc.add(x, bias), scale), nc.vsum(log(absolute(scale)))


def affine_coupling_chain(z, s, offset):
    """The coupling as two split getitems, an add and a mul on the coupled
    channels, a concat, and the per-row logdet as log and vsum."""
    c1 = nc._data(z).shape[-1] - nc._data(s).shape[-1]
    out = nc.concat([z[:, :, :c1], nc.mul(nc.add(z[:, :, c1:], offset), s)], axis=2)
    return out, nc.vsum(log(s), axis=(1, 2))


def coupling_head_chain(h, weight, bias, shape, shift, floor):
    """`nc.coupling_head` as conditioners built it before that op: a
    matmul and an add, a reshape to (N, 2) + shape, both slices, and the
    bounded scale as an add, a sigmoid and an add."""
    n = nc._data(h).shape[0]
    raw = nc.reshape(nc.add(nc.matmul(h, weight), bias), (n, 2) + tuple(shape))
    return nc.add(sigmoid(nc.add(raw[:, 0], shift)), floor), raw[:, 1]


def lstm_cell_chain(x, h, c, w_ih, w_hh, bias):
    """One LSTM step as 17 elementary ops; returns (h', c')."""
    gates = nc.add(nc.add(nc.matmul(x, w_ih), nc.matmul(h, w_hh)), bias)
    n = nc._data(h).shape[1]
    i = sigmoid(gates[:, :n])
    f = sigmoid(gates[:, n:2 * n])
    g = nc.tanh(gates[:, 2 * n:3 * n])
    o = sigmoid(gates[:, 3 * n:])
    c_new = nc.add(nc.mul(f, c), nc.mul(i, g))
    h_new = nc.mul(o, nc.tanh(c_new))
    return h_new, c_new


def lstm_sequence_chain(x, h, c, w_ih, w_hh, bias):
    """lstm_cell_chain over the frames of x (T, B, D); returns the stacked
    hidden outputs (T, B, H) and the last cell state."""
    hs = []
    for k in range(nc._data(x).shape[0]):
        h, c = lstm_cell_chain(x[k], h, c, w_ih, w_hh, bias)
        hs.append(nc.reshape(h, (1,) + nc._data(h).shape))
    return nc.concat(hs, axis=0), c


def lstm_sequence(x, h0, c0, w_ih, w_hh, bias):
    """An LSTM layer over T frames of B sequences from state (h0, c0), each
    (B, H).  x is (T*B, D), time-major: frame k is rows k*B to (k + 1)*B.
    Returns (hs, c): the hidden output of every row, (T*B, H), and the
    cell state after the last frame; the final hidden state is hs[-B:].

    Gates are ordered (input, forget, cell, output) along the 4H axis of
    the weights.  Only the recurrence runs frame by frame: the input
    projection x @ w_ih is one GEMM over the T*B rows, and so are the
    weight gradients of the backward, which is backpropagation through
    time.  On ndarrays the outputs are plain arrays, and one frame (as in
    a rollout) returns its hidden state as it is; on Vars they are two
    slices of one ((T + 1)*B, H) tape node.

    The one-layer op `numcore.lstm_stack` replaced, kept as its reference.
    """
    xd, hd, cd = nc._data(x), nc._data(h0), nc._data(c0)
    w_ihd, w_hhd, bd = nc._data(w_ih), nc._data(w_hh), nc._data(bias)
    b, n = hd.shape
    t = xd.shape[0] // b
    if t * b != xd.shape[0]:
        raise ValueError(f"{xd.shape[0]} rows are not whole frames of {b} sequences")
    x_proj = xd @ w_ihd
    recording = nc._any_var(x, h0, c0, w_ih, w_hh, bias)
    # kept per frame for the backward: sigmoid of every gate (the cell
    # gate's is unused), tanh of the cell gate, the cell state before the
    # frame, tanh of the one after
    sig, cell_in, cs, tcs, hs = [], [], [cd], [], []
    h, c = hd, cd
    for k in range(t):
        gates = x_proj[k * b:(k + 1) * b] + h @ w_hhd + bd
        a = nc._logistic(gates)
        g = np.tanh(gates[:, 2 * n:3 * n])
        c = a[:, n:2 * n] * c + a[:, :n] * g
        tc = np.tanh(c)
        h = a[:, 3 * n:] * tc
        hs.append(h)
        if recording:
            sig.append(a)
            cell_in.append(g)
            cs.append(c)
            tcs.append(tc)
    if not recording:
        return (h if t == 1 else np.concatenate(hs)), c
    both = nc.Var(np.concatenate(hs + [c]),
                  tuple(v for v in (x, h0, c0, w_ih, w_hh, bias) if isinstance(v, nc.Var)))

    def bw(grad):
        g_gates = np.empty((t * b, 4 * n))
        g_c = grad[t * b:]  # gradient on the cell state after frame k
        g_h_next = None  # gradient on frame k's hidden state from frame k + 1
        for k in range(t - 1, -1, -1):
            rows = slice(k * b, (k + 1) * b)
            a, g, tc = sig[k], cell_in[k], tcs[k]
            i, f, o = a[:, :n], a[:, n:2 * n], a[:, 3 * n:]
            g_h = grad[rows] if g_h_next is None else grad[rows] + g_h_next
            g_c = g_c + g_h * o * (1.0 - tc * tc)
            gg = g_gates[rows]
            gg[:, :n] = g_c * g * i * (1.0 - i)
            gg[:, n:2 * n] = g_c * cs[k] * f * (1.0 - f)
            gg[:, 2 * n:3 * n] = g_c * i * (1.0 - g * g)
            gg[:, 3 * n:] = g_h * tc * o * (1.0 - o)
            g_c = g_c * f
            g_h_next = gg @ w_hhd.T
        if isinstance(x, nc.Var):
            x._accum(g_gates @ w_ihd.T)
        if isinstance(h0, nc.Var):
            h0._accum(g_h_next)
        if isinstance(c0, nc.Var):
            c0._accum(g_c)
        if isinstance(w_ih, nc.Var):
            w_ih._accum(xd.T @ g_gates)
        if isinstance(w_hh, nc.Var):
            w_hh._accum(np.concatenate([hd] + hs[:-1]).T @ g_gates)
        if isinstance(bias, nc.Var):
            bias._accum(g_gates.sum(axis=0))

    both._bw = bw
    return both[:t * b], both[t * b:]


def lstm_stack_chain(x, state, layers):
    """`numcore.lstm_stack` as one `lstm_sequence` node per layer, the
    hidden rows of each the x of the next, with each layer's final hidden
    state sliced from its rows; returns (hs, new_state)."""
    new_state = []
    h = x
    for (h_prev, c_prev), (w_ih, w_hh, bias) in zip(state, layers):
        h, c = lstm_sequence(h, h_prev, c_prev, w_ih, w_hh, bias)
        b = c.shape[0]
        new_state.append((h if h.shape[0] == b else h[-b:], c))
    return h, new_state


def segment_nll_per_frame(model, positions, controls, n_frames):
    """The segment NLL frame by frame: the whole flow runs once per frame
    on (B, ...) inputs and the LSTM states thread from frame to frame."""
    t_h = model.config.history
    states = None
    total = None
    for k in range(n_frames):
        t = t_h + k
        history = positions[:, :, :, t - t_h:t]
        frame = positions[:, :, :, t]
        window = controls[:, :, t - t_h:t + 1]
        logp, states = model.log_likelihood(frame, history, window,
                                            states=states)
        mean_lp = vmean(logp)
        total = mean_lp if total is None else nc.add(total, mean_lp)
    return neg(div(total, float(n_frames)))


def adam_step_reference(params, grads, state, step_size, beta1=0.9,
                        beta2=0.999, eps=1e-8):
    """One Adam update written out of place, term by term; state's moment
    arrays are replaced, not updated."""
    t = state.step + 1
    b1t = 1.0 - beta1 ** t
    b2t = 1.0 - beta2 ** t
    new_params = {}
    for k, p in params.items():
        g = grads[k]
        state.m[k] = beta1 * state.m[k] + (1.0 - beta1) * g
        state.v[k] = beta2 * state.v[k] + (1.0 - beta2) * (g * g)
        m_hat = state.m[k] / b1t
        v_hat = state.v[k] / b2t
        new_params[k] = p - step_size * m_hat / (np.sqrt(v_hat) + eps)
    state.step = t
    return new_params, state


def accum_zeros_then_add(var, g):
    """`Var._accum` as a fresh zero array plus each gradient, the first
    one included; the reference for the copy on first accumulation."""
    if var.grad is None:
        var.grad = np.zeros(var.data.shape, dtype=np.float64)
    var.grad += g


def inverse_transform_frame_reference(model, z, history, controls, states=None,
                                      history_mask=None):
    """`FlowModel.inverse_transform_frame` op by op through numcore's
    dispatching ops: every flow step's conditioner, coupling inverse,
    channel-mix inverse (a fresh inverse and singularity check per call)
    and actnorm inverse, on z shaped (M, C), (B, M, C) or (T, B, M, C).
    The history encoder is the model's own.  Returns (x, new_states)."""
    shape = nc._data(z).shape
    t, b = ((1, 1) + shape[:-2])[-2:]
    rows = t * b
    hist_std = div(nc.sub(history, model.data_mean[:, :, None]),
                   model.data_std[:, :, None])
    if history_mask is not None:
        hist_std = nc.mul(hist_std, np.asarray(history_mask, dtype=np.float64)[..., None, :])
    pooled = model.encoder(nc.reshape(hist_std, (rows,) + nc._data(hist_std).shape[-3:]))
    ctrl_flat = nc.reshape(controls, (rows, -1))
    if states is None:
        states = model.initial_state(b)
    h = nc.reshape(z, (rows,) + shape[-2:])
    new_states = [None] * len(model.steps)
    for k in range(len(model.steps) - 1, -1, -1):
        step = model.steps[k]
        cond = step.conditioner
        hb1 = h[:, :, :step.c1]
        hb2 = h[:, :, step.c1:]
        if cond.sgcn is None:
            g = nc.reshape(hb1, (rows, -1))
        else:
            sgcn = cond.sgcn
            mixed = nc.graph_conv_relu(hb1, sgcn.adjacency.stacked, sgcn.weight, sgcn.bias)
            g = nc.reshape(mixed, (rows, -1))
        u = nc.concat([g, pooled, ctrl_flat], axis=1)
        u, new_states[k] = lstm_stack_chain(
            u, states[k], [(layer.w_ih, layer.w_hh, layer.bias) for layer in cond.lstm.layers])
        s, offset = coupling_head_chain(u, cond.out.weight, cond.out.bias,
                                        (cond.markers, cond.out_channels), 2.0, 1e-3)
        xb2 = nc.sub(div(hb2, s), offset)
        zz = nc.concat([hb1, xb2], axis=2)
        if nc.logabsdet(step.mix.weight) < np.log(1e-12):
            raise nc.SingularMatrixError("channel mix matrix is near singular")
        y = nc.matmul(zz, np.linalg.inv(step.mix.weight))
        if np.any(step.actnorm.scale == 0.0):
            raise ArithmeticError("actnorm scale has zero entries")
        h = nc.sub(div(y, step.actnorm.scale), step.actnorm.bias)
    x = nc.add(nc.mul(h, model.data_std), model.data_mean)
    return nc.reshape(x, shape[:-2] + nc._data(x).shape[1:]), new_states


# -- the per-frame synthetic walker --------------------------------------------

def _rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_x(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_y(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _segment(yaw, lean, roll, length):
    """A bone vector of exact length: rotations applied to (0, 0, length)."""
    return _rot_z(yaw) @ _rot_x(-lean) @ _rot_y(roll) @ np.array([0.0, 0.0, length])


def _leg_chain(hip, heel, forward):
    """Two-bone knee solve; thigh and shank lengths hold exactly."""
    delta = heel - hip
    dist = float(np.linalg.norm(delta))
    if dist > data._LEG_REACH_LIMIT:
        raise data.PathSpecError(
            f"invalid path parameters: leg span {dist:.1f} cm exceeds "
            f"{data._LEG_REACH_LIMIT:.1f} cm reach")
    axis = delta / dist
    half = 0.5 * dist
    bend = np.sqrt(data._THIGH * data._THIGH - half * half)
    side = forward - np.dot(forward, axis) * axis
    norm = float(np.linalg.norm(side))
    if norm < 1e-9:
        seed = (np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9
                else np.array([0.0, 1.0, 0.0]))
        side = seed - np.dot(seed, axis) * axis
        norm = float(np.linalg.norm(side))
    side = side / norm
    return hip + half * axis + bend * side


def synth_gait_per_frame(path_spec, steps=20, fps=20.0, seed=0, cadence=2.0,
                         noise_std=0.0):
    """`data.synth_gait` as it was first written: one Python pass per frame,
    footfalls in a dict, scalar 3 x 3 rotations and a knee solve per leg per
    frame.  Kept as the reference that the whole-trajectory walker must
    reproduce byte for byte, errors included."""
    params = data.parse_path_spec(path_spec)
    steps = int(steps)
    if steps < 2:
        raise ValueError("need at least 2 footsteps")
    fps = float(fps)
    cadence = float(cadence)
    if cadence <= 0:
        raise ValueError("cadence must be positive")
    if fps < 5.0 * cadence:
        raise ValueError(
            f"fps {fps:g} too low to resolve stances; need fps >= {5.0 * cadence:g}")
    if noise_std < 0:
        raise ValueError("noise_std must be non-negative")
    skeleton_spec = data.default_skeleton()

    speed = params["speed"]
    frames = int(round(fps * (steps - 1 + data._DUTY) / cadence)) + 1
    seconds = np.arange(frames) / fps
    s_body = speed * seconds
    stride = 2.0 * speed / cadence
    s_lo = speed * (-1 + data._DUTY) / cadence - stride - 10.0
    s_hi = float(s_body[-1]) + stride + 10.0
    path = data._Path(params, s_lo, s_hi)

    # Cached footfalls: world xy and frozen foot heading per stance index.
    footfalls = {}
    for n in range(-2, steps + 3):
        s_n = speed * (n + data._DUTY) / cadence
        psi_n = float(path.heading(s_n))
        lateral = data._FOOT_LATERAL if n % 2 == 0 else -data._FOOT_LATERAL
        xy = path.pos(s_n) + lateral * np.array([np.cos(psi_n), np.sin(psi_n)])
        footfalls[n] = (xy, psi_n)

    psi = path.heading(s_body)
    base = path.pos(s_body)
    osc = np.sin(np.pi * cadence * seconds)
    osc2 = np.sin(2.0 * np.pi * cadence * seconds)
    osc2b = np.sin(2.0 * np.pi * cadence * seconds + 1.1)
    surge = np.sin(2.0 * np.pi * cadence * seconds + 0.3)
    left_axis = np.stack([np.cos(psi), np.sin(psi)])
    fwd_axis = np.stack([-np.sin(psi), np.cos(psi)])

    pelvis = np.zeros((3, frames))
    pelvis[0:2] = base + data._SWAY * osc * left_axis + data._SURGE * surge * fwd_axis
    pelvis[2] = data._PELVIS_HEIGHT + data._BOB * osc2b

    yaw_pelvis = psi + 0.06 * osc
    yaw_chest = psi - 0.05 * osc
    lean = 0.05 + 0.02 * osc2
    roll = 0.03 * osc
    arm_left = data._ARM_SWING * np.sin(np.pi * cadence * seconds + np.pi)
    flex_left = 0.55 + 0.15 * np.sin(np.pi * cadence * seconds + np.pi + 0.8)
    flex_right = 0.55 + 0.15 * np.sin(np.pi * cadence * seconds + 0.8)

    positions = np.zeros((21, 3, frames))
    swing_time = (2.0 - data._DUTY) / cadence
    for t in range(frames):
        now = seconds[t]
        rz_pelvis = _rot_z(yaw_pelvis[t])
        positions[0, :, t] = pelvis[:, t]
        positions[1, :, t] = pelvis[:, t] + rz_pelvis @ data._HIP_OFFSET
        positions[5, :, t] = pelvis[:, t] + rz_pelvis @ (data._HIP_OFFSET
                                                          * np.array([-1.0, 1.0, 1.0]))

        m9 = pelvis[:, t] + _segment(yaw_pelvis[t] + 0.3 * (yaw_chest[t] - yaw_pelvis[t]),
                                     lean[t], roll[t], data._LOWER_SPINE)
        m10 = m9 + _segment(yaw_chest[t], lean[t] + 0.02, roll[t], data._UPPER_SPINE)
        m11 = m10 + _segment(yaw_chest[t], 0.02 * osc2[t], 0.0, data._NECK)
        m12 = m11 + _segment(yaw_chest[t], 0.03 + 0.02 * osc2[t], 0.0, data._HEAD)
        positions[9, :, t] = m9
        positions[10, :, t] = m10
        positions[11, :, t] = m11
        positions[12, :, t] = m12

        rz_chest = _rot_z(yaw_chest[t])
        m13 = m10 + rz_chest @ data._SHOULDER_OFFSET
        m14 = m10 + rz_chest @ (data._SHOULDER_OFFSET * np.array([-1.0, 1.0, 1.0]))
        positions[13, :, t] = m13
        positions[14, :, t] = m14
        for shoulder, sign, flex, first in ((m13, 1.0, flex_left[t], True),
                                            (m14, -1.0, flex_right[t], False)):
            alpha = sign * arm_left[t]
            upper = rz_chest @ np.array([0.0, data._UPPER_ARM * np.sin(alpha),
                                         -data._UPPER_ARM * np.cos(alpha)])
            fore_dir = rz_chest @ np.array([0.0, np.sin(alpha + flex),
                                            -np.cos(alpha + flex)])
            elbow = shoulder + upper
            wrist = elbow + data._FOREARM * fore_dir
            hand = wrist + data._HAND * fore_dir
            if first:
                positions[15, :, t] = elbow
                positions[16, :, t] = wrist
                positions[17, :, t] = hand
            else:
                positions[18, :, t] = elbow
                positions[19, :, t] = wrist
                positions[20, :, t] = hand

        forward3 = np.array([fwd_axis[0, t], fwd_axis[1, t], 0.0])
        for foot, (hip_ix, knee_ix, heel_ix, toe_ix) in ((0, (1, 2, 3, 4)),
                                                         (1, (5, 6, 7, 8))):
            n = int(np.floor(cadence * now + 1e-12))
            if n % 2 != foot:
                n -= 1
            lift_time = (n + data._DUTY) / cadence
            if now <= lift_time + 1e-12:
                xy, chi = footfalls[n]
                heel = np.array([xy[0], xy[1], data._HEEL_HEIGHT])
            else:
                u = (now - lift_time) / swing_time
                w = data._smooth5(u)
                xy_a, chi_a = footfalls[n]
                xy_b, chi_b = footfalls[n + 2]
                xy = (1.0 - w) * xy_a + w * xy_b
                chi = (1.0 - w) * chi_a + w * chi_b
                heel = np.array([xy[0], xy[1],
                                 data._HEEL_HEIGHT + data._LIFT * np.sin(np.pi * u) ** 2])
            hip = positions[hip_ix, :, t]
            positions[knee_ix, :, t] = _leg_chain(hip, heel, forward3)
            positions[heel_ix, :, t] = heel
            horiz = np.sqrt(data._FOOT * data._FOOT
                            - data._HEEL_HEIGHT * data._HEEL_HEIGHT)
            toe_dir = np.array([-np.sin(chi), np.cos(chi), 0.0])
            positions[toe_ix, :, t] = heel + horiz * toe_dir \
                - np.array([0.0, 0.0, data._HEEL_HEIGHT])

    if noise_std > 0:
        rng = np.random.default_rng(seed)
        positions = positions + rng.normal(0.0, noise_std, positions.shape)

    controls = data.extract_controls(positions, skeleton_spec)
    clip = data.MotionClip(positions, controls, fps, root_relative=False,
                           source=f"synth:{data.path_spec_string(params)}")
    intervals = tuple(
        (n / cadence, (n + data._DUTY) / cadence, 3 if n % 2 == 0 else 7)
        for n in range(steps))
    truth = data.GaitTruth(
        step_count=steps, cadence=cadence, speed=speed, duty=data._DUTY,
        footstep_intervals=intervals,
        bone_lengths=data._expected_bone_lengths(skeleton_spec))
    return clip, truth


# --- clip files ---------------------------------------------------------------


def read_text_per_token(path):
    """A text clip read as `data.load_clip` read it before it converted
    each line in one call: `float()` on each token as the line is read, so
    the first bad token raises before any header or column-count check."""
    header = {}
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].strip().split(None, 1)
                if len(parts) == 2 and parts[0] in ("fps", "markers", "frames",
                                                    "root_relative", "source"):
                    header[parts[0]] = parts[1]
                continue
            tokens = line.split()
            values = np.empty(len(tokens))
            for i, tok in enumerate(tokens):
                try:
                    values[i] = float(tok)
                except ValueError:
                    raise data.ClipParseError(
                        f"line {line_no}, column {i + 1}: invalid number '{tok}'") from None
            rows.append((line_no, values))
    if "fps" not in header:
        raise data.ClipParseError("missing '# fps' header")
    if "markers" not in header:
        raise data.ClipParseError("missing '# markers' header")
    try:
        fps = float(header["fps"])
        markers = int(header["markers"])
        frames = int(header["frames"]) if "frames" in header else None
    except ValueError as exc:
        raise data.ClipParseError(f"bad header value: {exc}") from None
    flag = header.get("root_relative", "0")
    if flag not in ("0", "1"):
        raise data.ClipParseError(
            f"bad header value: root_relative must be 0 or 1, got {flag!r}")
    if not rows:
        raise data.ClipParseError("clip has no frames")
    want = markers * 3 + 3
    for line_no, values in rows:
        if values.shape[0] != want:
            raise data.ClipParseError(
                f"line {line_no}: marker-count mismatch, expected {want} "
                f"columns for {markers} markers, got {values.shape[0]}")
    if frames is not None and frames != len(rows):
        raise data.ClipParseError(
            f"header declares {frames} frames but file has {len(rows)}")
    table = np.stack([v for _, v in rows], axis=1)
    return data.MotionClip(table[:markers * 3].reshape(markers, 3, len(rows)),
                           table[markers * 3:], fps, root_relative=flag == "1",
                           source=header.get("source", ""))

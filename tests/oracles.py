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
# Each runs on ndarrays, or on Vars as one tape node named after the op.


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


# --- op-by-op layer compositions ------------------------------------------
# Chains of elementary ops computing what the fused conditioner ops
# compute; the references for their values and gradients.  Each runs on
# ndarrays or on Vars.


def graph_conv_chain(matrices, x, weight, bias):
    """sum_k matrices[k] @ x @ weight[k] + bias as d separate chains."""
    out = None
    for k in range(matrices.shape[0]):
        term = nc.matmul(nc.matmul(matrices[k], x), weight[k])
        out = term if out is None else out + term
    return out + bias


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
        out = term if out is None else out + term
    return out + bias


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
        shortcut = nc.matmul(x, block.res.weight) + block.res.bias
    return relu(h + shortcut)


def history_encoder_chain(encoder, history):
    """An `stmg` or `smg` `conditioning.HistoryEncoder` on (B, M, C, T)
    histories, block by block on the time-major (B, T, M, C) transpose,
    then a mean over frames and markers."""
    x = transpose(history, (0, 3, 1, 2))
    for block in encoder.blocks:
        x = graph_temporal_block_chain(block, x)
    return nc.vmean(x, axis=(1, 2))


def lstm_cell_chain(x, h, c, w_ih, w_hh, bias):
    """One LSTM step as 17 elementary ops; returns (h', c')."""
    gates = nc.matmul(x, w_ih) + nc.matmul(h, w_hh) + bias
    n = nc._data(h).shape[1]
    i = nc.sigmoid(gates[:, :n])
    f = nc.sigmoid(gates[:, n:2 * n])
    g = nc.tanh(gates[:, 2 * n:3 * n])
    o = nc.sigmoid(gates[:, 3 * n:])
    c_new = f * c + i * g
    h_new = o * nc.tanh(c_new)
    return h_new, c_new


def lstm_sequence_chain(x, h, c, w_ih, w_hh, bias):
    """lstm_cell_chain over the frames of x (T, B, D); returns the stacked
    hidden outputs (T, B, H) and the last cell state."""
    hs = []
    for k in range(nc._data(x).shape[0]):
        h, c = lstm_cell_chain(x[k], h, c, w_ih, w_hh, bias)
        hs.append(nc.reshape(h, (1,) + nc._data(h).shape))
    return nc.concat(hs, axis=0), c


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
        mean_lp = nc.vmean(logp)
        total = mean_lp if total is None else nc.add(total, mean_lp)
    return nc.neg(div(total, float(n_frames)))


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
        layer_states = []
        for layer, (h_prev, c_prev) in zip(cond.lstm.layers, states[k]):
            u, c = nc.lstm_sequence(u, h_prev, c_prev, layer.w_ih, layer.w_hh, layer.bias)
            layer_states.append((u[-b:], c))
        new_states[k] = layer_states
        raw = nc.reshape(nc.add(nc.matmul(u, cond.out.weight), cond.out.bias),
                         (rows, 2, cond.markers, cond.out_channels))
        s = nc.add(nc.sigmoid(nc.add(raw[:, 0], 2.0)), 1e-3)
        xb2 = nc.sub(div(hb2, s), raw[:, 1])
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
    params = data._check_path_params(dict(path_spec)) if isinstance(path_spec, dict) \
        else data.parse_path_spec(path_spec)
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

"""Independent reference implementations used by the test suites.

Everything here is deliberately brute-force and written against the public
array contracts only, so it can disagree with the library if the library is
wrong.
"""

import numpy as np

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


# --- op-by-op layer compositions ------------------------------------------
# Chains of elementary numcore ops computing what the fused conditioner ops
# compute; the references for their values and gradients.  Each runs on
# ndarrays or on Vars.


def graph_conv_chain(matrices, x, weight, bias):
    """sum_k matrices[k] @ x @ weight[k] + bias as d separate chains."""
    out = None
    for k in range(matrices.shape[0]):
        term = nc.matmul(nc.matmul(matrices[k], x), weight[k])
        out = term if out is None else out + term
    return out + bias


def temporal_conv_chain(x, kernel, bias):
    """Edge-reflecting padding by flip and concat, then one sliced matmul
    per tap, along the time axis of (B, T, M, C) features."""
    t = nc._data(x).shape[1]
    k = nc._data(kernel).shape[0]
    pad = (k - 1) // 2
    if pad > 0:
        left = nc.flip(x[:, :pad], axis=1)
        right = nc.flip(x[:, t - pad:], axis=1)
        xp = nc.concat([left, x, right], axis=1)
    else:
        xp = x
    out = None
    for tap in range(k):
        term = nc.matmul(xp[:, tap:tap + t], kernel[tap])
        out = term if out is None else out + term
    return out + bias


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
    return nc.neg(nc.div(total, float(n_frames)))


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

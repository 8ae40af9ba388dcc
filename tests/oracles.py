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

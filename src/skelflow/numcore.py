"""Dense float64 numerics: a tiny reverse-mode tape, gradient checking,
log-determinants and Adam.

Everything runs on plain ``numpy`` float64 arrays, and numpy is the only
library the package loads.  Layers elsewhere in the package are written
against the dispatching ops below, so the same forward code runs with or
without gradient recording: pass ndarrays for a plain evaluation, or wrap
the leaves in :class:`Var` to record a tape and call :func:`grad`.

Four fused ops, each one tape node with a hand-written backward, carry
the conditioning networks: :func:`graph_conv_relu` (a graph conv includes
its relu), :func:`lstm_sequence`, :func:`graph_temporal_encoder` and
:func:`coupling_head` (a conditioner's output layer and its bounded
scale, with the scale and offset two slices of the node).  Two more carry
a flow step: :func:`actnorm` and :func:`affine_coupling` each return
their output and its log-determinant as two nodes.  A Var has no
arithmetic operators; every op is called by name.

The logistic sigmoid of the LSTM gates and of the coupling scale is
:func:`_logistic`, ``1 / (1 + exp(-x))`` from numpy ufuncs, with ``-x``
clamped at 709.78 so ``exp`` never overflows.  numpy runs ``exp`` and
``tanh`` on the CPU's SIMD extensions, whose last bits can differ from
libm's, so a run's bytes also depend on which extensions numpy uses.

A tape is just the implicit DAG hanging off the output Var; replaying it
(calling :func:`grad` twice on the same output) gives bit-identical
gradients.

The one piece of process state is a small worker pool, which runs the
history encoder's window chunks (forward and backward) and Adam's
gradient scan and per-parameter updates.  Its size, `WORKERS`, is fixed at import: the
usable CPUs divided by the BLAS thread count, which is the first positive
int among `OPENBLAS_NUM_THREADS`, `GOTO_NUM_THREADS` and `OMP_NUM_THREADS`,
or the usable CPU count when none is set.  So a run whose BLAS is not
pinned keeps one worker: BLAS already threads every large GEMM, and a
second Python worker competing with it for the same cores made training
steps slower, not faster.  With one worker nothing is submitted and no
thread is started.  The threads start on first use, never at import, and
a forked child drops its parent's pool and makes its own.  Every result
is bit for bit the same at any worker count: a task touches only its own
arrays, and the caller adds the encoder's per-chunk parameter gradients
into the Vars in chunk order, as a one-worker run does.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

LOGDET_FLOOR = float(np.log(1e-300))


class SingularMatrixError(ArithmeticError):
    """Determinant is zero or |det| underflows below 1e-300."""


class NonFiniteError(ArithmeticError):
    """A value that must be finite came out NaN or infinite."""


class NonFiniteGradientError(NonFiniteError):
    """A gradient came out NaN or infinite."""


_FLOAT64 = np.dtype(np.float64)


# -- the worker pool --------------------------------------------------------------


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# where `_blas_threads` reads the BLAS thread count, in OpenBLAS's precedence
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads(cpus):
    """The BLAS thread count the environment sets, else `cpus` (what
    OpenBLAS and OpenMP take when nothing is set)."""
    for name in BLAS_THREAD_VARS:
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return cpus


def _pool_size():
    cpus = _usable_cpus()
    return max(1, cpus // _blas_threads(cpus))


# How many contiguous parts `_pooled` splits its tasks into: the calling
# thread runs the first, a pool of WORKERS - 1 threads the others.
WORKERS = _pool_size()
_executor = None
_executor_lock = threading.Lock()


def _pool():
    """The process's worker threads, started on first use."""
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(max(1, WORKERS - 1),
                                           thread_name_prefix="skelflow-numcore")
        return _executor


def _drop_pool():
    # a forked child inherits the executor but none of its threads, so a
    # task submitted to it would never run; the child makes its own
    global _executor, _executor_lock
    _executor, _executor_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _split(costs, parts):
    """Cut range(len(costs)) into at most `parts` contiguous slices of
    about equal total cost: a new slice starts at the first item whose
    cost's midpoint lies past the next 1/parts share of the total."""
    total, acc, cuts = sum(costs), 0, [0]
    for i, cost in enumerate(costs):
        if i and len(cuts) < parts and (2 * acc + cost) * parts >= 2 * len(cuts) * total:
            cuts.append(i)
        acc += cost
    cuts.append(len(costs))
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _pooled(fn, items, costs):
    """[fn(x) for x in items], with the items split by `costs` into
    `WORKERS` contiguous parts.  The calling thread runs the first part and
    the pool the others, so one worker or one item runs inline and submits
    nothing.  Every task has finished before a result is read, so a task's
    exception reaches the caller, as itself, with nothing still running.
    Each x must touch only its own arrays."""
    parts = _split(costs, WORKERS) if WORKERS > 1 else [slice(None)]
    if len(parts) == 1:
        return [fn(x) for x in items]
    pool = _pool()
    # `map` is lazy, so each part's calls run on the worker, inside `list`
    futures = [pool.submit(list, map(fn, items[part])) for part in parts[1:]]
    try:
        results = [fn(x) for x in items[parts[0]]]
    finally:
        wait(futures)
    for future in futures:
        results += future.result()
    return results


def _data(x):
    if x.__class__ is np.ndarray and x.dtype is _FLOAT64:
        return x
    if isinstance(x, Var):
        return x.data
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


class Var:
    """A float64 array plus the tape node that produced it."""

    __slots__ = ("data", "grad", "_parents", "_bw")

    # Vars have no arithmetic operators: every op is a module-level function.
    # This keeps numpy from absorbing a Var into an object array in a mixed
    # expression like ndarray + Var, which raises TypeError instead
    __array_ufunc__ = None

    def __init__(self, data, _parents=(), _bw=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._bw = _bw

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def _accum(self, g):
        if self.grad is None:
            # every op hands back a gradient shaped like its input, so the
            # first one is copied in one pass (0.0 + g == g)
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def _accum_at(self, key, g):
        """Add `g` into `self.grad[key]` without a full-size temporary."""
        if self.grad is None:
            self.grad = np.zeros(self.data.shape, dtype=np.float64)
        self.grad[key] += g

    def __getitem__(self, key):
        return getitem(self, key)

    def __repr__(self):
        return f"Var(shape={self.data.shape})"


def _any_var(*xs):
    for x in xs:
        if isinstance(x, Var):
            return True
    return False


def _node(op, value, grads):
    """The tape node of op `op`: `value`, with the Var operands as parents.

    `grads` pairs each operand with a function from the node's gradient to
    that operand's; pairs whose operand is not a Var are dropped, and the
    backward accumulates the rest in order.  The backward is named after
    `op` because the bench's tape census names a node by the first part of
    its `_bw.__qualname__`.
    """
    pairs = [(x, fn) for x, fn in grads if isinstance(x, Var)]

    def bw(g):
        for x, fn in pairs:
            x._accum(fn(g))

    bw.__qualname__ = op + ".<locals>.bw"
    return Var(value, tuple(x for x, _ in pairs), bw)


def add(a, b):
    if not _any_var(a, b):
        return _data(a) + _data(b)
    ad, bd = _data(a), _data(b)
    return _node("add", ad + bd, ((a, lambda g: _unbroadcast(g, ad.shape)),
                                  (b, lambda g: _unbroadcast(g, bd.shape))))


def sub(a, b):
    if not _any_var(a, b):
        return _data(a) - _data(b)
    ad, bd = _data(a), _data(b)
    return _node("sub", ad - bd, ((a, lambda g: _unbroadcast(g, ad.shape)),
                                  (b, lambda g: _unbroadcast(-g, bd.shape))))


def mul(a, b):
    if not _any_var(a, b):
        return _data(a) * _data(b)
    ad, bd = _data(a), _data(b)
    return _node("mul", ad * bd, ((a, lambda g: _unbroadcast(g * bd, ad.shape)),
                                  (b, lambda g: _unbroadcast(g * ad, bd.shape))))


def matmul(a, b):
    """Matrix product; operands must be at least 2-d (batch dims broadcast)."""
    ad, bd = _data(a), _data(b)
    if ad.ndim < 2 or bd.ndim < 2:
        raise ValueError("matmul operands must be at least 2-d")
    if not _any_var(a, b):
        return ad @ bd

    def grad_b(g):
        if bd.ndim == 2:
            # a weight shared by every row: one GEMM over the flattened rows
            return ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape)

    return _node("matmul", ad @ bd, (
        (a, lambda g: _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape)),
        (b, grad_b)))


def vsum(a, axis=None):
    if not isinstance(a, Var):
        return _data(a).sum(axis=axis)

    def grad_a(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, a.data.shape).copy() if np.shape(g) != a.data.shape else g

    return _node("vsum", np.sum(a.data, axis=axis), ((a, grad_a),))


def reshape(a, shape):
    """Reshape; a Var whose shape does not change comes back as it is."""
    if not isinstance(a, Var):
        return _data(a).reshape(shape)
    data = np.reshape(a.data, shape)
    if data.shape == a.data.shape:
        return a
    return _node("reshape", data, ((a, lambda g: np.reshape(g, a.data.shape)),))


def getitem(a, key):
    if not isinstance(a, Var):
        return _data(a)[key]
    out = Var(a.data[key], (a,))
    out._bw = lambda g: a._accum_at(key, g)
    return out


def concat(parts, axis):
    if not _any_var(*parts):
        return np.concatenate([_data(p) for p in parts], axis=axis)
    datas = [_data(p) for p in parts]
    out = np.concatenate(datas, axis=axis)
    grads, offset = [], 0
    for p, d in zip(parts, datas):
        idx = [slice(None)] * out.ndim
        idx[axis] = slice(offset, offset + d.shape[axis])
        # the key is bound per part; a closure over the loop variable
        # would hand every part the last slice
        grads.append((p, lambda g, key=tuple(idx): g[key]))
        offset += d.shape[axis]
    return _node("concat", out, grads)


def tanh(a):
    if not isinstance(a, Var):
        return np.tanh(_data(a))
    td = np.tanh(a.data)
    return _node("tanh", td, ((a, lambda g: g * (1.0 - td * td)),))


def logabsdet(a):
    """log|det A| for a square matrix.

    Raises SingularMatrixError when the determinant is exactly zero or its
    magnitude underflows below 1e-300.  Gradient is inv(A).T.
    """
    ad = _data(a)
    if ad.ndim != 2 or ad.shape[0] != ad.shape[1]:
        raise ValueError(f"logabsdet expects a square matrix, got shape {ad.shape}")
    sign, ld = np.linalg.slogdet(ad)
    if sign == 0.0 or not np.isfinite(ld) or ld < LOGDET_FLOOR:
        raise SingularMatrixError(f"matrix is singular to working precision (log|det|={ld:.3g})")
    if not isinstance(a, Var):
        return float(ld)
    inv_t = np.linalg.inv(ad).T
    return _node("logabsdet", ld, ((a, lambda g: g * inv_t),))


# -- flow-step ops: one tape node per output, each built by _node --------------


def actnorm(x, scale, bias):
    """Glow's actnorm: (x + bias) * scale, and its log-determinant
    sum log|scale| per (M, C) frame, a scalar.

    x is (..., M, C); scale and bias are (M, C).  On Vars each output is
    its own node, "actnorm" and "actnorm_logdet", so scale gets one
    gradient from each.
    """
    xd, sd, bd = _data(x), _data(scale), _data(bias)
    shifted = xd + bd
    y, logdet = shifted * sd, np.sum(np.log(np.abs(sd)))
    if _any_var(x, scale, bias):
        y = _node("actnorm", y, ((x, lambda g: _unbroadcast(g * sd, xd.shape)),
                                 (scale, lambda g: _unbroadcast(g * shifted, sd.shape)),
                                 (bias, lambda g: _unbroadcast(g * sd, bd.shape))))
    if isinstance(scale, Var):
        sgn = np.sign(sd)
        logdet = _node("actnorm_logdet", logdet, ((scale, lambda g: g / np.abs(sd) * sgn),))
    return y, logdet


def affine_coupling(z, s, offset):
    """RealNVP's affine coupling on the last axis of z: its first C - C2
    channels pass through and its last C2 = s.shape[-1] become
    (z2 + offset) * s.  Returns that and the per-row log-determinant, the
    sum of log s over every axis but the first.

    s must be positive; s and offset are shaped like z's last C2
    channels.  On Vars each output is its own node, "affine_coupling" and
    "affine_coupling_logdet", so s gets one gradient from each.
    """
    zd, sd, od = _data(z), _data(s), _data(offset)
    c1 = zd.shape[-1] - sd.shape[-1]
    shifted = zd[..., c1:] + od
    out = np.concatenate([zd[..., :c1], shifted * sd], axis=-1)
    logdet = np.sum(np.log(sd), axis=tuple(range(1, sd.ndim)))
    if _any_var(z, s, offset):
        out = _node("affine_coupling", out, (
            (z, lambda g: np.concatenate([g[..., :c1], g[..., c1:] * sd], axis=-1)),
            (s, lambda g: g[..., c1:] * shifted),
            (offset, lambda g: g[..., c1:] * sd)))
    if isinstance(s, Var):
        logdet = _node("affine_coupling_logdet", logdet, (
            (s, lambda g: g.reshape(g.shape + (1,) * (sd.ndim - 1)) / sd),))
    return out, logdet


# -- fused layer ops: one tape node each, with a hand-written backward --------


def shift_operator(shifts, kernel):
    """The dense (T*C_in, T*C_out) operator of a shift-matrix convolution.

    Element [s*C_in + ci, t*C_out + co] is sum_k shifts[k, t, s] *
    kernel[k, ci, co], built with one (T*T, k) @ (k, C_in*C_out) GEMM;
    `shifts` is (k, T, T) and `kernel` (k, C_in, C_out), both ndarrays.
    """
    k, t = shifts.shape[0], shifts.shape[1]
    c_in, c_out = kernel.shape[1], kernel.shape[2]
    folded = shifts.transpose(0, 2, 1).reshape(k, t * t).T @ kernel.reshape(k, c_in * c_out)
    # rows (s, t), columns (ci, co) -> (s, ci, t, co)
    return folded.reshape(t, t, c_in, c_out).transpose(0, 2, 1, 3).reshape(t * c_in, t * c_out)


def _kernel_grad(shifts, rows, g2, c_in, c_out):
    """The kernel gradient of a shift-matrix convolution of the
    (rows, T*C_in) input `rows` with output gradient `g2`: the dense
    operator's gradient rows.T @ g2, folded back to the (k, C_in, C_out)
    kernel with one GEMM against shifts.reshape(k, T*T)."""
    k, t = shifts.shape[0], shifts.shape[1]
    # gD as (s, ci, t, co) -> rows (t, s), columns (ci, co)
    g_dense = (rows.T @ g2).reshape(t, c_in, t, c_out).transpose(2, 0, 1, 3)
    return (shifts.reshape(k, t * t) @ g_dense.reshape(t * t, c_in * c_out)).reshape(k, c_in, c_out)


def _frame_channel_sum(g, t):
    """Column sums of the (rows, C) gradient g, whose rows come in runs of
    t frames: summed over the (rows / t, t*C) view first, whose long rows
    reduce faster than C-wide ones, then over the t frames."""
    c = g.shape[1]
    return g.reshape(-1, t * c).sum(axis=0).reshape(t, c).sum(axis=0)


def _affine(x, weight, bias):
    """x @ weight + bias, with the bias added in place."""
    out = x @ weight
    out += bias
    return out


def _graph_conv(x, stacked, weight, bias):
    """relu(sum_k mats[k] @ x @ weight[k] + bias) on marker-major
    (n, M, T, C_in) features x, with `stacked` the (M*d, M) row-interleaved
    partition (row i*d + k is mats[k, i], see `skeleton.partition`).

    Every window's (M, T*C_in) features are mixed by the stacked
    partitions with one GEMM and gathered to (n*M*T, d*C_in) rows, which
    one (d*C_in, C_out) GEMM projects; the bias and the relu run in place.
    Returns the gathered rows (the weight gradient's input) and the
    (n*M*T, C_out) output.
    """
    n, m, t, _ = x.shape
    wd = _data(weight)
    d, c_in, c_out = wd.shape
    rows = np.ascontiguousarray(
        (stacked @ x.reshape(n, m, t * c_in)).reshape(n, m, d, t, c_in)
        .transpose(0, 1, 3, 2, 4)).reshape(-1, d * c_in)
    h = _affine(rows, wd.reshape(d * c_in, c_out), _data(bias))
    np.maximum(h, 0.0, out=h)
    return rows, h


def _accum_all(grads):
    """Accumulate each (Var, gradient) pair of `grads`, in order."""
    for v, g in grads:
        v._accum(g)


def _graph_conv_backward(gh, rows, stacked, weight, bias, t, need_input_grad, grads):
    """Backward of `_graph_conv` on windows of t frames from gh, the
    gradient on its output already masked by the relu.  Appends the
    (Var, gradient) pairs of the bias and the weight to `grads` and
    returns the (n*M*T, C_in) gradient on the input, or None when
    `need_input_grad` is false."""
    wd = _data(weight)
    d, c_in, c_out = wd.shape
    m = stacked.shape[1]
    n = rows.shape[0] // (m * t)
    if isinstance(bias, Var):
        grads.append((bias, _frame_channel_sum(gh, t)))
    if isinstance(weight, Var):
        grads.append((weight, (rows.T @ gh).reshape(wd.shape)))
    if not need_input_grad:
        return None
    g_rows = (gh @ wd.reshape(d * c_in, c_out).T).reshape(n, m, t, d, c_in)
    gx = stacked.T @ g_rows.transpose(0, 1, 3, 2, 4).reshape(n, m * d, t * c_in)
    return gx.reshape(-1, c_in)


def graph_conv_relu(x, stacked, weight, bias):
    """relu(sum_k mats[k] @ x @ weight[k] + bias), mixing x along axis -2:
    a spatial graph conv and its relu as one tape node.

    x is (..., M, C_in); `stacked` is a fixed partition's (M*d, M) ndarray
    (see `_graph_conv`), `weight` (d, C_in, C_out) and `bias` (C_out,).  It
    is the history encoder's graph conv with one frame per window, and
    its backward reads the relu mask from the saved output.
    """
    xd = _data(x)
    shape = xd.shape
    m, c_in = shape[-2], shape[-1]
    rows, h = _graph_conv(xd.reshape(-1, m, 1, c_in), stacked, weight, bias)
    c_out = h.shape[1]
    out = h.reshape(shape[:-1] + (c_out,))
    if not _any_var(x, weight, bias):
        return out
    res = Var(out, tuple(v for v in (x, weight, bias) if isinstance(v, Var)))

    def bw(g):
        gh = np.multiply(g.reshape(-1, c_out), h > 0.0)
        grads = []
        gx = _graph_conv_backward(gh, rows, stacked, weight, bias, 1, isinstance(x, Var), grads)
        _accum_all(grads)
        if gx is not None:
            x._accum(gx.reshape(shape))

    res._bw = bw
    return res


# Windows per chunk of `graph_temporal_encoder`.  At desk scale (21 markers,
# 10 frames, 12 and 24 channels) a chunk's largest array, the second
# block's gathered rows, is 0.5 MB, so a block's working set stays in cache
# and its arrays stay below glibc's trim threshold.  The forward plus
# backward of one desk step's 64 windows, 2 cores, one OpenBLAS thread,
# median ms of 25 runs at 4, 8 and 16 windows per chunk: 33.4, 30.3 and
# 30.5 on one worker, 26.3, 22.4 and 26.3 on two.  A rollout's 1 or 8
# windows are one chunk.  The chunk size also sets how the parameter
# gradients' sums are grouped, so changing it changes checkpoint bytes.
ENCODER_CHUNK_WINDOWS = 8


def _encoder_chunk(x, blocks, kept=None):
    """The blocks of `graph_temporal_encoder` on one chunk of windows:
    x is marker-major (n, M, T, C_in).  Returns the last block's output.
    A list `kept` gets the input of every block after the first, the
    arrays that cost a temporal conv and a residual to remake; the
    backward recomputes only the graph convs from them."""
    n, m, t, _ = x.shape
    for i, ((stacked, weight, bias), temporal, residual) in enumerate(blocks):
        if kept is not None and i > 0:
            kept.append(x)
        rows, h = _graph_conv(x, stacked, weight, bias)
        c_out = h.shape[1]
        if temporal is None:
            y = h.copy()
        else:
            y = (h.reshape(n * m, t * c_out) @ temporal[3]).reshape(-1, c_out)
            y += _data(temporal[2])
        if residual is None:
            y += x.reshape(-1, c_out)
        else:
            y += _affine(x.reshape(-1, x.shape[3]), _data(residual[0]), _data(residual[1]))
        np.maximum(y, 0.0, out=y)
        # drop this block's arrays now, so the next block's can reuse the memory
        del rows, h
        x = y.reshape(n, m, t, c_out)
    return x


def _encoder_chunk_backward(gy, blocks, inputs, need_input_grad):
    """Backward through the blocks of one chunk from gy, the gradient on
    the last block's output already masked by its relu, with `inputs`
    every block's marker-major input.  Each block's gathered rows and
    inner relu output are recomputed from its input by one `_graph_conv`;
    no temporal conv or residual runs forward again.  Returns the
    gradient on the chunk's input, or None when `need_input_grad` is
    false, and the (Var, gradient) pairs of every parameter in the order
    a backward accumulates them; no Var is written, so chunks can run on
    different workers.  Each relu mask is read from the positive entries
    of its output; the gradients are masked in place, and `inputs` is
    only read."""
    n, m, t, _ = gy.shape
    grads = []
    for i in range(len(blocks) - 1, -1, -1):
        graph, temporal, residual = blocks[i]
        xi = inputs[i]
        rows, h = _graph_conv(xi, *graph)
        c_in, c_out = xi.shape[3], h.shape[1]
        g2 = gy.reshape(-1, c_out)
        g_sum = _frame_channel_sum(g2, t)  # the temporal and residual biases'
        if residual is not None:
            r_weight, r_bias = residual
            if isinstance(r_bias, Var):
                grads.append((r_bias, g_sum))
            if isinstance(r_weight, Var):
                grads.append((r_weight, xi.reshape(-1, c_in).T @ g2))
        if temporal is None:
            gh = np.multiply(g2, h > 0.0)
        else:
            shifts, kernel, t_bias, dense = temporal
            gt = gy.reshape(n * m, t * c_out)
            if isinstance(t_bias, Var):
                grads.append((t_bias, g_sum))
            if isinstance(kernel, Var):
                grads.append((kernel, _kernel_grad(shifts, h.reshape(n * m, t * c_out), gt,
                                                   c_out, c_out)))
            gh = (gt @ dense.T).reshape(-1, c_out)
            np.multiply(gh, h > 0.0, out=gh)
        gx = _graph_conv_backward(gh, rows, *graph, t, i > 0 or need_input_grad, grads)
        if gx is None:
            return None, grads
        gx += g2 if residual is None else g2 @ _data(residual[0]).T
        if i > 0:
            np.multiply(gx, xi.reshape(-1, c_in) > 0.0, out=gx)
        gy = gx.reshape(n, m, t, c_in)
    return gy, grads


def graph_temporal_encoder(history, blocks):
    """The mean over markers and frames of a stack of spatial-temporal
    graph blocks, as one tape node.

    history is (N, M, C, T).  Each block is a triple (graph, temporal,
    residual): `graph` is `graph_conv_relu`'s (stacked, weight, bias);
    `temporal` is None or a reflect-shift convolution's (shifts, kernel,
    bias, operator), with `operator` the kernel's dense `shift_operator`
    (see `conditioning.TemporalConv.operator`); `residual` is a linear
    layer's (weight, bias), or None for the identity, which needs
    C_in == C_out.  A block maps x to

        relu(temporal(graph(x)) + residual(x))

    where a graph conv includes its relu, and the result is the last
    block's output averaged over markers and frames, (N, C_out).

    Every block runs on the marker-major (n, M, T, C) layout.  The
    temporal conv is then one GEMM of the contiguous (n*M, T*C) rows with
    its dense operator, with no transpose.  The graph conv is the one
    `graph_conv_relu` runs (`_graph_conv`, and `_graph_conv_backward` in
    the backward), with T frames per window.  Both relus run in place.

    The windows run in consecutive chunks of `ENCODER_CHUNK_WINDOWS`.
    Every window's arithmetic is the same in any chunk, so the output
    does not depend on the chunking.  On Vars the node keeps, per chunk,
    the input of every block after the first and the last block's relu
    mask as a bool array: the arrays that cost a temporal GEMM or a
    residual to remake.  The backward remakes the first block's input
    with one transpose copy of the history and each block's gathered
    rows and inner relu output with one graph conv (Chen et al. 2016's
    recompute, on the cheap half only) and runs that chunk's backward.
    Every chunk shares the operands' temporal operators.  On ndarrays
    nothing is kept.

    The chunks run forward and backward on the worker pool, in
    contiguous parts (see `_pooled`); a call with one chunk, as every
    rollout's is, runs inline.  Each chunk's backward returns its
    parameter gradients, and the caller accumulates them into the Vars
    in chunk order, so the sums, and so the bytes, are those of a run on
    one thread.
    """
    hd = _data(history)
    n, m, _, t = hd.shape
    operands = [history]
    for (_, weight, bias), temporal, residual in blocks:
        operands += [weight, bias]
        if temporal is not None:
            _, kernel, t_bias, _ = temporal
            operands += [kernel, t_bias]
        if residual is not None:
            operands += residual
    recording = _any_var(*operands)
    scale = 1.0 / (m * t)
    chunks = [slice(start, min(start + ENCODER_CHUNK_WINDOWS, n))
              for start in range(0, n, ENCODER_CHUNK_WINDOWS)]
    sizes = [chunk.stop - chunk.start for chunk in chunks]

    def chunk_input(chunk):
        return np.ascontiguousarray(hd[chunk].transpose(0, 1, 3, 2))

    width = _data(blocks[-1][0][1]).shape[2]  # the last graph weight's C_out
    out = np.empty((n, width))

    def forward(chunk):
        """Fills the chunk's rows of `out`; returns, on Vars, its later
        blocks' inputs and its last relu mask."""
        inputs = [] if recording else None
        y = _encoder_chunk(chunk_input(chunk), blocks, inputs)
        out[chunk] = y.sum(axis=(1, 2)) * scale
        return (inputs, y > 0.0) if recording else None

    kept = _pooled(forward, chunks, sizes)
    if not recording:
        return out
    res = Var(out, tuple(v for v in operands if isinstance(v, Var)))

    def bw(g):
        def backward_chunk(chunk_kept):
            chunk, (inputs, mask) = chunk_kept
            # the pooled mean's gradient, broadcast and masked by the last relu
            gy = np.multiply(mask, (g[chunk] * scale)[:, None, None, :])
            return _encoder_chunk_backward(gy, blocks, [chunk_input(chunk)] + inputs,
                                           isinstance(history, Var))

        results = _pooled(backward_chunk, list(zip(chunks, kept)), sizes)
        for chunk, (gx, grads) in zip(chunks, results):
            _accum_all(grads)
            if gx is not None:
                history._accum_at(chunk, gx.transpose(0, 1, 3, 2))

    res._bw = bw
    return res


# exp(709.78) is finite and exp(710) overflows: `_logistic` clamps its
# exponent here, so no input makes `exp` overflow (a RuntimeWarning, and
# an error under the tests), and every x below -709.78, whose logistic is
# under 5.6e-309, maps to 1 / (1 + exp(709.78))
_EXP_MAX = 709.78


def _logistic(x, shift=0.0):
    """The logistic sigmoid of x + shift, 1 / (1 + exp(-(x + shift))), as
    a new array, from numpy ufuncs alone and with no `np.errstate`: +inf
    gives 1, +-0.0 (with no shift) 0.5, NaN stays NaN.  The negation is
    folded into the shift, since -shift - x is -(x + shift) to the bit."""
    u = np.subtract(-shift, x)
    np.minimum(u, _EXP_MAX, out=u)
    np.exp(u, out=u)
    u += 1.0
    return np.reciprocal(u, out=u)


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
    """
    xd, hd, cd = _data(x), _data(h0), _data(c0)
    w_ihd, w_hhd, bd = _data(w_ih), _data(w_hh), _data(bias)
    b, n = hd.shape
    t = xd.shape[0] // b
    if t * b != xd.shape[0]:
        raise ValueError(f"{xd.shape[0]} rows are not whole frames of {b} sequences")
    x_proj = xd @ w_ihd
    recording = _any_var(x, h0, c0, w_ih, w_hh, bias)
    # kept per frame for the backward: sigmoid of every gate (the cell
    # gate's is unused), tanh of the cell gate, the cell state before the
    # frame, tanh of the one after
    sig, cell_in, cs, tcs, hs = [], [], [cd], [], []
    h, c = hd, cd
    for k in range(t):
        gates = x_proj[k * b:(k + 1) * b] + h @ w_hhd + bd
        a = _logistic(gates)
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
    both = Var(np.concatenate(hs + [c]),
               tuple(v for v in (x, h0, c0, w_ih, w_hh, bias) if isinstance(v, Var)))

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
        if isinstance(x, Var):
            x._accum(g_gates @ w_ihd.T)
        if isinstance(h0, Var):
            h0._accum(g_h_next)
        if isinstance(c0, Var):
            c0._accum(g_c)
        if isinstance(w_ih, Var):
            w_ih._accum(xd.T @ g_gates)
        if isinstance(w_hh, Var):
            w_hh._accum(np.concatenate([hd] + hs[:-1]).T @ g_gates)
        if isinstance(bias, Var):
            bias._accum(g_gates.sum(axis=0))

    both._bw = bw
    return both[:t * b], both[t * b:]


def coupling_head(h, weight, bias, shape, shift, floor):
    """An affine coupling's scale and offset from a conditioner's hidden
    rows h (N, H): raw = h @ weight + bias, laid out as (N, 2) + shape,
    gives s = sigmoid(raw[:, 0] + shift) + floor, in (floor, 1 + floor),
    and offset = raw[:, 1].

    On float64 ndarrays the outputs are plain arrays; on Vars they are
    the two slices of one node, whose backward forms the gradient on raw
    once and takes h's, the weight's and the bias's from it with two
    GEMMs and one column sum."""
    if not _any_var(h, weight, bias):
        raw = _affine(h, weight, bias).reshape((h.shape[0], 2) + tuple(shape))
        s = _logistic(raw[:, 0], shift)
        s += floor
        return s, raw[:, 1]
    hd, wd = _data(h), _data(weight)
    n = hd.shape[0]
    raw = _affine(hd, wd, _data(bias)).reshape((n, 2) + tuple(shape))
    sig = _logistic(raw[:, 0], shift)
    s = sig + floor
    raw[:, 0] = s
    both = Var(raw, tuple(v for v in (h, weight, bias) if isinstance(v, Var)))

    def bw(g):
        # each half added to zeros, as a slice's `_accum_at` adds it, so a
        # -0.0 comes out +0.0 and the bytes are the unfused chain's
        g_raw = np.zeros(g.shape)
        g_raw[:, 0] += g[:, 0] * sig * (1.0 - sig)
        g_raw[:, 1] += g[:, 1]
        g_raw = g_raw.reshape(n, -1)
        if isinstance(h, Var):
            h._accum(g_raw @ wd.T)
        if isinstance(weight, Var):
            weight._accum(hd.T @ g_raw)
        if isinstance(bias, Var):
            bias._accum(g_raw.sum(axis=0))

    both._bw = bw
    return both[:, 0], both[:, 1]


def backward(loss, keep=()):
    """Run reverse accumulation from a scalar Var.

    Grads of every node reachable from `loss` are reset first, so calling
    this twice on the same tape yields identical results.  A node's grad is
    dropped once its backward has run, except on leaves and on the Vars in
    `keep`, so intermediate gradients do not outlive the pass.
    """
    if not isinstance(loss, Var):
        raise TypeError("backward expects a Var")
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    for node in order:
        node.grad = None
    kept = {id(v) for v in keep}
    loss.grad = np.ones(loss.data.shape, dtype=np.float64)
    for node in reversed(order):
        if node._bw is not None and node.grad is not None:
            node._bw(node.grad)
            if id(node) not in kept:
                node.grad = None


def grad(loss, leaves):
    """Gradients of scalar `loss` w.r.t. a list of Vars, leaves or not.

    Returns each Var's own `.grad` array, not a copy: `backward` gives every
    node a fresh gradient array on each pass, so a later pass never writes
    into an earlier result.  Vars that do not influence the loss get exact
    zeros.
    """
    backward(loss, keep=leaves)
    return [np.zeros(v.data.shape, dtype=np.float64) if v.grad is None
            else v.grad for v in leaves]


def _scalar(x):
    if isinstance(x, Var):
        return float(x.data)
    return float(np.asarray(x))


def grad_check(fn, params, step=1e-5):
    """Compare reverse-mode gradients of fn against central differences.

    fn maps one array-like argument to a scalar; it is called with a Var for
    the analytic pass and with plain ndarrays for the numeric probes.  Returns
    max over entries of |analytic - central| / (|central| + 1e-8).
    """
    if not (0.0 < step <= 1e-2):
        raise ValueError(f"step must be in (0, 1e-2], got {step}")
    base = np.array(params, dtype=np.float64)
    v = Var(base.copy())
    out = fn(v)
    if not np.isfinite(_scalar(out)):
        raise NonFiniteError("loss is not finite at the evaluation point")
    if isinstance(out, Var):
        analytic = grad(out, [v])[0]
    else:
        analytic = np.zeros_like(base)
    numeric = np.zeros_like(base)
    flat_num = numeric.reshape(-1)
    for i in range(base.size):
        probe = base.copy()
        probe.reshape(-1)[i] += step
        f_plus = _scalar(fn(probe))
        probe = base.copy()
        probe.reshape(-1)[i] -= step
        f_minus = _scalar(fn(probe))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NonFiniteError(f"loss is not finite near entry {i}")
        flat_num[i] = (f_plus - f_minus) / (2.0 * step)
    err = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)
    return float(err.max())


@dataclass
class AdamState:
    """First/second moment accumulators, keyed like the parameter dict."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(params):
    state = AdamState()
    for k, p in params.items():
        state.m[k] = np.zeros_like(_data(p))
        state.v[k] = np.zeros_like(_data(p))
    return state


def _adam_update(p, g, m, v, t, step_size, beta1, beta2, eps):
    """Adam's step t on one parameter array p, in place, in the operation
    order of

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * (g * g)
        p = p - step_size * (m / b1t) / (sqrt(v / b2t) + eps)

    with two full-size temporaries."""
    b1t = 1.0 - beta1 ** t
    b2t = 1.0 - beta2 ** t
    tmp = np.multiply(1.0 - beta1, g)
    m *= beta1
    m += tmp
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - beta2
    v *= beta2
    v += tmp
    np.divide(v, b2t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    update = np.divide(m, b1t)
    update *= step_size
    update /= tmp
    np.subtract(p, update, out=p)


def adam_step(params, grads, state, step_size, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update, written into the `params` arrays and the moments.

    Every gradient is scanned first: on a NaN/inf entry it raises
    NonFiniteGradientError, naming the first such parameter, before any
    array is written.  The scan and then the updates run on the worker
    pool, each parameter on one worker.
    """
    keys = list(params)
    sizes = [np.size(params[k]) for k in keys]
    finite = _pooled(lambda k: bool(np.isfinite(grads[k]).all()), keys, sizes)
    for k, ok in zip(keys, finite):
        if not ok:
            raise NonFiniteGradientError(f"non-finite gradient for '{k}'")
    t = state.step + 1
    _pooled(lambda k: _adam_update(params[k], grads[k], state.m[k], state.v[k], t,
                                   step_size, beta1, beta2, eps), keys, sizes)
    state.step = t


def clip_grad_norm(grads, max_norm):
    """Scale the gradient arrays in place so their global L2 norm is at most
    `max_norm`; returns the norm before clipping.

    When the sum of squares overflows on finite entries, the norm is taken
    from the gradients divided by their largest magnitude.  A NaN or inf
    entry leaves the gradients unscaled, for `adam_step`'s scan to reject.
    """
    sq = 0.0
    with np.errstate(over="ignore"):
        for g in grads.values():
            # squares laid out in C order, so the sum's rounding does not
            # depend on the gradient's layout (the mix weight's is Fortran)
            sq += float(np.sum(np.multiply(g, g, order="C")))
    norm = float(np.sqrt(sq))
    if math.isinf(sq) and all(np.isfinite(g).all() for g in grads.values()):
        big = max(float(np.abs(g).max(initial=0.0)) for g in grads.values())
        rel = math.sqrt(sum(float(np.sum(np.square(g / big)))
                            for g in grads.values()))
        norm = big * rel  # inf if the norm itself is past float64's range
        scale = min(1.0, max_norm / big / rel)
    elif math.isfinite(norm) and norm > max_norm and norm > 0.0:
        scale = max_norm / norm
    else:
        return norm
    for g in grads.values():
        g *= scale
    return norm


def make_rng(seed):
    """Seeded PCG64 generator; passes Generators through unchanged."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class Module:
    """Base for parameterized layers.

    Subclasses declare `param_attrs` (names of ndarray attributes) and
    `child_attrs` (names of Module or list-of-Module attributes).  Parameter
    paths are dotted, with list children indexed numerically, e.g.
    "steps.3.actnorm.scale".
    """

    param_attrs = ()
    child_attrs = ()

    def named_parameters(self, prefix=""):
        for name in self.param_attrs:
            yield prefix + name, getattr(self, name)
        for name in self.child_attrs:
            child = getattr(self, name)
            if child is None:
                continue
            if isinstance(child, (list, tuple)):
                for i, sub in enumerate(child):
                    yield from sub.named_parameters(f"{prefix}{name}.{i}.")
            else:
                yield from child.named_parameters(f"{prefix}{name}.")

    def _resolve(self, path):
        parts = path.split(".")
        obj = self
        for part in parts[:-1]:
            if isinstance(obj, (list, tuple)):
                obj = obj[int(part)]
            else:
                obj = getattr(obj, part)
        return obj, parts[-1]

    def set_parameter(self, path, value):
        obj, leaf = self._resolve(path)
        setattr(obj, leaf, value)


def lift(module):
    """Wrap every parameter of `module` in a Var (in place).

    Returns {path: Var}.  Undo with `restore`.
    """
    lifted = {}
    for path, arr in list(module.named_parameters()):
        v = arr if isinstance(arr, Var) else Var(arr)
        module.set_parameter(path, v)
        lifted[path] = v
    return lifted


def restore(module):
    """Put plain ndarrays back on the module after `lift`: each parameter
    gets back the array its Var wrapped."""
    for path, cur in list(module.named_parameters()):
        if isinstance(cur, Var):
            module.set_parameter(path, cur.data)

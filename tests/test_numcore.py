import math
import threading
import time
import warnings

import numpy as np
import pytest

from skelflow import numcore as nc

from oracles import (absolute, adam_step_reference, div, flip, log, logistic, neg, relu, sigmoid,
                     transpose)


# --- independent oracles -------------------------------------------------

def det3_cofactor(a):
    """3x3 determinant by cofactor expansion along the first row."""
    return (a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]))


def central_diff(f, x, step=1e-6):
    g = np.zeros_like(x, dtype=np.float64)
    flat = g.reshape(-1)
    for i in range(x.size):
        p = x.astype(np.float64).copy()
        p.reshape(-1)[i] += step
        fp = f(p)
        p = x.astype(np.float64).copy()
        p.reshape(-1)[i] -= step
        fm = f(p)
        flat[i] = (fp - fm) / (2 * step)
    return g


# --- the logistic sigmoid -------------------------------------------------


def ulps_apart(a, b):
    """How many float64 values lie between a and b, both >= 0."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def test_logistic_is_within_4_ulp_of_the_libm_formula():
    """Wherever the exponent is not clamped, `_logistic` is within 4 ulp of
    1 / (1 + exp(-x)) with libm's `exp`, the formula scipy's `expit` used;
    numpy's SIMD `exp` differs from libm's only in the last bits."""
    rng = np.random.default_rng(31)
    x = np.concatenate([rng.uniform(-nc._EXP_MAX, nc._EXP_MAX, 100_000),
                        rng.normal(0.0, 8.0, 100_000), [-nc._EXP_MAX, nc._EXP_MAX]])
    want = np.array([1.0 / (1.0 + math.exp(-v)) for v in x.tolist()])
    assert int(ulps_apart(nc._logistic(x), want).max()) <= 4


def test_logistic_special_values_raise_no_warning():
    x = np.array([np.inf, 0.0, -0.0, np.nan, 1e300, -709.0, -709.5, -nc._EXP_MAX,
                  -710.0, -1e300, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = nc._logistic(x)
    assert y[0] == y[4] == 1.0
    assert y[1] == y[2] == 0.5
    assert np.isnan(y[3])
    assert np.all((y[5:] >= 0.0) & (y[5:] <= 1.3e-308))


def test_logistic_is_monotone():
    y = nc._logistic(np.linspace(-50.0, 50.0, 10**6 + 1))
    assert np.all(np.diff(y) >= 0.0)
    assert y[0] > 0.0 and y[-1] == 1.0


def test_logistic_folds_its_shift_into_the_negation():
    """`_logistic(x, shift)` is the logistic of x + shift to the bit, and
    the oracles' written-out formula gives the same bits."""
    x = np.random.default_rng(32).normal(0.0, 4.0, size=(50, 7))
    for shift in (0.0, 2.0, -1.5):
        got = nc._logistic(x, shift)
        assert np.array_equal(got, nc._logistic(x + shift))
        assert np.array_equal(got, logistic(x + shift))


# --- logabsdet ------------------------------------------------------------

def test_logabsdet_diagonal():
    a = np.diag([1.0, 2.0, 3.0])
    assert abs(nc.logabsdet(a) - 1.791759469228055) < 1e-12


def test_logabsdet_matches_cofactor_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
        expected = np.log(abs(det3_cofactor(a)))
        assert abs(nc.logabsdet(a) - expected) < 1e-10


def test_logabsdet_frozen_case():
    # frozen from the cofactor oracle: det = -21 -> log|det| = log(21)
    a = np.array([[2.0, 1.0, 0.0],
                  [3.0, -1.0, 4.0],
                  [0.0, 2.0, 1.0]])
    assert det3_cofactor(a) == -21.0
    assert abs(nc.logabsdet(a) - np.log(21.0)) < 1e-12


def test_logabsdet_product_rule():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 2.5 * np.eye(4)
        b = rng.normal(size=(4, 4)) + 2.5 * np.eye(4)
        lhs = nc.logabsdet(a @ b)
        rhs = nc.logabsdet(a) + nc.logabsdet(b)
        assert abs(lhs - rhs) < 1e-9


def test_logabsdet_singular_raises():
    a = np.zeros((3, 3))
    with pytest.raises(nc.SingularMatrixError):
        nc.logabsdet(a)
    b = np.ones((2, 2))  # rank 1
    with pytest.raises(nc.SingularMatrixError):
        nc.logabsdet(b)


def test_logabsdet_gradient_is_inverse_transpose():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
    v = nc.Var(a.copy())
    out = nc.logabsdet(v)
    (g,) = nc.grad(out, [v])
    num = central_diff(lambda m: np.linalg.slogdet(m)[1], a)
    assert np.max(np.abs(g - num)) < 1e-6


# --- tape behaviour -------------------------------------------------------

def test_grad_quadratic():
    x = nc.Var(np.array([1.0, 2.0, -3.0]))
    loss = nc.vsum(nc.mul(x, x))
    (g,) = nc.grad(loss, [x])
    assert np.allclose(g, [2.0, 4.0, -6.0], atol=1e-14)


def test_unused_leaf_gets_exact_zeros():
    x = nc.Var(np.array([1.0, 2.0]))
    unused = nc.Var(np.array([5.0]))
    loss = nc.vsum(nc.mul(x, 3.0))
    gx, gu = nc.grad(loss, [x, unused])
    assert np.all(gx == 3.0)
    assert np.all(gu == 0.0)


def test_replay_tape_identical():
    rng = np.random.default_rng(0)
    x = nc.Var(rng.normal(size=(4, 5)))
    w = nc.Var(rng.normal(size=(5, 3)))
    loss = nc.vsum(nc.mul(nc.tanh(nc.matmul(x, w)), 0.5))
    g1 = nc.grad(loss, [x, w])
    g2 = nc.grad(loss, [x, w])
    assert np.array_equal(g1[0], g2[0])
    assert np.array_equal(g1[1], g2[1])


def test_backward_frees_intermediate_grads():
    rng = np.random.default_rng(1)
    x = nc.Var(rng.normal(size=(4, 5)))
    w = nc.Var(rng.normal(size=(5, 3)))
    h = nc.matmul(x, w)
    y = nc.tanh(h)
    loss = nc.vsum(nc.mul(y, 0.5))
    (gy,) = nc.grad(loss, [y])
    assert h.grad is None and loss.grad is None
    assert y.grad is not None and np.all(gy == 0.5)
    # leaves keep theirs whether or not they were asked for
    (gx,) = nc.grad(loss, [x])
    assert y.grad is None and h.grad is None
    assert x.grad is not None and w.grad is not None
    assert np.array_equal(gx, x.grad)


def test_grad_returns_each_leafs_own_array():
    rng = np.random.default_rng(3)
    v = nc.Var(rng.normal(size=(4, 3)))
    w = nc.Var(rng.normal(size=(3, 2)))
    loss = nc.vsum(nc.tanh(nc.matmul(v, w)))
    first = nc.grad(loss, [v])[0]
    assert first is v.grad
    kept = first.copy()
    second = nc.grad(loss, [v])[0]
    assert second is v.grad and second is not first
    assert np.array_equal(first, kept)  # a later pass does not write into it


def test_shared_subexpression_accumulates():
    x = nc.Var(np.array([2.0]))
    y = nc.add(nc.mul(x, x), nc.mul(x, 3.0))  # dy/dx = 2x + 3 = 7
    (g,) = nc.grad(nc.vsum(y), [x])
    assert np.allclose(g, [7.0])


def test_broadcast_add_unbroadcasts_grad():
    x = nc.Var(np.zeros((4, 3)))
    b = nc.Var(np.zeros(3))
    loss = nc.vsum(nc.add(x, b))
    gx, gb = nc.grad(loss, [x, b])
    assert gx.shape == (4, 3) and np.all(gx == 1.0)
    assert gb.shape == (3,) and np.all(gb == 4.0)


def test_getitem_concat_flip_roundtrip_grads():
    x = nc.Var(np.arange(12, dtype=np.float64).reshape(3, 4))
    a = x[:, :2]
    b = x[:, 2:]
    y = nc.concat([b, a], axis=1)
    z = flip(y, axis=0)
    loss = nc.vsum(nc.mul(z, z))
    (g,) = nc.grad(loss, [x])
    assert np.allclose(g, 2.0 * x.data)


def test_matmul_grad_against_central_differences():
    rng = np.random.default_rng(5)
    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 2))

    def f_a(a):
        return float(np.sum(np.tanh(a @ b0)))

    va = nc.Var(a0.copy())
    loss = nc.vsum(nc.tanh(nc.matmul(va, b0)))
    (ga,) = nc.grad(loss, [va])
    assert np.max(np.abs(ga - central_diff(f_a, a0))) < 1e-7


def test_matmul_shared_weight_grad_is_one_gemm_over_rows():
    # N-d @ 2-d: the weight gradient, a 2-d GEMM over the flattened rows,
    # equals the broadcast batched product summed over the batch axes
    rng = np.random.default_rng(6)
    a0 = rng.normal(size=(2, 3, 4, 5))
    b0 = rng.normal(size=(5, 6))
    w = rng.normal(size=(2, 3, 4, 6))
    va, vb = nc.Var(a0), nc.Var(b0)
    ga, gb = nc.grad(nc.vsum(nc.mul(nc.matmul(va, vb), w)), [va, vb])
    want_b = nc._unbroadcast(np.swapaxes(a0, -1, -2) @ w, b0.shape)
    assert np.max(np.abs(gb - want_b)) <= 1e-12 * np.max(np.abs(want_b))
    assert np.max(np.abs(ga - w @ b0.T)) <= 1e-12 * np.max(np.abs(ga))
    assert nc.grad_check(lambda b: nc.vsum(nc.tanh(nc.matmul(a0, b))), b0) <= 1e-6
    assert nc.grad_check(lambda a: nc.vsum(nc.tanh(nc.matmul(a, b0))), a0) <= 1e-6


def test_ops_plain_ndarray_passthrough():
    a = np.ones((2, 2))
    assert isinstance(nc.add(a, a), np.ndarray)
    assert isinstance(nc.matmul(a, a), np.ndarray)
    assert isinstance(nc.tanh(a), np.ndarray)
    s, offset = nc.coupling_head(a, a, np.zeros(2), (1,), 2.0, 1e-3)
    assert isinstance(s, np.ndarray) and isinstance(offset, np.ndarray)
    assert isinstance(nc.logabsdet(np.eye(3)), float)


def test_elementwise_backward_formulas():
    rng = np.random.default_rng(9)
    x0 = rng.normal(size=7)
    for op, nf in [(nc.tanh, np.tanh),
                   (sigmoid, lambda v: 1 / (1 + np.exp(-v))),
                   (relu, lambda v: np.maximum(v, 0)),
                   (absolute, np.abs)]:
        v = nc.Var(x0.copy())
        loss = nc.vsum(op(v))
        (g,) = nc.grad(loss, [v])
        num = central_diff(lambda p: float(np.sum(nf(p))), x0)
        assert np.max(np.abs(g - num)) < 1e-6, op


# (op, build): `build(v, c)` makes one node from the Var `v` and, for
# binary ops, the ndarray `c`; each op is tried with the Var on either side.
# neg, div, transpose, log, sigmoid, relu and absolute are the oracles' own
# taped ops.
CENSUS_OPS = [
    ("add", lambda v, c: nc.add(v, c)),
    ("add", lambda v, c: nc.add(c, v)),
    ("sub", lambda v, c: nc.sub(v, c)),
    ("sub", lambda v, c: nc.sub(c, v)),
    ("mul", lambda v, c: nc.mul(v, c)),
    ("mul", lambda v, c: nc.mul(c, v)),
    ("div", lambda v, c: div(v, c)),
    ("div", lambda v, c: div(c, v)),
    ("neg", lambda v, c: neg(v)),
    ("matmul", lambda v, c: nc.matmul(v, c)),
    ("matmul", lambda v, c: nc.matmul(c, v)),
    ("vsum", lambda v, c: nc.vsum(v, axis=0)),
    ("reshape", lambda v, c: nc.reshape(v, (9,))),
    ("transpose", lambda v, c: transpose(v, (1, 0))),
    ("concat", lambda v, c: nc.concat([v, c], axis=1)),
    ("concat", lambda v, c: nc.concat([c, v, c], axis=0)),
    ("log", lambda v, c: log(v)),
    ("tanh", lambda v, c: nc.tanh(v)),
    ("sigmoid", lambda v, c: sigmoid(v)),
    ("relu", lambda v, c: relu(v)),
    ("absolute", lambda v, c: absolute(v)),
    ("logabsdet", lambda v, c: nc.logabsdet(v)),
]


@pytest.mark.parametrize("name,build", CENSUS_OPS,
                         ids=[f"{n}-{i}" for i, (n, _) in enumerate(CENSUS_OPS)])
def test_node_has_only_var_parents_and_names_its_op(name, build):
    # the bench's tape census names a node by this qualname prefix
    v = nc.Var(np.eye(3) + 0.5)
    node = build(v, np.full((3, 3), 2.0))
    assert node._parents == (v,)
    assert node._bw.__qualname__.split(".")[0] == name


def test_concat_hands_each_part_its_own_slice():
    rng = np.random.default_rng(8)
    parts = [nc.Var(rng.normal(size=(2, n))) for n in (1, 3, 2)]
    w = rng.normal(size=(2, 6))
    grads = nc.grad(nc.vsum(nc.mul(nc.concat(parts, axis=-1), w)), parts)
    assert [g.tolist() for g in grads] == [w[:, :1].tolist(), w[:, 1:4].tolist(),
                                           w[:, 4:].tolist()]


# --- grad_check -----------------------------------------------------------

def test_grad_check_sum_of_squares():
    err = nc.grad_check(lambda x: nc.vsum(nc.mul(x, x)), np.array([1.0, 2.0]), step=1e-5)
    assert err < 1e-8


def test_grad_check_constant_function_zero_error():
    err = nc.grad_check(lambda x: 4.25, np.array([1.0, -2.0, 0.5]))
    assert err == 0.0


def test_grad_check_rejects_bad_step():
    with pytest.raises(ValueError):
        nc.grad_check(lambda x: nc.vsum(x), np.ones(2), step=0.0)
    with pytest.raises(ValueError):
        nc.grad_check(lambda x: nc.vsum(x), np.ones(2), step=0.5)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_grad_check_nonfinite_loss_raises():
    with pytest.raises(nc.NonFiniteError):
        nc.grad_check(lambda x: log(nc.sub(nc.vsum(x), 10.0)), np.ones(2))


def test_grad_check_catches_wrong_gradient():
    # op with a deliberately broken backward: forward x^2, backward says 3x
    def broken_square(x):
        out = nc.Var(x.data ** 2, (x,))
        out._bw = lambda g: x._accum(g * 3.0 * x.data)
        return out

    err = nc.grad_check(lambda x: nc.vsum(broken_square(x)) if isinstance(x, nc.Var)
                        else float(np.sum(x ** 2)), np.array([1.0, 2.0]))
    assert err > 1e-2


# --- Adam ------------------------------------------------------------------

def test_adam_converges_on_quadratic():
    # minimize (x - 3)^2 + (y + 1)^2; optimum (3, -1)
    params = {"p": np.zeros(2)}
    state = nc.adam_init(params)
    target = np.array([3.0, -1.0])
    for _ in range(500):
        g = 2.0 * (params["p"] - target)
        nc.adam_step(params, {"p": g}, state, step_size=0.05)
    assert np.max(np.abs(params["p"] - target)) < 1e-3


def test_adam_zero_gradient_leaves_params_fixed():
    params = {"p": np.array([1.5, -2.5])}
    state = nc.adam_init(params)
    before = params["p"].copy()
    nc.adam_step(params, {"p": np.zeros(2)}, state, step_size=0.1)
    assert np.array_equal(params["p"], before)
    assert state.step == 1


def test_adam_nan_gradient_raises_and_preserves_params():
    params = {"p": np.array([1.0])}
    state = nc.adam_init(params)
    before = params["p"].copy()
    with pytest.raises(nc.NonFiniteGradientError):
        nc.adam_step(params, {"p": np.array([np.nan])}, state, step_size=0.1)
    assert np.array_equal(params["p"], before)


def test_adam_in_place_matches_reference_formula():
    rng = np.random.default_rng(8)
    params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
    ref_params = {k: v.copy() for k, v in params.items()}
    state, ref_state = nc.adam_init(params), nc.adam_init(ref_params)
    for _ in range(5):
        grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
        # a copy of the dict: the update must land in the arrays themselves
        assert nc.adam_step(dict(params), grads, state,
                            step_size=0.01) is None
        ref_params, ref_state = adam_step_reference(ref_params, grads,
                                                    ref_state, step_size=0.01)
        for k in params:
            assert np.array_equal(params[k], ref_params[k])
            assert np.array_equal(state.m[k], ref_state.m[k])
            assert np.array_equal(state.v[k], ref_state.v[k])
    before = [{k: d[k].copy() for k in d} for d in (params, state.m, state.v)]
    bad = {"a": np.ones((3, 4)), "b": np.array([0.0, 1.0, np.inf, 0.0, 0.0])}
    with pytest.raises(nc.NonFiniteGradientError):
        nc.adam_step(params, bad, state, step_size=0.01)
    for d, kept in zip((params, state.m, state.v), before):
        for k in d:
            assert np.array_equal(d[k], kept[k])
    assert state.step == 5


def test_adam_first_step_size_is_lr_signed():
    # bias correction makes the very first Adam step equal to lr * sign(g)
    params = {"p": np.array([0.0, 0.0])}
    state = nc.adam_init(params)
    g = np.array([0.3, -4.0])
    nc.adam_step(params, {"p": g}, state, step_size=0.01)
    expected = -0.01 * g / (np.abs(g) + 1e-8)
    assert np.max(np.abs(params["p"] - expected)) < 1e-12


# --- worker pool -------------------------------------------------------------


@pytest.mark.parametrize("env, cpus, want", [
    ({}, 2, 1),  # BLAS unpinned: it threads over every CPU itself
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 5, 2),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "two",
      "OMP_NUM_THREADS": "1"}, 3, 3),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4, 4),
    ({"OMP_NUM_THREADS": "8"}, 2, 1),
])
def test_pool_size_is_cpus_over_blas_threads(monkeypatch, env, cpus, want):
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(nc, "_usable_cpus", lambda: cpus)
    assert nc._pool_size() == want


@pytest.mark.parametrize("costs, parts, want", [
    ([8] * 8, 1, [(0, 8)]),
    ([8] * 8, 2, [(0, 4), (4, 8)]),
    ([8] * 8, 3, [(0, 3), (3, 5), (5, 8)]),
    ([8] * 8 + [1], 2, [(0, 4), (4, 9)]),  # 64 windows plus one more
    ([100, 1, 1, 1], 2, [(0, 1), (1, 4)]),
    ([8] * 3, 8, [(0, 1), (1, 2), (2, 3)]),
    ([0, 0, 0], 2, [(0, 1), (1, 3)]),
    ([5], 4, [(0, 1)]),
])
def test_split_cuts_contiguous_parts_of_even_cost(costs, parts, want):
    assert [(s.start, s.stop) for s in nc._split(costs, parts)] == want


def test_pooled_keeps_item_order_and_runs_the_first_part_inline(set_workers):
    set_workers(3)
    threads = {}

    def square(x):
        threads[x] = threading.current_thread()
        return x * x

    assert nc._pooled(square, range(6), [1] * 6) == [x * x for x in range(6)]
    caller = threading.current_thread()
    assert [threads[x] is caller for x in range(6)] == [True] * 2 + [False] * 4
    assert threads[2] is threads[3] and threads[4] is threads[5]


def test_one_worker_or_one_item_submits_nothing(set_workers, monkeypatch):
    def no_pool():
        raise AssertionError("a task went to the pool")

    monkeypatch.setattr(nc, "_pool", no_pool)
    set_workers(1)
    assert nc._pooled(abs, [-1, -2, -3], [1, 1, 1]) == [1, 2, 3]
    set_workers(2)
    assert nc._pooled(abs, [-4], [1]) == [4]


class _Boom(Exception):
    pass


def test_worker_exception_reaches_the_caller_and_the_pool_stays_usable(set_workers):
    set_workers(2)
    caller = threading.current_thread()
    done = []

    def fn(x):
        if x == 3:
            if threading.current_thread() is not caller:
                raise _Boom(x)
            return x  # run inline: the check below fails
        done.append(x)
        return x

    with pytest.raises(_Boom) as err:
        nc._pooled(fn, [0, 1, 2, 3], [1] * 4)
    assert err.value.args == (3,)
    assert sorted(done) == [0, 1, 2]
    assert nc._pooled(lambda x: x + 1, [0, 1, 2, 3], [1] * 4) == [1, 2, 3, 4]


def test_caller_exception_waits_for_the_workers(set_workers):
    set_workers(2)
    done = []

    def fn(x):
        if x == 0:
            raise _Boom
        time.sleep(0.05)
        done.append(x)

    with pytest.raises(_Boom):
        nc._pooled(fn, [0, 1], [1, 1])
    assert done == [1]  # no task of the failed call is still running


def test_adam_names_the_first_nonfinite_gradient_on_any_worker(set_workers):
    set_workers(2)
    params = {k: np.zeros(3) for k in "abcd"}
    grads = {k: np.ones(3) for k in "abcd"}
    grads["c"][1] = grads["d"][0] = np.nan  # both in the worker's part
    state = nc.adam_init(params)
    with pytest.raises(nc.NonFiniteGradientError, match="'c'"):
        nc.adam_step(params, grads, state, step_size=0.1)
    assert all(not np.any(p) for p in params.values()) and state.step == 0


# --- clip / rng / module ----------------------------------------------------

def test_clip_grad_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
    a, b = grads["a"], grads["b"]
    norm = nc.clip_grad_norm(grads, 1.0)
    assert abs(norm - 5.0) < 1e-12
    total = np.sqrt(np.sum(a * a) + np.sum(b * b))  # scaled in place
    assert abs(total - 1.0) < 1e-12
    before = grads["a"].copy()
    nc.clip_grad_norm(grads, 10.0)
    assert np.array_equal(grads["a"], before)


def test_clip_grad_norm_huge_finite_gradient_is_scaled_not_zeroed():
    # 1e200 ** 2 overflows; the norm is measured on g / max|g| instead
    grads = {"a": np.array([1e200, 1.0]), "b": np.array([-3e199])}
    norm = nc.clip_grad_norm(grads, 5.0)
    assert norm == pytest.approx(np.hypot(1e200, 3e199), rel=1e-15)
    total = np.hypot(grads["a"][0], grads["b"][0])
    assert total == pytest.approx(5.0, rel=1e-15)
    assert grads["a"][1] > 0.0
    # a huge norm under a larger bound is left alone
    grads = {"a": np.array([1e200, 1.0])}
    assert nc.clip_grad_norm(grads, 1e300) == 1e200
    assert np.array_equal(grads["a"], [1e200, 1.0])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_clip_grad_norm_leaves_nonfinite_gradients_for_adam(bad):
    grads = {"a": np.array([bad, 1.0]), "b": np.array([2.0])}
    norm = nc.clip_grad_norm(grads, 1.0)
    assert not np.isfinite(norm)
    assert np.array_equal(grads["a"], [bad, 1.0], equal_nan=True)
    assert np.array_equal(grads["b"], [2.0])
    params = {"a": np.zeros(2), "b": np.zeros(1)}
    with pytest.raises(nc.NonFiniteGradientError):
        nc.adam_step(params, grads, nc.adam_init(params), step_size=0.1)


def test_clip_grad_norm_does_not_depend_on_layout():
    # the mix weight's gradient is Fortran-ordered; summing its squares in
    # memory order would round differently from its C-ordered copy
    g = np.asfortranarray(np.random.default_rng(3).normal(size=(3, 3)))
    c = np.ascontiguousarray(g)
    assert np.sqrt(np.sum(g * g)) != np.sqrt(np.sum(c * c))
    assert nc.clip_grad_norm({"w": g}, 1e9) == \
        nc.clip_grad_norm({"w": c}, 1e9) == float(np.sqrt(np.sum(c * c)))


def test_make_rng_deterministic():
    a = nc.make_rng(123).standard_normal(5)
    b = nc.make_rng(123).standard_normal(5)
    assert np.array_equal(a, b)
    gen = np.random.default_rng(1)
    assert nc.make_rng(gen) is gen


class _Leaf(nc.Module):
    param_attrs = ("w", "b")

    def __init__(self):
        self.w = np.ones((2, 2))
        self.b = np.zeros(2)


class _Tree(nc.Module):
    param_attrs = ("top",)
    child_attrs = ("leaf", "many")

    def __init__(self):
        self.top = np.array([1.0])
        self.leaf = _Leaf()
        self.many = [_Leaf(), _Leaf()]


def test_module_paths_and_lift_restore():
    t = _Tree()
    names = [k for k, _ in t.named_parameters()]
    assert names == ["top", "leaf.w", "leaf.b", "many.0.w", "many.0.b", "many.1.w", "many.1.b"]
    assert sum(p.size for _, p in t.named_parameters()) == 1 + 6 + 6 + 6

    lifted = nc.lift(t)
    assert isinstance(t.leaf.w, nc.Var)
    loss = nc.vsum(nc.matmul(t.leaf.w, t.many[1].w))
    nc.backward(loss)
    assert lifted["leaf.w"].grad is not None

    nc.restore(t)
    assert isinstance(t.leaf.w, np.ndarray)
    assert t.leaf.w is lifted["leaf.w"].data
    assert dict(t.named_parameters())["many.1.w"].shape == (2, 2)

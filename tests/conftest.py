import numpy as np
import pytest

from skelflow import conditioning as cond
from skelflow import flow
from skelflow import numcore as nc
from skelflow import skeleton as sk
from skelflow.flow import ModelConfig

TINY_SKELETON_TEXT = """
markers 4
center 1
heels 0 3
root 0
edge 0 1
edge 1 2
edge 2 3
mirror 0 3
"""


@pytest.fixture
def set_workers(monkeypatch):
    """Force numcore's worker count for one test.  Each call starts from
    no pool, so the next pooled call makes one of WORKERS - 1 threads;
    the pools a test makes are shut down at its end."""
    original = nc._executor

    def shut_down_own_pool():
        if nc._executor not in (None, original):
            nc._executor.shutdown()

    def force(workers):
        shut_down_own_pool()
        monkeypatch.setattr(nc, "WORKERS", workers)
        monkeypatch.setattr(nc, "_executor", None)

    yield force
    shut_down_own_pool()


@pytest.fixture(scope="session")
def tiny_skeleton():
    return sk.build_skeleton(TINY_SKELETON_TEXT)


def make_tiny_config(ablation="stmg"):
    return ModelConfig(
        markers=4,
        channels=2,
        history=3,
        flow_steps=2,
        kernel_schedule=(3, 5),
        encoder_kernel_scale=3,
        lstm_hidden=6,
        lstm_layers=2,
        graph_channels=3,
        encoder_channels=(4, 5),
        temporal_kernel=3,
        ablation=ablation,
    ).validate()


@pytest.fixture
def tiny_config():
    return make_tiny_config()


def identity_scale_raw():
    """Raw value at which a coupling head's scale is exactly 1."""
    return float(np.log(999.0) - cond.SCALE_SHIFT)


def identity_model(config, skeleton_spec, seed=0):
    """A seeded model whose every flow step is the identity map: actnorm
    scale 1 and bias 0, an identity channel mix, and coupling heads that
    give scale 1 and offset 0."""
    model = flow.FlowModel.create(config, skeleton_spec, seed=seed)
    half = config.markers * config.c2
    for step in model.steps:
        step.actnorm.scale = np.ones_like(step.actnorm.scale)
        step.actnorm.bias = np.zeros_like(step.actnorm.bias)
        step.mix.weight = np.eye(config.channels)
        step.conditioner.out.weight = np.zeros_like(step.conditioner.out.weight)
        bias = np.zeros_like(step.conditioner.out.bias)
        bias[:half] = identity_scale_raw()
        step.conditioner.out.bias = bias
    return model


def random_model(config, skeleton_spec, seed=0):
    """A seeded model with every parameter group active (for gradient
    checks): after the seeded init, the actnorms and the zero-initialized
    coupling heads are drawn from the same generator."""
    rng = np.random.default_rng(seed)
    model = flow.FlowModel(config, skeleton_spec, rng)
    for step in model.steps:
        step.actnorm.scale = np.exp(rng.normal(0.0, 0.2, size=step.actnorm.scale.shape))
        step.actnorm.bias = rng.normal(0.0, 0.2, size=step.actnorm.bias.shape)
        step.conditioner.out.weight = rng.normal(0.0, 0.05, size=step.conditioner.out.weight.shape)
        step.conditioner.out.bias = rng.normal(0.0, 0.05, size=step.conditioner.out.bias.shape)
    return model


def random_frame_inputs(config, rng, batch=1):
    """Random raw frame + history + control window shaped for `config`."""
    m, c, t = config.markers, config.channels, config.history
    frame = rng.normal(size=(batch, m, c))
    history = rng.normal(size=(batch, m, c, t))
    controls = rng.normal(size=(batch, 3, t + 1))
    return frame, history, controls


def apply_temporal_operator(x, operator, bias):
    """A reflect-shift temporal conv on ndarray (B, T, M, C_in) features,
    applied through its dense (T*C_in, T*C_out) operator the way the
    history encoder applies it: to each marker's (T*C_in) row."""
    b, t, m, c_in = x.shape
    rows = x.transpose(0, 2, 1, 3).reshape(b * m, t * c_in)
    y = (rows @ operator).reshape(b, m, t, -1) + bias
    return y.transpose(0, 2, 1, 3)

import numpy as np
import pytest

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

"""Model invariants over the config space.

Hypothesis draws small models with a fixed seed and example count: random
trees of 2-8 markers, 2-4 channels, all three ablations, odd temporal
kernels and 1-3 flow steps at random kernel scales, so several convs often
share one stored partition.  Every draw is a config that
`ModelConfig.validate` accepts, with random heads and standardization.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from skelflow import flow
from skelflow import numcore as nc
from skelflow import skeleton as sk
from skelflow import training
from skelflow.conditioning import ABLATIONS

from oracles import fd_jacobian_logdet, segment_nll_per_frame

TOL = 1e-12
SEGMENT_TOL = 1e-10
EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def models(draw, max_size=32):
    """A random-headed model on a random tree whose markers * channels is
    at most `max_size`."""
    markers = draw(st.integers(2, min(8, max_size // 2)))
    channels = draw(st.integers(2, min(4, max_size // markers)))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, markers)]
    lines = [f"markers {markers}", f"center {draw(st.integers(0, markers - 1))}",
             "heels 0 1"]
    lines += [f"edge {u} {v}" for v, u in enumerate(parents, start=1)]
    kernel = draw(st.sampled_from([1, 3, 5, 7]))
    pad = (kernel - 1) // 2
    steps = draw(st.integers(1, 3))
    config = flow.ModelConfig(
        markers=markers, channels=channels,
        history=draw(st.integers(max(1, pad), pad + 2)),
        flow_steps=steps,
        kernel_schedule=tuple(draw(st.sampled_from([3, 5, 7])) for _ in range(steps)),
        encoder_kernel_scale=draw(st.sampled_from([3, 5])),
        lstm_hidden=draw(st.integers(2, 5)),
        lstm_layers=draw(st.integers(1, 2)),
        graph_channels=draw(st.integers(2, 4)),
        encoder_channels=tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=2))),
        temporal_kernel=kernel,
        ablation=draw(st.sampled_from(ABLATIONS)),
    ).validate()
    seed = draw(st.integers(0, 2 ** 16))
    model = flow.FlowModel.create(config, sk.build_skeleton("\n".join(lines)),
                                  seed=seed, init="random")
    rng = np.random.default_rng(seed)
    model.set_standardization(rng.normal(0.0, 0.3, size=(markers, channels)),
                              rng.uniform(0.5, 2.0, size=(markers, channels)))
    return model, rng


def frame_inputs(config, rng, lead):
    """Random frames, history windows and control windows with leading
    axes `lead`."""
    m, c, t = config.markers, config.channels, config.history
    return (rng.normal(size=lead + (m, c)), rng.normal(size=lead + (m, c, t)),
            rng.normal(size=lead + (3, t + 1)))


def assert_close(got, want, tol):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= tol * scale


@EXAMPLES
@given(models())
def test_inverse_round_trip_and_batch_rows(drawn):
    """T frames of B sequences go to the latent and back, and each
    sequence run alone gives its row of the batch."""
    model, rng = drawn
    x, history, controls = frame_inputs(model.config, rng, (3, 2))
    z, logdet, _ = model.transform_frame(x, history, controls)
    back, _ = model.inverse_transform_frame(z, history, controls)
    assert_close(back, x, TOL)
    for b in range(2):
        row = slice(b, b + 1)  # T frames of one sequence
        z_b, logdet_b, _ = model.transform_frame(x[:, row], history[:, row],
                                                 controls[:, row])
        assert_close(z_b, z[:, row], TOL)
        assert_close(logdet_b, logdet[:, row], TOL)
        back_b, _ = model.inverse_transform_frame(z[:, row], history[:, row],
                                                  controls[:, row])
        assert_close(back_b, back[:, row], TOL)


def loss_and_grads(nll, model, positions, controls, n_frames):
    lifted = nc.lift(model)
    try:
        loss = nll(model, positions, controls, n_frames)
        grads = nc.grad(loss, list(lifted.values()))
    finally:
        nc.restore(model)
    return float(nc._data(loss)), grads


@EXAMPLES
@given(models())
def test_layer_major_segment_matches_frame_by_frame(drawn):
    """The training loss over a segment and every parameter gradient, run
    layer-major and frame by frame; the gradients are finite."""
    model, rng = drawn
    n_frames = 3
    t = model.config.history + n_frames
    positions = rng.normal(size=(2, model.config.markers, model.config.channels, t))
    controls = rng.normal(size=(2, 3, t))
    got, got_grads = loss_and_grads(training.segment_nll, model, positions,
                                    controls, n_frames)
    want, want_grads = loss_and_grads(segment_nll_per_frame, model, positions,
                                      controls, n_frames)
    assert abs(got - want) <= SEGMENT_TOL * max(1.0, abs(want))
    assert len(got_grads) == len(want_grads)
    for g, w in zip(got_grads, want_grads):
        assert np.all(np.isfinite(g))
        assert_close(g, w, SEGMENT_TOL)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(models(max_size=8))
def test_logdet_matches_finite_difference_jacobian(drawn):
    """On the smallest draws (markers * channels <= 8), the analytic
    logdet of one frame against the numerically differentiated Jacobian."""
    model, rng = drawn
    x, history, controls = frame_inputs(model.config, rng, ())
    _, logdet, _ = model.transform_frame(x, history, controls)
    assert abs(float(logdet) - fd_jacobian_logdet(model, x, history, controls)) < 1e-6

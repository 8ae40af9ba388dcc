"""Per-frame normalizing flow over skeleton poses.

Each frame (M markers x C channels) is mapped to a standard-normal latent by
a stack of flow steps; every step is actnorm -> invertible channel mix ->
affine coupling, with the coupling's scale/offset produced by the recurrent
graph conditioner.  The sequence model is autoregressive: the same frame-level
bijection is applied at every timestep, conditioned on the pose history and
the control track, with per-step LSTM state carried along.

Conventions:
  frames       (B, M, C) raw cm, root-relative
  history      (B, M, C, T_h)
  controls     (B, 3, T_h + 1), rows (forward, sideways, rotation) per frame
  states       list over flow steps of LSTM state
Unbatched (M, C) inputs are accepted and produce unbatched outputs.  A
leading time axis, frames (T, B, M, C) with history (T, B, M, C, T_h) and
controls (T, B, 3, T_h + 1), evaluates T consecutive frames of B sequences
layer-major: each flow step runs once over all T*B frames and only the LSTM
recurrence steps through time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, field

import numpy as np

from . import __version__
from . import data as _data
from . import numcore as nc
from . import skeleton as sk
from .conditioning import CouplingConditioner, HistoryEncoder, ABLATIONS

LOG2PI = float(np.log(2.0 * np.pi))
CHECKPOINT_MAGIC = b"SKFLOW01"
MIX_LOGDET_FLOOR = float(np.log(1e-12))

DEFAULT_SCHEDULE = (3,) * 10 + (5,) * 4 + (7,) * 2


class ZeroScaleError(ArithmeticError):
    """Actnorm scale has a zero entry; the step is not invertible."""


class DegenerateBatchError(ValueError):
    """Initialization batch has (near-)zero variance in some channel."""


@dataclass
class ModelConfig:
    markers: int = 21
    channels: int = 3
    history: int = 10
    flow_steps: int = 16
    kernel_schedule: tuple = DEFAULT_SCHEDULE
    encoder_kernel_scale: int = 3
    lstm_hidden: int = 512
    lstm_layers: int = 2
    graph_channels: int = 16
    encoder_channels: tuple = (32, 64)
    temporal_kernel: int = 9
    ablation: str = "stmg"

    @property
    def c1(self):
        """Channels left untransformed by the coupling (conditioner input)."""
        return (self.channels + 1) // 2

    @property
    def c2(self):
        return self.channels - self.c1

    def validate(self):
        if self.markers < 1 or self.channels < 2 or self.history < 1:
            raise ValueError("need markers >= 1, channels >= 2, history >= 1")
        if self.flow_steps < 1:
            raise ValueError("need at least one flow step")
        if len(self.kernel_schedule) != self.flow_steps:
            raise ValueError(
                f"kernel schedule length {len(self.kernel_schedule)} != flow steps {self.flow_steps}")
        for d in tuple(self.kernel_schedule) + (self.encoder_kernel_scale,):
            if d < 3 or d % 2 == 0:
                raise ValueError(f"kernel scales must be odd >= 3, got {d}")
        if self.temporal_kernel % 2 == 0 or self.temporal_kernel < 1:
            raise ValueError("temporal kernel must be odd")
        if self.ablation == "stmg" and self.history < (self.temporal_kernel - 1) // 2:
            raise ValueError(
                f"history of {self.history} frames too short for temporal kernel "
                f"{self.temporal_kernel}: stmg needs at least {(self.temporal_kernel - 1) // 2}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}")
        if self.lstm_hidden < 1 or self.lstm_layers < 1:
            raise ValueError("bad LSTM shape")
        return self

    def to_dict(self):
        d = asdict(self)
        d["kernel_schedule"] = list(self.kernel_schedule)
        d["encoder_channels"] = list(self.encoder_channels)
        return d

    @classmethod
    def from_dict(cls, d):
        """Read a complete model config (see `data.config_fields`)."""
        kwargs = _data.config_fields(cls, d, "model.")
        missing = [name for name in cls.__dataclass_fields__ if name not in kwargs]
        if missing:
            raise ValueError(f"model config is missing keys {missing}")
        return cls(**kwargs).validate()


def desk_config(markers=21, ablation="stmg"):
    """Small configuration sized for minutes-scale CPU training runs."""
    return ModelConfig(
        markers=markers,
        flow_steps=6,
        kernel_schedule=(3, 3, 3, 5, 5, 7),
        lstm_hidden=48,
        lstm_layers=2,
        graph_channels=8,
        encoder_channels=(12, 24),
        ablation=ablation,
    ).validate()


class ActNorm(nc.Module):
    """Per-(marker, channel) affine y = (x + bias) * scale with data init."""

    param_attrs = ("scale", "bias")

    def __init__(self, markers, channels):
        self.scale = np.ones((markers, channels))
        self.bias = np.zeros((markers, channels))

    def logdet(self):
        if not nc._data(self.scale).all():
            raise ZeroScaleError("actnorm scale has zero entries")
        return nc.vsum(nc.log(nc.absolute(self.scale)))

    def forward(self, x):
        return (x + self.bias) * self.scale, self.logdet()

    def inverse(self, y):
        """y / scale - bias on plain arrays (no tape)."""
        scale = nc._data(self.scale)
        if not scale.all():
            raise ZeroScaleError("actnorm scale has zero entries")
        return y / scale - nc._data(self.bias)

    def init_from_batch(self, x):
        """Set bias/scale so the batch maps to zero mean, unit std per cell."""
        x = nc._data(x)
        if x.ndim != 3 or x.shape[0] < 2:
            raise DegenerateBatchError("need a (N, M, C) batch with N >= 2")
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        if np.any(std < 1e-8):
            flat = int(np.argmin(std))
            raise DegenerateBatchError(
                f"batch std ~ 0 at (marker, channel) {np.unravel_index(flat, std.shape)}")
        self.bias = -mean
        self.scale = 1.0 / std


class InvertibleMix(nc.Module):
    """Invertible C x C mixing matrix applied across channels of each marker."""

    param_attrs = ("weight",)

    def __init__(self, channels, rng=None):
        if rng is None:
            self.weight = np.eye(channels)
        else:
            q, r = np.linalg.qr(rng.normal(size=(channels, channels)))
            q = q * np.sign(np.diag(r))  # fix reflection ambiguity
            self.weight = q
        self._inverted = (None, None)  # (weight bytes, inverse) after a passing check

    def _logabsdet(self):
        lad = nc.logabsdet(self.weight)
        if float(nc._data(lad)) < MIX_LOGDET_FLOOR:
            raise nc.SingularMatrixError("channel mix matrix is near singular")
        return lad

    def forward(self, x, markers):
        return nc.matmul(x, self.weight), nc.mul(self._logabsdet(), float(markers))

    def inverse(self, y):
        """y @ inv(weight); the inverse is reused while the weight's bytes
        are unchanged, and only a weight that passed the singularity check
        is ever kept."""
        weight = nc._data(self.weight)
        if weight.tobytes() != self._inverted[0]:
            self._logabsdet()
            self._inverted = (weight.tobytes(), np.linalg.inv(weight))
        return y @ self._inverted[1]


class FlowStep(nc.Module):
    """actnorm -> channel mix -> affine coupling on the channel split."""

    param_attrs = ()
    child_attrs = ("actnorm", "mix", "conditioner")

    def __init__(self, config, adjacency, pooled_width, rng):
        m, c = config.markers, config.channels
        self.c1 = config.c1
        self.markers = m
        self.actnorm = ActNorm(m, c)
        self.mix = InvertibleMix(c, rng)
        self.conditioner = CouplingConditioner(
            config.ablation, adjacency, m, self.c1, config.c2,
            config.graph_channels, pooled_width, 3 * (config.history + 1),
            config.lstm_hidden, config.lstm_layers, rng)

    def initial_state(self, batch):
        return self.conditioner.initial_state(batch)

    def forward(self, x, pooled, controls_flat, state):
        y, ld_act = self.actnorm.forward(x)
        z, ld_mix = self.mix.forward(y, self.markers)
        xb1 = z[:, :, :self.c1]
        xb2 = z[:, :, self.c1:]
        s, offset, new_state = self.conditioner(xb1, pooled, controls_flat, state)
        h2 = (xb2 + offset) * s
        ld_couple = nc.vsum(nc.log(s), axis=(1, 2))
        out = nc.concat([xb1, h2], axis=2)
        logdet = nc.add(nc.add(ld_act, ld_mix), ld_couple)
        return out, logdet, new_state

    def inverse(self, h, pooled, controls_flat, state):
        """Inverse of `forward` on plain arrays (no tape): undo the
        coupling, then the mix, then actnorm.  Returns (x, new_state)."""
        hb1 = h[:, :, :self.c1]
        s, offset, new_state = self.conditioner(hb1, pooled, controls_flat, state)
        z = np.concatenate([hb1, h[:, :, self.c1:] / s - offset], axis=2)
        return self.actnorm.inverse(self.mix.inverse(z)), new_state


class FlowModel(nc.Module):
    """The full frame-level bijection plus shared history encoder."""

    param_attrs = ()
    child_attrs = ("encoder", "steps")

    def __init__(self, config, skeleton_spec, rng):
        config.validate()
        if skeleton_spec.marker_count != config.markers:
            raise ValueError(
                f"skeleton has {skeleton_spec.marker_count} markers, config says {config.markers}")
        self.config = config
        self.skeleton = skeleton_spec
        partitions = {}
        for d in set(config.kernel_schedule) | {config.encoder_kernel_scale}:
            partitions[d] = sk.partition(skeleton_spec, d)
        self.encoder = HistoryEncoder(
            config.ablation, partitions[config.encoder_kernel_scale],
            config.markers, config.channels, config.history,
            config.encoder_channels, config.temporal_kernel, rng)
        self.steps = [FlowStep(config, partitions[d], self.encoder.width, rng)
                      for d in config.kernel_schedule]
        self.data_mean = np.zeros((config.markers, config.channels))
        self.data_std = np.ones((config.markers, config.channels))

    # -- construction -------------------------------------------------------

    @classmethod
    def create(cls, config, skeleton_spec, seed=0, init="default"):
        rng = nc.make_rng(seed)
        model = cls(config, skeleton_spec, rng)
        if init == "identity":
            model._make_identity()
        elif init == "random":
            model._randomize_heads(rng)
        elif init != "default":
            raise ValueError(f"unknown init mode '{init}'")
        return model

    def _make_identity(self):
        from .conditioning import identity_scale_raw
        half = self.config.markers * self.config.c2
        for step in self.steps:
            step.actnorm.scale = np.ones_like(step.actnorm.scale)
            step.actnorm.bias = np.zeros_like(step.actnorm.bias)
            step.mix.weight = np.eye(self.config.channels)
            step.conditioner.out.weight = np.zeros_like(step.conditioner.out.weight)
            bias = np.zeros_like(step.conditioner.out.bias)
            bias[:half] = identity_scale_raw()
            step.conditioner.out.bias = bias

    def _randomize_heads(self, rng):
        """Make every parameter group active (for gradient checking)."""
        for step in self.steps:
            step.actnorm.scale = np.exp(rng.normal(0.0, 0.2, size=step.actnorm.scale.shape))
            step.actnorm.bias = rng.normal(0.0, 0.2, size=step.actnorm.bias.shape)
            step.conditioner.out.weight = rng.normal(0.0, 0.05, size=step.conditioner.out.weight.shape)
            step.conditioner.out.bias = rng.normal(0.0, 0.05, size=step.conditioner.out.bias.shape)

    # -- plumbing -------------------------------------------------------------

    def initial_state(self, batch):
        return [step.initial_state(batch) for step in self.steps]

    def set_standardization(self, mean, std):
        mean = np.asarray(mean, dtype=np.float64)
        std = np.asarray(std, dtype=np.float64)
        shape = (self.config.markers, self.config.channels)
        if mean.shape != shape or std.shape != shape:
            raise ValueError(f"standardization stats must have shape {shape}")
        if np.any(std <= 0):
            raise ValueError("standardization std must be positive")
        self.data_mean = mean
        self.data_std = std

    def standardize(self, x):
        return (x - self.data_mean) / self.data_std

    def destandardize(self, x):
        return x * self.data_std + self.data_mean

    def _std_logdet(self):
        return float(-np.sum(np.log(self.data_std)))

    def _prep_history(self, history, history_mask):
        # stats are per (marker, channel); history carries a trailing time axis
        hist_std = (history - self.data_mean[:, :, None]) / self.data_std[:, :, None]
        if history_mask is not None:
            hist_std = hist_std * np.asarray(history_mask, dtype=np.float64)[..., None, :]
        return hist_std

    def _rows(self, x, history, controls, states, history_mask):
        """Lay x out as T*B time-major rows, with its conditioning.

        x is one frame (M, C), a batch (B, M, C), or T consecutive frames of
        B sequences (T, B, M, C); history (..., M, C, T_h) and controls
        (..., 3, T_h + 1) carry the same leading axes.  Returns the frames
        (T*B, M, C), the pooled history (T*B, width), the flattened controls
        (T*B, 3 * (T_h + 1)), the LSTM states of the B sequences and x's
        leading axes.  The history encoder runs once, over all T*B windows.
        """
        shape = nc._data(x).shape
        if not 2 <= len(shape) <= 4:
            raise ValueError(f"expected 2 to 4 dims, got {len(shape)}")
        t, b = ((1, 1) + shape[:-2])[-2:]
        hist_std = self._prep_history(history, history_mask)
        pooled = self.encoder(nc.reshape(hist_std, (t * b,) + hist_std.shape[-3:]))
        ctrl_flat = nc.reshape(controls, (t * b, -1))
        if states is None:
            states = self.initial_state(b)
        return (nc.reshape(x, (t * b,) + shape[-2:]), pooled, ctrl_flat,
                states, shape[:-2])

    # -- the bijection ---------------------------------------------------------

    def transform_frame(self, x, history, controls, states=None, history_mask=None):
        """Full data-to-latent map: returns (z, logdet, states').

        x is one frame (M, C), a batch (B, M, C), or T consecutive frames of
        B sequences (T, B, M, C), with history and controls carrying the
        same leading axes (see `_rows`).  The LSTM states of the B sequences
        advance through the T frames, and each flow step runs once over all
        of them.  `logdet` is per-sample, shaped like x's leading axes, and
        includes the standardization term, so
        log p(x) = log N(z) + logdet.
        """
        h, pooled, ctrl_flat, states, lead = self._rows(
            x, history, controls, states, history_mask)
        h = self.standardize(h)
        logdet = np.zeros(nc._data(h).shape[0])
        new_states = []
        for step, state in zip(self.steps, states):
            h, ld, st = step.forward(h, pooled, ctrl_flat, state)
            logdet = nc.add(logdet, ld)
            new_states.append(st)
        logdet = nc.add(logdet, self._std_logdet())
        return (nc.reshape(h, lead + nc._data(h).shape[1:]),
                nc.reshape(logdet, lead), new_states)

    def inverse_transform_frame(self, z, history, controls, states=None, history_mask=None):
        """Latent-to-data map; exact inverse of transform_frame, on plain
        arrays (no tape)."""
        h, pooled, ctrl_flat, states, lead = self._rows(
            z, history, controls, states, history_mask)
        new_states = [None] * len(self.steps)
        for k in range(len(self.steps) - 1, -1, -1):
            h, new_states[k] = self.steps[k].inverse(h, pooled, ctrl_flat, states[k])
        x = self.destandardize(h)
        return x.reshape(lead + x.shape[1:]), new_states

    def log_likelihood(self, x, history, controls, states=None, history_mask=None):
        """Exact log density of x given history/controls.

        Takes the inputs of `transform_frame`.  Returns (logp, new_states);
        logp is per-sample, shaped like x's leading axes: (B,) for a batch,
        (T, B) for T frames of B sequences, a scalar for one frame.
        """
        z, logdet, new_states = self.transform_frame(x, history, controls, states, history_mask)
        zsq = nc.vsum(nc.mul(z, z), axis=(-2, -1))
        dim = self.config.markers * self.config.channels
        base = nc.sub(nc.mul(zsq, -0.5), 0.5 * dim * LOG2PI)
        logp = nc.add(base, logdet)
        if not isinstance(logp, nc.Var) and not np.all(np.isfinite(nc._data(logp))):
            raise nc.NonFiniteError("log-likelihood is not finite")
        return logp, new_states

    def sample_frame(self, z, history, controls, states=None, temperature=1.0, history_mask=None):
        """Draw one frame from the conditional density: x = f^{-1}(tau * z).

        temperature is a float, or an array that broadcasts against z (one
        value per sample of a batch).
        """
        x, new_states = self.inverse_transform_frame(
            nc.mul(z, temperature), history, controls, states, history_mask)
        if not np.isfinite(x).all():
            raise nc.NonFiniteError("sampled frame is not finite")
        return x, new_states

    # -- data-dependent init ----------------------------------------------------

    def init_actnorm(self, frames, histories, controls, history_mask=None):
        """Initialize every step's actnorm from one batch, sequentially.

        frames (N, M, C), histories (N, M, C, T_h), controls (N, 3, T_h+1),
        all raw.  Each step's actnorm maps its own input batch to zero mean
        and unit std per (marker, channel).
        """
        h, pooled, ctrl_flat, states, _ = self._rows(
            nc._data(frames), histories, controls, None, history_mask)
        h = nc._data(self.standardize(h))
        for step, state in zip(self.steps, states):
            step.actnorm.init_from_batch(h)
            h, _, _ = step.forward(h, pooled, ctrl_flat, state)
        return self

    # -- bookkeeping -------------------------------------------------------------

    def census(self):
        """Parameter counts by component group."""
        groups = {"graph": 0, "lstm": 0, "projection": 0, "actnorm": 0, "mix": 0}
        total = 0
        for path, arr in self.named_parameters():
            n = nc._data(arr).size
            total += n
            parts = path.split(".")
            if "sgcn" in parts or "tcn" in parts or "res" in parts or "blocks" in parts:
                groups["graph"] += n
            elif "lstm" in parts:
                groups["lstm"] += n
            elif "out" in parts:
                groups["projection"] += n
            elif "actnorm" in parts:
                groups["actnorm"] += n
            elif "mix" in parts:
                groups["mix"] += n
            else:  # pragma: no cover - every param should be classified
                raise AssertionError(f"unclassified parameter {path}")
        groups["total"] = total
        return groups


# -- checkpoints ------------------------------------------------------------------


def save_checkpoint(model, path, meta=None):
    """Deterministic binary checkpoint: header JSON + raw float64 blobs.

    No timestamps or environment data; identical models produce identical
    bytes.
    """
    entries = [(name, nc._data(arr)) for name, arr in model.named_parameters()]
    entries.append(("buffers.data_mean", model.data_mean))
    entries.append(("buffers.data_std", model.data_std))
    header = {
        "format_version": 1,
        "package_version": __version__,
        "config": model.config.to_dict(),
        "skeleton_text": sk.to_config_text(model.skeleton),
        "params": [[name, list(arr.shape)] for name, arr in entries],
        "meta": meta or {},
    }
    _data.write_container(path, CHECKPOINT_MAGIC, header, [arr for _, arr in entries])


class CheckpointFormatError(ValueError):
    """File is not a recognizable model checkpoint."""


def load_checkpoint(path):
    """Load a checkpoint written by save_checkpoint; returns (model, meta)."""
    header, payload = _data.read_container(path, CHECKPOINT_MAGIC, CheckpointFormatError)
    if header.get("format_version") != 1:
        raise CheckpointFormatError(f"{path}: unsupported format {header.get('format_version')}")
    try:
        config = ModelConfig.from_dict(header["config"])
        spec = sk.build_skeleton(header["skeleton_text"])
        model = FlowModel.create(config, spec, seed=0, init="default")
        entries = [(str(name), tuple(int(n) for n in shape))
                   for name, shape in header["params"]]
        meta = dict(header["meta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: bad header content: {exc!r}") from None
    sizes = [math.prod(shape) for _, shape in entries]
    if min(sizes, default=0) < 0 or sum(sizes) != payload.size:
        raise CheckpointFormatError(
            f"{path}: payload holds {payload.size} values, header declares {sum(sizes)}")
    current = dict(model.named_parameters())
    current["buffers.data_mean"] = model.data_mean
    current["buffers.data_std"] = model.data_std
    loaded = set()
    for (name, shape), arr in zip(entries, np.split(payload, np.cumsum(sizes)[:-1])):
        if name not in current:
            raise CheckpointFormatError(f"{path}: unknown parameter {name}")
        if name in loaded:
            raise CheckpointFormatError(f"{path}: parameter {name} listed twice")
        loaded.add(name)
        if current[name].shape != shape:
            raise CheckpointFormatError(f"{path}: shape mismatch for {name}")
        if name.startswith("buffers."):
            setattr(model, name[len("buffers."):], arr.reshape(shape))
        else:
            model.set_parameter(name, arr.reshape(shape))
    missing = set(current) - loaded
    if missing:
        raise CheckpointFormatError(f"{path}: missing parameters {sorted(missing)[:3]}")
    return model, meta

"""Span tracing around skelflow's public layer entry points.

The benchmark installs these wrappers from outside the package: each one
replaces a module function or class method with a version that records a
span (op, name, start, end, parent) while the tracer is enabled and calls
straight through when it is not.  Spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans cover, so
the self times of one op's spans add up to the op's root span.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import time

CENSUS_OPS = ("getitem", "add", "matmul", "mul", "sigmoid", "tanh", "concat",
              "logabsdet")


class Tracer:
    """In-memory span recorder; spans belong to the op open at the time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        # closed spans: (op, name, start, end, parent_id, child_seconds, id).
        # Tuples of atoms drop out of the cyclic GC's tracking, so a long
        # trace does not slow the collections the traced code triggers.
        self.spans = []
        self.counts = collections.defaultdict(float)
        # open spans: [id, name, start, child_seconds, parent_id]
        self._stack = []
        self._next_id = 0
        self._op = None
        self._scope = None

    def open(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([span_id, name, self.clock(), 0.0, parent])
        return span_id

    def close(self, span_id):
        end = self.clock()
        top = self._stack.pop()
        if top[0] != span_id:
            raise RuntimeError(f"span {top[1]} closed out of order")
        if self._stack:
            self._stack[-1][3] += end - top[2]
        self.spans.append((self._op, top[1], top[2], end, top[4], top[3],
                           span_id))

    def begin_op(self, op, kind):
        """Enable recording and open the root span of one traced op.

        `op` identifies the op (an int for timed ops, a string such as
        "setup.1" for a traced set-up repetition).
        """
        self._op = op
        self._scope = "setup" if kind == "setup" else "ops"
        self.enabled = True
        return self.open(f"op.{kind}")

    def end_op(self, root):
        self.close(root)
        self.enabled = False
        if self._stack:
            raise RuntimeError("spans left open at the end of an op")

    @property
    def in_timed_op(self):
        return self.enabled and self._scope == "ops"

    def count(self, name, value):
        if self.enabled:
            self.counts[(self._scope, name)] += value

    def self_times(self):
        """Per span: (op, name, self_seconds, total_seconds)."""
        return [(s[0], s[1], s[3] - s[2] - s[5], s[3] - s[2])
                for s in self.spans]

    def write_jsonl(self, path):
        """One span per line: [id, op, name, start_s, end_s, parent_id]."""
        with open(path, "w") as fh:
            for op, name, start, end, parent, _, span_id in self.spans:
                fh.write(json.dumps([span_id, op, name, start, end, parent])
                         + "\n")


class Patches:
    """Replace attributes and put the originals back in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _spanned(tracer, name, after=None):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, result)
            return result
        return wrapper
    return make


def tape_census(loss):
    """Count the tape nodes reachable from `loss`, keyed by the op that made
    them; parameters and other leaves count under "leaf".

    A read-only walk over the Var graph: node op names come from the
    backward closure each numcore op attaches.
    """
    counts = collections.Counter()
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        bw = node._bw
        op = bw.__qualname__.split(".")[0] if bw is not None else "leaf"
        counts[op] += 1
        stack.extend(node._parents)
    return counts


def install_layer_spans(tracer, patches, censuses):
    """Wrap the public entry points of every skelflow module.

    Each traced `numcore.grad` call first walks the loss graph (in its own
    "trace.census" span, so the walk is not charged to any layer) and
    appends the per-op node counts to `censuses`.
    """
    from skelflow import (cli, conditioning, data, flow, metrics, numcore,
                          sequence, skeleton, training)

    def span(owner, attr, name, after=None):
        patches.wrap(owner, attr, _spanned(tracer, name, after))

    def file_size(counter, arg):
        return lambda args, result: tracer.count(
            counter, os.path.getsize(args[arg]))

    def checkpoint_size(arg):
        def after(args, result):
            tracer.counts[("any", "flow.checkpoint_bytes")] = \
                os.path.getsize(args[arg])
        return after

    def census_then_grad(fn):
        @functools.wraps(fn)
        def wrapper(loss, leaves):
            if tracer.in_timed_op:
                index = tracer.open("trace.census")
                censuses.append(tape_census(loss))
                tracer.close(index)
            return fn(loss, leaves)
        return wrapper

    span(numcore, "grad", "numcore.grad")
    patches.wrap(numcore, "grad", census_then_grad)
    span(numcore, "adam_step", "numcore.adam_step")
    span(numcore, "clip_grad_norm", "numcore.clip_grad_norm")
    span(numcore, "lift", "numcore.lift")
    span(numcore, "restore", "numcore.restore")

    for cls, name in ((conditioning.HistoryEncoder, "history_encoder"),
                      (conditioning.SpatialGraphConv, "spatial_graph_conv"),
                      (conditioning.TemporalConv, "temporal_conv"),
                      (conditioning.LSTMStack, "lstm_stack"),
                      (conditioning.CouplingConditioner,
                       "coupling_conditioner")):
        span(cls, "__call__", f"conditioning.{name}")

    for method in ("forward", "inverse"):
        span(flow.ActNorm, method, "flow.actnorm")
        span(flow.InvertibleMix, method, "flow.mix")
        span(flow.FlowStep, method, "flow.flow_step")
    span(flow.FlowModel, "transform_frame", "flow.transform_frame")
    span(flow.FlowModel, "inverse_transform_frame",
         "flow.inverse_transform_frame")
    span(flow.FlowModel, "init_actnorm", "flow.init_actnorm")
    span(flow, "save_checkpoint", "flow.save_checkpoint", checkpoint_size(1))
    span(flow, "load_checkpoint", "flow.load_checkpoint", checkpoint_size(0))

    span(sequence, "generate", "sequence.generate",
         lambda args, result: tracer.count("sequence.frames",
                                           result.shape[-1]))
    span(sequence, "reconstruct", "sequence.reconstruct")

    span(training, "segment_nll", "training.segment_nll")
    span(training, "evaluate_nll", "training.evaluate_nll")
    span(training, "synthetic_corpus", "training.synthetic_corpus")
    span(training, "initialize_from_corpus", "training.initialize_from_corpus")

    span(data, "synth_gait", "data.synth_gait")
    span(data, "to_root_relative", "data.to_root_relative")
    span(data, "load_clip", "data.load_clip", file_size("data.bytes_read", 0))
    span(data, "save_clip", "data.save_clip",
         file_size("data.bytes_written", 1))

    span(metrics, "footstep_sweep", "metrics.footstep_sweep")
    span(metrics, "bone_length_analysis", "metrics.bone_length_analysis")
    span(skeleton, "partition", "skeleton.partition")
    span(cli, "cmd_generate", "cli.generate")
    span(cli, "cmd_evaluate", "cli.evaluate")


# (metric, unit, how, spans).  how: "self" is self ms per call of the first
# span name (summed over all names); "total" is inclusive ms per call;
# "calls" is calls per traced op; "self_per_frame" divides self time by the
# frames the rollout produced.  Per-call times come from the timed ops; a
# layer that only runs during set-up is timed in the traced set-up
# repetition.
LAYER_METRICS = (
    ("numcore.grad_ms", "ms", "total", ("numcore.grad",)),
    ("numcore.adam_step_ms", "ms", "self", ("numcore.adam_step",)),
    ("numcore.clip_grad_norm_ms", "ms", "self", ("numcore.clip_grad_norm",)),
    ("numcore.lift_restore_ms", "ms", "self",
     ("numcore.lift", "numcore.restore")),
    ("conditioning.history_encoder_ms", "ms", "self",
     ("conditioning.history_encoder",)),
    ("conditioning.history_encoder.calls", "count", "calls",
     ("conditioning.history_encoder",)),
    ("conditioning.spatial_graph_conv_ms", "ms", "self",
     ("conditioning.spatial_graph_conv",)),
    ("conditioning.spatial_graph_conv.calls", "count", "calls",
     ("conditioning.spatial_graph_conv",)),
    ("conditioning.temporal_conv_ms", "ms", "self",
     ("conditioning.temporal_conv",)),
    ("conditioning.temporal_conv.calls", "count", "calls",
     ("conditioning.temporal_conv",)),
    ("conditioning.lstm_stack_ms", "ms", "self", ("conditioning.lstm_stack",)),
    ("conditioning.lstm_stack.calls", "count", "calls",
     ("conditioning.lstm_stack",)),
    ("conditioning.coupling_conditioner_self_ms", "ms", "self",
     ("conditioning.coupling_conditioner",)),
    ("conditioning.coupling_conditioner.calls", "count", "calls",
     ("conditioning.coupling_conditioner",)),
    ("flow.actnorm_ms", "ms", "self", ("flow.actnorm",)),
    ("flow.mix_ms", "ms", "self", ("flow.mix",)),
    ("flow.flow_step_self_ms", "ms", "self", ("flow.flow_step",)),
    ("flow.transform_frame_self_ms", "ms", "self", ("flow.transform_frame",)),
    ("flow.inverse_transform_frame_self_ms", "ms", "self",
     ("flow.inverse_transform_frame",)),
    ("flow.init_actnorm_ms", "ms", "total", ("flow.init_actnorm",)),
    ("flow.load_checkpoint_ms", "ms", "self", ("flow.load_checkpoint",)),
    ("flow.save_checkpoint_ms", "ms", "self", ("flow.save_checkpoint",)),
    ("sequence.generate_self_ms", "ms", "self_per_frame",
     ("sequence.generate",)),
    ("sequence.reconstruct_self_ms", "ms", "self", ("sequence.reconstruct",)),
    ("training.segment_nll_ms", "ms", "total", ("training.segment_nll",)),
    ("training.step_self_ms", "ms", "self", ("op.train_step",)),
    ("training.evaluate_nll_ms", "ms", "total", ("training.evaluate_nll",)),
    ("training.synthetic_corpus_ms", "ms", "self",
     ("training.synthetic_corpus",)),
    ("training.initialize_from_corpus_ms", "ms", "self",
     ("training.initialize_from_corpus",)),
    ("data.synth_gait_ms", "ms", "self", ("data.synth_gait",)),
    ("data.to_root_relative_ms", "ms", "self", ("data.to_root_relative",)),
    ("data.load_clip_ms", "ms", "self", ("data.load_clip",)),
    ("data.save_clip_ms", "ms", "self", ("data.save_clip",)),
    ("metrics.footstep_sweep_ms", "ms", "self", ("metrics.footstep_sweep",)),
    ("metrics.bone_length_analysis_ms", "ms", "self",
     ("metrics.bone_length_analysis",)),
    ("skeleton.partition_ms", "ms", "self", ("skeleton.partition",)),
    ("cli.generate_self_ms", "ms", "self", ("cli.generate",)),
    ("cli.evaluate_self_ms", "ms", "self", ("cli.evaluate",)),
)

# counters: (metric, unit, counter name); values are per traced timed op
LAYER_COUNTS = (
    ("sequence.frames", "count", "sequence.frames"),
    ("data.bytes_read", "bytes", "data.bytes_read"),
    ("data.bytes_written", "bytes", "data.bytes_written"),
)


def layer_metrics(tracer, traced_ops):
    """Per-layer metrics from the recorded spans and counters."""
    # scope -> span name -> [calls, self_s, total_s]
    agg = {"ops": collections.defaultdict(lambda: [0, 0.0, 0.0]),
           "setup": collections.defaultdict(lambda: [0, 0.0, 0.0])}
    for op, name, self_s, total_s in tracer.self_times():
        entry = agg["setup" if isinstance(op, str) else "ops"][name]
        entry[0] += 1
        entry[1] += self_s
        entry[2] += total_s
    frames = tracer.counts[("ops", "sequence.frames")]
    out = {}
    for metric, unit, how, names in LAYER_METRICS:
        scope = agg["ops"] if agg["ops"][names[0]][0] else agg["setup"]
        calls = scope[names[0]][0]
        if how == "calls":
            value = agg["ops"][names[0]][0] / max(traced_ops, 1)
        elif calls == 0:
            value = 0.0
        elif how == "total":
            value = 1e3 * scope[names[0]][2] / calls
        elif how == "self_per_frame":
            value = 1e3 * scope[names[0]][1] / max(frames, 1)
        else:
            value = 1e3 * sum(scope[n][1] for n in names) / calls
        out[metric] = {"value": value, "unit": unit}
    for metric, unit, counter in LAYER_COUNTS:
        out[metric] = {"value": tracer.counts[("ops", counter)]
                       / max(traced_ops, 1), "unit": unit}
    out["flow.checkpoint_bytes"] = {
        "value": tracer.counts[("any", "flow.checkpoint_bytes")],
        "unit": "bytes"}
    return out

"""Turn one run's ops, checks and spans into metrics, and print them."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess

import numpy as np

import spans

# End-to-end metrics of the final JSON line (see BENCHMARK.json).  `op_ms`
# is the time per unit of work of the workload's requests: a train step; a
# frame of a B=1 generate request, a generate job or a reconstruction; a
# clip of a `skelflow evaluate` job.  Its percentiles weight each op by its
# units, so every unit of work counts once.  Its p50 and `work_per_s` are
# reported but not gated: the reference machine's speed moves by up to
# 1.6x from second to second, so the median of a run depends on how long
# it spent at each speed, while the p90 stays put.
E2E = (("op_ms.p90", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MAIN_KINDS = {"train": ("train_step",), "rollout": ("gen", "batch", "recon"),
              "evaluate_clips": ("evaluate",)}

# Named metrics per workload: (name, unit, op kind, statistic).  Percentiles
# are over ms per frame for "gen" requests and ms per op otherwise; "rate"
# is units of work per second over that kind.
NAMED = {
    "train": (("train_step_ms.p50", "ms", "train_step", 50),
              ("train_step_ms.p90", "ms", "train_step", 90),
              ("holdout_eval_ms.p50", "ms", "holdout_eval", 50)),
    "rollout": (("gen_frame_ms.p50", "ms", "gen", 50),
                ("gen_frame_ms.p90", "ms", "gen", 90),
                ("gen_batch_frames_per_s", "1/s", "batch", "rate"),
                ("recon_clip_ms.p50", "ms", "recon", 50),
                ("recon_clip_ms.p90", "ms", "recon", 90)),
    "evaluate_clips": (("eval_clips_per_s", "1/s", "evaluate", "rate"),),
}
P90_MIN_SAMPLES = 100


def p90_kinds(workload):
    """The op kinds a reported p90 is taken over; a run needs
    P90_MIN_SAMPLES ops of each."""
    kinds = {kind for _, _, kind, stat in NAMED[workload] if stat == 90}
    return tuple(sorted(kinds)) or MAIN_KINDS[workload]
# Largest share of an op's wall time that no layer span may cover, on
# average over the traced ops of a kind (see `_unattributed`).
UNATTRIBUTED_MAX_SHARE = 0.10


def _stat(ops, kinds, stat, per_unit):
    """(value, sample count) of one statistic over the successful ops.
    Per-unit percentiles count each op once per unit of work."""
    chosen = [op for op in ops if op.kind in kinds and op.ok]
    if not chosen:
        return None, 0
    if stat == "rate":
        return (sum(op.units for op in chosen)
                / sum(op.seconds for op in chosen)), len(chosen)
    if per_unit:
        values = np.repeat([1e3 * op.seconds / op.units for op in chosen],
                           [round(op.units) for op in chosen])
    else:
        values = [1e3 * op.seconds for op in chosen]
    return float(np.percentile(values, stat)), len(chosen)


def timing_metrics(ops, workload, setup_s, n_setup):
    """Named and end-to-end timing metrics: name -> (value, unit, n)."""
    main = MAIN_KINDS[workload]
    out = {name: (*_stat(ops, (kind,), stat, kind == "gen"), unit)
           for name, unit, kind, stat in NAMED[workload]}
    for q in (50, 90):
        out[f"op_ms.p{q}"] = (*_stat(ops, main, q, True), "ms")
    ok = [op for op in ops if op.ok]
    busy = sum(op.seconds for op in ok)
    out["work_per_s"] = (sum(op.units for op in ok) / busy if busy else None,
                         len(ok), "1/s")
    out["setup_s"] = (setup_s, n_setup, "s")
    return {name: (v, u, n) for name, (v, n, u) in out.items()}


def _overhead(traced, untraced):
    """Percent by which tracing made each timing metric worse."""
    out = {}
    for name, (t_value, unit, _) in traced.items():
        u_value = untraced[name][0]
        if t_value and u_value:
            ratio = u_value / t_value if unit == "1/s" else t_value / u_value
            out[name] = 100.0 * (ratio - 1.0)
    return out


def _unattributed(tracer, ops):
    """Per traced op: (kind, wall seconds, seconds no layer span covers).

    The uncovered time is the op's root span's self time (the code between
    the layer calls: for `train`, the loop body that `training.step_self_ms`
    reports) plus the op's time outside its root span.
    """
    # a root span's child seconds are the time its child spans cover
    covered = {span[0]: span[5] for span in tracer.spans if span[4] == -1}
    return [(op.kind, op.wall, op.wall - covered.get(op.span_op, 0.0))
            for op in ops if op.span_op is not None]


def _blas():
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown"}
    return {k: config.get(k)
            for k in ("name", "version", "openblas configuration")}


def _source_sha256(root):
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "skelflow")
    for base, dirs, files in os.walk(package):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, package).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(args, root):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def build(args, workload, run, import_s, setup_times, traced_setup, root):
    """The full report of one run, as a JSON-ready dict."""
    ops = run.ops
    setup_s = statistics.median(setup_times)
    untraced = [op for op in ops if not op.traced]
    named = timing_metrics(untraced, args.workload, setup_s, len(setup_times))
    layers = overhead = None
    if args.trace:
        uncovered = _unattributed(run.tracer, ops)
        shares = {}
        for kind, wall, rest in uncovered:
            shares.setdefault(kind, []).append(rest / wall)
        means = {k: statistics.fmean(v) for k, v in shares.items()}
        run.run_check(
            "span_tree_accounts_for_wall_time",
            bool(means) and max(means.values()) <= UNATTRIBUTED_MAX_SHARE,
            "mean share of op wall time outside every layer span: "
            + ", ".join(f"{k} {100 * v:.2f}%" for k, v in means.items()))
        traced = timing_metrics([op for op in ops if op.traced],
                                args.workload,
                                statistics.median(traced_setup),
                                len(traced_setup))
        # traced set-up repetitions are warm: compare them with warm ones
        overhead = _overhead(traced, timing_metrics(
            untraced, args.workload, statistics.median(setup_times[1:]),
            len(setup_times) - 1))
        layers = _layers(run, overhead, uncovered, shares)
    attempted = len(ops) + len(run.run_checks)
    failed = sum(not op.ok for op in ops) + sum(
        not ok for _, ok, _ in run.run_checks)
    named["import_s"] = (import_s, "s", 1)
    named["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    named["error_rate"] = (failed / attempted, "ratio", attempted)
    return {
        "workload": args.workload,
        "unit": workload.unit,
        "environment": environment(args, root),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "setup_reps_s": setup_times,
        "named": {k: {"value": v, "unit": u, "n": n}
                  for k, (v, u, n) in named.items()},
        "op_counts": {kind: sum(op.kind == kind for op in untraced)
                      for kind in sorted({op.kind for op in ops})},
        "checks": {name: {"passed": p, "failed": f}
                   for name, (p, f) in run.checks.items()},
        "run_checks": [{"name": n, "ok": ok, "detail": d}
                       for n, ok, d in run.run_checks],
        "errors": run.errors,
        "tracing_overhead_pct": overhead,
        "layers": layers,
    }


def _layers(run, overhead, uncovered, shares):
    layers = spans.layer_metrics(run.tracer, len(uncovered))
    census = run.censuses[0] if run.censuses else {}
    layers["numcore.tape_nodes"] = {"value": sum(census.values()),
                                    "unit": "count"}
    for name in spans.CENSUS_OPS:
        layers[f"numcore.tape_nodes.{name}"] = {"value": census.get(name, 0),
                                                "unit": "count"}
    for name in ("op_ms.p50", "op_ms.p90", "work_per_s", "setup_s"):
        layers[f"trace.overhead.{name}"] = {"value": overhead.get(name, 0.0),
                                            "unit": "%"}
    every = [share for v in shares.values() for share in v]
    layers["trace.unattributed_ms"] = {
        "value": 1e3 * statistics.fmean(r for _, _, r in uncovered)
        if uncovered else 0.0, "unit": "ms"}
    layers["trace.unattributed_share"] = {
        "value": statistics.fmean(every) if every else 0.0, "unit": "ratio"}
    layers["trace.unattributed_max_share"] = {
        "value": max(every, default=0.0), "unit": "ratio"}
    layers["trace.spans_per_op"] = {
        "value": sum(isinstance(s[0], int) for s in run.tracer.spans)
        / max(len(uncovered), 1), "unit": "count"}
    return layers


def write(result, path):
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def lines(result):
    """Human-readable report lines."""
    env = result["environment"]
    blas = env["blas"]
    yield (f"perfbench workload={result['workload']} seed={env['seed']} "
           f"seconds={env['seconds']:g} trace={env['trace']} "
           f"unit={result['unit']}")
    yield (f"env python={env['python']} numpy={env['numpy']} "
           f"blas={blas.get('name')} {blas.get('version')} "
           f"blas_threads={env['blas_threads']} nproc={env['nproc']} "
           f"usable={env['cpus_usable']} commit={env['git_commit']} "
           f"source_sha256={env['source_sha256'][:16]}")
    for name, m in result["named"].items():
        note = ""
        if name.endswith(".p90") and m["n"] < P90_MIN_SAMPLES:
            note = f"  (fewer than {P90_MIN_SAMPLES} samples)"
        yield (f"metric {name} = {_fmt(m['value'])} {m['unit']} "
               f"(n={m['n']}){note}")
    for name, c in result["checks"].items():
        yield f"check {name}: {c['passed']} passed, {c['failed']} failed"
    for c in result["run_checks"]:
        yield f"check {c['name']}: {'PASS' if c['ok'] else 'FAIL'}"
    for err in result["errors"]:
        yield f"error {err}"
    for name, pct in (result["tracing_overhead_pct"] or {}).items():
        yield f"overhead {name} = {pct:+.2f} %"
    for name, m in (result["layers"] or {}).items():
        yield f"layer {name} = {_fmt(m['value'])} {m['unit']}"


def final_line(result):
    """The last stdout line, as JSON: end-to-end metrics, or per-layer
    metrics for a traced run."""
    if result["layers"] is not None:
        metrics = result["layers"]
    else:
        metrics = {name: {"value": result["named"][name]["value"],
                          "unit": unit} for name, unit in E2E}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})

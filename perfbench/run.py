"""skelflow benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run (about half the ops traced, so tracing overhead is measured
inside the same run).  The lines before it give every named metric with
its unit and sample count, the output checks, and the environment.  A full
report is written to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time

START = time.perf_counter()
BLAS_THREADS = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "rollout", "evaluate_clips"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "skelflow", "__init__.py")):
        print(f"perfbench: no skelflow sources under {SRC}; run from the root "
              "of a skelflow checkout", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    import numpy as np  # noqa: F401  (imported here so its load is timed)
    import skelflow
    if not os.path.abspath(skelflow.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported skelflow from {skelflow.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import report
    import spans
    import workloads
    import_s = time.perf_counter() - START

    workload = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer()
    run = workloads.Run(trace=bool(args.trace), tracer=tracer,
                        clock=time.perf_counter)
    patches = spans.Patches()
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        if args.trace:
            spans.install_layer_spans(tracer, patches, run.censuses)
        setup_times, traced_setup, fingerprints = [], [], set()

        def set_up(rep):
            traced = bool(args.trace) and rep % 2 == 1
            rep_dir = os.path.join(work_dir, f"rep{rep}")
            os.makedirs(rep_dir)
            t0 = time.perf_counter()
            root = tracer.begin_op(f"setup.{rep}", "setup") if traced else None
            state = workload.setup(args.seed, rep_dir, bool(args.trace))
            if root is not None:
                tracer.end_op(root)
            (traced_setup if traced else setup_times).append(
                time.perf_counter() - t0)
            fingerprints.add(workload.fingerprint(state))
            return state

        # The first set-up gives the client its state.  In an untraced run
        # the others are spread evenly over the measured window, which grows
        # by their time, so that setup_s sees the same mix of machine states
        # as the ops.  In a traced run they all come first, every second
        # one traced.
        state = set_up(0)
        later = [lambda rep=rep: set_up(rep)
                 for rep in range(1, workload.setup_reps)]
        if args.trace:
            for fn in later:
                fn()
            later = []
        run.start_clock(args.seconds, later,
                        report.p90_kinds(args.workload),
                        report.P90_MIN_SAMPLES)
        workload.run(state, run)
        run.finish_setups()
        run.run_check("setup_repeats_exactly", len(fingerprints) == 1,
                      f"{len(fingerprints)} distinct set-up results")
    finally:
        patches.undo()
        shutil.rmtree(work_dir, ignore_errors=True)

    result = report.build(args, workload, run, import_s, setup_times,
                          traced_setup, ROOT)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    report.write(result, stem + ".json")
    if args.trace:
        tracer.write_jsonl(stem + ".spans.jsonl")
    for line in report.lines(result):
        print(line)
    print(report.final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and summarize run-to-run spread.

    python3 perfbench/collect.py --workloads train rollout evaluate_clips \
        --seeds 1-10 --out perfbench/BENCH_baseline.json

Runs `run.py` once per (workload, seed), one process at a time, then once
traced per workload.  For each end-to-end metric it reports the median,
the quartiles (statistics.quantiles, n=4) and the spread, which is the
interquartile distance as a share of the median, and flags a spread that
is not within the metric's `bound` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stderr}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}"
                                        f"-trace{trace}.json")) as fh:
        return last, json.load(fh)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["train", "rollout", "evaluate_clips"])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    result = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            last, full = run_once(workload, seed, seconds, 0)
            runs.append(full)
            print(f"{workload} seed {seed}: correct={last['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}"
                             for k, v in last["metrics"].items()),
                  flush=True)
        named = {}
        for name in runs[0]["named"]:
            values = [r["named"][name]["value"] for r in runs]
            if None not in values and len(values) >= 2 and any(values):
                named[name] = spread(values)
                named[name]["unit"] = runs[0]["named"][name]["unit"]
                named[name]["n_per_run"] = [r["named"][name]["n"]
                                            for r in runs]
        for name, bound in bounds.items():
            s = named[name]
            flag = "ok" if s["spread"] < bound / 3 else (
                "WITHIN BOUND" if s["spread"] < bound else "OVER BOUND")
            print(f"  {workload} {name}: median {s['median']:.5g} "
                  f"spread {100 * s['spread']:.2f}% (bound "
                  f"{100 * bound:.0f}%) {flag}", flush=True)
        entry = {"named": named,
                 "correct": all(r["correct"] for r in runs),
                 "environment": runs[0]["environment"]}
        last, full = run_once(workload, args.seeds[0], seconds, 1)
        entry["traced"] = {"seed": args.seeds[0], "correct": last["correct"],
                           "layers": last["metrics"],
                           "overhead_pct": full["tracing_overhead_pct"]}
        nodes = last["metrics"]["numcore.tape_nodes"]["value"]
        print(f"  {workload} traced: correct={last['correct']} "
              f"tape_nodes={nodes}", flush=True)
        result["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

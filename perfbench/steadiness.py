#!/usr/bin/env python3
"""Measures how steady the benchmark is, the way its gate judges it.

    python3 perfbench/steadiness.py --sets 2 --runs 10 --out perfbench/results/steadiness.json

For every workload in BENCHMARK.json, runs `--sets` sets of `--runs`
untraced runs. Every set uses the same seeds (1001 onwards), and
the runs are interleaved — run r of every workload and every set before
run r + 1 — so a change in the host's speed hits all sets alike. Then one
traced run per workload and set, at the first seed. Per set and end-to-end
metric it reports the spread — the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median — and how far
the second set's median moved from the first's, in the metric's worse
direction. The tracing overhead is the traced run's search p50
(trace.search_p50_ms) minus the median untraced search_p50_ms of the same
set. Every per-run value is kept in the output, which is rewritten after
each run. Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_SEED = 1001


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        sys.exit("%s seed %d trace %d failed (exit %d)" %
                 (workload, seed, trace, done.returncode))
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return {"seed": seed, "wall_s": round(time.time() - started, 1),
            "finished_at": time.strftime("%H:%M:%S"),
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def summarize(spec, sets):
    """Spreads per set and the second set's median shift, per metric."""
    out = {"sets": []}
    for runs in sets:
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in runs]
            if len(values) < 2:
                continue
            summary[m["name"]] = {"median": statistics.median(values),
                                  "spread": spread(values),
                                  "bound": m["bound"]}
        out["sets"].append(summary)
    if len(sets) >= 2 and out["sets"][1]:
        shifts = {}
        for m in spec["end_to_end"]:
            first = out["sets"][0][m["name"]]["median"]
            second = out["sets"][1][m["name"]]["median"]
            worse = (second - first) if m["better"] == "lower" else \
                (first - second)
            shifts[m["name"]] = worse / first if first else 0.0
        out["second_median_worse_by"] = shifts
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    traced = {w: [] for w in workloads}

    def write():
        report = {"run_seconds": seconds, "sets": args.sets,
                  "runs": args.runs, "interleaved": True, "workloads": {}}
        for w in workloads:
            entry = summarize(spec, runs[w])
            entry["runs"] = runs[w]
            entry["traced"] = traced[w]
            for s, t in enumerate(traced[w]):
                p50 = entry["sets"][s].get("search_p50_ms")
                if p50 is not None:
                    t["tracing_overhead_p50_ms"] = (
                        t["metrics"]["trace.search_p50_ms"] - p50["median"])
            report["workloads"][w] = entry
        path = os.path.abspath(args.out)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")

    for r in range(args.runs):
        for w in workloads:
            for s in range(args.sets):
                runs[w][s].append(run_once(w, FIRST_SEED + r, seconds, 0))
                write()
    for w in workloads:
        for s in range(args.sets):
            traced[w].append(run_once(w, FIRST_SEED, seconds, 1))
            write()
    for w in workloads:
        entry = summarize(spec, runs[w])
        for s, summary in enumerate(entry["sets"]):
            print("%s set %d spread: %s" % (w, s + 1, ", ".join(
                "%s %.3f" % (k, v["spread"]) for k, v in summary.items())),
                file=sys.stderr)
        if "second_median_worse_by" in entry:
            print("%s second median worse by: %s" % (w, ", ".join(
                "%s %.3f" % (k, v)
                for k, v in entry["second_median_worse_by"].items())),
                file=sys.stderr)


if __name__ == "__main__":
    main()

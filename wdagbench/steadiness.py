#!/usr/bin/env python3
"""Steadiness report of the wdag benchmark.

    python3 wdagbench/steadiness.py [--rounds 10] [--seconds S]
                                    [--workloads a,b] [--seed N] [--raw FILE]
    python3 wdagbench/steadiness.py --compare FIRST.jsonl SECOND.jsonl

Run from the root of a wdag checkout. Runs the workloads round-robin,
each run with its own seed (round r, workload i gets seed N + r * W + i),
and prints, per workload and end-to-end metric, the median, the spread
(interquartile range over median, quartiles as statistics.quantiles(n=4)
gives them), min and max, the metric's bound from BENCHMARK.json, and
the metric's correlation with the host probe. The host probe (a fixed
ALU workload measured at the start, middle and end of every run; its
median per run) is reported the same way. A spread the probe shares is
host drift; a spread it does not share is noise of the benchmark.

A spread above a third of the metric's bound is flagged "wide"; above
the bound, "OVER". --raw writes every run's result and labels as JSON
lines. --compare reads two such files (two sets of runs of the same
code) and prints, per workload and metric, both medians and how much
worse the second is than the first, as a share of the first; "OVER"
marks a change beyond the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d): %s" %
                         (workload, seed, done.returncode, done.stderr[-2000:]))
    labels = {}
    for line in lines:
        if line.startswith("labels "):
            labels = json.loads(line[len("labels "):])
    return json.loads(lines[-1]), labels


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def correlation(xs, ys):
    if len(xs) < 3 or len(set(xs)) < 2 or len(set(ys)) < 2:
        return float("nan")
    return statistics.correlation(xs, ys)


def load_raw(path):
    """Runs per workload from a --raw file: [(seed, result, probe)]."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            probe = statistics.median(rec["labels"].get("host_probe_mops") or [float("nan")])
            runs.setdefault(rec["workload"], []).append((rec["seed"], rec["result"], probe))
    return runs


def compare(spec, first_path, second_path):
    first, second = load_raw(first_path), load_raw(second_path)
    print("%-15s %-22s %12s %12s %8s %6s  %s" %
          ("workload", "metric", "median 1", "median 2", "worse", "bound", ""))
    for w in (x["name"] for x in spec["workloads"]):
        if w not in first or w not in second:
            continue
        for m in spec["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"] for _, r, _ in first[w])
            b = statistics.median(r["metrics"][m["name"]]["value"] for _, r, _ in second[w])
            worse = (b - a if m["better"] == "lower" else a - b) / abs(a) if a else 0.0
            print("%-15s %-22s %12.6g %12.6g %8.4f %6.3g  %s" %
                  (w, m["name"], a, b, worse, m["bound"],
                   "OVER" if worse > m["bound"] else ""))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--raw", help="append every run as a JSON line to this file")
    ap.add_argument("--compare", nargs=2, metavar="RAW",
                    help="compare the medians of two --raw files instead of running")
    args = ap.parse_args()
    if args.compare:
        compare(spec, *args.compare)
        return
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for r in range(args.rounds):
        for i, w in enumerate(workloads):
            seed = args.seed + r * len(workloads) + i
            result, labels = run_once(w, seed, args.seconds)
            probe = statistics.median(labels.get("host_probe_mops") or [float("nan")])
            runs[w].append((seed, result, probe))
            sys.stderr.write("round %d %-15s seed %-4d correct=%s probe=%.0f\n" %
                             (r + 1, w, seed, result["correct"], probe))
            if args.raw:
                with open(args.raw, "a") as fh:
                    fh.write(json.dumps({"workload": w, "seed": seed, "result": result,
                                         "labels": labels}) + "\n")

    print("%-15s %-22s %12s %8s %12s %12s %6s %6s  %s" %
          ("workload", "metric", "median", "iqr/med", "min", "max", "bound", "r", ""))
    for w in workloads:
        probes = [p for _, _, p in runs[w]]
        med, sp = spread(probes)
        print("%-15s %-22s %12.6g %8.4f %12.6g %12.6g %6s %6s" %
              (w, "host_probe_mops", med, sp, min(probes), max(probes), "-", "-"))
        incorrect = sum(1 for _, res, _ in runs[w] if not res["correct"])
        for name, bound in bounds.items():
            values = [res["metrics"][name]["value"] for _, res, _ in runs[w]]
            med, sp = spread(values)
            flag = "OVER" if sp > bound else "wide" if sp > bound / 3 else ""
            print("%-15s %-22s %12.6g %8.4f %12.6g %12.6g %6.3g %6.2f  %s" %
                  (w, name, med, sp, min(values), max(values), bound,
                   correlation(values, probes), flag))
        if incorrect:
            print("%-15s %d of %d runs were not correct" % (w, incorrect, len(runs[w])))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Smoke test of the wdag benchmark.

    python3 wdagbench/smoke_test.py

Run from the root of a wdag checkout. For every workload in
BENCHMARK.json it makes a one-second run, untraced and traced, at full
size, and asserts that the result line has exactly the contract's keys, that every named metric is printed with its unit (in the table
too, with a sample count), that every output check passed, that no
end-to-end metric reads 0, and that the labels name the ISA tier, nproc,
build type and commit and carry three host-probe readings. Finally it
checks that the benchmark refuses to run, without printing a result,
where only BENCHMARK.json and the benchmark's own files exist. Exits
non-zero on the first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, os.path.join(cwd, "wdagbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600, env=env)


def check_run(spec, workload, trace):
    names = spec["per_layer" if trace else "end_to_end"]
    done = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace)])
    where = "%s trace=%d" % (workload, trace)
    assert done.returncode == 0, "%s exited %d: %s" % (where, done.returncode, done.stderr[-2000:])
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    problems = [l for l in lines if l.startswith("CHECK FAILED")]
    assert result["correct"] and result["failed"] == 0, "%s: %s" % (where, problems)
    assert result["attempted"] >= 1, where
    labels = [json.loads(l[len("labels "):]) for l in lines if l.startswith("labels ")]
    assert len(labels) == 1, "%s: no labels line" % where
    for key in ("isa", "nproc", "build_type", "commit"):
        assert labels[0].get(key), "%s: label %s missing" % (where, key)
    probes = labels[0].get("host_probe_mops", [])
    assert len(probes) == 3 and all(p > 0 for p in probes), \
        "%s: host probe readings %s" % (where, probes)
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in names}, \
        "%s: metric set differs: %s" % (where, sorted(set(metrics) ^ {m["name"] for m in names}))
    table = {l.split()[0]: l.split() for l in lines[:-1] if l.strip()}
    for m in names:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], "%s: %s unit %s" % (where, m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
        row = table.get(m["name"])
        assert row is not None and row[2] == m["unit"] and row[3].isdigit(), \
            "%s: %s missing from the table" % (where, m["name"])
        if not trace:
            assert got["value"] != 0, "%s: %s reads 0" % (where, m["name"])
    print("ok  %-13s trace=%d  %d metrics, %d attempted" %
          (workload, trace, len(metrics), result["attempted"]))


def check_refuses_without_sources(workload):
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "wdagbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    done = run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=bare, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, "ran without the wdag sources"
    assert '"metrics"' not in done.stdout, "printed a result without the wdag sources"
    print("ok  refuses to run without the wdag sources")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_refuses_without_sources(spec["workloads"][0]["name"])


if __name__ == "__main__":
    main()

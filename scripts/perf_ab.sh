#!/usr/bin/env bash
# The perf gate: a same-runner wdagbench A/B of this checkout (head)
# against a base commit.
#
#   scripts/perf_ab.sh <base-ref>
#
# Checks <base-ref> out into a temporary git worktree and runs PAIRS
# pairs of `wdagbench/steadiness.py --rounds 1 --raw` (every workload of
# BENCHMARK.json once, run_seconds each), one per side per pair. Both
# sides of a pair use the same --seed, and the side that runs first
# alternates from pair to pair. CARGO_TARGET_DIR is unset, so each side
# builds its own .bench_build/ from its own sources. The gate fails when
#   - a run failed, or reports "correct": false;
#   - a side has fewer than PAIRS runs of some workload
#     (`steadiness.py --compare` skips a workload missing from a file);
#   - `steadiness.py --compare base.jsonl head.jsonl` prints OVER: an
#     end-to-end metric is worse than its BENCHMARK.json bound.
# The raw runs and the comparison are left in .perf_ab/.
set -euo pipefail

PAIRS=5

[ $# -eq 1 ] || { echo "usage: $0 <base-ref>" >&2; exit 2; }
head_dir=$(git rev-parse --show-toplevel)
cd "$head_dir"
base_sha=$(git rev-parse --verify "$1^{commit}")
out="$head_dir/.perf_ab"
rm -rf "$out"
mkdir -p "$out"
tmp=$(mktemp -d)
base_dir="$tmp/base"
cleanup() {
  git worktree remove --force "$base_dir" 2> /dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach "$base_dir" "$base_sha" > /dev/null
unset CARGO_TARGET_DIR

run_side() {  # side dir seed
  echo "perf-ab: $1 ($2), seed $3" >&2
  if ! python3 "$2/wdagbench/steadiness.py" --rounds 1 --seed "$3" \
      --raw "$out/$1.jsonl" > /dev/null; then
    echo "perf-ab: FAIL: a $1 run failed" >&2
    exit 1
  fi
}

for ((pair = 0; pair < PAIRS; ++pair)); do
  seed=$((1 + 100 * pair))
  if ((pair % 2 == 0)); then
    run_side base "$base_dir" "$seed"
    run_side head "$head_dir" "$seed"
  else
    run_side head "$head_dir" "$seed"
    run_side base "$base_dir" "$seed"
  fi
done

python3 - "$PAIRS" "$out/base.jsonl" "$out/head.jsonl" << 'EOF'
import collections, json, sys
pairs, files = int(sys.argv[1]), {"base": sys.argv[2], "head": sys.argv[3]}
with open("BENCHMARK.json") as fh:
    workloads = [w["name"] for w in json.load(fh)["workloads"]]
problems = []
for side, path in files.items():
    runs = collections.Counter()
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            runs[rec["workload"]] += 1
            if rec["result"].get("correct") is not True:
                problems.append("%s %s seed %d is not correct"
                                % (side, rec["workload"], rec["seed"]))
    problems += ["%s has %d of %d runs of %s" % (side, runs[w], pairs, w)
                 for w in workloads if runs[w] < pairs]
for p in problems:
    print("perf-ab: FAIL: " + p, file=sys.stderr)
sys.exit(1 if problems else 0)
EOF

python3 wdagbench/steadiness.py --compare "$out/base.jsonl" "$out/head.jsonl" \
  | tee "$out/compare.txt"
if grep -qw OVER "$out/compare.txt"; then
  echo "perf-ab: FAIL: a metric is worse than its BENCHMARK.json bound" >&2
  exit 1
fi
echo "perf-ab: OK, $PAIRS pairs against $base_sha" >&2

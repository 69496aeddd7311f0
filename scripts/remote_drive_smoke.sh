#!/usr/bin/env bash
# End-to-end smoke for remote shard dispatch (`wdag drive --workers
# host:port,...` against `wdag worker` peers) — the CI remote-drive job.
#
#   1. starts two workers with fault hooks armed:
#        worker1 — drops the connection mid-payload on its first shard,
#                  corrupts one payload after checksumming, and answers
#                  its first ping slower than the probe timeout (one
#                  probe miss -> unhealthy -> next fast ping -> recovery)
#        worker2 — stalls its first shard attempt indefinitely and
#                  answers EVERY ping slowly (it goes unhealthy and
#                  stays out of rotation, so its stalled in-flight
#                  attempt must be re-dispatched elsewhere)
#   2. drives a k-shard plan over both workers with tight probe knobs,
#      SIGKILLing worker2 mid-drive,
#   3. asserts the merged bytes are IDENTICAL to the unsharded
#      `wdag batch --stream-csv` run,
#   4. asserts the event log recorded the whole story: the injected
#      faults' retries, both unhealthy transitions, the re-dispatch off
#      the dead worker, worker1's probe recovery, and a clean done.
#
# Usage: scripts/remote_drive_smoke.sh [path/to/wdag] [shards]
#        (defaults: ./build/wdag, 5)

set -euo pipefail

WDAG="${1:-./build/wdag}"
SHARDS="${2:-5}"
# Per-shard work is what the fault choreography is timed against (the
# drop + corrupt retries must settle before worker1's ~0.6s unhealthy
# transition), so the instance count scales with the shard count to keep
# each shard's runtime constant across matrix cells.
COUNT=$((6000 * SHARDS))
SEED=4242
TMP="$(mktemp -d)"
W1_PID=""
W2_PID=""
cleanup() {
  [ -n "$W1_PID" ] && kill -9 "$W1_PID" 2>/dev/null || true
  [ -n "$W2_PID" ] && kill -9 "$W2_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() { echo "remote_drive_smoke: FAIL: $*" >&2; exit 1; }

# --- 1. workers up, faults armed ------------------------------------------
# worker1: one slow heartbeat (1.5s > the 600ms probe timeout) burns the
# miss budget of 1 -> unhealthy at ~0.6s; the next (fast) ping recovers
# it. Its drop-conn and corrupt hooks each force one validated retry —
# both aim at shard 0 (each fires once, so the drop hits attempt 0 and
# the corruption hits the retry, both resolved well before the 0.6s
# unhealthy transition can kill the attempt mid-read).
WDAG_WORKER_DROP_CONN=0 \
WDAG_WORKER_CORRUPT_PAYLOAD=0 \
WDAG_WORKER_SLOW_HEARTBEAT=1:1500 \
  "$WDAG" worker --port 0 --threads 1 --port-file "$TMP/w1.port" \
  > "$TMP/w1.log" 2>&1 &
W1_PID=$!
disown "$W1_PID"

# worker2: permanently slow heartbeats -> unhealthy for good; the first
# shard request it receives stalls far past the drive, so the drive MUST
# notice the sick worker and re-dispatch that in-flight attempt.
WDAG_WORKER_STALL_MS=120000 \
WDAG_WORKER_SLOW_HEARTBEAT=9999:9999 \
  "$WDAG" worker --port 0 --threads 1 --port-file "$TMP/w2.port" \
  > "$TMP/w2.log" 2>&1 &
W2_PID=$!
disown "$W2_PID"

for f in w1.port w2.port; do
  for _ in $(seq 1 100); do [ -s "$TMP/$f" ] && break; sleep 0.1; done
  [ -s "$TMP/$f" ] || fail "worker never wrote $f"
done
P1="$(cat "$TMP/w1.port")"
P2="$(cat "$TMP/w2.port")"
echo "remote_drive_smoke: worker1 pid $W1_PID port $P1, worker2 pid $W2_PID port $P2"

# --- 2. the reference bytes and the drive ---------------------------------
"$WDAG" batch --gen random-upp --count "$COUNT" --seed "$SEED" --threads 1 \
  --stream-csv "$TMP/ref.csv" > /dev/null

# Kill worker2 mid-drive: by then it is already unhealthy and out of
# rotation — the drive must shrug off the vanished process entirely.
( sleep 1.0; kill -9 "$W2_PID" 2>/dev/null || true ) &
KILLER_PID=$!

# Both workers go unhealthy at ~0.6s and worker2's stalled shard then
# runs locally. worker1's recovering ping comes one probe interval after
# its miss; a worker still out of rotation when the last shard lands gets
# one more probe before `done`, so `recovered` is logged whichever comes
# first.
"$WDAG" drive --gen random-upp --count "$COUNT" --seed "$SEED" \
  --shards "$SHARDS" --threads 1 \
  --workers "127.0.0.1:$P1,127.0.0.1:$P2" \
  --max-retries 6 --backoff 0.05 \
  --connect-timeout-ms 1000 --probe-interval 0.01 \
  --probe-timeout-ms 600 --probe-miss-budget 1 \
  --work-dir "$TMP/scratch" \
  --events "$TMP/events.jsonl" \
  --out "$TMP/drive.csv" > "$TMP/drive.log" 2>&1 \
  || fail "drive exited nonzero:
$(cat "$TMP/drive.log")
$(cat "$TMP/events.jsonl")"
wait "$KILLER_PID" 2>/dev/null || true
W2_PID=""

# --- 3. byte identity ------------------------------------------------------
cmp "$TMP/ref.csv" "$TMP/drive.csv" \
  || fail "drive output differs from the unsharded --stream-csv bytes"
echo "remote_drive_smoke: merged bytes identical to wdag batch --stream-csv"

# --- 4. the event log tells the whole story -------------------------------
for needle in \
    '"ev":"retry"' \
    '"ev":"probe-miss"' \
    '"ev":"unhealthy"' \
    '"ev":"redispatch"' \
    '"ev":"recovered"' \
    '"ev":"done"'; do
  grep -q "$needle" "$TMP/events.jsonl" \
    || fail "event log is missing $needle:
$(cat "$TMP/events.jsonl")"
done
# The injected faults must surface with their own diagnostics.
grep -q "closed mid-payload" "$TMP/events.jsonl" \
  || fail "event log never saw the dropped connection"
grep -q "checksum mismatch" "$TMP/events.jsonl" \
  || fail "event log never saw the corrupted payload"
# Shards must be attributed to the transports that ran them.
grep -q "\"ev\":\"complete\".*\"worker\":\"127.0.0.1:$P1\"" "$TMP/events.jsonl" \
  || fail "no completion was attributed to worker1"

echo "remote_drive_smoke: OK (drop + corrupt + dead worker absorbed; re-dispatch and recovery logged)"

#!/usr/bin/env bash
# Shard-recovery smoke test: run the sharded orchestrator under three
# failure schedules — every worker SIGKILLing itself mid-run (a `kill`
# failpoint at its second checkpoint write), a random worker SIGKILLed from
# outside, and the whole orchestrator SIGKILLed then restarted with
# --resume — and demand the bit-identical MFS of a
# single-process mine_cli run every time, with the retry/recovery counters
# visible in the stats JSON. Used by the shard-recovery CI job; runnable
# locally:
#
#   ./scripts/shard_recovery_smoke.sh [BUILD_DIR] [SCALE]
#
# BUILD_DIR defaults to ./build; SCALE is the transaction count of the
# generated T10.I4 dataset (default 40000).
set -euo pipefail

BUILD_DIR=${1:-build}
SCALE=${2:-40000}
MINE_CLI="$BUILD_DIR/examples/mine_cli"
SHARD="$BUILD_DIR/examples/pincer_shard"
GENERATE="$BUILD_DIR/examples/generate_data"
WORK_DIR=$(mktemp -d)
trap 'rm -rf "$WORK_DIR"' EXIT

for tool in "$MINE_CLI" "$SHARD" "$GENERATE"; do
  if [[ ! -x "$tool" ]]; then
    echo "missing $tool — build the examples first" >&2
    exit 1
  fi
done

DB="$WORK_DIR/t10i4.basket"
ARGS=(--min-support=0.004 --algorithm=pincer-adaptive)

echo "== generating T10.I4.D$SCALE"
"$GENERATE" "$DB" --d="$SCALE" --t=10 --i=4 > /dev/null

echo "== single-process reference"
"$MINE_CLI" "$DB" "${ARGS[@]}" > "$WORK_DIR/reference.mfs" 2> /dev/null

echo "== every worker SIGKILLs itself once, recovers from its checkpoint"
"$SHARD" "$DB" "${ARGS[@]}" --work-dir="$WORK_DIR/wd_die" --shards=4 \
  --workers=2 --worker-failpoints='checkpoint.write=once@2:kill' \
  --stats-json="$WORK_DIR/die.json" \
  > "$WORK_DIR/die.mfs" 2> /dev/null
diff -q "$WORK_DIR/reference.mfs" "$WORK_DIR/die.mfs" > /dev/null || {
  echo "FAIL: MFS after per-worker SIGKILL differs from the reference" >&2
  diff "$WORK_DIR/reference.mfs" "$WORK_DIR/die.mfs" | head -20 >&2
  exit 1
}
grep -q '"retries": [1-9]' "$WORK_DIR/die.json" || {
  echo "FAIL: stats JSON shows no worker retries" >&2
  exit 1
}
grep -q '"recovered_from_checkpoint": [1-9]' "$WORK_DIR/die.json" || {
  echo "FAIL: stats JSON shows no checkpoint recoveries" >&2
  exit 1
}
echo "   bit-identical, with retries and checkpoint recoveries in the stats"

echo "== SIGKILL a random worker from outside mid-run"
"$SHARD" "$DB" "${ARGS[@]}" --work-dir="$WORK_DIR/wd_kill" --shards=4 \
  --workers=2 > "$WORK_DIR/kill.mfs" 2> /dev/null &
ORCH_PID=$!
# Wait for a worker process (a pincer_shard child of the orchestrator) to
# appear, then kill it without ceremony.
KILLED=0
for _ in $(seq 1 200); do
  WORKER_PID=$(pgrep -P "$ORCH_PID" 2> /dev/null | head -1 || true)
  if [[ -n "$WORKER_PID" ]] && kill -9 "$WORKER_PID" 2> /dev/null; then
    KILLED=1
    echo "   killed worker pid $WORKER_PID"
    break
  fi
  sleep 0.05
done
[[ "$KILLED" == 1 ]] || echo "   workers finished before the kill landed (tiny scale?); continuing"
wait "$ORCH_PID" || {
  echo "FAIL: orchestrator did not survive the worker kill" >&2
  exit 1
}
diff -q "$WORK_DIR/reference.mfs" "$WORK_DIR/kill.mfs" > /dev/null || {
  echo "FAIL: MFS after an external worker SIGKILL differs" >&2
  exit 1
}
echo "   orchestrator recovered; output bit-identical"

echo "== SIGKILL the orchestrator itself, restart with --resume"
"$SHARD" "$DB" "${ARGS[@]}" --work-dir="$WORK_DIR/wd_resume" --shards=4 \
  --workers=2 > /dev/null 2> /dev/null &
ORCH_PID=$!
# Wait for the first per-shard checkpoint or result to land so the restart
# has something to reuse, then kill the whole orchestration.
for _ in $(seq 1 400); do
  compgen -G "$WORK_DIR/wd_resume/shard_*.ckpt" > /dev/null && break
  compgen -G "$WORK_DIR/wd_resume/shard_*.result.json" > /dev/null && break
  sleep 0.05
done
if kill -9 "$ORCH_PID" 2> /dev/null; then
  echo "   killed orchestrator pid $ORCH_PID"
else
  echo "   orchestrator finished before the kill landed (tiny scale?); continuing"
fi
wait "$ORCH_PID" 2> /dev/null || true
# SIGKILL gives the orchestrator no chance to reap its workers; orphans may
# still finish and write results. That is fine: worker output is atomic and
# deterministic, so --resume accepts whatever landed and remines the rest.
"$SHARD" "$DB" "${ARGS[@]}" --work-dir="$WORK_DIR/wd_resume" --shards=4 \
  --workers=2 --resume --stats-json="$WORK_DIR/resume.json" \
  > "$WORK_DIR/resume.mfs" 2> /dev/null
diff -q "$WORK_DIR/reference.mfs" "$WORK_DIR/resume.mfs" > /dev/null || {
  echo "FAIL: restarted run's MFS differs from the reference" >&2
  exit 1
}
grep -q '"orchestrator"' "$WORK_DIR/resume.json" || {
  echo "FAIL: stats JSON lacks the orchestrator section" >&2
  exit 1
}
echo "   restart produced the reference MFS"

echo "== a resume for a different configuration is rejected"
if "$SHARD" "$DB" --min-support=0.01 --algorithm=pincer-adaptive \
    --work-dir="$WORK_DIR/wd_resume" --shards=4 --resume \
    > /dev/null 2> "$WORK_DIR/mismatch.err"; then
  echo "FAIL: a mismatched work dir resumed anyway" >&2
  exit 1
fi
grep -q "cannot resume" "$WORK_DIR/mismatch.err" || {
  echo "FAIL: mismatch rejection did not explain itself:" >&2
  cat "$WORK_DIR/mismatch.err" >&2
  exit 1
}
echo "   mismatched work dir rejected with a clear error"

echo "shard-recovery smoke: OK"

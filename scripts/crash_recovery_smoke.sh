#!/usr/bin/env bash
# Crash-recovery smoke test: SIGKILL mine_cli mid-run, resume from its
# pass-level checkpoint, and demand the bit-identical MFS of an
# uninterrupted run. The kill is a `kill` failpoint inside the third
# checkpoint write, so it lands mid-run however fast the machine is. Also
# exercises the PINCER_FAILPOINTS retry path and stale-checkpoint
# rejection. Used by the crash-recovery CI job; runnable locally:
#
#   ./scripts/crash_recovery_smoke.sh [BUILD_DIR] [SCALE]
#
# BUILD_DIR defaults to ./build; SCALE is the transaction count of the
# generated T10.I4 dataset (default 100000 — the paper's T10.I4.D100K).
set -euo pipefail

BUILD_DIR=${1:-build}
SCALE=${2:-100000}
MINE_CLI="$BUILD_DIR/examples/mine_cli"
GENERATE="$BUILD_DIR/examples/generate_data"
WORK_DIR=$(mktemp -d)
trap 'rm -rf "$WORK_DIR"' EXIT

for tool in "$MINE_CLI" "$GENERATE"; do
  if [[ ! -x "$tool" ]]; then
    echo "missing $tool — build the examples first" >&2
    exit 1
  fi
done

DB="$WORK_DIR/t10i4.basket"
CKPT="$WORK_DIR/run.ckpt"
ARGS=(--min-support=0.004 --algorithm=pincer-adaptive)

echo "== generating T10.I4.D$SCALE"
"$GENERATE" "$DB" --d="$SCALE" --t=10 --i=4 > /dev/null

echo "== reference run (uninterrupted)"
"$MINE_CLI" "$DB" "${ARGS[@]}" > "$WORK_DIR/reference.mfs" 2> /dev/null

echo "== checkpointed run, SIGKILLed at its third checkpoint write"
rm -f "$CKPT"
# The run dies inside the write that would follow pass 3, with pass 2's
# checkpoint (next_pass 3) on disk: no cleanup, no MFS printed.
STATUS=0
PINCER_FAILPOINTS='checkpoint.write=once@3:kill' \
  "$MINE_CLI" "$DB" "${ARGS[@]}" --checkpoint="$CKPT" \
  > "$WORK_DIR/killed.mfs" 2> /dev/null || STATUS=$?
if [[ "$STATUS" != 137 ]]; then
  echo "FAIL: the checkpointed run exited $STATUS, not 137 (SIGKILL)" >&2
  exit 1
fi
if ! grep -q '"next_pass": 3,' "$CKPT" 2> /dev/null; then
  echo "FAIL: the killed run left no pass-2 checkpoint on disk" >&2
  exit 1
fi
echo "   killed mid-run (exit 137) with pass 2's checkpoint on disk"

echo "== resuming from the checkpoint"
"$MINE_CLI" "$DB" "${ARGS[@]}" --checkpoint="$CKPT" --resume \
  > "$WORK_DIR/resumed.mfs" 2> /dev/null

if ! diff -q "$WORK_DIR/reference.mfs" "$WORK_DIR/resumed.mfs" > /dev/null; then
  echo "FAIL: resumed MFS differs from the uninterrupted run" >&2
  diff "$WORK_DIR/reference.mfs" "$WORK_DIR/resumed.mfs" | head -20 >&2
  exit 1
fi
echo "   resumed MFS is bit-identical to the uninterrupted run"

echo "== stale-checkpoint rejection"
if "$MINE_CLI" "$DB" --min-support=0.004 --algorithm=apriori \
    --checkpoint="$CKPT" --resume > /dev/null 2> "$WORK_DIR/stale.err"; then
  echo "FAIL: a pincer checkpoint resumed as apriori" >&2
  exit 1
fi
grep -q "cannot resume" "$WORK_DIR/stale.err" || {
  echo "FAIL: stale rejection did not explain itself:" >&2
  cat "$WORK_DIR/stale.err" >&2
  exit 1
}
echo "   stale checkpoint rejected with a clear error"

echo "== injected transient fault is survivable via --resume"
# A one-shot read fault kills the load; the checkpoint written before the
# fault still resumes fine afterwards (the env var only arms the one run).
if PINCER_FAILPOINTS='database.read=once@100:io' \
    "$MINE_CLI" "$DB" "${ARGS[@]}" > /dev/null 2> /dev/null; then
  echo "FAIL: armed database.read failpoint did not fire" >&2
  exit 1
fi
"$MINE_CLI" "$DB" "${ARGS[@]}" --checkpoint="$CKPT" --resume \
  > "$WORK_DIR/post_fault.mfs" 2> /dev/null
diff -q "$WORK_DIR/reference.mfs" "$WORK_DIR/post_fault.mfs" > /dev/null || {
  echo "FAIL: post-fault resume diverged" >&2
  exit 1
}
echo "   failpoint fired, and resume still reproduces the reference"

echo "crash-recovery smoke: OK"

#!/usr/bin/env bash
# Serving smoke test: boot the pincer_serve daemon over a generated Quest
# database, run a mixed burst of queries through pincer_query, and hold the
# daemon to its acceptance contract — served results bit-identical to cold
# mine_cli runs, repeat queries answered from cache with ZERO counting
# work, stricter-threshold queries answered by the filter path, pass 2 of
# no-cache mines copied from the database's pair table once a lower
# threshold has filled it, budgeted queries reporting
# aborted+budget_exceeded, and a clean SIGTERM exit.
# Used by the serve-smoke CI job; runnable locally:
#
#   ./scripts/serve_smoke.sh [BUILD_DIR] [SCALE]
#
# BUILD_DIR defaults to ./build; SCALE is the transaction count of the
# generated dataset (default 20000).
set -euo pipefail

BUILD_DIR=${1:-build}
SCALE=${2:-20000}
SERVE="$BUILD_DIR/examples/pincer_serve"
QUERY="$BUILD_DIR/examples/pincer_query"
MINE_CLI="$BUILD_DIR/examples/mine_cli"
GENERATE="$BUILD_DIR/examples/generate_data"
WORK_DIR=$(mktemp -d)
SOCKET="$WORK_DIR/serve.sock"
SERVE_PID=""
cleanup() {
  [[ -n "$SERVE_PID" ]] && kill -9 "$SERVE_PID" 2> /dev/null || true
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

for tool in "$SERVE" "$QUERY" "$MINE_CLI" "$GENERATE"; do
  if [[ ! -x "$tool" ]]; then
    echo "missing $tool — build the examples first" >&2
    exit 1
  fi
done

# jq-free JSON assertion: assert_json FILE EXPR — EXPR is a python
# expression over the parsed response `r`; non-true fails the smoke.
assert_json() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
if not eval(sys.argv[2]):
    print(f"FAIL: {sys.argv[2]!r} on {json.dumps(r)[:400]}", file=sys.stderr)
    sys.exit(1)
EOF
}

# mfs_text JSON_FILE — a mine response's MFS in mine_cli's output format.
mfs_text() {
  python3 - "$1" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
print("# maximal frequent itemsets: %d" % len(r["mfs"]))
print("# format: support <tab> items...")
for m in r["mfs"]:
    print("%d\t%s" % (m["support"], " ".join(str(i) for i in m["items"])))
EOF
}

# pair_items LIST_FILE NAME — the items the named database's pair table
# covers, from a list response.
pair_items() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
print([d for d in r["databases"] if d["name"] == sys.argv[2]][0]["pair_items"])
EOF
}

DB="$WORK_DIR/t8i4.basket"
echo "== generating T8.I4.D$SCALE"
"$GENERATE" "$DB" --d="$SCALE" --t=8 --i=4 --n=40 --seed=7 > /dev/null
# Hundreds of frequent items at 1-2%, each in few rows: pass 2 counts by
# the array scan, which the pair table serves.
SPARSE="$WORK_DIR/t10i4n1000.basket"
echo "== generating T10.I4.D$SCALE over 1000 items"
"$GENERATE" "$SPARSE" --d="$SCALE" --t=10 --i=4 --n=1000 --seed=7 > /dev/null

echo "== starting pincer_serve"
"$SERVE" --db=quest="$DB" --db=sparse="$SPARSE" --socket="$SOCKET" \
  > "$WORK_DIR/serve.out" 2> "$WORK_DIR/serve.err" &
SERVE_PID=$!
for _ in $(seq 1 200); do
  grep -q '^READY ' "$WORK_DIR/serve.out" 2> /dev/null && break
  if ! kill -0 "$SERVE_PID" 2> /dev/null; then
    echo "FAIL: daemon exited during startup:" >&2
    cat "$WORK_DIR/serve.err" >&2
    exit 1
  fi
  sleep 0.05
done
grep -q '^READY ' "$WORK_DIR/serve.out" || {
  echo "FAIL: no READY line within 10s" >&2
  exit 1
}
echo "   $(cat "$WORK_DIR/serve.out")"

echo "== ping"
"$QUERY" --socket="$SOCKET" --op=ping --id=smoke > "$WORK_DIR/ping.json"
assert_json "$WORK_DIR/ping.json" 'r["ok"] and r["id"] == "smoke"'

MINE=(--socket="$SOCKET" --database=quest --min-support=0.05
      --algorithm=pincer-adaptive)

echo "== cold mine vs cold mine_cli (bit-identity)"
"$QUERY" "${MINE[@]}" --format=text > "$WORK_DIR/served.mfs"
"$MINE_CLI" "$DB" --min-support=0.05 --algorithm=pincer-adaptive \
  > "$WORK_DIR/cold.mfs" 2> /dev/null
if ! diff -q "$WORK_DIR/cold.mfs" "$WORK_DIR/served.mfs" > /dev/null; then
  echo "FAIL: served MFS differs from a cold mine_cli run" >&2
  diff "$WORK_DIR/cold.mfs" "$WORK_DIR/served.mfs" | head -20 >&2
  exit 1
fi
echo "   served MFS is bit-identical to mine_cli"

echo "== repeat query: cache hit, zero counting work"
"$QUERY" "${MINE[@]}" > "$WORK_DIR/hit.json"
assert_json "$WORK_DIR/hit.json" 'r["cache"] == "hit"'
assert_json "$WORK_DIR/hit.json" 'r["query"]["counting"]["count_calls"] == 0'
assert_json "$WORK_DIR/hit.json" \
  'r["query"]["counting"]["transactions_scanned"] == 0'
echo "   hit served with count_calls == 0"

echo "== stricter-threshold apriori query rides the filter path"
"$QUERY" --socket="$SOCKET" --database=quest --min-support=0.05 \
  --algorithm=apriori > /dev/null
"$QUERY" --socket="$SOCKET" --database=quest --min-support=0.12 \
  --algorithm=apriori > "$WORK_DIR/filter.json"
assert_json "$WORK_DIR/filter.json" 'r["cache"] == "filter"'
assert_json "$WORK_DIR/filter.json" \
  'r["query"]["counting"]["count_calls"] == 0'
"$QUERY" --socket="$SOCKET" --database=quest --min-support=0.12 \
  --algorithm=apriori --format=text > "$WORK_DIR/filtered.mfs"
"$MINE_CLI" "$DB" --min-support=0.12 --algorithm=apriori \
  > "$WORK_DIR/cold_strict.mfs" 2> /dev/null
diff -q "$WORK_DIR/cold_strict.mfs" "$WORK_DIR/filtered.mfs" > /dev/null || {
  echo "FAIL: filter-path MFS differs from a cold mine_cli run" >&2
  exit 1
}
echo "   filter-path MFS is bit-identical to mine_cli"

echo "== budgeted query aborts and says so"
"$QUERY" "${MINE[@]}" --budget-ms=0.000001 --no-cache \
  > "$WORK_DIR/aborted.json"
assert_json "$WORK_DIR/aborted.json" 'r["stats"]["aborted"] is True'
assert_json "$WORK_DIR/aborted.json" 'r["stats"]["budget_exceeded"] is True'

echo "== list reports the resident database"
"$QUERY" --socket="$SOCKET" --op=list > "$WORK_DIR/list.json"
assert_json "$WORK_DIR/list.json" \
  'r["databases"][0]["name"] == "quest" and r["cache"]["entries"] >= 1'

echo "== no-cache mines copy pass 2 from the pair table at or above 1%"
"$QUERY" --socket="$SOCKET" --op=list > "$WORK_DIR/list_before.json"
ITEMS_BEFORE=$(pair_items "$WORK_DIR/list_before.json" sparse)
ITEMS_2PCT=""
for step in "0.02 False" "0.01 False" "0.015 True"; do
  read -r support copied <<< "$step"
  "$QUERY" --socket="$SOCKET" --database=sparse --min-support="$support" \
    --algorithm=pincer-adaptive --no-cache > "$WORK_DIR/pairs_$support.json"
  assert_json "$WORK_DIR/pairs_$support.json" 'r["cache"] == "miss"'
  assert_json "$WORK_DIR/pairs_$support.json" \
    "r['query']['resident_pairs'] is $copied"
  mfs_text "$WORK_DIR/pairs_$support.json" > "$WORK_DIR/pairs_$support.mfs"
  "$MINE_CLI" "$SPARSE" --min-support="$support" --algorithm=pincer-adaptive \
    > "$WORK_DIR/pairs_cold_$support.mfs" 2> /dev/null
  if ! diff -q "$WORK_DIR/pairs_cold_$support.mfs" \
      "$WORK_DIR/pairs_$support.mfs" > /dev/null; then
    echo "FAIL: served MFS at $support differs from a cold mine_cli run" >&2
    diff "$WORK_DIR/pairs_cold_$support.mfs" "$WORK_DIR/pairs_$support.mfs" \
      | head -20 >&2
    exit 1
  fi
  if [[ -z "$ITEMS_2PCT" ]]; then
    "$QUERY" --socket="$SOCKET" --op=list > "$WORK_DIR/list_2pct.json"
    ITEMS_2PCT=$(pair_items "$WORK_DIR/list_2pct.json" sparse)
  fi
  echo "   $support: resident_pairs $copied, MFS bit-identical to mine_cli"
done
"$QUERY" --socket="$SOCKET" --op=list > "$WORK_DIR/list_after.json"
ITEMS_AFTER=$(pair_items "$WORK_DIR/list_after.json" sparse)
if (( ITEMS_BEFORE != 0 || ITEMS_AFTER <= ITEMS_2PCT )); then
  echo "FAIL: pair_items read $ITEMS_BEFORE before the mines," \
    "$ITEMS_2PCT after 2% and $ITEMS_AFTER after 1%" >&2
  exit 1
fi
echo "   pair_items: $ITEMS_BEFORE, $ITEMS_2PCT after 2%, $ITEMS_AFTER after 1%"

echo "== SIGTERM: clean shutdown"
kill -TERM "$SERVE_PID"
SERVE_EXIT=0
wait "$SERVE_PID" || SERVE_EXIT=$?
SERVE_PID=""
if [[ "$SERVE_EXIT" -ne 0 ]]; then
  echo "FAIL: daemon exited $SERVE_EXIT on SIGTERM" >&2
  cat "$WORK_DIR/serve.err" >&2
  exit 1
fi
grep -q 'clean shutdown' "$WORK_DIR/serve.err" || {
  echo "FAIL: daemon did not report a clean shutdown" >&2
  exit 1
}
echo "   exit 0, clean shutdown reported"

echo "serve smoke: OK"

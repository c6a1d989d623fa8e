#!/usr/bin/env bash
# End-to-end smoke test for cmd/carserved: boots the daemon with -shards 4
# (accepted and ignored: the daemon holds one replica), exercises
# declare/assert/rules/sessions/rank/query/stats over HTTP,
# SIGTERMs it, asserts a clean snapshot-on-shutdown, reboots from the
# snapshot directory and checks the durable state — including journaled
# sessions — survived. (Crash recovery via kill -9 has its own script,
# smoke_crash_recovery.sh.) CI runs it; it also works locally:
#
#   go build -o /tmp/carserved ./cmd/carserved
#   scripts/smoke_carserved.sh /tmp/carserved
#
# Requires: curl, jq.
set -euo pipefail

BIN=${1:?usage: smoke_carserved.sh <carserved-binary> [port]}
PORT=${2:-18372}
BASE="http://127.0.0.1:${PORT}"
SNAP=$(mktemp -d)
LOG=$(mktemp)
SHARDS=4
PID=

cleanup() {
  if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
    kill -9 "$PID" 2>/dev/null || true
  fi
  echo "--- daemon log ---"
  cat "$LOG"
  rm -rf "$SNAP" "$LOG"
}
trap cleanup EXIT

fail() { echo "SMOKE FAIL: $*" >&2; exit 1; }

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "daemon did not become healthy on $BASE"
}

# jget URL JQ_EXPR — GET and extract; jpost METHOD URL BODY JQ_EXPR.
jget() { curl -fsS "$1" | jq -er "$2"; }
jsend() { curl -fsS -X "$1" "$2" -d "$3" | jq -er "$4"; }

echo "=== boot with -shards $SHARDS -preload small ==="
"$BIN" -addr "127.0.0.1:${PORT}" -shards "$SHARDS" -preload small -rules 4 -snapdir "$SNAP" >>"$LOG" 2>&1 &
PID=$!
wait_healthy
grep -q "shards $SHARDS ignored" "$LOG" || fail "no log line saying -shards is ignored"

echo "=== declare + assert new vocabulary ==="
jsend POST "$BASE/v1/declare" '{"concepts":["SmokeCtx"],"roles":["smokeRel"]}' '.epoch' >/dev/null \
  || fail "declare"
jsend POST "$BASE/v1/assert" '{"roles":[{"role":"smokeRel","src":"tv000","dst":"smoke","prob":0.9}]}' '.epoch' >/dev/null \
  || fail "assert"

echo "=== register a rule on top of the preloaded set ==="
ADDED=$(jsend POST "$BASE/v1/rules" '{"rules":["RULE SMOKE WHEN SmokeCtx PREFER TvProgram AND EXISTS smokeRel.{smoke} WITH 0.7"]}' '.added[0]')
[ "$ADDED" = "SMOKE" ] || fail "rule add returned $ADDED"
RULES=$(jget "$BASE/v1/rules" '.rules | length')
[ "$RULES" -eq 5 ] || fail "expected 5 rules (4 preloaded + SMOKE), got $RULES"

echo "=== sessions + ranks across several users ==="
for i in 0 1 2 3 4 5 6 7; do
  USER=$(printf 'person%04d' "$i")
  jsend PUT "$BASE/v1/sessions/$USER/context" \
    '{"measurements":[{"concept":"BenchCtx0","prob":1},{"concept":"SmokeCtx","prob":0.8}]}' \
    '.fingerprint' >/dev/null || fail "session set for $USER"
  N=$(jsend POST "$BASE/v1/rank" "{\"user\":\"$USER\",\"target\":\"TvProgram\",\"limit\":3}" '.results | length')
  [ "$N" -ge 1 ] || fail "rank for $USER returned $N results"
done
# A repeated identical rank must be served from the rank cache.
CACHED=$(jsend POST "$BASE/v1/rank" '{"user":"person0000","target":"TvProgram","limit":3}' '.cached')
CACHED=$(jsend POST "$BASE/v1/rank" '{"user":"person0000","target":"TvProgram","limit":3}' '.cached')
[ "$CACHED" = "true" ] || fail "repeated rank not cached"
# The deprecated GET surface still answers, and says so: Deprecation +
# Sunset headers steer clients to POST /v1/rank.
DEPHDR=$(curl -fsS -D - -o /dev/null "$BASE/v1/rank?user=person0000&target=TvProgram&limit=3")
echo "$DEPHDR" | grep -qi '^Deprecation: true' || fail "GET /v1/rank missing Deprecation header"
echo "$DEPHDR" | grep -qi '^Sunset: ' || fail "GET /v1/rank missing Sunset header"
# Batched rank: one request, several targets/candidate lists, per-item results.
NBATCH=$(jsend POST "$BASE/v1/rank/batch" \
  '{"user":"person0000","items":[{"target":"TvProgram","limit":3},{"candidates":["tv000","tv001"]}]}' \
  '.items | length')
[ "$NBATCH" -eq 2 ] || fail "batch rank returned $NBATCH items, want 2"
NCAND=$(jsend POST "$BASE/v1/rank/batch" \
  '{"user":"person0000","items":[{"target":"TvProgram","limit":3},{"candidates":["tv000","tv001"]}]}' \
  '.items[1].results | length')
[ "$NCAND" -eq 2 ] || fail "batch candidate item returned $NCAND results, want 2"
# Session round-trips.
jget "$BASE/v1/sessions/person0003" '.measurements | length' >/dev/null || fail "session get"

echo "=== read-only query + stats show one shard entry ==="
ROWS=$(jsend POST "$BASE/v1/query" '{"sql":"SELECT id FROM c_TvProgram"}' '.rows | length')
[ "$ROWS" -ge 1 ] || fail "query returned $ROWS rows"
GOT_SHARDS=$(jget "$BASE/v1/stats" '.shards | length')
[ "$GOT_SHARDS" -eq 1 ] || fail "stats report $GOT_SHARDS shards, want 1"
SESSIONS=$(jget "$BASE/v1/stats" '.sessions')
[ "$SESSIONS" -eq 8 ] || fail "stats report $SESSIONS sessions, want 8"
BWRITES=$(jget "$BASE/v1/stats" '.broadcast.writes')
[ "$BWRITES" -ge 3 ] || fail "broadcast writes = $BWRITES, want >= 3"

echo "=== clean snapshot on SIGTERM ==="
kill -TERM "$PID"
if ! wait "$PID"; then fail "daemon exited non-zero on SIGTERM"; fi
PID=
[ -f "$SNAP/manifest.json" ] || fail "no snapshot manifest after shutdown"
NSNAP=$(ls "$SNAP"/shard-*.snapshot.json | wc -l)
[ "$NSNAP" -eq 1 ] || fail "found $NSNAP shard snapshots, want 1"

echo "=== reboot restores durable state from the snapshot dir ==="
"$BIN" -addr "127.0.0.1:${PORT}" -shards "$SHARDS" -preload none -snapdir "$SNAP" >>"$LOG" 2>&1 &
PID=$!
wait_healthy
RULES=$(jget "$BASE/v1/rules" '.rules | length')
[ "$RULES" -eq 5 ] || fail "restored daemon has $RULES rules, want 5"
ROWS=$(jsend POST "$BASE/v1/query" '{"sql":"SELECT id FROM c_TvProgram"}' '.rows | length')
[ "$ROWS" -ge 1 ] || fail "restored query returned $ROWS rows"
# Sessions are journaled (session WAL beside the snapshots), so they
# survive the restart with their fingerprints intact.
SESSIONS=$(jget "$BASE/v1/stats" '.sessions')
[ "$SESSIONS" -eq 8 ] || fail "restored daemon has $SESSIONS sessions, want 8"
FP=$(jget "$BASE/v1/sessions/person0000" '.fingerprint')
[ -n "$FP" ] || fail "session for person0000 lost its fingerprint across restart"
# The restored stack keeps serving session updates and ranks immediately.
jsend PUT "$BASE/v1/sessions/person0000/context" \
  '{"measurements":[{"concept":"BenchCtx0","prob":1}]}' '.fingerprint' >/dev/null \
  || fail "session set after restore"
N=$(jsend POST "$BASE/v1/rank" '{"user":"person0000","target":"TvProgram","limit":3}' '.results | length')
[ "$N" -ge 1 ] || fail "rank after restore returned $N results"
JAPPENDS=$(jget "$BASE/v1/stats" '.journal.appends')
[ "$JAPPENDS" -ge 1 ] || fail "journal stats missing after restore (appends=$JAPPENDS)"

echo "=== reboot at a different shard count (online reshard) ==="
kill -TERM "$PID"; wait "$PID" || fail "second shutdown not clean"
PID=
"$BIN" -addr "127.0.0.1:${PORT}" -shards 2 -preload none -snapdir "$SNAP" >>"$LOG" 2>&1 &
PID=$!
wait_healthy
GOT_SHARDS=$(jget "$BASE/v1/stats" '.shards | length')
[ "$GOT_SHARDS" -eq 1 ] || fail "resharded daemon reports $GOT_SHARDS shards, want 1"
RULES=$(jget "$BASE/v1/rules" '.rules | length')
[ "$RULES" -eq 5 ] || fail "resharded daemon has $RULES rules, want 5"
# Journal replay brings every session back whatever -shards says.
SESSIONS=$(jget "$BASE/v1/stats" '.sessions')
[ "$SESSIONS" -eq 8 ] || fail "resharded daemon has $SESSIONS sessions, want 8"
kill -TERM "$PID"; wait "$PID" || fail "final shutdown not clean"
PID=

echo "SMOKE PASS"

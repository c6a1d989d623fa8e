#!/usr/bin/env bash
# Crash-recovery smoke test for cmd/carserved: the CI proof that the
# full-state write-ahead journal makes the daemon crash-safe. It boots
# with -shards 4 (accepted and ignored: one replica) and -snapdir, applies
# per-user session contexts over HTTP AND mutates the vocabulary
# mid-traffic (declare, assert, rule add, SQL exec), records every user's
# context fingerprint, full rank scores, the rule set and SQL row
# contents, then kill -9s the daemon mid-traffic (a rank loop is running;
# no SIGTERM, no snapshot-on-shutdown) and reboots. Recovery must be
# bit-identical across every dimension. The whole check then repeats
# across a second kill -9 with a *different* -shards count, which must
# change nothing. A final leg runs the background checkpointer at a
# 1s interval, proves the WAL's vocabulary backlog is truncated to zero,
# crashes once more, and shows snapshot + WAL-suffix recovery lands on
# the same consistent point.
#
#   go build -o /tmp/carserved ./cmd/carserved
#   scripts/smoke_crash_recovery.sh /tmp/carserved
#
# Requires: curl, jq.
set -euo pipefail

BIN=${1:?usage: smoke_crash_recovery.sh <carserved-binary> [port]}
PORT=${2:-18373}
BASE="http://127.0.0.1:${PORT}"
SNAP=$(mktemp -d)
LOG=$(mktemp)
STATE=$(mktemp -d)
NUSERS=10
PID=
TRAFFIC_PID=

cleanup() {
  stop_traffic
  if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
    kill -9 "$PID" 2>/dev/null || true
  fi
  echo "--- daemon log ---"
  cat "$LOG"
  rm -rf "$SNAP" "$LOG" "$STATE"
}
trap cleanup EXIT

fail() { echo "CRASH-RECOVERY FAIL: $*" >&2; exit 1; }

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "daemon did not become healthy on $BASE"
}

jget() { curl -fsS "$1" | jq -er "$2"; }
jsend() { curl -fsS -X "$1" "$2" -d "$3" | jq -er "$4"; }

boot() { # boot SHARDS [extra carserved flags...]
  local shards=$1
  shift
  "$BIN" -addr "127.0.0.1:${PORT}" -shards "$shards" -preload small -rules 4 -snapdir "$SNAP" "$@" >>"$LOG" 2>&1 &
  PID=$!
  wait_healthy
}

crash() { # kill -9, no clean shutdown
  kill -9 "$PID"
  wait "$PID" 2>/dev/null || true
  PID=
}

start_traffic() {
  # Background rank traffic so kills and mutations land mid-flight, as in
  # production — ranks are read-only, so they cannot change what
  # recovery must reproduce.
  (
    i=0
    while :; do
      u=$(printf 'user%03d' $((i % NUSERS)))
      curl -fsS -X POST "$BASE/v1/rank" -d "{\"user\":\"$u\",\"target\":\"TvProgram\",\"limit\":5}" >/dev/null 2>&1 || true
      i=$((i + 1))
    done
  ) &
  TRAFFIC_PID=$!
}

stop_traffic() {
  if [ -n "$TRAFFIC_PID" ] && kill -0 "$TRAFFIC_PID" 2>/dev/null; then
    kill "$TRAFFIC_PID" 2>/dev/null || true
    wait "$TRAFFIC_PID" 2>/dev/null || true
  fi
  TRAFFIC_PID=
}

# snapshot_state FILE-PREFIX — record sessions, per-user fingerprints,
# full rank score arrays, the rule set and the smoke table's rows for
# later bit-identity comparison.
snapshot_state() {
  jget "$BASE/v1/stats" '.sessions' >"$STATE/$1.sessions"
  jget "$BASE/v1/rules" '.rules | sort_by(.name)' >"$STATE/$1.rules"
  curl -fsS -X POST "$BASE/v1/query" -d '{"sql":"SELECT n FROM smoke_t"}' \
    | jq -er '.rows | sort' >"$STATE/$1.rows"
  for i in $(seq 0 $((NUSERS - 1))); do
    u=$(printf 'user%03d' "$i")
    jget "$BASE/v1/sessions/$u" '.fingerprint' >"$STATE/$1.fp.$u"
    jsend POST "$BASE/v1/rank" "{\"user\":\"$u\",\"target\":\"TvProgram\",\"limit\":0}" '.results' >"$STATE/$1.scores.$u"
  done
}

# assert_state PRE POST — every recorded value must be bit-identical.
assert_state() {
  cmp -s "$STATE/$1.sessions" "$STATE/$2.sessions" \
    || fail "session count changed: $(cat "$STATE/$1.sessions") -> $(cat "$STATE/$2.sessions")"
  cmp -s "$STATE/$1.rules" "$STATE/$2.rules" \
    || fail "rule set changed across crash recovery ($1 vs $2)"
  cmp -s "$STATE/$1.rows" "$STATE/$2.rows" \
    || fail "SQL rows changed across crash recovery: $(cat "$STATE/$1.rows") -> $(cat "$STATE/$2.rows")"
  for i in $(seq 0 $((NUSERS - 1))); do
    u=$(printf 'user%03d' "$i")
    cmp -s "$STATE/$1.fp.$u" "$STATE/$2.fp.$u" \
      || fail "fingerprint for $u changed: $(cat "$STATE/$1.fp.$u") -> $(cat "$STATE/$2.fp.$u")"
    cmp -s "$STATE/$1.scores.$u" "$STATE/$2.scores.$u" \
      || fail "rank scores for $u changed across crash recovery"
  done
}

echo "=== boot with -shards 4 -snapdir (saves a boot snapshot, arms the journal) ==="
boot 4
grep -q "journal armed" "$LOG" || fail "no journal boot log line"
[ -f "$SNAP/manifest.json" ] || fail "no boot snapshot written"
[ -f "$SNAP/journal.manifest.json" ] || fail "no journal manifest written"

echo "=== establish journaled sessions (plus one churned + dropped user) ==="
for i in $(seq 0 $((NUSERS - 1))); do
  u=$(printf 'user%03d' "$i")
  p=$(awk -v i="$i" 'BEGIN{printf "%.2f", 0.5 + (i % 5) / 10.0}')
  jsend PUT "$BASE/v1/sessions/$u/context" \
    "{\"measurements\":[{\"concept\":\"BenchCtx0\",\"prob\":$p},{\"concept\":\"BenchCtx1\",\"prob\":0.7}]}" \
    '.fingerprint' >/dev/null || fail "session set for $u"
done
# ghost leaves before the crash; replay must not resurrect it.
jsend PUT "$BASE/v1/sessions/ghost/context" \
  '{"measurements":[{"concept":"BenchCtx0","prob":0.9}]}' '.fingerprint' >/dev/null || fail "ghost set"
curl -fsS -X DELETE "$BASE/v1/sessions/ghost" >/dev/null || fail "ghost drop"

echo "=== mutate vocabulary mid-traffic: declare, assert, rule, SQL exec ==="
start_traffic
jsend POST "$BASE/v1/declare" '{"concepts":["SmokeCtx"]}' '.epoch' >/dev/null || fail "declare"
jsend POST "$BASE/v1/assert" \
  '{"concepts":[{"concept":"TvProgram","id":"smoketv","prob":1}],"roles":[{"role":"hasGenre","src":"smoketv","dst":"genre00","prob":0.9}]}' \
  '.epoch' >/dev/null || fail "assert"
jsend POST "$BASE/v1/rules" \
  '{"rules":["RULE smoke WHEN SmokeCtx PREFER TvProgram AND EXISTS hasGenre.{genre00} WITH 0.9"]}' \
  '.epoch' >/dev/null || fail "rule add"
jsend POST "$BASE/v1/exec" '{"sql":"CREATE TABLE smoke_t (n INT)"}' '.epoch' >/dev/null || fail "create table"
jsend POST "$BASE/v1/exec" '{"sql":"INSERT INTO smoke_t (n) VALUES (1)"}' '.epoch' >/dev/null || fail "insert 1"
jsend POST "$BASE/v1/exec" '{"sql":"INSERT INTO smoke_t (n) VALUES (2)"}' '.epoch' >/dev/null || fail "insert 2"
# user000 picks up the new context concept so the smoke rule shapes its
# ranking — recovered scores then prove the whole vocabulary survived.
jsend PUT "$BASE/v1/sessions/user000/context" \
  '{"measurements":[{"concept":"SmokeCtx","prob":1},{"concept":"BenchCtx0","prob":0.6}]}' \
  '.fingerprint' >/dev/null || fail "smoke-rule session"
snapshot_state pre

echo "=== kill -9 mid-traffic (no snapshot, no clean shutdown) ==="
sleep 0.5
crash
stop_traffic

echo "=== reboot at the same shard count: recovery must be bit-identical ==="
boot 4
grep -Eq "journal: replayed [0-9]+ records" "$LOG" || fail "no replay log line after crash"
grep -Eq "vocabulary/DML replay: [1-9][0-9]* applied" "$LOG" || fail "no vocabulary replay log line"
snapshot_state post4
assert_state pre post4
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/sessions/ghost")
[ "$CODE" = "404" ] || fail "dropped session resurrected by replay (status $CODE)"
JLIVE=$(jget "$BASE/v1/stats" '.journal.live_records')
[ "$JLIVE" -eq "$NUSERS" ] || fail "journal live records = $JLIVE, want $NUSERS"

echo "=== kill -9 again, reboot at -shards 2: still one replica, same state ==="
start_traffic
sleep 0.3
crash
stop_traffic
boot 2
GOT_SHARDS=$(jget "$BASE/v1/stats" '.shards | length')
[ "$GOT_SHARDS" -eq 1 ] || fail "resharded daemon reports $GOT_SHARDS shards, want 1"
snapshot_state post2
assert_state pre post2

echo "=== background checkpointer: WAL vocabulary backlog must truncate to zero ==="
crash
boot 2 -checkpoint-interval 1s -checkpoint-bytes 2048
for n in 101 102 103 104 105; do
  jsend POST "$BASE/v1/exec" "{\"sql\":\"INSERT INTO smoke_t (n) VALUES ($n)\"}" '.epoch' >/dev/null || fail "insert $n"
done
CKPTS=0
for _ in $(seq 1 100); do
  CKPTS=$(jget "$BASE/v1/stats" '.checkpoints.count // 0')
  VBYTES=$(jget "$BASE/v1/stats" '.journal.vocab_bytes')
  if [ "$CKPTS" -ge 1 ] && [ "$VBYTES" -eq 0 ]; then break; fi
  sleep 0.1
done
[ "$CKPTS" -ge 1 ] || fail "background checkpointer never fired"
[ "$VBYTES" -eq 0 ] || fail "WAL retains $VBYTES vocabulary bytes after checkpoint"

echo "=== kill -9 after the checkpoint: snapshot + WAL suffix recover one point ==="
crash
boot 2
ROWS=$(curl -fsS -X POST "$BASE/v1/query" -d '{"sql":"SELECT n FROM smoke_t"}' | jq -er '.rows | length')
[ "$ROWS" -eq 7 ] || fail "smoke_t holds $ROWS rows after checkpointed recovery, want 7"
snapshot_state postckpt
for i in $(seq 0 $((NUSERS - 1))); do
  u=$(printf 'user%03d' "$i")
  cmp -s "$STATE/pre.fp.$u" "$STATE/postckpt.fp.$u" || fail "fingerprint for $u changed after checkpointed recovery"
  cmp -s "$STATE/pre.scores.$u" "$STATE/postckpt.scores.$u" || fail "rank scores for $u changed after checkpointed recovery"
done
cmp -s "$STATE/pre.rules" "$STATE/postckpt.rules" || fail "rule set changed after checkpointed recovery"

echo "=== clean shutdown still works after all that ==="
kill -TERM "$PID"
wait "$PID" || fail "final shutdown not clean"
PID=

echo "CRASH-RECOVERY PASS"

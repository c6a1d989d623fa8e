#!/usr/bin/env bash
# Chaos smoke test for cmd/carserved: the CI proof that the failure
# domains of DESIGN.md §3.9 hold on a live daemon. One daemon is booted
# with the fault-injection surface armed (-chaos) and driven through two
# failure stories without ever being restarted:
#
#   1. Dead disk (carbench -exp chaos): journal writes and fsyncs fail,
#      one rank request panics. Reads must keep serving from memory,
#      writes must shed 503 + Retry-After (never a silent ack), and when
#      the faults clear the background probe re-arms the WAL.
#   3. Bit-identity: after the faults and a write sequence, every user's
#      fingerprint and full rank-score array must equal a fault-free
#      daemon that applied the same writes — the faults may cost
#      availability, never consistency.
#
# The daemon must be alive after every phase and still drain cleanly on
# SIGTERM at the end.
#
#   go build -o /tmp/carserved ./cmd/carserved
#   go build -o /tmp/carbench ./cmd/carbench
#   scripts/smoke_chaos.sh /tmp/carserved /tmp/carbench
#
# Requires: curl, jq.
set -euo pipefail

BIN=${1:?usage: smoke_chaos.sh <carserved-binary> <carbench-binary> [port]}
BENCH=${2:?usage: smoke_chaos.sh <carserved-binary> <carbench-binary> [port]}
PORT=${3:-18374}
REFPORT=$((PORT + 1))
BASE="http://127.0.0.1:${PORT}"
REFBASE="http://127.0.0.1:${REFPORT}"
SNAP=$(mktemp -d)
REFSNAP=$(mktemp -d)
LOG=$(mktemp)
STATE=$(mktemp -d)
NUSERS=8
PID=
REFPID=

cleanup() {
  for p in "$PID" "$REFPID"; do
    if [ -n "$p" ] && kill -0 "$p" 2>/dev/null; then
      kill -9 "$p" 2>/dev/null || true
    fi
  done
  echo "--- daemon log ---"
  cat "$LOG"
  rm -rf "$SNAP" "$REFSNAP" "$LOG" "$STATE"
}
trap cleanup EXIT

fail() { echo "CHAOS FAIL: $*" >&2; exit 1; }

alive() { kill -0 "$PID" 2>/dev/null || fail "daemon died: $1"; }

wait_up() { # wait_up BASEURL
  for _ in $(seq 1 100); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "daemon did not come up on $1"
}

jget() { curl -fsS "$1" | jq -er "$2"; }
jsend() { curl -fsS -X "$1" "$2" -d "$3" | jq -er "$4"; }

# set_sessions BASEURL — identical per-user contexts on any daemon, so
# score arrays are comparable bit-for-bit.
set_sessions() {
  for i in $(seq 0 $((NUSERS - 1))); do
    u=$(printf 'user%03d' "$i")
    p=$(awk -v i="$i" 'BEGIN{printf "%.2f", 0.5 + (i % 5) / 10.0}')
    jsend PUT "$1/v1/sessions/$u/context" \
      "{\"measurements\":[{\"concept\":\"BenchCtx0\",\"prob\":$p},{\"concept\":\"BenchCtx1\",\"prob\":0.7}]}" \
      '.fingerprint' >/dev/null || fail "session set for $u on $1"
  done
}

# mutate BASEURL — the write sequence both daemons must end up with.
mutate() {
  local url=$1
  jsend POST "$url/v1/assert" \
    '{"concepts":[{"concept":"TvProgram","id":"chaostv1","prob":1}],"roles":[{"role":"hasGenre","src":"chaostv1","dst":"genre00","prob":0.9}]}' \
    '.epoch' >/dev/null || fail "assert chaostv1 on $url"
  jsend POST "$url/v1/assert" \
    '{"concepts":[{"concept":"TvProgram","id":"chaostv2","prob":1}],"roles":[{"role":"hasGenre","src":"chaostv2","dst":"genre00","prob":0.8}]}' \
    '.epoch' >/dev/null || fail "assert chaostv2 on $url"
  jsend POST "$url/v1/rules" \
    '{"rules":["RULE chaosrule WHEN BenchCtx1 PREFER TvProgram AND EXISTS hasGenre.{genre00} WITH 0.9"]}' \
    '.epoch' >/dev/null || fail "rule add on $url"
}

# snapshot_state BASEURL PREFIX — fingerprints + full score arrays.
snapshot_state() {
  for i in $(seq 0 $((NUSERS - 1))); do
    u=$(printf 'user%03d' "$i")
    jget "$1/v1/sessions/$u" '.fingerprint' >"$STATE/$2.fp.$u"
    jsend POST "$1/v1/rank" "{\"user\":\"$u\",\"target\":\"TvProgram\",\"limit\":0}" '.results' >"$STATE/$2.scores.$u"
  done
  jget "$1/v1/rules" '.rules | sort_by(.name)' >"$STATE/$2.rules"
}

echo "=== boot: journal, chaos surface ==="
"$BIN" -addr "127.0.0.1:${PORT}" -shards 3 -preload small -rules 4 -snapdir "$SNAP" \
  -chaos -probe-interval 200ms -drain-timeout 5s >>"$LOG" 2>&1 &
PID=$!
wait_up "$BASE"
grep -q "chaos surface armed" "$LOG" || fail "no chaos boot log line"
set_sessions "$BASE"

echo "=== phase 1: dead disk + rank panic (carbench -exp chaos) ==="
BENCHOUT=$(mktemp)
"$BENCH" -exp chaos -target "$BASE" -clients 4 -users 4 -benchdur 2s | tee "$BENCHOUT" \
  || { rm -f "$BENCHOUT"; fail "carbench -exp chaos failed"; }
grep -q 'CHAOS phase=fault' "$BENCHOUT" || { rm -f "$BENCHOUT"; fail "no fault-phase summary line"; }
grep 'CHAOS phase=fault' "$BENCHOUT" | grep -q 'shed_no_retry_after=0' \
  || { rm -f "$BENCHOUT"; fail "shed writes missing Retry-After"; }
rm -f "$BENCHOUT"
alive "after disk-fault phase"
PANICS=$(jget "$BASE/v1/stats" '.health.panics // 0')
[ "$PANICS" -ge 1 ] || fail "injected rank panic not counted (panics=$PANICS)"

echo "=== writes on the recovered daemon ==="
mutate "$BASE"
jsend POST "$BASE/v1/exec" '{"sql":"CREATE TABLE chaos_t (n INT)"}' '.epoch' >/dev/null \
  || fail "exec after the faults cleared"
snapshot_state "$BASE" post
alive "after the writes"

echo "=== phase 3: bit-identity against a fault-free daemon ==="
"$BIN" -addr "127.0.0.1:${REFPORT}" -shards 3 -preload small -rules 4 -snapdir "$REFSNAP" >>"$LOG" 2>&1 &
REFPID=$!
wait_up "$REFBASE"
set_sessions "$REFBASE"
mutate "$REFBASE" ok
jsend POST "$REFBASE/v1/exec" '{"sql":"CREATE TABLE chaos_t (n INT)"}' '.epoch' >/dev/null \
  || fail "reference exec"
snapshot_state "$REFBASE" ref
for i in $(seq 0 $((NUSERS - 1))); do
  u=$(printf 'user%03d' "$i")
  cmp -s "$STATE/post.fp.$u" "$STATE/ref.fp.$u" \
    || fail "fingerprint for $u diverged from the fault-free run"
  cmp -s "$STATE/post.scores.$u" "$STATE/ref.scores.$u" \
    || fail "rank scores for $u diverged from the fault-free run (repair incomplete?)"
done
cmp -s "$STATE/post.rules" "$STATE/ref.rules" || fail "rule set diverged from the fault-free run"
kill -TERM "$REFPID" && wait "$REFPID" 2>/dev/null || true
REFPID=

echo "=== drain: SIGTERM must still shut down cleanly after all faults ==="
kill -TERM "$PID"
wait "$PID" || fail "shutdown not clean"
PID=
grep -q "draining" "$LOG" || fail "no drain log line on SIGTERM"

echo "CHAOS PASS"

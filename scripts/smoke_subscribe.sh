#!/usr/bin/env bash
# Standing-subscription smoke test for cmd/carserved: boots the daemon,
# registers a rank subscription over POST /v1/subscriptions, attaches the
# SSE event stream, and asserts the push contract end to end —
#
#   1. the stream opens with a full snapshot equal to a fresh POST
#      /v1/rank for the same user;
#   2. a context apply (PUT /v1/sessions/{user}/context) pushes a delta
#      whose patch (snapshot + changes - removed) reproduces the fresh
#      post-change ranking bit for bit;
#   3. the subscription is journaled: a kill -9 and reboot over the same
#      durability directory restores it, and the re-attached stream
#      serves the same ranking;
#   4. DELETE /v1/subscriptions/{id} ends the stream with a terminal
#      "unsubscribed" event and empties the registry.
#
# CI runs it; it also works locally:
#
#   go build -o /tmp/carserved ./cmd/carserved
#   scripts/smoke_subscribe.sh /tmp/carserved
#
# Requires: curl, jq.
set -euo pipefail

BIN=${1:?usage: smoke_subscribe.sh <carserved-binary> [port]}
PORT=${2:-18375}
BASE="http://127.0.0.1:${PORT}"
SNAP=$(mktemp -d)
LOG=$(mktemp)
SSEOUT=$(mktemp)
SCRAPE=$(mktemp)
PID=
SSEPID=

cleanup() {
  if [ -n "$SSEPID" ] && kill -0 "$SSEPID" 2>/dev/null; then
    kill "$SSEPID" 2>/dev/null || true
  fi
  if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
    kill -9 "$PID" 2>/dev/null || true
  fi
  echo "--- daemon log ---"
  cat "$LOG"
  echo "--- SSE stream ---"
  cat "$SSEOUT"
  rm -rf "$SNAP" "$LOG" "$SSEOUT" "$SCRAPE"
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

jget() { curl -fsS "$1" | jq -er "$2"; }
jsend() { curl -fsS -X "$1" "$2" -d "$3" | jq -er "$4"; }

# wait_event TYPE — poll the SSE capture until an event of TYPE arrives,
# then print its data JSON (first occurrence).
wait_event() {
  for _ in $(seq 1 100); do
    if grep -q "^event: $1\$" "$SSEOUT"; then
      awk -v want="$1" '/^event: /{t=substr($0,8)} /^data: /{if (t==want){print substr($0,7); exit}}' "$SSEOUT"
      return 0
    fi
    sleep 0.1
  done
  fail "no $1 event arrived on the stream"
}

# scoremap JSON — flatten a rank/snapshot result array to {id: score}.
scoremap() { jq -er '[ .results[] | {(.id): .score} ] | add // {}' <<<"$1"; }

# fresh_scores USER — the fresh full ranking as {id: score}.
fresh_scores() {
  scoremap "$(curl -fsS -X POST "$BASE/v1/rank" -d "{\"user\":\"$1\",\"target\":\"TvProgram\",\"limit\":0}")"
}

echo "=== boot: 2 shards, journal, preload small ==="
"$BIN" -addr "127.0.0.1:${PORT}" -shards 2 -preload small -rules 4 -snapdir "$SNAP" >>"$LOG" 2>&1 &
PID=$!
wait_healthy

USER=person0000
jsend PUT "$BASE/v1/sessions/$USER/context" \
  '{"measurements":[{"concept":"BenchCtx0","prob":1}]}' '.fingerprint' >/dev/null \
  || fail "session set"

echo "=== subscribe + attach the event stream ==="
SID=$(jsend POST "$BASE/v1/subscriptions" "{\"user\":\"$USER\",\"target\":\"TvProgram\"}" '.id')
[ -n "$SID" ] || fail "subscription create returned no id"
NSUBS=$(jget "$BASE/v1/subscriptions" '.subscriptions | length')
[ "$NSUBS" -eq 1 ] || fail "registry lists $NSUBS subscriptions, want 1"
GOTUSER=$(jget "$BASE/v1/subscriptions/$SID" '.user')
[ "$GOTUSER" = "$USER" ] || fail "subscription owner $GOTUSER, want $USER"

curl -sN "$BASE/v1/subscriptions/$SID/events" >"$SSEOUT" &
SSEPID=$!

SNAPDATA=$(wait_event snapshot)
SNAPSCORES=$(scoremap "$SNAPDATA")
WANT=$(fresh_scores "$USER")
jq -en --argjson a "$SNAPSCORES" --argjson b "$WANT" '$a == $b' >/dev/null \
  || fail "opening snapshot diverges from a fresh rank"
N=$(jq -er 'length' <<<"$SNAPSCORES")
[ "$N" -ge 1 ] || fail "snapshot is empty"
echo "snapshot: $N scores, matches fresh rank"

echo "=== context apply pushes a delta that patches to the fresh ranking ==="
jsend PUT "$BASE/v1/sessions/$USER/context" \
  '{"measurements":[{"concept":"BenchCtx1","prob":1}]}' '.fingerprint' >/dev/null \
  || fail "context change"
DELTA=$(wait_event delta)
NCH=$(jq -er '.changes | length' <<<"$DELTA")
[ "$NCH" -ge 1 ] || fail "delta carries no changes after a context flip"
PATCHED=$(jq -en --argjson s "$SNAPSCORES" --argjson d "$DELTA" '
  ($s + ([ $d.changes[]? | {(.id): .score} ] | add // {}))
  | with_entries(select(.key as $k | (($d.removed // []) | index($k)) | not))')
WANT=$(fresh_scores "$USER")
jq -en --argjson a "$PATCHED" --argjson b "$WANT" '$a == $b' >/dev/null \
  || fail "snapshot + delta does not reproduce the fresh post-change ranking"
echo "delta: $NCH changes, patch matches fresh rank"

ACTIVE=$(jget "$BASE/v1/stats" '.subscriptions.active')
[ "$ACTIVE" -eq 1 ] || fail "stats report $ACTIVE active subscriptions, want 1"
# Scrape to a file, then grep it: grep -q exits at its first match, and under
# pipefail the curl it leaves writing into a closed pipe fails the check.
curl -fsS "$BASE/metrics" >"$SCRAPE" || fail "/metrics scrape failed"
grep -q '^carserve_subscriptions_active 1' "$SCRAPE" \
  || fail "/metrics missing carserve_subscriptions_active 1"

echo "=== kill -9: the journaled subscription survives the crash ==="
kill "$SSEPID" 2>/dev/null || true; wait "$SSEPID" 2>/dev/null || true; SSEPID=
kill -9 "$PID"; wait "$PID" 2>/dev/null || true; PID=
"$BIN" -addr "127.0.0.1:${PORT}" -shards 2 -preload none -snapdir "$SNAP" >>"$LOG" 2>&1 &
PID=$!
wait_healthy
RECSUBS=$(jget "$BASE/v1/stats" '.recovery.subscribes')
[ "$RECSUBS" -ge 1 ] || fail "recovery replayed $RECSUBS subscribe records, want >= 1"
NSUBS=$(jget "$BASE/v1/subscriptions" '.subscriptions | length')
[ "$NSUBS" -eq 1 ] || fail "restored daemon lists $NSUBS subscriptions, want 1"
GOTID=$(jget "$BASE/v1/subscriptions" '.subscriptions[0].id')
[ "$GOTID" = "$SID" ] || fail "restored subscription id $GOTID, want $SID"

: >"$SSEOUT"
curl -sN "$BASE/v1/subscriptions/$SID/events" >"$SSEOUT" &
SSEPID=$!
SNAPDATA=$(wait_event snapshot)
SNAPSCORES=$(scoremap "$SNAPDATA")
WANT=$(fresh_scores "$USER")
jq -en --argjson a "$SNAPSCORES" --argjson b "$WANT" '$a == $b' >/dev/null \
  || fail "post-recovery snapshot diverges from a fresh rank"
echo "recovered stream snapshot matches fresh rank"

echo "=== unsubscribe ends the stream ==="
STATUS=$(jsend DELETE "$BASE/v1/subscriptions/$SID" '' '.status')
[ "$STATUS" = "unsubscribed" ] || fail "delete returned $STATUS"
wait_event unsubscribed >/dev/null
NSUBS=$(jget "$BASE/v1/subscriptions" '.subscriptions | length')
[ "$NSUBS" -eq 0 ] || fail "registry still lists $NSUBS subscriptions after delete"
CODE=$(curl -sS -o /dev/null -w '%{http_code}' -X DELETE "$BASE/v1/subscriptions/$SID")
[ "$CODE" = "404" ] || fail "second delete returned $CODE, want 404"

kill -TERM "$PID"; wait "$PID" || fail "shutdown not clean"
PID=
echo "SMOKE PASS"

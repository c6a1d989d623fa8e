#!/usr/bin/env bash
# Overload / latency-SLO smoke for the observability + admission stack:
# boots carserved with tight admission limits, metrics and a JSON access
# log, drives it past capacity with `carbench -exp overload`, and asserts
# the load-shedding contract end to end:
#
#   - the overload phase sheds a nonzero share of requests with 429, every
#     429 carries Retry-After, and zero requests fail outright;
#   - admitted requests stay inside the latency SLO (client-observed p99)
#     even while the daemon is saturated;
#   - the recovery phase (paced load below the limits) sheds nothing;
#   - /metrics serves Prometheus text exposition with the per-shard rank
#     histograms, shed counters and journal group-commit series;
#   - request IDs are honored/echoed and error bodies are JSON carrying
#     request_id; the access log is parseable JSON lines including the 429s.
#
# CI runs it; it also works locally:
#
#   go build -o /tmp/carserved ./cmd/carserved
#   go build -o /tmp/carbench ./cmd/carbench
#   scripts/smoke_overload.sh /tmp/carserved /tmp/carbench
#
# Requires: curl, jq, awk.
set -euo pipefail

SERVED=${1:?usage: smoke_overload.sh <carserved-binary> <carbench-binary> [port]}
BENCH=${2:?usage: smoke_overload.sh <carserved-binary> <carbench-binary> [port]}
PORT=${3:-18373}
BASE="http://127.0.0.1:${PORT}"
SNAP=$(mktemp -d)
LOG=$(mktemp)
ACCESSLOG=$(mktemp)
BENCHOUT=$(mktemp)
PID=
P99_SLO_MS=250

cleanup() {
  if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
    kill -9 "$PID" 2>/dev/null || true
  fi
  echo "--- daemon log ---"
  cat "$LOG"
  rm -rf "$SNAP" "$LOG" "$ACCESSLOG" "$BENCHOUT"
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

# field "<machine line>" <key> — pull key=value out of an OVERLOAD line.
field() { echo "$1" | tr ' ' '\n' | sed -n "s/^$2=//p"; }

echo "=== boot with tight admission limits + metrics + access log ==="
"$SERVED" -addr "127.0.0.1:${PORT}" -shards 2 -preload small -rules 4 -snapdir "$SNAP" \
  -metrics -ratelimit 30 -burst 10 -maxinflight 16 -maxqueue 32 \
  -accesslog "$ACCESSLOG" >>"$LOG" 2>&1 &
PID=$!
wait_healthy

echo "=== request-ID + JSON-error contract ==="
HDR=$(curl -fsS -D - -o /dev/null -H 'X-Request-ID: smoke-trace-1' "$BASE/healthz")
echo "$HDR" | grep -qi '^X-Request-ID: smoke-trace-1' || fail "inbound X-Request-ID not echoed"
# An error response is the canonical envelope: JSON with the request id
# and a machine-readable code.
ERR=$(curl -sS -X POST -H 'X-Request-ID: smoke-trace-2' "$BASE/v1/rank" -d '{"user":"","target":""}')
echo "$ERR" | jq -e '.request_id == "smoke-trace-2" and (.error | length > 0) and .code == "bad_request"' >/dev/null \
  || fail "error body not the canonical envelope: $ERR"
CT=$(curl -sS -o /dev/null -w '%{content_type}' -X POST "$BASE/v1/rank" -d '{"user":"","target":""}')
[ "$CT" = "application/json" ] || fail "error Content-Type = $CT, want application/json"
MINTED=$(curl -fsS -D - -o /dev/null "$BASE/healthz" | sed -n 's/^[Xx]-[Rr]equest-[Ii][Dd]: *//p' | tr -d '\r')
[ -n "$MINTED" ] || fail "no X-Request-ID minted when none supplied"

echo "=== drive past capacity: carbench -exp overload ==="
"$BENCH" -exp overload -small -target "$BASE" -clients 32 -users 6 -lowclients 2 \
  -benchdur 3s | tee "$BENCHOUT"

OVER=$(grep '^OVERLOAD phase=overload ' "$BENCHOUT") || fail "no overload machine line"
REC=$(grep '^OVERLOAD phase=recovery ' "$BENCHOUT") || fail "no recovery machine line"

SHED=$(field "$OVER" shed); OK=$(field "$OVER" ok)
ERRS=$(field "$OVER" errors); RETRY=$(field "$OVER" retry_after)
P99=$(field "$OVER" p99_ms)
[ "$SHED" -gt 0 ] || fail "overload phase shed nothing (shed=$SHED) — admission control inert"
[ "$OK" -gt 0 ] || fail "overload phase admitted nothing (ok=$OK)"
[ "$ERRS" -eq 0 ] || fail "overload phase had $ERRS hard errors (shedding must be clean 429s)"
[ "$RETRY" -eq "$SHED" ] || fail "only $RETRY of $SHED 429s carried Retry-After"
awk -v p99="$P99" -v slo="$P99_SLO_MS" 'BEGIN { exit !(p99 > 0 && p99 <= slo) }' \
  || fail "admitted p99 ${P99}ms breaches the ${P99_SLO_MS}ms SLO under overload"
echo "overload: shed=$SHED ok=$OK p99=${P99}ms (SLO ${P99_SLO_MS}ms)"

RSHED=$(field "$REC" shed); RERRS=$(field "$REC" errors); ROK=$(field "$REC" ok)
[ "$RSHED" -eq 0 ] || fail "recovery phase still shedding ($RSHED) after load dropped"
[ "$RERRS" -eq 0 ] || fail "recovery phase had $RERRS errors"
[ "$ROK" -gt 0 ] || fail "recovery phase served nothing"
echo "recovery: shed=0 ok=$ROK — service recovered"

echo "=== /metrics scrape: exposition format + required series ==="
SCRAPE=$(mktemp)
curl -fsS -D "$SCRAPE.hdr" "$BASE/metrics" >"$SCRAPE"
grep -qi '^Content-Type: text/plain; version=0.0.4' "$SCRAPE.hdr" \
  || fail "wrong /metrics content type: $(grep -i content-type "$SCRAPE.hdr")"
for series in \
  'carserve_rank_requests_total{shard="0"}' \
  'carserve_rank_latency_seconds_bucket{shard="0",le="+Inf"}' \
  'carserve_rank_latency_seconds_sum' \
  'carserve_rank_cache_hits_total' \
  'carserve_plan_cache_hit_ratio' \
  'carserve_journal_appends_total' \
  'carserve_journal_batch_records_bucket' \
  'carserve_journal_batch_records_sum' \
  'carserve_http_requests_total{route="POST /v1/rank",code="200"}' \
  'carserve_http_requests_total{route="POST /v1/rank",code="429"}' \
  'carserve_http_request_seconds_bucket{route="POST /v1/rank",le="+Inf"}' \
  'carserve_admitted_total' \
  'carserve_inflight_requests' \
  'carserve_sessions' \
  ; do
  grep -qF "$series" "$SCRAPE" || fail "/metrics missing series $series"
done
# The shed counter must show the overload the bench just applied.
SHED_METRIC=$(awk '/^carserve_shed_total/ { s += $2 } END { printf "%d", s }' "$SCRAPE")
[ "$SHED_METRIC" -gt 0 ] || fail "carserve_shed_total is zero after an overload run"
# Every non-comment line is "name{labels} value" — no malformed samples.
# (Label values may themselves contain braces, e.g. route="...{user}...",
# so the label part is matched greedily to the last closing brace.)
BAD=$(grep -cvE '^(#|[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? -?[0-9.eE+Inf-]+$)' "$SCRAPE" || true)
[ "$BAD" -eq 0 ] || fail "$BAD malformed exposition lines in /metrics"
rm -f "$SCRAPE" "$SCRAPE.hdr"
echo "scrape OK: shed_total=$SHED_METRIC"

echo "=== access log: JSON lines, request ids, 429s logged ==="
[ -s "$ACCESSLOG" ] || fail "access log is empty"
jq -es 'length > 0' <"$ACCESSLOG" >/dev/null || fail "access log is not parseable JSON lines"
jq -es 'all(.id != null and .id != "" and .route != null and .status != null)' <"$ACCESSLOG" >/dev/null \
  || fail "access log lines missing id/route/status fields"
grep -q '"id":"smoke-trace-2"' "$ACCESSLOG" || fail "inbound request id absent from access log"
N429=$(jq -es 'map(select(.status == 429)) | length' <"$ACCESSLOG")
[ "$N429" -gt 0 ] || fail "no 429 lines in the access log after an overload run"
echo "access log OK: $(wc -l <"$ACCESSLOG") lines, $N429 shed lines"

echo "=== clean shutdown ==="
kill -TERM "$PID"
wait "$PID" || fail "daemon exited non-zero on SIGTERM"
PID=

echo "SMOKE PASS"

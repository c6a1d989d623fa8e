// Command carserved is the context-aware ranking daemon: it parses its flags
// into a daemon.Config and runs internal/daemon's composition of one
// contextrank.System (locking facade, per-user sessions, epoch-invalidated
// rank caches, journal and checkpoints), which exposes the HTTP/JSON API
// documented on serve.Handler, until SIGTERM or SIGINT.
//
// Usage:
//
//	carserved [-addr :8372] [-cache 1024] [-snapdir dir]
//	          [-checkpoint-interval 5m] [-checkpoint-bytes 67108864]
//	          [-preload none|small|paper] [-rules 4]
//	          [-metrics] [-ratelimit R] [-burst B]
//	          [-maxinflight N] [-maxqueue Q] [-accesslog path|-]
//	          [-degraded-on-disk-error] [-probe-interval 1s]
//	          [-drain-timeout 10s] [-request-timeout 30s]
//	          [-chaos] [-chaos-seed S]
//
// Observability and admission control (serve.NewHandlerWith): -metrics
// serves Prometheus text exposition at GET /metrics (QPS, rank latency
// histograms, cache hit rates, journal group-commit sizes, shed counts);
// -accesslog emits one JSON line per request with a request ID
// (X-Request-ID honored and echoed); -ratelimit/-burst bound each user's
// request rate and -maxinflight/-maxqueue bound global concurrency —
// excess load is shed with 429 + Retry-After instead of queueing without
// bound.
//
// The daemon holds one replica of the vocabulary and every session, so a
// rule whose context reads another user's session through a role sees it.
// -shards is still accepted, for scripts written against builds that kept
// one replica per shard; it is ignored, with one log line.
//
// With -snapdir the daemon is crash-safe, not merely restartable:
//
//   - Every acknowledged mutation — session update/drop, declare, assert,
//     rule add/remove, SQL exec — rides a full-state write-ahead journal
//     (internal/serve/journal): the record is fsynced (group commit)
//     before the HTTP response, in apply order.
//   - A background checkpointer (-checkpoint-interval /
//     -checkpoint-bytes) periodically snapshots the database and
//     truncates the WAL down to live sessions, so the journal stays
//     bounded and recovery stays fast. SIGTERM/SIGINT takes a final
//     checkpoint; when the directory holds no snapshot yet, one is also
//     taken at boot right after preloading.
//   - Boot restores the latest snapshot and replays the WAL suffix on
//     top, re-applying each record through the ordinary serving path so
//     context fingerprints, ctx_* events and rank scores come back
//     bit-identical. The boot log reports how many session and
//     vocabulary/DML records were recovered.
//
// On kill -9, OOM or node loss the next boot therefore recovers to the
// exact acknowledged state: snapshot + WAL suffix covers sessions and
// durable data alike, to a single consistent point. A -snapdir written by
// a build that kept one replica per shard is read the same way: its
// per-shard WAL files are merged into the one journal (each vocabulary
// write applied once) and shard 0's snapshot is restored.
//
// With -preload the daemon starts already loaded with the paper's §5
// TV-watcher database (small = scaled-down test sizes, paper = ~11k
// tuples) and the scalability rule series, so a load generator — e.g.
// `carbench -exp overload -target` — can rank immediately:
//
//	carserved -preload small -rules 4 &
//	curl -X PUT localhost:8372/v1/sessions/person0000/context \
//	     -d '{"measurements":[{"concept":"BenchCtx0","prob":1}]}'
//	curl 'localhost:8372/v1/rank?user=person0000&target=TvProgram&limit=3'
//
// Session updates whose measurements carry uncertainty (prob < 1, or
// exclusive groups) declare fresh basic events on every apply; each apply
// also retires the previous snapshot's events (event.Space.Retire), so the
// event space — observable as "events" on /v1/stats — stays bounded by the
// live session vocabulary under arbitrary churn.
//
// The daemon degrades instead of dying (DESIGN.md §3.9). On a persistent
// journal disk error it enters read-only degraded mode
// (-degraded-on-disk-error, default on): mutations shed 503 + Retry-After
// while ranks keep serving from memory, and a background probe
// (-probe-interval) re-arms the WAL when the disk recovers. A panic in a
// request is recovered and counted (carserve_panics_total). SIGTERM
// drains new traffic for up to -drain-timeout before the shutdown
// checkpoint; -request-timeout bounds each request's admission-queue wait
// and sets its connection deadlines. /healthz reports the failure-domain
// state (always HTTP 200 — a degraded daemon is alive, and restarting it
// would destroy the in-memory state the probe re-journals). -chaos arms
// the /v1/chaos fault-injection surface (testing only; see carbench -exp
// chaos and scripts/smoke_chaos.sh).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/serve"
)

func main() {
	cfg, shards, drainTimeout := defineFlags(flag.CommandLine)
	flag.Parse()
	log.SetPrefix("carserved: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	if *shards != 1 {
		log.Printf("-shards %d ignored: the daemon holds one replica", *shards)
	}

	d, err := daemon.Start(*cfg)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		log.Printf("listening on %s (%s cache=%d metrics=%v ratelimit=%g maxinflight=%d maxqueue=%d)",
			cfg.Addr, d.Source(), cfg.Cache, cfg.Metrics, cfg.RateLimit, cfg.MaxInFlight, cfg.MaxQueue)
		if err := d.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Printf("draining (timeout %s)", *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	st := d.Stats()
	log.Printf("served %d rank requests, %d sessions, %d events, cache %s, epoch %d",
		st.Requests, st.Sessions, st.Events, st.Cache, st.Epoch)
}

// defineFlags defines carserved's flags on fs: every setting daemon.Start
// reads lands in cfg; -shards and -drain-timeout are main's own.
func defineFlags(fs *flag.FlagSet) (cfg *daemon.Config, shards *int, drainTimeout *time.Duration) {
	cfg = &daemon.Config{}
	fs.StringVar(&cfg.Addr, "addr", ":8372", "listen address")
	shards = fs.Int("shards", 1, "ignored: the daemon holds one replica (accepted for older scripts)")
	fs.IntVar(&cfg.Cache, "cache", serve.DefaultCacheSize, "rank cache capacity in entries (-1 disables caching)")
	fs.StringVar(&cfg.SnapDir, "snapdir", "", "durability directory: snapshots (restored on boot, saved at first boot, by the background checkpointer and on shutdown) plus the full-state write-ahead journal (replayed on boot) — makes the daemon crash-safe")

	fs.DurationVar(&cfg.CheckpointInterval, "checkpoint-interval", 5*time.Minute, "background checkpoint period with -snapdir: snapshot the database and truncate the WAL (0 disables the time trigger)")
	fs.Int64Var(&cfg.CheckpointBytes, "checkpoint-bytes", 64<<20, "background checkpoint size trigger with -snapdir: checkpoint once the WAL holds this many bytes of vocabulary records (0 disables the size trigger)")
	fs.StringVar(&cfg.Preload, "preload", "none", "preload dataset: none, small or paper (ignored when restoring from -snapdir)")
	fs.IntVar(&cfg.Rules, "rules", 4, "preference rules to register with -preload")

	fs.BoolVar(&cfg.Metrics, "metrics", true, "serve Prometheus text exposition at GET /metrics")
	fs.Float64Var(&cfg.RateLimit, "ratelimit", 0, "per-user sustained request budget in req/s on rank and session endpoints (0 disables)")
	fs.Float64Var(&cfg.Burst, "burst", 0, "per-user token-bucket depth (0 means max(1, -ratelimit))")
	fs.IntVar(&cfg.MaxInFlight, "maxinflight", 0, "concurrently executing requests before new ones queue (0 disables the gate)")
	fs.IntVar(&cfg.MaxQueue, "maxqueue", 0, "requests allowed to wait for an in-flight slot; beyond it requests are shed with 429 + Retry-After")
	fs.StringVar(&cfg.AccessLog, "accesslog", "", "JSON-lines request log destination: a file path, or '-' for stderr (empty disables)")

	fs.BoolVar(&cfg.DegradeOnDiskError, "degraded-on-disk-error", true, "on a persistent journal write/fsync error, enter read-only degraded mode (mutations 503 + Retry-After, ranks keep serving) instead of failing every mutation until restart; a background probe re-arms the WAL when the disk recovers")
	fs.DurationVar(&cfg.ProbeInterval, "probe-interval", time.Second, "how often the background health probe retries a degraded journal disk")
	drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "on SIGTERM, how long to wait for in-flight requests to finish (new requests get 503 + Connection: close immediately) before the shutdown checkpoint")
	fs.DurationVar(&cfg.RequestTimeout, "request-timeout", 30*time.Second, "per-request deadline: bounds the admission-queue wait and sets the connection read/write deadlines (0 disables)")
	fs.BoolVar(&cfg.Chaos, "chaos", false, "arm the fault-injection surface: POST/GET/DELETE /v1/chaos manage runtime faults in the journal filesystem and rank path (testing only — armed faults are real outages)")
	fs.Int64Var(&cfg.ChaosSeed, "chaos-seed", 1, "PRNG seed for rate-triggered chaos faults (with -chaos)")
	return cfg, shards, drainTimeout
}

// Command carserved is the context-aware ranking daemon: it wraps N shard
// replicas of a contextrank.System in the internal/serve + serve/shard
// layers (per-shard locking facade, per-user sessions, epoch-invalidated
// rank caches, consistent-hash routing) and exposes the HTTP/JSON API
// documented on serve.Handler.
//
// Usage:
//
//	carserved [-addr :8372] [-shards 4] [-cache 1024] [-snapdir dir]
//	          [-checkpoint-interval 5m] [-checkpoint-bytes 67108864]
//	          [-preload none|small|paper] [-rules 4]
//	          [-metrics] [-ratelimit R] [-burst B]
//	          [-maxinflight N] [-maxqueue Q] [-accesslog path|-]
//	          [-degraded-on-disk-error] [-quarantine-after N]
//	          [-probe-interval 1s] [-drain-timeout 10s]
//	          [-request-timeout 30s] [-chaos] [-chaos-seed S]
//
// Observability and admission control (serve.NewHandlerWith): -metrics
// serves Prometheus text exposition at GET /metrics (per-shard QPS, rank
// latency histograms, cache hit rates, journal group-commit sizes, shed
// counts); -accesslog emits one JSON line per request with a request ID
// (X-Request-ID honored and echoed); -ratelimit/-burst bound each user's
// request rate and -maxinflight/-maxqueue bound global concurrency —
// excess load is shed with 429 + Retry-After instead of queueing without
// bound.
//
// With -shards N every per-user operation (session applies, ranks) is
// served by the user's shard alone — one user's context apply never
// blocks another user's rank on a different shard — while vocabulary
// writes (declare/assert/rules/exec) are broadcast to all shards.
//
// With -snapdir the daemon is crash-safe, not merely restartable:
//
//   - Every acknowledged mutation — session update/drop, declare, assert,
//     rule add/remove, SQL exec — rides a per-shard full-state
//     write-ahead journal (internal/serve/journal): the record is fsynced
//     (group commit) before the HTTP response, in apply order.
//   - A background checkpointer (-checkpoint-interval /
//     -checkpoint-bytes) periodically snapshots every shard and truncates
//     the WALs down to live sessions, so the journal stays bounded and
//     recovery stays fast. SIGTERM/SIGINT takes a final checkpoint; when
//     the directory holds no snapshot yet, one is also taken at boot
//     right after preloading.
//   - Boot restores the latest snapshot and replays the WAL suffix on
//     top, re-applying each record through the ordinary serving path so
//     context fingerprints, ctx_* events and rank scores come back
//     bit-identical. The boot log reports how many session and
//     vocabulary/DML records were recovered.
//
// On kill -9, OOM or node loss the next boot therefore recovers to the
// exact acknowledged state: snapshot + WAL suffix covers sessions and
// durable data alike, to a single consistent point. (Earlier versions
// journaled only sessions; durable writes between snapshots were lost on
// crash.)
// The shard count may change between runs: broadcast replication makes
// any shard's snapshot a full copy of the durable state, so a reboot with
// a different -shards value is an online reshard — journal replay routes
// every session to its new owning shard.
//
// With -preload the daemon starts already loaded with the paper's §5
// TV-watcher database (small = scaled-down test sizes, paper = ~11k
// tuples) and the scalability rule series, so a load generator — e.g.
// `carbench -exp serve` — can rank immediately:
//
//	carserved -preload small -rules 4 -shards 4 &
//	curl -X PUT localhost:8372/v1/sessions/person0000/context \
//	     -d '{"measurements":[{"concept":"BenchCtx0","prob":1}]}'
//	curl 'localhost:8372/v1/rank?user=person0000&target=TvProgram&limit=3'
//
// Session updates whose measurements carry uncertainty (prob < 1, or
// exclusive groups) declare fresh basic events on every apply; each apply
// also retires the previous snapshot's events (event.Space.Retire), so the
// event space — observable as "events" on /v1/stats, summed across shards
// — stays bounded by the live session vocabulary under arbitrary churn.
//
// The daemon degrades instead of dying (DESIGN.md §3.9). On a persistent
// journal disk error it enters read-only degraded mode
// (-degraded-on-disk-error, default on): mutations shed 503 + Retry-After
// while ranks keep serving from memory, and a background probe
// (-probe-interval) re-arms the WAL when the disk recovers. With
// -quarantine-after N, a shard whose broadcast applies fail or panic N
// times consecutively is fenced off, its users rerouted to healthy
// replicas, and background repair replays the missed writes from a
// healthy replica's WAL before readmission. Panics in requests or shard
// applies are recovered and counted (carserve_panics_total). SIGTERM
// drains new traffic for up to -drain-timeout before the shutdown
// checkpoint; -request-timeout bounds each request's admission-queue wait
// and sets its connection deadlines. /healthz
// reports the aggregate and per-shard failure-domain state (always HTTP
// 200 — a degraded daemon is alive, and restarting it would destroy the
// in-memory state repair needs). -chaos arms the /v1/chaos
// fault-injection surface (testing only; see carbench -exp chaos and
// scripts/smoke_chaos.sh).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	contextrank "repro"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/serve/journal"
	"repro/internal/serve/metrics"
	"repro/internal/serve/shard"
	"repro/internal/workload"
)

func main() {
	var (
		addr    = flag.String("addr", ":8372", "listen address")
		shards  = flag.Int("shards", 1, "shard replicas; per-user traffic is routed by consistent hash of the user ID")
		cache   = flag.Int("cache", serve.DefaultCacheSize, "per-shard rank cache capacity in entries (-1 disables caching)")
		snapdir = flag.String("snapdir", "", "durability directory: per-shard snapshots (restored on boot, saved at first boot, by the background checkpointer and on shutdown) plus the full-state write-ahead journal (replayed on boot) — makes the daemon crash-safe")

		ckptInterval = flag.Duration("checkpoint-interval", 5*time.Minute, "background checkpoint period with -snapdir: snapshot all shards and truncate the WALs (0 disables the time trigger)")
		ckptBytes    = flag.Int64("checkpoint-bytes", 64<<20, "background checkpoint size trigger with -snapdir: checkpoint once the WALs hold this many bytes of vocabulary records, summed across shards (0 disables the size trigger)")
		preload      = flag.String("preload", "none", "preload dataset: none, small or paper (ignored when restoring from -snapdir)")
		rules        = flag.Int("rules", 4, "preference rules to register with -preload")

		metricsOn   = flag.Bool("metrics", true, "serve Prometheus text exposition at GET /metrics")
		ratelimit   = flag.Float64("ratelimit", 0, "per-user sustained request budget in req/s on rank and session endpoints (0 disables)")
		burst       = flag.Float64("burst", 0, "per-user token-bucket depth (0 means max(1, -ratelimit))")
		maxinflight = flag.Int("maxinflight", 0, "concurrently executing requests before new ones queue (0 disables the gate)")
		maxqueue    = flag.Int("maxqueue", 0, "requests allowed to wait for an in-flight slot; beyond it requests are shed with 429 + Retry-After")
		accesslog   = flag.String("accesslog", "", "JSON-lines request log destination: a file path, or '-' for stderr (empty disables)")

		degradeOnErr  = flag.Bool("degraded-on-disk-error", true, "on a persistent journal write/fsync error, enter read-only degraded mode (mutations 503 + Retry-After, ranks keep serving) instead of failing every mutation until restart; a background probe re-arms the WAL when the disk recovers")
		quarAfter     = flag.Int("quarantine-after", 0, "quarantine a shard after this many consecutive broadcast apply failures (or panics): its users are rerouted to healthy replicas and background repair replays the missed writes from the WAL before readmission (0 disables)")
		probeInterval = flag.Duration("probe-interval", time.Second, "how often the background health probe retries degraded disks and quarantined-shard repair")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "on SIGTERM, how long to wait for in-flight requests to finish (new requests get 503 + Connection: close immediately) before the shutdown checkpoint")
		reqTimeout    = flag.Duration("request-timeout", 30*time.Second, "per-request deadline: bounds the admission-queue wait and sets the connection read/write deadlines (0 disables)")
		chaosOn       = flag.Bool("chaos", false, "arm the fault-injection surface: POST/GET/DELETE /v1/chaos manage runtime faults in the journal filesystem, broadcast and rank paths (testing only — armed faults are real outages)")
		chaosSeed     = flag.Int64("chaos-seed", 1, "PRNG seed for rate-triggered chaos faults (with -chaos)")
	)
	flag.Parse()

	build, source, restored, err := buildFunc(*snapdir, *preload, *rules)
	if err != nil {
		log.Fatalf("carserved: %v", err)
	}
	coord, err := shard.New(*shards, build, serve.Options{CacheSize: *cache, DegradeOnDiskError: *degradeOnErr})
	if err != nil {
		log.Fatalf("carserved: %v", err)
	}
	coord.SetQuarantineAfter(*quarAfter)

	var chaos *faultinject.Injector
	jopts := journal.Options{}
	if *chaosOn {
		chaos = faultinject.New(*chaosSeed)
		coord.SetFaultInjector(chaos)
		jopts.FS = faultinject.FS(chaos, nil)
		log.Printf("carserved: chaos surface armed at /v1/chaos (seed=%d)", *chaosSeed)
	}

	if *snapdir != "" {
		// Full-state durability: journal from here on, replaying whatever
		// a previous incarnation journaled (session records are routed, so
		// a changed -shards value reassigns users correctly; vocabulary
		// records are re-broadcast and deduplicated by broadcast id).
		rs, err := coord.Recover(*snapdir, jopts)
		if err != nil {
			log.Fatalf("carserved: recovering journal: %v", err)
		}
		if rs.Records > 0 || rs.TornFiles > 0 || rs.BadFiles > 0 {
			log.Printf("carserved: journal: replayed %d records from %d file(s) -> %d live users (%d drops, %d failed-and-preserved, %d torn tails, %d unreadable files)",
				rs.Records, rs.Files, rs.Users, rs.Drops, rs.Failed, rs.TornFiles, rs.BadFiles)
			log.Printf("carserved: journal: vocabulary/DML replay: %d applied (%d declares, %d asserts, %d rule adds, %d rule removes, %d execs), %d covered by checkpoint, %d duplicate broadcasts",
				rs.VocabApplied(), rs.Declares, rs.Asserts, rs.RuleAdds, rs.RuleRemoves, rs.Execs, rs.SkippedCheckpoint, rs.SkippedDuplicate)
			if rs.FingerprintMismatches > 0 {
				log.Printf("carserved: journal: %d fingerprint mismatches (fingerprint function changed between versions?)", rs.FingerprintMismatches)
			}
		} else {
			log.Printf("carserved: journal armed in %s (nothing to replay)", *snapdir)
		}
		if !restored {
			// No snapshot existed, so the durable base so far lives only
			// in memory (preload). Persist it now: a crash at any later
			// instant then recovers to this base plus the journaled
			// sessions, instead of losing everything because no SIGTERM
			// ever ran.
			if err := coord.SaveSnapshots(*snapdir); err != nil {
				log.Fatalf("carserved: saving boot snapshot: %v", err)
			}
			log.Printf("carserved: saved boot snapshot (%d shard(s)) to %s", coord.N(), *snapdir)
		}
	}

	var stopCkpt func()
	if *snapdir != "" && (*ckptInterval > 0 || *ckptBytes > 0) {
		stopCkpt = coord.StartCheckpointer(*snapdir, shard.CheckpointerOptions{
			Interval: *ckptInterval,
			Bytes:    *ckptBytes,
			OnError:  func(err error) { log.Printf("carserved: background checkpoint: %v", err) },
		})
		log.Printf("carserved: background checkpointer armed (interval=%s bytes=%d)", *ckptInterval, *ckptBytes)
	}

	var stopProbe func()
	if *degradeOnErr || *quarAfter > 0 {
		stopProbe = coord.StartHealthProbe(*probeInterval, func(line string) {
			log.Printf("carserved: %s", line)
		})
	}

	drain := &serve.DrainGate{}
	hopts := serve.HandlerOptions{
		Admission: serve.NewAdmission(serve.AdmissionOptions{
			MaxInFlight:  *maxinflight,
			MaxQueue:     *maxqueue,
			PerUserRate:  *ratelimit,
			PerUserBurst: *burst,
		}),
		Drain:          drain,
		RequestTimeout: *reqTimeout,
		Chaos:          chaos,
	}
	if *metricsOn {
		hopts.Metrics = metrics.NewRegistry()
	}
	var logFile *os.File
	switch *accesslog {
	case "":
	case "-":
		hopts.AccessLog = os.Stderr
	default:
		logFile, err = os.OpenFile(*accesslog, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("carserved: opening access log: %v", err)
		}
		defer logFile.Close()
		hopts.AccessLog = logFile
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           serve.NewHandlerWith(coord, hopts),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	go func() {
		log.Printf("carserved: listening on %s (shards=%d %s cache=%d metrics=%v ratelimit=%g maxinflight=%d maxqueue=%d)",
			*addr, *shards, source, *cache, *metricsOn, *ratelimit, *maxinflight, *maxqueue)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("carserved: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop

	// Drain first: new API requests get 503 + Connection: close the
	// instant the signal lands, then Shutdown waits (bounded) for
	// in-flight ones — so the shutdown checkpoint below runs with no
	// request mid-apply.
	drain.Start()
	log.Printf("carserved: draining (timeout %s)", *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("carserved: shutdown: %v", err)
	}
	if stopProbe != nil {
		stopProbe()
	}
	if stopCkpt != nil {
		// Stopped before the final save so the shutdown checkpoint cannot
		// race a background one.
		stopCkpt()
	}
	if *snapdir != "" {
		if err := coord.SaveSnapshots(*snapdir); err != nil {
			// Not fatal: a quarantined shard refuses the checkpoint, and
			// the journal already holds everything — the next boot replays
			// it on top of the previous snapshot.
			log.Printf("carserved: saving snapshots: %v (journal retains full state)", err)
		} else {
			log.Printf("carserved: saved %d shard snapshot(s) to %s", coord.N(), *snapdir)
		}
		// Closed after the snapshot: the journal outlives the dump, so a
		// crash during SaveSnapshots still recovers sessions on reboot.
		if err := coord.CloseJournals(); err != nil {
			log.Printf("carserved: closing session journals: %v", err)
		}
	}
	st := coord.Stats()
	log.Printf("carserved: served %d rank requests across %d shards, cache %s, epoch %d",
		st.Requests, coord.N(), st.Cache, st.Epoch)
	for i, sh := range st.Shards {
		log.Printf("carserved: shard %d: %d requests, %d sessions, %d events, epoch %d",
			i, sh.Requests, sh.Sessions, sh.Events, sh.Epoch)
	}
}

// buildFunc picks the per-shard System source: a snapshot restore when
// snapdir holds one, the preloaded dataset otherwise. source describes the
// choice for the startup log line; restored reports whether a snapshot
// was found (when false and snapdir is set, main persists a boot
// snapshot so crashes do not depend on a clean shutdown ever happening).
func buildFunc(snapdir, preload string, rules int) (build func(int) (*contextrank.System, error), source string, restored bool, err error) {
	if snapdir != "" && shard.HasSnapshots(snapdir) {
		build, saved, err := shard.RestoreBuilder(snapdir)
		if err != nil {
			return nil, "", false, err
		}
		return build, fmt.Sprintf("restore=%s(saved-shards=%d)", snapdir, saved), true, nil
	}
	var spec workload.Spec
	switch preload {
	case "none":
		return func(int) (*contextrank.System, error) { return contextrank.NewSystem(), nil }, "preload=none", false, nil
	case "small":
		spec = workload.SmallSpec()
	case "paper":
		spec = workload.DefaultSpec()
	default:
		return nil, "", false, fmt.Errorf("unknown -preload %q (want none, small or paper)", preload)
	}
	build = func(i int) (*contextrank.System, error) {
		sys := contextrank.NewSystem()
		d, err := workload.LoadBench(sys.Loader(), sys.Rules(), spec, rules)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			log.Printf("carserved: preloading %d tuples (%d persons, %d programs), %d rules per shard",
				d.TupleCount, spec.Persons, spec.Programs, rules)
		}
		return sys, nil
	}
	return build, "preload=" + preload, false, nil
}

// Package daemon is the context-aware ranking daemon, composed once: a
// Daemon embeds one serve.Server — one contextrank.System, session manager,
// rank cache and facade lock for the whole process — and owns what makes it
// crash-safe and what runs beside it: the write-ahead journal, checkpoints,
// boot-time recovery, the background checkpointer and health probe, and the
// HTTP server with its production middleware.
//
// Start composes a daemon from a Config (cmd/carserved fills one from its
// flags); Shutdown is the SIGTERM path and Close releases everything, so a
// test can boot and drop as many stacks as it likes. New builds the bare
// durable layer for callers that compose the rest themselves. A WAL
// generation or checkpoint written by a build that kept one replica per
// shard is read into the one replica (see Recover and Restorer). DESIGN.md
// §3.5 has the architecture discussion.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	contextrank "repro"
	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/serve/journal"
	"repro/internal/serve/metrics"
	"repro/internal/workload"
)

// Daemon serves through one replica. The embedded *serve.Server gives it
// every serve.Backend method but Stats, which it overrides to add the
// durable blocks; the handler serves it directly.
type Daemon struct {
	*serve.Server

	// wal is the journal opened by Recover (nil when the daemon runs
	// without durability). Owned here for Close; appends go through the
	// server.
	wal *journal.Journal
	// journalGen is the generation id of the open journal ("" without
	// durability). Snapshot manifests record it so recovery can pair
	// checkpoint coverage with the right WAL file.
	journalGen string
	// fs is the filesystem seam the journal was opened with (OSFS
	// outside fault-injection runs); manifest switches route through it
	// so injected rename/write faults reach them too.
	fs journal.FS

	// Background-checkpoint counters (see Checkpoint and checkpointTimed).
	ckptCount     atomic.Int64
	ckptFailures  atomic.Int64
	ckptLastUnix  atomic.Int64
	ckptLastDurUs atomic.Int64
	ckptLastSeq   atomic.Uint64

	// recovery is the boot-time replay outcome, attached to Stats once.
	recovery atomic.Pointer[serve.RecoveryStats]

	// What Start adds: the boot source (for the listening log line), the
	// durability directory, the HTTP server with its drain gate, and the
	// access-log file when one was opened.
	source    string
	snapdir   string
	http      *http.Server
	drain     *serve.DrainGate
	accessLog *os.File

	// stop ends the ticker loops (checkpointer, health probe); loops
	// counts them.
	stop      chan struct{}
	stopOnce  sync.Once
	loops     sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

var _ serve.Backend = (*Daemon)(nil)

// Config is what Start composes a daemon from. Every field is one of
// cmd/carserved's flags (named in its comment); the zero value is an empty
// in-memory daemon with no admission limits, metrics or request timeout.
type Config struct {
	Addr string // -addr: listen address for ListenAndServe

	Cache              int           // -cache: rank cache capacity (serve.Options.CacheSize)
	SnapDir            string        // -snapdir: durability directory ("" = in-memory)
	CheckpointInterval time.Duration // -checkpoint-interval
	CheckpointBytes    int64         // -checkpoint-bytes
	Preload            string        // -preload: "" or none, small, paper
	Rules              int           // -rules: preference rules registered with Preload

	Metrics     bool    // -metrics: serve GET /metrics
	RateLimit   float64 // -ratelimit: per-user req/s (0 disables)
	Burst       float64 // -burst
	MaxInFlight int     // -maxinflight (0 disables the gate)
	MaxQueue    int     // -maxqueue
	AccessLog   string  // -accesslog: a file path, or "-" for stderr

	DegradeOnDiskError bool          // -degraded-on-disk-error (also runs the health probe)
	ProbeInterval      time.Duration // -probe-interval
	RequestTimeout     time.Duration // -request-timeout
	Chaos              bool          // -chaos: arm the fault-injection surface
	ChaosSeed          int64         // -chaos-seed
}

// New builds a daemon over one replica wrapping sys: no journal, no
// background work and no HTTP server until the caller adds them (Recover
// arms the journal). Start is the full composition.
func New(sys *contextrank.System, opts serve.Options) *Daemon {
	return &Daemon{Server: serve.NewServer(sys, opts), fs: journal.OSFS{}, stop: make(chan struct{})}
}

// Start composes the daemon cmd/carserved runs: build the replica from
// SnapDir's snapshot or the Preload dataset; with a SnapDir, Recover and
// take the boot snapshot when none existed, then run the background
// checkpointer; with DegradeOnDiskError, run the health probe; and build
// the HTTP server with admission, metrics, access log, drain gate and
// chaos. Progress goes to the standard logger. Nothing listens until
// ListenAndServe or Serve; Shutdown or Close releases it all.
func Start(cfg Config) (*Daemon, error) {
	sys, source, restored, err := build(cfg)
	if err != nil {
		return nil, err
	}
	d := New(sys, serve.Options{CacheSize: cfg.Cache, DegradeOnDiskError: cfg.DegradeOnDiskError})
	d.source, d.snapdir = source, cfg.SnapDir
	if err := d.start(cfg, restored); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// start is Start past the build; on an error the caller closes d.
func (d *Daemon) start(cfg Config, restored bool) error {
	var chaos *faultinject.Injector
	jopts := journal.Options{}
	if cfg.Chaos {
		chaos = faultinject.New(cfg.ChaosSeed)
		d.SetFaultInjector(chaos)
		jopts.FS = faultinject.FS(chaos, nil)
		log.Printf("chaos surface armed at /v1/chaos (seed=%d)", cfg.ChaosSeed)
	}

	if dir := cfg.SnapDir; dir != "" {
		// Full-state durability: journal from here on, replaying whatever
		// a previous incarnation journaled (a per-shard generation's
		// vocabulary copies are deduplicated by broadcast id).
		rs, err := d.Recover(dir, jopts)
		if err != nil {
			return fmt.Errorf("recovering journal: %w", err)
		}
		if rs.Records > 0 || rs.TornFiles > 0 || rs.BadFiles > 0 {
			log.Printf("journal: replayed %d records from %d file(s) -> %d live users (%d drops, %d failed-and-preserved, %d torn tails, %d unreadable files)",
				rs.Records, rs.Files, rs.Users, rs.Drops, rs.Failed, rs.TornFiles, rs.BadFiles)
			log.Printf("journal: vocabulary/DML replay: %d applied (%d declares, %d asserts, %d rule adds, %d rule removes, %d execs), %d covered by checkpoint, %d duplicate broadcasts",
				rs.VocabApplied(), rs.Declares, rs.Asserts, rs.RuleAdds, rs.RuleRemoves, rs.Execs, rs.SkippedCheckpoint, rs.SkippedDuplicate)
			if rs.FingerprintMismatches > 0 {
				log.Printf("journal: %d fingerprint mismatches (fingerprint function changed between versions?)", rs.FingerprintMismatches)
			}
		} else {
			log.Printf("journal armed in %s (nothing to replay)", dir)
		}
		if !restored {
			// No snapshot existed, so the durable base so far lives only
			// in memory (preload). Persist it now: a crash at any later
			// instant then recovers to this base plus the journaled
			// sessions, instead of losing everything because no SIGTERM
			// ever ran.
			if err := d.Checkpoint(dir); err != nil {
				return fmt.Errorf("saving boot snapshot: %w", err)
			}
			log.Printf("saved boot snapshot to %s", dir)
		}
		if cfg.CheckpointInterval > 0 || cfg.CheckpointBytes > 0 {
			d.runCheckpointer(dir, cfg.CheckpointInterval, cfg.CheckpointBytes)
			log.Printf("background checkpointer armed (interval=%s bytes=%d)", cfg.CheckpointInterval, cfg.CheckpointBytes)
		}
	}
	if cfg.DegradeOnDiskError {
		d.runHealthProbe(cfg.ProbeInterval)
	}

	d.drain = &serve.DrainGate{}
	hopts := serve.HandlerOptions{
		Admission: serve.NewAdmission(serve.AdmissionOptions{
			MaxInFlight:  cfg.MaxInFlight,
			MaxQueue:     cfg.MaxQueue,
			PerUserRate:  cfg.RateLimit,
			PerUserBurst: cfg.Burst,
		}),
		Drain:          d.drain,
		RequestTimeout: cfg.RequestTimeout,
		Chaos:          chaos,
	}
	if cfg.Metrics {
		hopts.Metrics = metrics.NewRegistry()
	}
	switch cfg.AccessLog {
	case "":
	case "-":
		hopts.AccessLog = os.Stderr
	default:
		f, err := os.OpenFile(cfg.AccessLog, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening access log: %w", err)
		}
		d.accessLog = f
		hopts.AccessLog = f
	}
	d.http = &http.Server{
		Addr:              cfg.Addr,
		Handler:           serve.NewHandlerWith(d, hopts),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	return nil
}

// build picks the System source: a snapshot restore when cfg.SnapDir holds
// one, the preloaded dataset otherwise. source describes the choice for
// the listening log line; restored reports whether a snapshot was found
// (when false and SnapDir is set, Start persists a boot snapshot so
// crashes do not depend on a clean shutdown ever happening).
func build(cfg Config) (sys *contextrank.System, source string, restored bool, err error) {
	if cfg.SnapDir != "" && HasSnapshots(cfg.SnapDir) {
		restore, saved, err := Restorer(cfg.SnapDir)
		if err == nil {
			sys, err = restore()
		}
		if err != nil {
			return nil, "", false, fmt.Errorf("restoring %s: %w", cfg.SnapDir, err)
		}
		return sys, fmt.Sprintf("restore=%s(saved-shards=%d)", cfg.SnapDir, saved), true, nil
	}
	var spec workload.Spec
	switch cfg.Preload {
	case "", "none":
		return contextrank.NewSystem(), "preload=none", false, nil
	case "small":
		spec = workload.SmallSpec()
	case "paper":
		spec = workload.DefaultSpec()
	default:
		return nil, "", false, fmt.Errorf("unknown -preload %q (want none, small or paper)", cfg.Preload)
	}
	sys = contextrank.NewSystem()
	d, err := workload.LoadBench(sys.Loader(), sys.Rules(), spec, cfg.Rules)
	if err != nil {
		return nil, "", false, err
	}
	log.Printf("preloading %d tuples (%d persons, %d programs), %d rules",
		d.TupleCount, spec.Persons, spec.Programs, cfg.Rules)
	return sys, "preload=" + cfg.Preload, false, nil
}

// Source describes where Start built the replica from: "preload=NAME" or
// "restore=DIR(saved-shards=N)".
func (d *Daemon) Source() string { return d.source }

// ListenAndServe serves the HTTP API on Config.Addr until Shutdown or
// Close (then it returns http.ErrServerClosed).
func (d *Daemon) ListenAndServe() error { return d.http.ListenAndServe() }

// Serve serves the HTTP API on ln until Shutdown or Close.
func (d *Daemon) Serve(ln net.Listener) error { return d.http.Serve(ln) }

// Shutdown is the SIGTERM path of a daemon from Start. New API requests
// get 503 + Connection: close at once, and in-flight ones get until ctx is
// done to finish — so the final checkpoint runs with no request
// mid-apply. Then the probe and the checkpointer stop (a background
// checkpoint in flight finishes first, so the final one cannot race it),
// the final checkpoint is taken when the daemon has a SnapDir, and Close
// releases the rest, the journal last: it outlives the dump, so a crash
// during the checkpoint still recovers every session. A failed final
// checkpoint is logged, not returned: the journal holds the full state and
// the next boot replays it.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.drain.Start()
	err := d.http.Shutdown(ctx)
	d.stopLoops()
	if d.snapdir != "" {
		if cerr := d.Checkpoint(d.snapdir); cerr != nil {
			log.Printf("saving snapshots: %v (journal retains full state)", cerr)
		} else {
			log.Printf("saved snapshot to %s", d.snapdir)
		}
	}
	return errors.Join(err, d.Close())
}

// Close releases the daemon without a final checkpoint: it closes the HTTP
// server (listeners and connections), stops the checkpointer and the
// health probe, stops the subscription evaluator (serve.Server.Close),
// then closes the journal and the access log. Every goroutine the daemon
// started has exited when it returns. Close is idempotent; later calls
// return the first call's error.
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() {
		var errs []error
		if d.http != nil {
			errs = append(errs, d.http.Close())
		}
		d.stopLoops()
		d.Server.Close()
		if d.wal != nil {
			errs = append(errs, d.wal.Close())
		}
		if d.accessLog != nil {
			errs = append(errs, d.accessLog.Close())
		}
		d.closeErr = errors.Join(errs...)
	})
	return d.closeErr
}

// Stats is the replica's counters with the daemon's own attached: the
// one-entry Shards breakdown, vocabulary-write latency (Broadcast, never
// nil), checkpoints, recovery and the process-wide health block. Like
// serve.Server.Stats it is collection-lock-free.
func (d *Daemon) Stats() serve.Stats {
	st := d.Server.Stats()
	one := st
	// The hot-path counters are process-global; they are reported once,
	// on the aggregate.
	one.HotPath = nil
	st.Shards = []serve.Stats{one}
	h := one.Health
	st.Health = &serve.HealthInfo{State: h.State, Recoveries: h.Recoveries, UnjournaledTail: h.UnjournaledTail,
		TailDropped: h.TailDropped, Panics: serve.PanicsTotal()}
	if h.State == serve.StateDegraded {
		st.Health.DegradedShards = []int{0}
	}
	st.Broadcast = d.VocabWrites()
	if d.wal != nil {
		st.Checkpoints = &serve.CheckpointStats{
			Count:              d.ckptCount.Load(),
			Failures:           d.ckptFailures.Load(),
			LastUnix:           d.ckptLastUnix.Load(),
			LastDurationMicros: float64(d.ckptLastDurUs.Load()),
			LastSeq:            d.ckptLastSeq.Load(),
		}
	}
	st.Recovery = d.recovery.Load()
	return st
}

package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	contextrank "repro"
	"repro/internal/serve"
	"repro/internal/serve/journal"
	"repro/internal/serve/metrics"
	"repro/internal/serve/shard"
	dataset "repro/internal/workload"
)

const (
	shards = 2
	// connLife bounds every benchmark connection (see dial): below the
	// driver's 180 s per-run limit, above any sane run.
	connLife    = 170 * time.Second
	pushTimeout = 2 * time.Second
)

var serveOptions = serve.Options{DegradeOnDiskError: true}

// stack is the serving stack composed exactly as cmd/carserved/main.go
// composes it with -shards 2 -preload paper -rules 8 -snapdir dir, minus
// the two timer-driven goroutines (checkpointer, health probe): background
// work on a clock would make the counters vary from run to run.
type stack struct {
	dir    string
	coord  *shard.Coordinator
	srv    *http.Server
	served chan struct{} // closed when srv.Serve has returned
	addr   string
	cl     *client
	probe  *probeStream
}

func buildPaper(int) (*contextrank.System, error) {
	sys := contextrank.NewSystem()
	if _, err := dataset.LoadBench(sys.Loader(), sys.Rules(), dataset.DefaultSpec(), benchRules); err != nil {
		return nil, err
	}
	return sys, nil
}

// newStack boots the daemon's layers on a loopback port: build, recover
// (arms the WAL; fsync per group commit, the daemon's policy), boot
// checkpoint, HTTP listener. A non-nil tracer wraps the backend and the
// handler with the bench-owned span recorders.
func newStack(dir string, tr *tracer) (*stack, error) {
	coord, err := shard.New(shards, buildPaper, serveOptions)
	if err != nil {
		return nil, err
	}
	if _, err := coord.Recover(dir, journal.Options{}); err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	s := &stack{dir: dir, coord: coord, served: make(chan struct{})}
	if err := coord.SaveSnapshots(dir); err != nil {
		s.close()
		return nil, fmt.Errorf("boot checkpoint: %w", err)
	}

	var backend serve.Backend = coord
	if tr != nil {
		backend = &tracedBackend{Backend: coord, t: tr}
	}
	handler := serve.NewHandlerWith(backend, serve.HandlerOptions{
		Admission:      serve.NewAdmission(serve.AdmissionOptions{}),
		Metrics:        metrics.NewRegistry(),
		Drain:          &serve.DrainGate{},
		RequestTimeout: 30 * time.Second,
	})
	if tr != nil {
		handler = tr.handler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.addr = ln.Addr().String()
	s.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 120 * time.Second}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns ErrServerClosed from close()
	}()
	return s, nil
}

// seed brings the stack to the measured pass's starting state over HTTP:
// live sessions, subscriptions, the attached probe stream with its
// snapshot read, and one warm-up rank per user the pass ranks.
func (s *stack) seed(p *plan) error {
	deadline := time.Now().Add(connLife)
	cl, err := dial(s.addr, deadline)
	if err != nil {
		return err
	}
	s.cl = cl
	for _, group := range [][]*request{p.seedPuts, p.subs} {
		for _, r := range group {
			if err := cl.call(r, nil); err != nil {
				return err
			}
		}
	}
	if s.probe, err = openProbeStream(s.addr, deadline); err != nil {
		return err
	}
	for _, r := range p.warm {
		if err := cl.call(r, nil); err != nil {
			return err
		}
	}
	return nil
}

// setup is one cold set-up in a fresh directory: what setup_s times.
func setup(dir string, p *plan, tr *tracer) (*stack, error) {
	// A -datadir left over from a killed run must not be recovered from.
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s, err := newStack(dir, tr)
	if err != nil {
		return nil, err
	}
	if err := s.seed(p); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the listener and both connections, waits for their
// goroutines, closes the journals and removes the data dir. (The
// per-server subscription evaluator has no stop; it stays parked.)
func (s *stack) close() {
	if s.probe != nil {
		s.probe.close()
	}
	if s.cl != nil {
		s.cl.close()
	}
	if s.srv != nil {
		s.srv.Close()
		<-s.served
	}
	_ = s.coord.CloseJournals() // the measurement is over; nothing more is acknowledged
	os.RemoveAll(s.dir)
}

// userState is what must survive a crash bit for bit. (Exported fields: it
// travels to the recovery children as JSON, which round-trips a float64
// exactly.)
type userState struct {
	Fingerprint string
	Results     []contextrank.Result
}

func sampleStates(c *shard.Coordinator, users []string) (map[string]userState, error) {
	out := make(map[string]userState, len(users))
	for _, u := range users {
		_, fp, ok := c.SessionInfo(u)
		if !ok {
			return nil, fmt.Errorf("no session for sampled user %s", u)
		}
		res, _, err := c.Rank(u, rankTarget, contextrank.RankOptions{TopK: 10})
		if err != nil {
			return nil, fmt.Errorf("rank %s: %w", u, err)
		}
		out[u] = userState{Fingerprint: fp, Results: res}
	}
	return out, nil
}

// copyDir copies the data dir into a fresh dst; the crash image is the
// directory as it stands after the last acknowledged op, journals still
// open, no shutdown checkpoint.
func copyDir(dst, src string) error {
	return os.CopyFS(dst, os.DirFS(src))
}

// recovery is one timed boot from a crash image.
type recovery struct {
	elapsed time.Duration
	stats   shard.RecoveryStats
}

// awaitSubscriptions returns once every recovered subscription has been
// evaluated and holds its first snapshot, which is when a consumer that
// reattaches is served again. The evaluator is asynchronous: whether it gets
// the processor before Recover returns is luck, and eight first evaluations
// (a plan compile each) are a fifth of a small boot, so a clock stopped at
// Recover's return reads one of two values. Yielding, not sleeping, hands
// the evaluator the processor at once.
func awaitSubscriptions(c *shard.Coordinator) error {
	deadline := time.Now().Add(pushTimeout)
	for {
		pending := 0
		for _, info := range c.Subscriptions() {
			if info.Seq == 0 {
				pending++
			}
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("recovery: %d subscriptions not evaluated within %s", pending, pushTimeout)
		}
		runtime.Gosched()
	}
}

// recoverOnce boots a stack from its own copy of the crash image (Recover
// rewrites the journal generation, so an image is good for one boot), and
// checks that the acknowledged state came back bit for bit.
func recoverOnce(image, dir string, sessions int, want map[string]userState) (recovery, error) {
	var r recovery
	if err := copyDir(dir, image); err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	build, _, err := shard.RestoreBuilder(dir)
	if err != nil {
		return r, err
	}
	coord, err := shard.New(shards, build, serveOptions)
	if err != nil {
		return r, err
	}
	r.stats, err = coord.Recover(dir, journal.Options{})
	if err == nil {
		err = awaitSubscriptions(coord)
	}
	r.elapsed = time.Since(start)
	defer coord.CloseJournals() //nolint:errcheck // read-only from here on
	if err != nil {
		return r, err
	}

	if got := coord.Stats().Sessions; got != sessions {
		return r, fmt.Errorf("recovered %d sessions, want %d", got, sessions)
	}
	if r.stats.Failed != 0 || r.stats.FingerprintMismatches != 0 {
		return r, fmt.Errorf("recovery: %d failed records, %d fingerprint mismatches", r.stats.Failed, r.stats.FingerprintMismatches)
	}
	users := make([]string, 0, len(want))
	for u := range want {
		users = append(users, u)
	}
	got, err := sampleStates(coord, users)
	if err != nil {
		return r, err
	}
	for u, w := range want {
		g := got[u]
		if g.Fingerprint != w.Fingerprint {
			return r, fmt.Errorf("recovery: %s fingerprint %s, want %s", u, g.Fingerprint, w.Fingerprint)
		}
		if err := sameResults(g.Results, w.Results); err != nil {
			return r, fmt.Errorf("recovery: %s: %w", u, err)
		}
	}
	return r, nil
}

// sameResults demands identical ids, order and score bits.
func sameResults(got, want []contextrank.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			return fmt.Errorf("result %d is %s=%v, want %s=%v", i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
	return nil
}

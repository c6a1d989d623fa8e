package daemon

import (
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	contextrank "repro"
	"repro/internal/serve"
)

// quietLog discards the daemon's progress lines for the rest of the test.
func quietLog(t *testing.T) {
	out := log.Writer()
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(out) })
}

// startLoaded starts a durable daemon in dir with the checkpointer and the
// health probe running, and gives it a rule, a session and a subscription
// whose first evaluation has run, so every goroutine a daemon starts is
// live.
func startLoaded(t *testing.T, dir string) *Daemon {
	t.Helper()
	d, err := Start(Config{
		SnapDir:            dir,
		CheckpointInterval: time.Hour,
		DegradeOnDiskError: true,
		ProbeInterval:      time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Declare([]string{"TvProgram", "Weekend"}, []string{"hasGenre"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Assert([]serve.ConceptAssertion{{Concept: "TvProgram", ID: "Oprah", Prob: 1}},
		[]serve.RoleAssertion{{Role: "hasGenre", Src: "Oprah", Dst: "HUMAN-INTEREST", Prob: 0.85}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.AddRules([]string{"RULE R1 WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.8"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SetSession("peter", []serve.Measurement{{Concept: "Weekend", Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Subscribe("s", serve.SubscriptionSpec{User: "peter", RankItem: serve.RankItem{Target: "TvProgram"}}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); d.Subscriptions()[0].Seq == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the subscription was never evaluated")
		}
		runtime.Gosched()
	}
	return d
}

// goroutinesDownTo waits up to a second for the goroutine count to fall to
// want and returns the count: a goroutine that has announced its exit
// (WaitGroup.Done, a closed channel) still runs its last instructions after
// the waiter wakes. A leaked goroutine never leaves, so the count stays up.
func goroutinesDownTo(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(100 * time.Microsecond)
	}
	return n
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCloseReleasesTheStack: Close stops every goroutine a daemon started
// (the journal writer, the checkpointer, the health probe and the
// subscription evaluator) and leaves nothing that keeps the stack
// reachable, so booting and closing 100 daemons ends where it began.
func TestCloseReleasesTheStack(t *testing.T) {
	quietLog(t)
	const daemons = 100
	// The heap may end at most this far above where it started. A stack
	// left pinned by its parked evaluator holds about 80 KB here, so 100 of
	// them hold 8 MB; a released loop's residue is the runtime's own.
	const heapBound = 1 << 20

	goroutines := runtime.NumGoroutine()
	startLoaded(t, t.TempDir()).Close() // warm package-level state
	heap := heapAlloc()
	for i := 0; i < daemons; i++ {
		d := startLoaded(t, t.TempDir())
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if n := goroutinesDownTo(goroutines); n > goroutines {
			t.Fatalf("daemon %d: %d goroutines after Close, %d before the loop", i, n, goroutines)
		}
	}
	after := heapAlloc()
	t.Logf("heap %d B before %d daemons, %d B after", heap, daemons, after)
	if after > heap+heapBound {
		t.Fatalf("heap grew by %d B over %d closed daemons (bound %d B)", after-heap, daemons, heapBound)
	}
}

// TestShutdownTakesTheFinalCheckpoint: a daemon serves its HTTP API from
// Start, Shutdown drains and checkpoints, and the next Start restores the
// checkpoint and replays nothing.
func TestShutdownTakesTheFinalCheckpoint(t *testing.T) {
	quietLog(t)
	dir := t.TempDir()
	d := startLoaded(t, dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- d.Serve(ln) }()
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/rank", "application/json",
		strings.NewReader(`{"user":"peter","target":"TvProgram"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rank over HTTP: %s", resp.Status)
	}
	want, _, err := d.Rank("peter", "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v after Shutdown", err)
	}

	b, err := Start(Config{SnapDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !strings.HasPrefix(b.Source(), "restore=") {
		t.Fatalf("reboot built from %s, want the checkpoint", b.Source())
	}
	if st := b.Stats(); st.Recovery.VocabApplied() != 0 || st.Rules != 1 {
		t.Fatalf("reboot replayed %d vocabulary records over %d rules; the final checkpoint should cover them all", st.Recovery.VocabApplied(), st.Rules)
	}
	got, _, err := b.Rank("peter", "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("rebooted rank %v, want %v", got, want)
	}
}

package serve

import (
	"fmt"
	"testing"

	contextrank "repro"
)

// TestDropRetiresSessionEvents: ending a session must remove its basic
// events from the event space, and ending the last session must return the
// space to its pre-session size.
func TestDropRetiresSessionEvents(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	baseline := srv.Stats().Events // the dataset's assertion events
	if _, err := srv.SetSession("peter", []Measurement{
		{Concept: "CtxA", Prob: 0.8},
		{Concept: "LocK", Prob: 0.6, Exclusive: "loc"},
		{Concept: "LocO", Prob: 0.3, Exclusive: "loc"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SetSession("maria", []Measurement{{Concept: "CtxB", Prob: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Events; got != baseline+4 {
		t.Fatalf("Events = %d with two sessions, want %d", got, baseline+4)
	}
	if err := srv.DropSession("peter"); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Events; got != baseline+1 {
		t.Fatalf("Events = %d after dropping peter, want %d", got, baseline+1)
	}
	if err := srv.DropSession("maria"); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Events; got != baseline {
		t.Fatalf("Events = %d after dropping all sessions, want %d", got, baseline)
	}
}

// TestServeSessionChurnSoak is the ISSUE 2 acceptance soak: 10k session
// applies across 100 churning users must hold the event space at the live
// session vocabulary (no per-apply growth), and a user whose context never
// changes must rank bit-for-bit identically before and after the churn.
// Run with -race in CI; skipped under -short.
func TestServeSessionChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak skipped in -short mode")
	}
	srv := NewServer(newTestSystem(t), Options{})
	baseline := srv.Stats().Events

	// The sentinel user holds a fixed uncertain context for the whole run.
	if _, err := srv.SetSession("user000", []Measurement{{Concept: "CtxA", Prob: 0.8}}); err != nil {
		t.Fatal(err)
	}
	before := freshRank(t, srv.Facade(), "user000", "TvProgram")

	const (
		users   = 100
		applies = 10000
	)
	setUser := func(u, phase int) {
		t.Helper()
		name := fmt.Sprintf("user%03d", u)
		ms := []Measurement{
			{Concept: "CtxA", Prob: 0.5 + 0.04*float64((u+phase)%10)},
			{Concept: "LocK", Prob: 0.6, Exclusive: "loc"},
			{Concept: "LocO", Prob: 0.3, Exclusive: "loc"},
		}
		if _, err := srv.SetSession(name, ms); err != nil {
			t.Fatalf("set %s (phase %d): %v", name, phase, err)
		}
	}
	// Live vocabulary at full occupancy: user000's single event plus three
	// per churning user. Each apply briefly holds only the new epoch (the
	// previous one is retired before fresh events are declared), so the
	// space must never exceed this.
	bound := baseline + 1 + 3*(users-1)
	maxEvents := 0
	for i := 0; i < applies; i++ {
		u := 1 + i%(users-1)
		setUser(u, i/(users-1))
		if i%250 == 249 {
			// Session end + re-join: exercises Drop's retirement path.
			if err := srv.DropSession(fmt.Sprintf("user%03d", u)); err != nil {
				t.Fatal(err)
			}
			setUser(u, i)
		}
		if ev := srv.Stats().Events; ev > maxEvents {
			maxEvents = ev
		}
	}
	if maxEvents > bound {
		t.Fatalf("event space grew under churn: max Events = %d across %d applies, live-vocabulary bound %d",
			maxEvents, applies, bound)
	}

	// The sentinel's ranking is untouched by 10k retire/redeclare cycles —
	// identical scores, not merely approximately equal.
	after := freshRank(t, srv.Facade(), "user000", "TvProgram")
	if len(after) != len(before) {
		t.Fatalf("result count changed: %d -> %d", len(before), len(after))
	}
	for i := range after {
		if after[i].ID != before[i].ID || after[i].Score != before[i].Score {
			t.Fatalf("result %d changed across churn: %s/%v -> %s/%v",
				i, before[i].ID, before[i].Score, after[i].ID, after[i].Score)
		}
	}
	// And the cached path agrees with the fresh computation.
	cached, _, err := srv.Rank("user000", "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, cached, after)
}

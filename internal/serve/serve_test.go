package serve

import (
	"fmt"
	"math"
	"testing"

	contextrank "repro"
)

// newTestSystem builds a small TV system: ten programs over two genres and
// two context-dependent rules (CtxA prefers genre g0, CtxB genre g1).
func newTestSystem(t testing.TB) *contextrank.System {
	t.Helper()
	sys := contextrank.NewSystem()
	if err := sys.DeclareConcept("TvProgram"); err != nil {
		t.Fatal(err)
	}
	if err := sys.DeclareRole("hasGenre"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("tv%02d", i)
		if err := sys.AssertConcept("TvProgram", id, 1); err != nil {
			t.Fatal(err)
		}
		if err := sys.AssertRole("hasGenre", id, fmt.Sprintf("g%d", i%2), 0.9); err != nil {
			t.Fatal(err)
		}
	}
	for i, sigma := range []float64{0.8, 0.6} {
		rule := fmt.Sprintf("RULE r%d WHEN Ctx%c PREFER TvProgram AND EXISTS hasGenre.{g%d} WITH %g",
			i, 'A'+rune(i), i, sigma)
		if _, err := sys.AddRule(rule); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// freshRank ranks under the facade's read lock, bypassing the server and
// both of its caches — the uncached reference the served path is held
// against.
func freshRank(t testing.TB, f *Facade, user, target string) []contextrank.Result {
	t.Helper()
	var out []contextrank.Result
	err := f.WithRead(func(sys *contextrank.System) error {
		var rerr error
		out, rerr = sys.RankWith(user, target, contextrank.RankOptions{})
		return rerr
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameResults(t *testing.T, got, want []contextrank.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("result %d: got id %s, want %s", i, got[i].ID, want[i].ID)
		}
		if math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("result %d (%s): got score %v, want %v", i, got[i].ID, got[i].Score, want[i].Score)
		}
	}
}

func TestFacadeEpochDiscipline(t *testing.T) {
	srv := NewServer(newTestSystem(t), Options{})
	f := srv.Facade()
	e0 := f.Epoch()

	// Read operations leave the epoch alone.
	if _, _, err := srv.Rank("peter", "TvProgram", contextrank.RankOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Query("SELECT id FROM c_TvProgram"); err != nil {
		t.Fatal(err)
	}
	if got := len(f.Rules()); got != 2 {
		t.Fatalf("rules = %d, want 2", got)
	}
	if f.Epoch() != e0 {
		t.Fatalf("reads bumped epoch: %d -> %d", e0, f.Epoch())
	}

	// Every vocabulary mutator bumps it exactly once — through Apply, the
	// only writer — and so does the raw escape hatch.
	steps := []func() error{
		func() error { _, err := srv.Declare([]string{"Documentary"}, nil, nil); return err },
		func() error { _, err := srv.Declare(nil, []string{"hasSubject"}, nil); return err },
		func() error {
			_, err := srv.Assert([]ConceptAssertion{{Concept: "Documentary", ID: "d1", Prob: 0.7}}, nil)
			return err
		},
		func() error {
			_, err := srv.Assert(nil, []RoleAssertion{{Role: "hasSubject", Src: "d1", Dst: "nature", Prob: 1}})
			return err
		},
		func() error {
			_, _, err := srv.AddRules([]string{"RULE r2 WHEN CtxC PREFER Documentary WITH 0.5"})
			return err
		},
		func() error { _, _, err := srv.Exec("CREATE TABLE scratch (id TEXT)"); return err },
		func() error { _, err := srv.RemoveRule("r2"); return err },
		func() error {
			_, err := srv.Declare(nil, nil, []SubConceptDecl{{Sub: "Documentary", Super: "TvProgram"}})
			return err
		},
		func() error { _, err := f.WithWriteEpoch(func(*contextrank.System) error { return nil }); return err },
	}
	for i, step := range steps {
		before := f.Epoch()
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if f.Epoch() != before+1 {
			t.Fatalf("step %d: epoch %d -> %d, want +1", i, before, f.Epoch())
		}
	}

	// WithWriteEpoch reports the epoch its own mutation produced.
	ew0 := f.Epoch()
	ew, werr := f.WithWriteEpoch(func(*contextrank.System) error { return nil })
	if werr != nil || ew != ew0+1 || f.Epoch() != ew {
		t.Fatalf("WithWriteEpoch = (%d, %v), epoch now %d, want %d", ew, werr, f.Epoch(), ew0+1)
	}

	// A failing mutator still bumps (partial effects must invalidate).
	before := f.Epoch()
	if _, _, err := srv.AddRules([]string{"RULE bad WHEN CtxD PREFER Undeclared WITH 0.5"}); err == nil {
		t.Fatal("expected AddRules error")
	}
	if f.Epoch() != before+1 {
		t.Fatalf("failed mutator did not bump epoch")
	}
}

func TestFacadeRankMatchesSystem(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.SetContext(contextrank.NewContext("peter").Certain("CtxA")); err != nil {
		t.Fatal(err)
	}
	want, err := sys.Rank("peter", "TvProgram")
	if err != nil {
		t.Fatal(err)
	}
	// Both ways in: the served path, and a bare rank under the read lock.
	srv := NewServer(sys, Options{})
	got, _, err := srv.Rank("peter", "TvProgram", contextrank.RankOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, got, want)
	sameResults(t, freshRank(t, srv.Facade(), "peter", "TvProgram"), want)
	if len(got) != 10 {
		t.Fatalf("got %d results, want 10", len(got))
	}
	// Genre-g0 programs must outrank g1 under CtxA.
	if got[0].ID[len(got[0].ID)-1]%2 != 0 {
		t.Fatalf("top result %s is not a g0 program", got[0].ID)
	}
}

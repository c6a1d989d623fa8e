package mapping

import (
	"fmt"
	"testing"

	"repro/internal/dl"
	"repro/internal/engine"
)

// TestRestrictedReadErrorTakesTheFullPath: when the patch's restricted read
// fails, the look-up is not a patch — it falls through to the full query,
// whose own error is what the caller sees — and the stale handle stays in the
// memo, to be patched once the read works again.
func TestRestrictedReadErrorTakesTheFullPath(t *testing.T) {
	l := NewLoader(engine.New(), nil)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.DeclareConcept("A"))
	must(l.DeclareConcept("B"))
	must(l.AssertConcept("A", "x", nil))
	must(l.AssertConcept("B", "x", nil))
	must(l.AssertConcept("B", "y", nil))
	expr := dl.And(dl.Atom("A"), dl.Atom("B"))
	first, err := l.Members(expr)
	must(err)

	// Point the expression at a view that is not there: every read of it fails.
	key := expr.String()
	l.mu.Lock()
	view := l.views[key]
	l.views[key] = "v_dl_gone"
	l.mu.Unlock()
	must(l.AssertConcept("A", "y", nil))
	before := l.MembershipStats()
	if _, err := l.Members(expr); err == nil {
		t.Fatal("Members succeeded against a missing view")
	}
	if got := l.MembershipStats(); got != before {
		t.Fatalf("a failed look-up moved the counters %+v -> %+v", before, got)
	}

	l.mu.Lock()
	l.views[key] = view
	l.mu.Unlock()
	m, err := l.Members(expr)
	must(err)
	if got := l.MembershipStats(); got.Patched != before.Patched+1 || got.Queries != before.Queries {
		t.Fatalf("the look-up after the repair moved the counters %+v -> %+v, want one patch", before, got)
	}
	if len(m.IDs) != 2 || m.IDs[0] != "x" || m.IDs[1] != "y" || !m.Current() {
		t.Fatalf("patched members %v, want [x y]", m.IDs)
	}
	if ids, tracked := m.ChangedSince(first); !tracked || len(ids) != 1 || ids[0] != "y" {
		t.Fatalf("ChangedSince = %v, %v, want [y]", ids, tracked)
	}
}

// TestWriteLogBounded: the loader keeps at most maxLoggedWrites entries per
// table and a log per live table plus one — a concept table dropped and
// recreated over and over, with loader writes to each incarnation, does not
// leave a log behind per incarnation.
func TestWriteLogBounded(t *testing.T) {
	db := engine.New()
	l := NewLoader(db, nil)
	for _, c := range []string{"A", "B"} {
		if err := l.DeclareConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < 2*maxLoggedWrites; i++ {
			if err := l.AssertConcept("A", fmt.Sprintf("x%d", i%7), nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, stmt := range []string{"DROP TABLE c_A", "CREATE TABLE c_A (id TEXT, ev EVENT)"} {
			if _, err := db.Exec(stmt); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.AssertConcept("B", "y", nil); err != nil {
			t.Fatal(err)
		}
	}
	l.logMu.Lock()
	defer l.logMu.Unlock()
	// dl_domain, c_A's live incarnation or its last dropped one, c_B.
	if len(l.writes) > 4 {
		t.Fatalf("%d write logs after 50 incarnations of one table", len(l.writes))
	}
	for tab, log := range l.writes {
		if len(log) > maxLoggedWrites {
			t.Fatalf("%s: %d logged writes, bound %d", tab.Name(), len(log), maxLoggedWrites)
		}
	}
}

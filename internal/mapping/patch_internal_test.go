package mapping

import (
	"fmt"
	"testing"

	"repro/internal/dl"
	"repro/internal/engine"
)

// TestRestrictedReadErrorTakesTheFullPath: when the patch's evaluation fails,
// the look-up is not a patch — it falls through to the whole evaluation,
// whose own error is what the caller sees — and the stale handle stays in the
// memo, to be patched once the read works again.
func TestRestrictedReadErrorTakesTheFullPath(t *testing.T) {
	l := NewLoader(engine.New())
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

	// Point the concept at a table that is not there: every read of it fails.
	declared := l.vocab.Load()
	l.vocab.Store(&vocabulary{concepts: map[string]string{"A": declared.concepts["A"], "B": "c_gone"}, roles: declared.roles})
	must(l.AssertConcept("A", "y", nil))
	before := l.MembershipStats()
	if _, err := l.Members(expr); err == nil {
		t.Fatal("Members succeeded against a missing table")
	}
	if got := l.MembershipStats(); got != before {
		t.Fatalf("a failed look-up moved the counters %+v -> %+v", before, got)
	}

	l.vocab.Store(declared)
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
	l := NewLoader(db)
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
		if log.n > maxLoggedWrites {
			t.Fatalf("%s: %d logged writes, bound %d", tab.Name(), log.n, maxLoggedWrites)
		}
	}
}

// TestWriteLogRing: past its bound the write log keeps answering for the
// last maxLoggedWrites writes exactly as an unbounded log cut to them would —
// the individuals in write order for any interval they cover, no answer for
// one reaching further back — and a write the loader did not make starts
// the chain again.
func TestWriteLogRing(t *testing.T) {
	db := engine.New()
	l := NewLoader(db)
	if err := l.DeclareConcept("A"); err != nil {
		t.Fatal(err)
	}
	tab, err := db.Catalog().Get("c_A")
	if err != nil {
		t.Fatal(err)
	}
	// versions[i] is the table's version after i writes; ids[i] the
	// individual the i-th write (0-based) touched. Every seventh write
	// repeats an individual: a merge, which moves the version by two.
	versions, ids := []uint64{tab.Version()}, []string(nil)
	check := func() {
		t.Helper()
		now := versions[len(versions)-1]
		for from := 0; from < len(versions)-1; from++ {
			got, ok := l.writtenBetween(tab, versions[from], now)
			want := len(ids)-from <= maxLoggedWrites
			if ok != want {
				t.Fatalf("after %d writes, from write %d: tracked %v, want %v", len(ids), from, ok, want)
			}
			if ok && fmt.Sprint(got) != fmt.Sprint(ids[from:]) {
				t.Fatalf("after %d writes, from write %d: %v, want %v", len(ids), from, got, ids[from:])
			}
		}
	}
	for i := 0; i < 3*maxLoggedWrites+5; i++ {
		id := fmt.Sprintf("x%d", i)
		if i%7 == 6 {
			id = ids[i-3]
		}
		if err := l.AssertConcept("A", id, nil); err != nil {
			t.Fatal(err)
		}
		versions, ids = append(versions, tab.Version()), append(ids, id)
		if i%29 == 0 || i > 2*maxLoggedWrites {
			check()
		}
	}
	// An unlogged write: nothing before it can be accounted for.
	if _, err := db.Exec("INSERT INTO c_A VALUES ('sql', NULL)"); err != nil {
		t.Fatal(err)
	}
	versions, ids = []uint64{tab.Version()}, nil
	for i := 0; i < 5; i++ {
		if err := l.AssertConcept("A", fmt.Sprintf("y%d", i), nil); err != nil {
			t.Fatal(err)
		}
		versions, ids = append(versions, tab.Version()), append(ids, fmt.Sprintf("y%d", i))
		check()
	}
}

package mapping

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
)

// newTVLoader builds a loader with a small slice of the paper's TVTouch
// data: programs with genres and subjects, some memberships uncertain.
func newTVLoader(t *testing.T) *Loader {
	t.Helper()
	db := engine.New()
	l := NewLoader(db, nil)
	for _, c := range []string{"TvProgram", "Person", "Weekend", "Breakfast"} {
		if err := l.DeclareConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []string{"hasGenre", "hasSubject"} {
		if err := l.DeclareRole(r); err != nil {
			t.Fatal(err)
		}
	}
	space := db.Space()
	// Table 1 of the paper: feature probabilities.
	space.Declare("oprah_hi", 0.85)
	space.Declare("c5_hi", 0.95)
	space.Declare("c5_weather", 0.85)

	for _, p := range []string{"Oprah", "BBCNews", "Channel5News", "MPFS"} {
		if err := l.AssertConcept("TvProgram", p, nil); err != nil {
			t.Fatal(err)
		}
	}
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(l.AssertRole("hasGenre", "Oprah", "HUMAN-INTEREST", event.Basic("oprah_hi")))
	check(l.AssertRole("hasGenre", "Channel5News", "HUMAN-INTEREST", event.Basic("c5_hi")))
	check(l.AssertRole("hasSubject", "BBCNews", "News", nil))
	check(l.AssertRole("hasSubject", "Channel5News", "News", event.Basic("c5_weather")))
	return l
}

func probOf(t *testing.T, l *Loader, expr *dl.Expr, id string) float64 {
	t.Helper()
	ev, err := l.MembershipEvent(expr, id)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.DB().Space().Prob(ev)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAtomicConceptMembership(t *testing.T) {
	l := newTVLoader(t)
	if p := probOf(t, l, dl.Atom("TvProgram"), "Oprah"); p != 1 {
		t.Fatalf("P(Oprah ∈ TvProgram) = %g, want 1", p)
	}
	if p := probOf(t, l, dl.Atom("TvProgram"), "nobody"); p != 0 {
		t.Fatalf("P(nobody ∈ TvProgram) = %g, want 0", p)
	}
}

func TestExistsRestriction(t *testing.T) {
	l := newTVLoader(t)
	hi := dl.MustParse("EXISTS hasGenre.{HUMAN-INTEREST}")
	if p := probOf(t, l, hi, "Oprah"); math.Abs(p-0.85) > 1e-9 {
		t.Fatalf("P(Oprah ∈ ∃hasGenre.HI) = %g, want 0.85", p)
	}
	if p := probOf(t, l, hi, "BBCNews"); p != 0 {
		t.Fatalf("P(BBCNews ∈ ∃hasGenre.HI) = %g, want 0", p)
	}
}

func TestConjunction(t *testing.T) {
	l := newTVLoader(t)
	// The paper's R1 preference concept.
	pref := dl.MustParse("TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}")
	if p := probOf(t, l, pref, "Channel5News"); math.Abs(p-0.95) > 1e-9 {
		t.Fatalf("P = %g, want 0.95", p)
	}
	if p := probOf(t, l, pref, "MPFS"); p != 0 {
		t.Fatalf("P = %g, want 0", p)
	}
}

func TestDisjunction(t *testing.T) {
	l := newTVLoader(t)
	either := dl.MustParse("EXISTS hasGenre.{HUMAN-INTEREST} OR EXISTS hasSubject.{News}")
	// Channel5News: P(hi ∨ weather) with independent events 0.95, 0.85.
	want := 1 - (1-0.95)*(1-0.85)
	if p := probOf(t, l, either, "Channel5News"); math.Abs(p-want) > 1e-9 {
		t.Fatalf("P = %g, want %g", p, want)
	}
	if p := probOf(t, l, either, "BBCNews"); p != 1 {
		t.Fatalf("P = %g, want 1", p)
	}
}

func TestNegationOverDomain(t *testing.T) {
	l := newTVLoader(t)
	noHI := dl.MustParse("TvProgram AND NOT EXISTS hasGenre.{HUMAN-INTEREST}")
	if p := probOf(t, l, noHI, "BBCNews"); p != 1 {
		t.Fatalf("P(BBCNews ∈ ¬HI) = %g, want 1", p)
	}
	if p := probOf(t, l, noHI, "Oprah"); math.Abs(p-0.15) > 1e-9 {
		t.Fatalf("P(Oprah ∈ ¬HI) = %g, want 0.15", p)
	}
	// Individuals outside TvProgram are excluded by the conjunction.
	if p := probOf(t, l, noHI, "HUMAN-INTEREST"); p != 0 {
		t.Fatalf("P = %g, want 0", p)
	}
}

func TestNominalAndTopBottom(t *testing.T) {
	l := newTVLoader(t)
	if p := probOf(t, l, dl.Nominal("Oprah", "MPFS"), "Oprah"); p != 1 {
		t.Fatalf("nominal membership = %g", p)
	}
	if p := probOf(t, l, dl.Nominal("Oprah"), "MPFS"); p != 0 {
		t.Fatalf("nominal non-membership = %g", p)
	}
	if p := probOf(t, l, dl.Top(), "Oprah"); p != 1 {
		t.Fatalf("top = %g", p)
	}
	if p := probOf(t, l, dl.Bottom(), "Oprah"); p != 0 {
		t.Fatalf("bottom = %g", p)
	}
}

func TestMembers(t *testing.T) {
	l := newTVLoader(t)
	members, err := l.Members(dl.MustParse("EXISTS hasSubject.{News}"))
	if err != nil {
		t.Fatal(err)
	}
	if len(members.Events) != 2 || len(members.IDs) != 2 {
		t.Fatalf("members = %v / %v", members.Events, members.IDs)
	}
	if _, ok := members.Events["BBCNews"]; !ok {
		t.Fatal("BBCNews missing")
	}
}

// TestMembershipStatsIsLockFree: the serving layer's stats scrape reads the
// memo's counters while ranks hold its mutex.
func TestMembershipStatsIsLockFree(t *testing.T) {
	l := newTVLoader(t)
	if _, err := l.Members(dl.Atom("TvProgram")); err != nil {
		t.Fatal(err)
	}
	l.memoMu.Lock()
	defer l.memoMu.Unlock()
	done := make(chan MembershipStats, 1)
	go func() { done <- l.MembershipStats() }()
	select {
	case st := <-done:
		if st.Queries != 1 || st.Entries != 1 {
			t.Fatalf("stats = %+v, want the one query", st)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("MembershipStats blocked behind the memo mutex")
	}
}

func TestRepeatedAssertionMergesByDisjunction(t *testing.T) {
	db := engine.New()
	l := NewLoader(db, nil)
	l.DeclareConcept("C")
	db.Space().Declare("a", 0.5)
	db.Space().Declare("b", 0.5)
	l.AssertConcept("C", "x", event.Basic("a"))
	l.AssertConcept("C", "x", event.Basic("b"))
	p := probOf(t, l, dl.Atom("C"), "x")
	if math.Abs(p-0.75) > 1e-9 {
		t.Fatalf("merged membership = %g, want 0.75", p)
	}
	// Role variant.
	l.DeclareRole("r")
	l.AssertRole("r", "x", "y", event.Basic("a"))
	l.AssertRole("r", "x", "y", event.Basic("b"))
	p = probOf(t, l, dl.Exists("r", dl.Nominal("y")), "x")
	if math.Abs(p-0.75) > 1e-9 {
		t.Fatalf("merged role membership = %g, want 0.75", p)
	}
}

func TestSharedLineageAcrossConceptAndRole(t *testing.T) {
	// A membership that depends on the same basic event twice must not
	// double-count: P(C ⊓ D) where both carry event e is P(e), not P(e)².
	db := engine.New()
	l := NewLoader(db, nil)
	l.DeclareConcept("C")
	l.DeclareConcept("D")
	db.Space().Declare("e", 0.5)
	l.AssertConcept("C", "x", event.Basic("e"))
	l.AssertConcept("D", "x", event.Basic("e"))
	p := probOf(t, l, dl.And(dl.Atom("C"), dl.Atom("D")), "x")
	if math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("P(C⊓D) = %g, want 0.5 (shared lineage)", p)
	}
	pn := probOf(t, l, dl.And(dl.Atom("C"), dl.Not(dl.Atom("D"))), "x")
	if pn != 0 {
		t.Fatalf("P(C⊓¬D) = %g, want 0", pn)
	}
}

func TestViewCachingAndLineage(t *testing.T) {
	l := newTVLoader(t)
	e := dl.MustParse("TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}")
	v1, err := l.ViewFor(e)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := l.ViewFor(dl.MustParse("EXISTS hasGenre.{HUMAN-INTEREST} AND TvProgram"))
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("canonically equal expressions compiled twice: %s vs %s", v1, v2)
	}
	if sql := l.ViewSQL(v1); !strings.Contains(sql, "CREATE OR REPLACE VIEW") {
		t.Fatalf("lineage SQL missing: %q", sql)
	}
	// Atoms resolve to their base tables without a view.
	va, err := l.ViewFor(dl.Atom("TvProgram"))
	if err != nil {
		t.Fatal(err)
	}
	if va != ConceptTable("TvProgram") {
		t.Fatalf("atom view = %q", va)
	}
}

func TestUndeclaredVocabularyRejected(t *testing.T) {
	l := newTVLoader(t)
	if _, err := l.ViewFor(dl.Atom("Martian")); err == nil {
		t.Fatal("undeclared concept accepted")
	}
	if _, err := l.ViewFor(dl.Exists("owns", dl.Top())); err == nil {
		t.Fatal("undeclared role accepted")
	}
	if err := l.AssertConcept("Martian", "x", nil); err == nil {
		t.Fatal("assertion into undeclared concept accepted")
	}
	if err := l.AssertRole("owns", "x", "y", nil); err == nil {
		t.Fatal("assertion into undeclared role accepted")
	}
}

func TestClearConcept(t *testing.T) {
	l := newTVLoader(t)
	l.AssertConcept("Weekend", "now", nil)
	if p := probOf(t, l, dl.Atom("Weekend"), "now"); p != 1 {
		t.Fatalf("P = %g", p)
	}
	if err := l.ClearConcept("Weekend"); err != nil {
		t.Fatal(err)
	}
	if p := probOf(t, l, dl.Atom("Weekend"), "now"); p != 0 {
		t.Fatalf("P after clear = %g", p)
	}
}

func TestDeclareIdempotentAndCollisions(t *testing.T) {
	db := engine.New()
	l := NewLoader(db, nil)
	if err := l.DeclareConcept("A"); err != nil {
		t.Fatal(err)
	}
	if err := l.DeclareConcept("A"); err != nil {
		t.Fatalf("re-declare not idempotent: %v", err)
	}
	// "A-b" and "A_b" sanitize to the same table name: collision detected.
	if err := l.DeclareConcept("A-b"); err != nil {
		t.Fatal(err)
	}
	if err := l.DeclareConcept("A_b"); err == nil {
		t.Fatal("sanitization collision not detected")
	}
}

func TestExclusiveContextGroups(t *testing.T) {
	// "A person can only be at a single place at one moment" (§4.1): model
	// location memberships with an exclusive group and check negation math.
	db := engine.New()
	l := NewLoader(db, nil)
	l.DeclareConcept("InKitchen")
	l.DeclareConcept("InOffice")
	db.Space().DeclareExclusive([]string{"loc_k", "loc_o"}, []float64{0.6, 0.3})
	l.AssertConcept("InKitchen", "peter", event.Basic("loc_k"))
	l.AssertConcept("InOffice", "peter", event.Basic("loc_o"))
	both := dl.And(dl.Atom("InKitchen"), dl.Atom("InOffice"))
	if p := probOf(t, l, both, "peter"); p != 0 {
		t.Fatalf("P(both rooms) = %g, want 0", p)
	}
	either := dl.Or(dl.Atom("InKitchen"), dl.Atom("InOffice"))
	if p := probOf(t, l, either, "peter"); math.Abs(p-0.9) > 1e-9 {
		t.Fatalf("P(either room) = %g, want 0.9", p)
	}
}

package mapping

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
)

// docSideSetup builds a loader with three concepts over documents d0..d5 —
// A certain for all, B hinging on one event per document, C on an event B's
// d0 shares — and returns their expressions.
func docSideSetup(t *testing.T) (*Loader, []*dl.Expr) {
	t.Helper()
	l := NewLoader(engine.New(), nil)
	space := l.DB().Space()
	for _, c := range []string{"A", "B", "C"} {
		if err := l.DeclareConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		id, ev := fmt.Sprintf("d%d", i), fmt.Sprintf("b%d", i)
		if err := space.Declare(ev, 0.1*float64(i+1)); err != nil {
			t.Fatal(err)
		}
		if err := l.AssertConcept("A", id, nil); err != nil {
			t.Fatal(err)
		}
		if err := l.AssertConcept("B", id, event.Basic(ev)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AssertConcept("C", "d1", event.Basic("b0")); err != nil {
		t.Fatal(err)
	}
	return l, []*dl.Expr{dl.Atom("A"), dl.Atom("B"), dl.Atom("C")}
}

func handlesOf(t *testing.T, l *Loader, exprs []*dl.Expr) []*Membership {
	t.Helper()
	hs := make([]*Membership, len(exprs))
	for i, e := range exprs {
		var err error
		if hs[i], err = l.Members(e); err != nil {
			t.Fatal(err)
		}
	}
	return hs
}

// TestDocSideContent: rows, footprints and the share relation are what the
// handles' events say.
func TestDocSideContent(t *testing.T) {
	l, exprs := docSideSetup(t)
	p := l.DocSide(handlesOf(t, l, exprs)).Probs()
	for i := 0; i < 6; i++ {
		want := []float64{1, 0.1 * float64(i+1), 0}
		if i == 1 {
			want[2] = 0.1
		}
		if got := p.Row(fmt.Sprintf("d%d", i)); len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Fatalf("row of d%d = %v, want %v", i, got, want)
		}
	}
	if got := p.Row("nobody"); len(got) != 3 || got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("row of a non-member = %v", got)
	}
	if len(p.Blocks(0)) != 0 || len(p.Blocks(1)) != 6 || len(p.Blocks(2)) != 1 || p.Blocks(2)[0] != "b:b0" {
		t.Fatalf("footprints %v %v %v", p.Blocks(0), p.Blocks(1), p.Blocks(2))
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if want := a != b && a+b == 3; p.Shares(a, b) != want {
				t.Fatalf("Shares(%d, %d) = %v, want %v", a, b, p.Shares(a, b), want)
			}
		}
	}
	tab, err := p.Joint([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// d1: B on b1 (0.2), C on b0 (0.1), independent. d2: B on b2 (0.3), not in C.
	for id, want := range map[string][]float64{
		"d1":     {0.8 * 0.9, 0.2 * 0.9, 0.8 * 0.1, 0.2 * 0.1},
		"d2":     {0.7, 0.3, 0, 0},
		"nobody": {1, 0, 0, 0},
	} {
		got := tab.Row(id)
		for i := range want {
			if d := got[i] - want[i]; d > 1e-15 || d < -1e-15 {
				t.Fatalf("joint row of %s = %v, want %v", id, got, want)
			}
		}
	}
	if again, _ := p.Joint([]int{1, 2}); again != tab {
		t.Fatal("the tuple's joint table was derived twice")
	}
}

// TestDocSideEveryDoubtRebuilds forces each way a side's content can come into
// doubt and each way it cannot, counting the rows derived: handles that are the
// same list find the same side; a footprint diff that misses every footprint
// re-stamps the content it has; one that reaches a footprint, and one the event
// space no longer tracks, derive it again through Space.Prob; after a traced
// write the successor derives the written individual's row alone and shares the
// rest; after an untraced one it derives everything; and a retired event is
// the side's error for as long as it stays retired, never a probability.
func TestDocSideEveryDoubtRebuilds(t *testing.T) {
	l, exprs := docSideSetup(t)
	space := l.DB().Space()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// derived runs fn and returns how many rows it derived.
	derived := func(fn func()) int64 {
		before := DocRowsComputed()
		fn()
		return DocRowsComputed() - before
	}

	var side *DocSide
	if n := derived(func() { side = l.DocSide(handlesOf(t, l, exprs)) }); n != 6 {
		t.Fatalf("the first build derived %d rows, want one per document", n)
	}
	first := side.Probs()
	if n := derived(func() {
		if l.DocSide(handlesOf(t, l, exprs)) != side || side.Probs() != first {
			t.Fatal("the same handles found another side, or other content")
		}
	}); n != 0 {
		t.Fatalf("a second look derived %d rows", n)
	}
	if other := l.DocSide(handlesOf(t, l, exprs[:2])); other == side {
		t.Fatal("another handle list shares the side")
	}

	// Another user's context comes and goes: invalidations, none in a footprint.
	must(space.DeclareExclusive([]string{"ctx_k", "ctx_l"}, []float64{0.5, 0.4}))
	must(space.Retire("ctx_k", "ctx_l"))
	if n := derived(func() {
		if side.Probs() != first {
			t.Fatal("a clean footprint diff replaced the content")
		}
	}); n != 0 || first.gen.Load() != space.Generation() {
		t.Fatalf("a clean footprint diff derived %d rows, stamp %d at generation %d", n, first.gen.Load(), space.Generation())
	}

	// A footprint block is re-declared at another probability.
	must(space.Retire("b3"))
	must(space.Declare("b3", 0.95))
	var second *DocProbs
	if n := derived(func() { second = side.Probs() }); n != 6 || second == first {
		t.Fatalf("a diff that reaches a footprint derived %d rows (new content: %v)", n, second != first)
	}
	if got := second.Row("d3")[1]; got != 0.95 {
		t.Fatalf("P(d3 in B) = %v after b3 was re-declared at 0.95", got)
	}

	// More invalidations than the event space remembers.
	for i := 0; i < 4200; i++ {
		must(space.Declare("churn", 0.5))
		must(space.Retire("churn"))
	}
	if _, _, tracked := space.ChangedBlocksSince(second.gen.Load()); tracked {
		t.Fatal("the churn did not outrun the event space's change history")
	}
	var third *DocProbs
	if n := derived(func() { third = side.Probs() }); n != 6 || third == second {
		t.Fatalf("an untracked footprint diff derived %d rows (new content: %v)", n, third != second)
	}

	// A traced write: d4 joins C under a new event; B and A stand.
	tab, err := third.Joint([]int{1, 2})
	must(err)
	must(space.Declare("c4", 0.6))
	must(l.AssertConcept("C", "d4", event.Basic("c4")))
	var next *DocSide
	if n := derived(func() { next = l.DocSide(handlesOf(t, l, exprs)) }); n != 2 || next == side {
		t.Fatalf("the successor across a traced write derived %d rows, want d4's row and d4's joint row (new side: %v)", n, next != side)
	}
	carried := next.Probs()
	if got := carried.Row("d4"); got[2] != 0.6 || got[1] != 0.5 {
		t.Fatalf("d4's row after the write = %v", got)
	}
	if &carried.Row("d2")[0] != &third.Row("d2")[0] {
		t.Fatal("an unwritten individual's row was not carried")
	}
	if len(carried.Blocks(2)) != 2 {
		t.Fatalf("C's footprint after the write = %v", carried.Blocks(2))
	}
	if n := derived(func() {
		after, err := carried.Joint([]int{1, 2})
		must(err)
		if after == tab || &after.Row("d1")[0] != &tab.Row("d1")[0] || after.Row("d4")[3] != 0.5*0.6 {
			t.Fatalf("the joint table was not carried across the write: d4 = %v", after.Row("d4"))
		}
	}); n != 0 {
		t.Fatalf("looking the carried joint table up derived %d rows", n)
	}
	for _, d := range l.docSides {
		if d == side {
			t.Fatal("the superseded side is still kept")
		}
	}

	// An untraced write: SQL, which no handle can name the delta of.
	_, err = l.DB().Exec("DELETE FROM c_B WHERE id = 'd5'")
	must(err)
	var queried *DocSide
	if n := derived(func() { queried = l.DocSide(handlesOf(t, l, exprs)) }); n != 6 {
		t.Fatalf("the successor across an untraced write derived %d rows, want all", n)
	}
	if got := queried.Probs().Row("d5"); got[1] != 0 || got[0] != 1 {
		t.Fatalf("d5's row after the delete = %v", got)
	}

	// A retired data event: an error, never a probability, until it is back.
	must(space.Retire("c4"))
	for i := 0; i < 2; i++ {
		if err := queried.Probs().Err(); err == nil || !strings.Contains(err.Error(), "not declared") {
			t.Fatalf("look %d: the side's error = %v, want c4 not declared", i, err)
		}
	}
	must(space.Declare("c4", 0.3))
	if p := queried.Probs(); p.Err() != nil || p.Row("d4")[2] != 0.3 {
		t.Fatalf("after c4 came back: error %v, P(d4 in C) = %v", p.Err(), p.Row("d4")[2])
	}
}

// TestDocSidesBounded: the loader keeps at most maxDocSides sides however many
// handle lists are asked for, and lets a side go once a handle of its is
// superseded.
func TestDocSidesBounded(t *testing.T) {
	l, exprs := docSideSetup(t)
	hs := handlesOf(t, l, exprs)
	first := l.DocSide(hs[:1])
	for n := 0; n < 3*maxDocSides; n++ {
		list := make([]*Membership, 2+n)
		for i := range list {
			list[i] = hs[i%len(hs)]
		}
		l.DocSide(list)
		if len(l.docSides) > maxDocSides {
			t.Fatalf("%d sides kept, bound %d", len(l.docSides), maxDocSides)
		}
	}
	if again := l.DocSide(hs[:1]); again == first {
		t.Fatal("the oldest side survived the bound")
	}
	if err := l.AssertConcept("A", "d9", nil); err != nil {
		t.Fatal(err)
	}
	l.DocSide(handlesOf(t, l, exprs))
	for _, d := range l.docSides {
		for _, h := range d.handles {
			if !h.Current() {
				t.Fatal("a side over a superseded handle is still kept")
			}
		}
	}
	if len(l.docSides) == 0 || len(l.docSides) >= maxDocSides {
		t.Fatalf("%d sides kept after A was written, want those that do not read A, and the new one", len(l.docSides))
	}
}

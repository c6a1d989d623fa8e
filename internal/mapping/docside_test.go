package mapping

import (
	"fmt"
	"math/rand"
	"slices"
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
	l := NewLoader(engine.New())
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

// TestDocSideContent: rows, footprints, the block index and the share
// relation are what the handles' events say.
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
	if len(p.blocks[0]) != 0 || len(p.blocks[1]) != 6 || len(p.blocks[2]) != 1 || p.blocks[2][0] != "b:b0" {
		t.Fatalf("footprints %v %v %v", p.blocks[0], p.blocks[1], p.blocks[2])
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

	// The block → rules index and the share relation read off it, against the
	// handles' footprints themselves, over seeded handle lists (a handle may
	// appear twice; some events are one exclusive group's, so share its key):
	// RulesOf(key) lists, ascending, exactly the rules whose footprint holds
	// key, and Shares(a, b) holds exactly when two footprints intersect.
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 40; round++ {
		l := NewLoader(engine.New())
		space := l.DB().Space()
		if err := space.DeclareExclusive([]string{"s0", "s1", "s2"}, []float64{0.2, 0.3, 0.4}); err != nil {
			t.Fatal(err)
		}
		events := 3 + rng.Intn(10)
		for e := 3; e < events; e++ {
			if err := space.Declare(fmt.Sprintf("s%d", e), 0.5); err != nil {
				t.Fatal(err)
			}
		}
		concepts := make([]*dl.Expr, 1+rng.Intn(5))
		for c := range concepts {
			name := fmt.Sprintf("R%d", c)
			if err := l.DeclareConcept(name); err != nil {
				t.Fatal(err)
			}
			for a := rng.Intn(5); a > 0; a-- {
				ev := event.Basic(fmt.Sprintf("s%d", rng.Intn(events)))
				if err := l.AssertConcept(name, fmt.Sprintf("d%d", rng.Intn(6)), ev); err != nil {
					t.Fatal(err)
				}
			}
			concepts[c] = dl.Atom(name)
		}
		exprs := make([]*dl.Expr, 1+rng.Intn(8))
		for r := range exprs {
			exprs[r] = concepts[rng.Intn(len(concepts))]
		}
		hs := handlesOf(t, l, exprs)
		p := l.DocSide(hs).Probs()
		holds := make([]map[string]bool, len(hs))
		for r, h := range hs {
			keys, err := h.Blocks()
			if err != nil {
				t.Fatal(err)
			}
			holds[r] = make(map[string]bool)
			for _, k := range keys {
				holds[r][k] = true
				if !slices.Contains(p.RulesOf(k), r) {
					t.Fatalf("round %d: RulesOf(%s) = %v misses rule %d", round, k, p.RulesOf(k), r)
				}
			}
		}
		for k, rules := range p.byBlock {
			if !slices.IsSorted(rules) || slices.ContainsFunc(rules, func(r int) bool { return !holds[r][k] }) {
				t.Fatalf("round %d: RulesOf(%s) = %v, footprints %v", round, k, rules, holds)
			}
		}
		for a := range hs {
			for b := range hs {
				want := false
				for k := range holds[a] {
					want = want || (a != b && holds[b][k])
				}
				if p.Shares(a, b) != want {
					t.Fatalf("round %d: Shares(%d, %d) = %v, the footprints %v say %v", round, a, b, p.Shares(a, b), holds, want)
				}
			}
		}
	}
}

// TestDocSideEveryDoubtRebuilds forces each way a side's content can come into
// doubt and each way it cannot, counting the rows derived: handles that are the
// same list find the same side; a footprint diff that misses every footprint
// re-stamps the content it has; one that reaches a footprint, and one the event
// space no longer tracks, derive it again through Space.Prob — a key of the
// last rule's footprint alone included; after a traced write the successor
// derives the written individual's row alone and shares the rest, the block
// index too when no footprint moved; after an untraced one it derives
// everything; and a retired event is the side's error for as long as it stays
// retired, never a probability.
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

	// Other users' contexts come and go — an exclusive group and an independent
	// event: invalidations whose keys no footprint holds.
	must(space.DeclareExclusive([]string{"ctx_k", "ctx_l"}, []float64{0.5, 0.4}))
	must(space.Declare("ctx_m", 0.3))
	must(space.Retire("ctx_k", "ctx_l"))
	must(space.Retire("ctx_m"))
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
	if len(carried.blocks[2]) != 2 || &carried.shares[0] == &third.shares[0] {
		t.Fatalf("C's footprint after the write = %v (the predecessor's index kept: %v)", carried.blocks[2], &carried.shares[0] == &third.shares[0])
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
	// It let its content go too; a plan still holding it derives the content
	// again, row for row what it was.
	if side.probs.Load() != nil {
		t.Fatal("the superseded side kept its content")
	}
	if n := derived(func() {
		if got, want := side.Probs().Row("d2"), third.Row("d2"); !slices.Equal(got, want) {
			t.Fatalf("the superseded side's row of d2 = %v, was %v", got, want)
		}
	}); n != 6 {
		t.Fatalf("a look at the superseded side derived %d rows, want one per document", n)
	}

	// A block only the last rule's footprint holds — c4 is C's alone — is
	// re-declared: the one key of the diff is in the index, and the side
	// derives its content again.
	must(space.Retire("c4"))
	must(space.Declare("c4", 0.45))
	var rebuilt *DocProbs
	if n := derived(func() { rebuilt = next.Probs() }); n != 6 || rebuilt == carried || rebuilt.Row("d4")[2] != 0.45 {
		t.Fatalf("a diff that reaches only the last footprint derived %d rows (new content: %v, P(d4 in C) = %v)", n, rebuilt != carried, rebuilt.Row("d4")[2])
	}

	// Traced writes that move a membership and no footprint — d6 joins and
	// leaves A, which is certain: the carried side derives d6's row (once,
	// while it is a member) and keeps its predecessor's index.
	for i, write := range []func() error{
		func() error { return l.AssertConcept("A", "d6", nil) },
		func() error { return l.RetractConcept("A", "d6") },
	} {
		must(write())
		prev := next.Probs()
		if n := derived(func() { next = l.DocSide(handlesOf(t, l, exprs)) }); n != int64(1-i) {
			t.Fatalf("write %d: the successor derived %d rows, want %d", i, n, 1-i)
		}
		if p := next.Probs(); &p.shares[0] != &prev.shares[0] || len(p.byBlock) != len(prev.byBlock) {
			t.Fatalf("write %d: the carried side built an index of its own though no footprint moved", i)
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

// TestDocTableGather holds the gather cursor to Row, and Row to the rows the
// table was built from, over seeded tables and candidate lists: ascending,
// descending and shuffled, with repeats, ids the table lacks, ids past its end
// and ids that share their first eight bytes (the cursor's key) or differ only
// past them, and over an empty table.
func TestDocTableGather(t *testing.T) {
	var universe []string
	for i := 0; i < 60; i++ {
		universe = append(universe, fmt.Sprintf("tv%03d", i), fmt.Sprintf("person%06d", i), fmt.Sprintf("p%d", i))
	}
	universe = append(universe, "", "a", "a\x00", "a\x00\x01", "ab", "abcdefgh", "abcdefgh\x00", "abcdefghi")
	same := func(a, b []float64) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }
	rng := rand.New(rand.NewSource(46))
	for round := 0; round < 300; round++ {
		tab := &DocTable{absent: make([]float64, 1)}
		want := make(map[string][]float64)
		var members []string
		if round%10 != 0 { // every tenth table is empty
			members = slices.Clone(universe)
			rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
			members = members[:rng.Intn(len(members))]
			slices.Sort(members)
		}
		for _, id := range members {
			row := []float64{rng.Float64()}
			tab.add(id, row)
			want[id] = row
		}
		var ids []string
		for n := rng.Intn(80); len(ids) < n; {
			switch rng.Intn(12) {
			case 0:
				ids = append(ids, "zz"+fmt.Sprint(rng.Intn(5))) // past the table's end
			case 1:
				if len(ids) > 0 {
					ids = append(ids, ids[rng.Intn(len(ids))]) // a repeat
				}
			default:
				ids = append(ids, universe[rng.Intn(len(universe))])
			}
		}
		switch round % 3 {
		case 0:
			slices.Sort(ids)
		case 1:
			slices.Sort(ids)
			slices.Reverse(ids)
		}
		rows := make([][]float64, len(ids))
		tab.Gather(ids, rows)
		for i, id := range ids {
			row, ok := want[id]
			if !ok {
				row = tab.absent
			}
			if !same(tab.Row(id), row) {
				t.Fatalf("round %d: Row(%q) = %v, the table was built with %v", round, id, tab.Row(id), row)
			}
			if !same(rows[i], row) {
				t.Fatalf("round %d: Gather's row %d (%q) = %v, Row says %v; ids %q, table %q", round, i, id, rows[i], row, ids, members)
			}
		}
	}
}

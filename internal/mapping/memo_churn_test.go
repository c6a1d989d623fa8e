package mapping_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/mapping"
	"repro/internal/situation"
	"repro/internal/storage"
)

// memoExpr is one expression of the memo oracle with the base tables its
// view reads, written out by hand so the test does not share the loader's
// read-set logic.
type memoExpr struct {
	text  string
	reads []string
}

var memoExprs = []memoExpr{
	{"A", []string{"c_A"}},
	{"EXISTS r.B", []string{"r_r", "c_B"}},
	{"EXISTS r.(EXISTS s.C)", []string{"r_r", "r_s", "c_C"}},
	{"EXISTS s.(EXISTS r.B)", []string{"r_s", "r_r", "c_B"}},
	{"A AND B", []string{"c_A", "c_B"}},
	{"A AND EXISTS s.C", []string{"c_A", "r_s", "c_C"}},
	{"C OR Ctx", []string{"c_C", "c_Ctx"}},
	{"NOT A", []string{"c_A", "dl_domain"}},
	{"NOT (EXISTS r.B)", []string{"r_r", "c_B", "dl_domain"}},
	{"TOP", []string{"dl_domain"}},
	{"{x1, x3, n2}", []string{"dl_domain"}},
	{"B AND EXISTS s.{x2}", []string{"c_B", "r_s", "dl_domain"}},
}

// sameMembers reports how a handle differs from the reference, or "".
func sameMembers(m *mapping.Membership, want map[string]*event.Expr) string {
	if len(m.Events) != len(want) || len(m.IDs) != len(want) {
		return fmt.Sprintf("%d events / %d ids, want %d", len(m.Events), len(m.IDs), len(want))
	}
	if !slices.IsSorted(m.IDs) {
		return fmt.Sprintf("IDs not sorted: %v", m.IDs)
	}
	for _, id := range m.IDs {
		ev, ok := want[id]
		if !ok {
			return fmt.Sprintf("unexpected member %s", id)
		}
		if !event.Equal(m.Events[id], ev) {
			return fmt.Sprintf("member %s: event %s, want %s", id, m.Events[id], ev)
		}
	}
	return ""
}

// memoOracle is the memo's reference harness: a loader over a small
// vocabulary, the expressions above, and a record of what the step under way
// did to each base table — moved it at all, moved it by anything but a loader
// mutator, how many mutator writes — which is what decides whether the next
// look-up of an expression must be a hit, a patch or a query.
type memoOracle struct {
	tb    testing.TB
	db    *engine.DB
	l     *mapping.Loader
	exprs []*dl.Expr

	tables   map[string]bool
	unlogged map[string]bool
	writes   map[string]int
	evSeq    int
}

// tabVersion is a base table's identity and write version: what a step wrote
// is what differs afterwards.
type tabVersion struct {
	tab     *storage.Table
	version uint64
}

func newMemoOracle(tb testing.TB) *memoOracle {
	db := engine.New()
	o := &memoOracle{tb: tb, db: db, l: mapping.NewLoader(db), tables: map[string]bool{}}
	for _, c := range []string{"A", "B", "C", "Ctx"} {
		o.must(o.l.DeclareConcept(c))
	}
	for _, r := range []string{"r", "s"} {
		o.must(o.l.DeclareRole(r))
	}
	for _, me := range memoExprs {
		o.exprs = append(o.exprs, dl.MustParse(me.text))
		for _, tab := range me.reads {
			o.tables[tab] = true
		}
	}
	o.beginStep()
	return o
}

func (o *memoOracle) must(err error) {
	o.tb.Helper()
	if err != nil {
		o.tb.Fatal(err)
	}
}

func (o *memoOracle) versions() map[string]tabVersion {
	out := make(map[string]tabVersion, len(o.tables))
	for name := range o.tables {
		tab, err := o.db.Catalog().Get(name)
		o.must(err)
		out[name] = tabVersion{tab, tab.Version()}
	}
	return out
}

func (o *memoOracle) beginStep() {
	o.unlogged, o.writes = map[string]bool{}, map[string]int{}
}

// write runs one write and files, per table it moved, whether a loader
// mutator made it (and so logged it) or something the loader cannot see did.
func (o *memoOracle) write(logged bool, fn func() error) {
	o.tb.Helper()
	before := o.versions()
	o.must(fn())
	for name, v := range o.versions() {
		if v == before[name] {
			continue
		}
		if logged {
			o.writes[name]++
		} else {
			o.unlogged[name] = true
		}
	}
}

func (o *memoOracle) exec(stmt string) {
	o.tb.Helper()
	o.write(false, func() error {
		_, err := o.db.Exec(stmt)
		return err
	})
}

// newEvent declares a fresh basic event of the given probability.
func (o *memoOracle) newEvent(p float64) *event.Expr {
	o.evSeq++
	name := fmt.Sprintf("memo_e%d", o.evSeq)
	o.must(o.db.Space().Declare(name, p))
	return event.Basic(name)
}

// lookup looks expression i up; see lookupExpr.
func (o *memoOracle) lookup(where string, i int) string {
	o.tb.Helper()
	return o.lookupExpr(where, o.exprs[i])
}

// lookupExpr looks the expression up, holds the answer against the query of
// its view (mapping.ViewQuery, the evaluator's reference) and returns which
// path answered: "hit", "patch" or "query" (a whole evaluation).
func (o *memoOracle) lookupExpr(where string, expr *dl.Expr) string {
	o.tb.Helper()
	st := o.l.MembershipStats()
	m, err := o.l.Members(expr)
	o.must(err)
	want, err := mapping.ViewQuery(o.l, expr)
	o.must(err)
	if diff := sameMembers(m, want); diff != "" {
		o.tb.Fatalf("%s: Members(%s): %s", where, expr, diff)
	}
	if !m.Current() {
		o.tb.Fatalf("%s: Members(%s) returned a handle that is not current", where, expr)
	}
	got := o.l.MembershipStats()
	switch [3]int64{got.Hits - st.Hits, got.Patched - st.Patched, got.Queries - st.Queries} {
	case [3]int64{1, 0, 0}:
		return "hit"
	case [3]int64{0, 1, 0}:
		return "patch"
	case [3]int64{0, 0, 1}:
		return "query"
	}
	o.tb.Fatalf("%s: Members(%s) moved the counters %+v -> %+v: not exactly one of hit, patch, query", where, expr, st, got)
	return ""
}

// want is the path expression i's next look-up must take after a step that
// started with every handle current: a hit while its read set stands; a patch
// when only loader mutators moved it, by no more writes than the log holds;
// a query after anything else — SQL, ClearConcept, a dropped name.
func (o *memoOracle) want(i int, before, after map[string]tabVersion, dropped bool) string {
	path := "hit"
	for _, tab := range memoExprs[i].reads {
		switch {
		case dropped || o.unlogged[tab] || o.writes[tab] > mapping.MaxLoggedWrites:
			return "query"
		case before[tab] != after[tab]:
			path = "patch"
		}
	}
	return path
}

// TestMembershipMemoChurnOracle drives a seeded history of everything that
// can change who is in a concept expression — concept and role asserts
// (duplicates, first-seen individuals, bursts, more than the write log
// holds), retracts, owner-scoped context applies, SQL writes to base tables,
// ClearConcept, a concept table dropped and recreated, a redefining DDL — past
// a fixed set of expressions covering every operator and both nestings of ∃.
// After every step each Members(expr) must equal, event for event, the query
// of the expression's view through the SQL executor (mapping.ViewQuery) —
// the reference the evaluator is held to — and the memo must have taken
// exactly the path the step calls for: a hit while the read set stands, one
// patch and no whole evaluation after loader writes, one whole evaluation
// after anything the loader did not log. Every other step
// looks up from several goroutines at once first, so -race sees concurrent
// misses patching and filling the memo and would see any holder writing a
// shared handle.
func TestMembershipMemoChurnOracle(t *testing.T) {
	o := newMemoOracle(t)
	l := o.l
	rng := rand.New(rand.NewSource(21))
	inds := []string{"x0", "x1", "x2", "x3", "x4", "x5"}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	newEv := func() *event.Expr {
		if rng.Intn(2) == 0 {
			return nil // certain
		}
		return o.newEvent(0.1 + 0.8*rng.Float64())
	}
	assertConcept := func(c, id string) { o.write(true, func() error { return l.AssertConcept(c, id, newEv()) }) }
	assertRole := func(r, src, dst string) { o.write(true, func() error { return l.AssertRole(r, src, dst, newEv()) }) }
	// A hub many s-tuples point at: one write to C's row of it reaches more
	// individuals of A ⊓ ∃s.C than the expression has members.
	for i := 0; i < 20; i++ {
		assertRole("s", fmt.Sprintf("y%02d", i), "hub")
	}
	guests, fresh := 0, 0
	steps := []struct {
		name string
		do   func()
	}{
		{"assert concept", func() { assertConcept(pick([]string{"A", "B", "C"}), pick(inds)) }},
		{"assert concept, first-seen individual", func() {
			fresh++
			assertConcept(pick([]string{"A", "B"}), fmt.Sprintf("n%d", fresh))
		}},
		{"retract concept", func() {
			o.write(true, func() error { return l.RetractConcept(pick([]string{"A", "B", "C"}), pick(inds)) })
		}},
		{"assert role", func() { assertRole(pick([]string{"r", "s"}), pick(inds), pick(inds)) }},
		{"duplicate assert role", func() {
			// The second assert deletes the tuple and re-inserts it at the heap's
			// end, so EV_OR_AGG's argument order moves with it.
			role, src, dst := pick([]string{"r", "s"}), pick(inds), pick(inds)
			assertRole(role, src, pick(inds))
			assertRole(role, src, dst)
			assertRole(role, src, dst)
		}},
		{"burst of loader writes", func() {
			assertConcept("B", pick(inds))
			assertRole("r", pick(inds), pick(inds))
			o.write(true, func() error { return l.RetractConcept("A", pick(inds)) })
			assertConcept("C", pick(inds))
		}},
		{"hub write", func() {
			if rng.Intn(2) == 0 {
				assertConcept("C", "hub")
			} else {
				o.write(true, func() error { return l.RetractConcept("C", "hub") })
			}
		}},
		{"as many writes as the log holds", func() {
			for i := 0; i < mapping.MaxLoggedWrites; i++ {
				assertConcept("A", inds[i%len(inds)])
			}
		}},
		{"more writes than the log holds", func() {
			for i := 0; i <= mapping.MaxLoggedWrites; i++ {
				assertConcept("B", inds[i%len(inds)])
			}
		}},
		{"context apply", func() {
			ctx := situation.New(pick(inds))
			if rng.Intn(4) > 0 {
				ctx.Add("Ctx", 0.2+0.7*rng.Float64())
			}
			o.write(true, func() error { _, err := ctx.ApplyOwned(l); return err })
		}},
		{"first-seen context apply", func() {
			guests++
			o.write(true, func() error {
				_, err := situation.New(fmt.Sprintf("guest%d", guests)).Certain("Ctx").ApplyOwned(l)
				return err
			})
		}},
		{"clear concept", func() { o.write(false, func() error { return l.ClearConcept(pick([]string{"A", "B"})) }) }},
		{"sql delete", func() { o.exec(fmt.Sprintf("DELETE FROM c_B WHERE id = '%s'", pick(inds))) }},
		{"sql insert", func() { o.exec(fmt.Sprintf("INSERT INTO c_C (id, ev) VALUES ('%s', EV_TRUE())", pick(inds))) }},
		{"sql update", func() { o.exec(fmt.Sprintf("UPDATE r_s SET dst = '%s' WHERE src = '%s'", pick(inds), pick(inds))) }},
		{"loader write, then sql", func() {
			assertConcept("C", pick(inds))
			o.exec(fmt.Sprintf("INSERT INTO c_C (id, ev) VALUES ('%s', EV_TRUE())", pick(inds)))
			assertConcept("C", pick(inds))
		}},
		{"sql after a loader write", func() {
			assertConcept("C", pick(inds))
			o.exec(fmt.Sprintf("INSERT INTO c_C (id, ev) VALUES ('%s', EV_TRUE())", pick(inds)))
		}},
		{"drop and recreate", func() {
			o.write(false, func() error {
				if _, err := o.db.Exec("DROP TABLE c_C"); err != nil {
					return err
				}
				_, err := o.db.Exec("CREATE TABLE c_C (id TEXT, ev EVENT)")
				return err
			})
		}},
		{"redefining ddl", func() {
			o.exec("CREATE TABLE IF NOT EXISTS memo_scratch (k TEXT)")
			o.exec("DROP TABLE memo_scratch")
		}},
		{"unrelated ddl", func() { o.exec(fmt.Sprintf("CREATE TABLE scratch_%d (k TEXT)", rng.Int())) }},
	}

	// Fill the memo: the first look-up of every expression is a query.
	for i := range o.exprs {
		if path := o.lookup("fill", i); path != "query" {
			t.Fatalf("fill: Members(%s) was a %s, want a query", memoExprs[i].text, path)
		}
	}
	if st := l.MembershipStats(); st.Queries != int64(len(o.exprs)) || st.Hits != 0 || st.Patched != 0 || st.Entries != len(o.exprs) {
		t.Fatalf("after the fill: %+v, want %d queries, nothing else", st, len(o.exprs))
	}

	paths := map[string]int{}
	for step := 0; step < 600; step++ {
		s := steps[rng.Intn(len(steps))]
		where := fmt.Sprintf("step %d (%s)", step, s.name)
		o.beginStep()
		before := o.versions()
		redefs := o.db.Redefinitions()
		s.do()
		after := o.versions()
		dropped := o.db.Redefinitions() != redefs

		if step%2 == 1 {
			// Concurrent readers first: whatever mix of hits and racing patches
			// and queries they are, each sees the truth, and nobody writes a
			// handle.
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, e := range o.exprs {
						m, err := l.Members(e)
						if err != nil {
							t.Errorf("%s: Members(%s): %v", where, memoExprs[i].text, err)
							return
						}
						want, err := mapping.ViewQuery(l, e)
						if err != nil {
							t.Errorf("%s: %v", where, err)
							return
						}
						if diff := sameMembers(m, want); diff != "" {
							t.Errorf("%s: concurrent Members(%s): %s", where, memoExprs[i].text, diff)
						}
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			continue
		}
		for i := range o.exprs {
			want := o.want(i, before, after, dropped)
			if got := o.lookup(where, i); got != want {
				t.Fatalf("%s: Members(%s) was a %s, want a %s", where, memoExprs[i].text, got, want)
			}
			paths[s.name+": "+want]++
			if again := o.lookup(where, i); again != "hit" {
				t.Fatalf("%s: Members(%s) looked up again was a %s, want a hit", where, memoExprs[i].text, again)
			}
		}
	}
	// The history must have exercised what it claims to: every kind of step
	// on the path it calls for, on an even step.
	for _, want := range []string{
		"assert concept: patch", "assert concept, first-seen individual: patch", "retract concept: patch",
		"assert role: patch", "duplicate assert role: patch", "burst of loader writes: patch", "hub write: patch",
		"as many writes as the log holds: patch", "more writes than the log holds: query",
		"context apply: patch", "first-seen context apply: patch",
		"clear concept: query", "sql delete: query", "sql insert: query", "sql update: query",
		"loader write, then sql: query", "sql after a loader write: query", "drop and recreate: query", "redefining ddl: query", "unrelated ddl: hit",
	} {
		if paths[want] == 0 {
			t.Errorf("the history never saw %q", want)
		}
	}
	st := l.MembershipStats()
	if st.DroppedByDDL == 0 {
		t.Fatal("the history dropped a concept table and no handle was counted dropped by DDL")
	}
	if st.Entries != len(o.exprs) {
		t.Fatalf("memo holds %d handles for %d expressions", st.Entries, len(o.exprs))
	}
}

// TestPatchedHandleSharesWithItsPredecessor: a patch copies what moved and
// nothing else — a write that reaches an expression without changing any row
// of it leaves Events and IDs the predecessor's own, a changed event copies
// the map and keeps IDs, only a member coming or going rebuilds IDs — and
// ChangedSince names exactly the individuals in between, until the history
// runs out.
func TestPatchedHandleSharesWithItsPredecessor(t *testing.T) {
	o := newMemoOracle(t)
	l := o.l
	expr := dl.MustParse("A AND EXISTS r.B")
	for _, id := range []string{"a", "b", "c"} {
		o.must(l.AssertConcept("A", id, nil))
		o.must(l.AssertRole("r", id, "t", nil))
	}
	o.must(l.AssertConcept("B", "t", o.newEvent(0.5)))
	members := func() *mapping.Membership {
		t.Helper()
		o.lookupExpr("", expr) // exact, whatever path
		m, err := l.Members(expr)
		o.must(err)
		return m
	}
	sameMap := func(a, b *mapping.Membership) bool {
		// Maps are references: writing through one shows in the other. The
		// handles are this test's own, so it may.
		a.Events["probe"] = nil
		_, shared := b.Events["probe"]
		delete(a.Events, "probe")
		return shared
	}
	first := members()

	// r(d, t) reaches d, which is not in A: no row of the expression moves.
	o.must(l.AssertRole("r", "d", "t", nil))
	second := members()
	if second == first || !sameMap(first, second) || &second.IDs[0] != &first.IDs[0] {
		t.Fatal("a patch that moved no row did not share Events and IDs with its predecessor")
	}
	if ids, tracked := second.ChangedSince(first); !tracked || len(ids) != 0 {
		t.Fatalf("ChangedSince across a patch that moved nothing = %v, %v", ids, tracked)
	}

	// a's event changes: a new map, the same ids.
	o.must(l.AssertRole("r", "a", "t2", nil))
	o.must(l.AssertConcept("B", "t2", o.newEvent(0.5)))
	third := members()
	if sameMap(second, third) || &third.IDs[0] != &second.IDs[0] {
		t.Fatal("a patch that changed one event must copy Events and share IDs")
	}
	if third.Events["b"] != second.Events["b"] {
		t.Fatal("an unchanged event was not shared")
	}
	if ids, tracked := third.ChangedSince(first); !tracked || !slices.Equal(ids, []string{"a"}) {
		t.Fatalf("ChangedSince = %v, %v, want [a]", ids, tracked)
	}

	// d joins A: IDs move.
	o.must(l.AssertConcept("A", "d", nil))
	fourth := members()
	if !slices.Equal(fourth.IDs, []string{"a", "b", "c", "d"}) || !slices.Equal(third.IDs, []string{"a", "b", "c"}) {
		t.Fatalf("IDs %v after %v", fourth.IDs, third.IDs)
	}
	ids, tracked := fourth.ChangedSince(first)
	slices.Sort(ids)
	if !tracked || !slices.Equal(ids, []string{"a", "d"}) {
		t.Fatalf("ChangedSince = %v, %v, want [a d]", ids, tracked)
	}
	if _, tracked := first.ChangedSince(fourth); tracked {
		t.Fatal("a predecessor claims to know what changed since its successor")
	}

	// A whole evaluation starts a new lineage.
	if _, err := o.db.Exec("DELETE FROM c_A WHERE id = 'c'"); err != nil {
		t.Fatal(err)
	}
	queried := members()
	if _, tracked := queried.ChangedSince(fourth); tracked {
		t.Fatal("a queried handle claims to descend from the handle before it")
	}

	// One moving patch more than the history holds: the oldest is forgotten.
	last := queried
	for i := 0; i <= mapping.MaxMemberHistory; i++ {
		o.must(l.AssertRole("r", "b", fmt.Sprintf("t%d", 10+i), nil))
		o.must(l.AssertConcept("B", fmt.Sprintf("t%d", 10+i), o.newEvent(0.5)))
		m := members()
		if ids, tracked := m.ChangedSince(last); !tracked || !slices.Equal(ids, []string{"b"}) {
			t.Fatalf("patch %d: ChangedSince(previous) = %v, %v, want [b]", i, ids, tracked)
		}
		last = m
	}
	if _, tracked := last.ChangedSince(queried); tracked {
		t.Fatalf("ChangedSince reaches back over more than %d moving patches", mapping.MaxMemberHistory)
	}
}

// TestPatchGivesWayToAQuery forces the doubts a patch must not survive: a
// role table that lost its dst index cannot lift a filler-side write to the
// sources, so that look-up is a query (a source-side write still patches).
func TestPatchGivesWayToAQuery(t *testing.T) {
	o := newMemoOracle(t)
	l := o.l
	expr := dl.MustParse("EXISTS s.C")
	o.must(l.AssertRole("s", "a", "t", nil))
	// Recreate r_s as SQL would: no indexes. The redefinition empties the memo.
	for _, stmt := range []string{"DROP TABLE r_s", "CREATE TABLE r_s (src TEXT, dst TEXT, ev EVENT)"} {
		if _, err := o.db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	lookup := func(want string) {
		t.Helper()
		if got := o.lookupExpr("", expr); got != want {
			t.Fatalf("the look-up was a %s, want a %s", got, want)
		}
	}
	lookup("query")
	o.must(l.AssertRole("s", "a", "t", nil))
	lookup("patch")
	o.must(l.AssertConcept("C", "t", nil))
	lookup("query")
}

// TestMembershipMemoBounded: a stream of distinct ad-hoc expressions never
// grows the memo past its bound, and an expression pushed out is simply
// queried again.
func TestMembershipMemoBounded(t *testing.T) {
	db := engine.New()
	l := mapping.NewLoader(db)
	if err := l.DeclareConcept("A"); err != nil {
		t.Fatal(err)
	}
	if err := l.AssertConcept("A", "x", nil); err != nil {
		t.Fatal(err)
	}
	const stream = 1500
	for i := 0; i < stream; i++ {
		m, err := l.Members(dl.And(dl.Atom("A"), dl.Nominal("x", fmt.Sprintf("y%d", i))))
		if err != nil {
			t.Fatal(err)
		}
		if len(m.IDs) != 1 || m.IDs[0] != "x" {
			t.Fatalf("expression %d: members %v, want [x]", i, m.IDs)
		}
	}
	st := l.MembershipStats()
	if st.Queries != stream || st.Entries >= stream || st.Entries == 0 {
		t.Fatalf("after %d distinct expressions: %+v, want every one queried and the memo bounded", stream, st)
	}
	bound := st.Entries
	for i := 0; i < 100; i++ {
		if _, err := l.Members(dl.And(dl.Atom("A"), dl.Nominal("x", fmt.Sprintf("z%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.MembershipStats().Entries; got != bound {
		t.Fatalf("memo grew from %d to %d entries past its bound", bound, got)
	}
}

// TestMembersOfTextIndexBounded streams 2 × MaxMemberships distinct target
// texts — most of them new expressions, every fourth one an earlier
// expression spelled differently — with a look-up of an older text and now
// and then a write in between. Every text's handle is the one a fresh
// dl.Parse + Members finds, and neither the memo nor its text index grows
// past the bound. A sample is held against the view query as well.
func TestMembersOfTextIndexBounded(t *testing.T) {
	l := mapping.NewLoader(engine.New())
	for _, err := range []error{l.DeclareConcept("A"), l.DeclareRole("r")} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 50; j++ {
		x := fmt.Sprintf("x%d", j)
		if err := l.AssertConcept("A", x, nil); err != nil {
			t.Fatal(err)
		}
		if err := l.AssertRole("r", x, fmt.Sprintf("y%d", j%10), nil); err != nil {
			t.Fatal(err)
		}
	}
	text := func(i int) string {
		if i%4 == 3 {
			return fmt.Sprintf("exists r.{z%d,y%d} and A", i-1, (i-1)%10)
		}
		return fmt.Sprintf("A AND EXISTS r.{y%d, z%d}", i%10, i)
	}
	lookup := func(i int) {
		t.Helper()
		got, err := l.MembersOf(text(i))
		if err != nil {
			t.Fatalf("MembersOf(%q): %v", text(i), err)
		}
		expr := dl.MustParse(text(i))
		want, err := l.Members(expr)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("MembersOf(%q) is not the handle Members finds for %s", text(i), expr)
		}
		if i%16 == 0 {
			ref, err := mapping.ViewQuery(l, expr)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameMembers(got, ref); diff != "" {
				t.Fatalf("MembersOf(%q): %s", text(i), diff)
			}
		}
	}
	// A text that does not parse is dl.Parse's error, and neither it nor a
	// text over an undeclared concept is remembered.
	if _, err := l.MembersOf("A AND @"); err == nil || err.Error() != `dl: unexpected character '@' in "A AND @"` {
		t.Fatalf("MembersOf of a text that does not parse: %v", err)
	}
	if _, err := l.MembersOf("A AND B"); err == nil {
		t.Fatal("MembersOf over an undeclared concept succeeded")
	}
	if n := l.TextIndexLen(); n != 0 {
		t.Fatalf("failed look-ups indexed %d texts", n)
	}
	const stream = 2 * mapping.MaxMemberships
	for i := 0; i < stream; i++ {
		lookup(i)
		lookup(i / 2)
		if i%97 == 0 {
			x, y := fmt.Sprintf("x%d", i%50), fmt.Sprintf("y%d", i%10)
			if err := l.AssertRole("r", x, y, nil); err != nil {
				t.Fatal(err)
			}
		}
		if n, m := l.TextIndexLen(), l.MembershipStats().Entries; n > mapping.MaxMemberships || m > mapping.MaxMemberships {
			t.Fatalf("after %d texts: %d texts indexed and %d handles memoized, bound %d", i+1, n, m, mapping.MaxMemberships)
		}
	}

	// A redefinition empties the text index with the memo: the next look-up
	// finds one text indexed and one handle.
	for _, stmt := range []string{"CREATE TABLE memo_scratch (k TEXT)", "DROP TABLE memo_scratch"} {
		if _, err := l.DB().Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	lookup(1)
	if n, m := l.TextIndexLen(), l.MembershipStats().Entries; n != 1 || m != 1 {
		t.Fatalf("after a redefinition and one look-up: %d texts indexed and %d handles memoized, want 1 and 1", n, m)
	}
}

// TestMembersOfConcurrent: goroutines looking up, spelling differently and
// pushing out target texts at once (run under -race) each get the members of
// the text they asked for, and the bound holds.
func TestMembersOfConcurrent(t *testing.T) {
	l := mapping.NewLoader(engine.New())
	if err := l.DeclareConcept("A"); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 20; j++ {
		if err := l.AssertConcept("A", fmt.Sprintf("x%d", j), nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2*mapping.MaxMemberships; i++ {
				n := (i*7 + g) % (mapping.MaxMemberships + 64)
				text := fmt.Sprintf("A AND {x%d, y%d}", n%20, n)
				if g%2 == 1 {
					text = fmt.Sprintf("{y%d,x%d} and A", n, n%20)
				}
				got, err := l.MembersOf(text)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got.IDs) != 1 || got.IDs[0] != fmt.Sprintf("x%d", n%20) {
					t.Errorf("MembersOf(%q) = %v", text, got.IDs)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n, m := l.TextIndexLen(), l.MembershipStats().Entries; n > mapping.MaxMemberships || m > mapping.MaxMemberships {
		t.Fatalf("%d texts indexed and %d handles memoized, bound %d", n, m, mapping.MaxMemberships)
	}
}

// TestMembersConcurrentFirstLookupsShareOneHandle: look-ups of a never-seen
// expression released together may each evaluate it, but they all return
// the one handle filed first — a plan compiled over any of them follows the
// memo's lineage (Membership.ChangedSince) — and each counts as one query or
// hit.
func TestMembersConcurrentFirstLookupsShareOneHandle(t *testing.T) {
	l := mapping.NewLoader(engine.New())
	const trials, lookups, individuals = 8, 8, 2000
	for k := 0; k < trials; k++ {
		c := fmt.Sprintf("A%d", k)
		if err := l.DeclareConcept(c); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < individuals; j++ {
			if err := l.AssertConcept(c, fmt.Sprintf("x%d", j), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := 0; k < trials; k++ {
		expr := dl.Atom(fmt.Sprintf("A%d", k))
		before := l.MembershipStats()
		start := make(chan struct{})
		got := make([]*mapping.Membership, lookups)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				m, err := l.Members(expr)
				if err != nil {
					t.Error(err)
				}
				got[g] = m
			}()
		}
		close(start)
		wg.Wait()
		for g, m := range got {
			if m != got[0] {
				t.Fatalf("%s: look-up %d returned handle %p, look-up 0 %p", expr, g, m, got[0])
			}
		}
		if m, err := l.Members(expr); err != nil || m != got[0] {
			t.Fatalf("%s: the memo holds %p, the concurrent look-ups returned %p (%v)", expr, m, got[0], err)
		}
		after := l.MembershipStats()
		if n := (after.Hits - before.Hits) + (after.Queries - before.Queries) + (after.Patched - before.Patched); n != lookups+1 {
			t.Fatalf("%s: %d look-ups counted %d times", expr, lookups+1, n)
		}
	}
}

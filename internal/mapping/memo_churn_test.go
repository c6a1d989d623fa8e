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
	{"A AND B", []string{"c_A", "c_B"}},
	{"C OR Ctx", []string{"c_C", "c_Ctx"}},
	{"NOT A", []string{"c_A", "dl_domain"}},
	{"TOP", []string{"dl_domain"}},
	{"{x1, x3}", []string{"dl_domain"}},
	{"B AND EXISTS s.{x2}", []string{"c_B", "r_s", "dl_domain"}},
}

// freshMembers is the un-memoized reference: the expression's view queried
// directly, duplicate rows of one individual disjoined.
func freshMembers(l *mapping.Loader, expr *dl.Expr) (map[string]*event.Expr, error) {
	view, err := l.ViewFor(expr)
	if err != nil {
		return nil, err
	}
	res, err := l.DB().Query("SELECT id, ev FROM " + view)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*event.Expr, len(res.Rows))
	for _, r := range res.Rows {
		ev := event.False()
		if r[1].T == storage.TypeEvent {
			ev = r[1].Ev
		}
		if old, ok := out[r[0].S]; ok {
			ev = event.Or(old, ev)
		}
		out[r[0].S] = ev
	}
	return out, nil
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

// TestMembershipMemoChurnOracle drives a seeded history of everything that
// can change who is in a concept expression — concept and role asserts,
// retracts, owner-scoped context applies (first-seen individuals included),
// SQL writes to base tables, a concept table dropped and recreated — past a
// fixed set of expressions, one of every operator. After every step each
// Members(expr) must equal an un-memoized query of the same view, and the
// memo must have queried exactly when a table the expression reads was
// written: a hit otherwise. Every other step looks up from several goroutines
// at once first, so -race sees concurrent misses filling the memo and would
// see any holder writing a shared handle.
func TestMembershipMemoChurnOracle(t *testing.T) {
	db := engine.New()
	l := mapping.NewLoader(db, nil)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []string{"A", "B", "C", "Ctx"} {
		must(l.DeclareConcept(c))
	}
	for _, r := range []string{"r", "s"} {
		must(l.DeclareRole(r))
	}
	exprs := make([]*dl.Expr, len(memoExprs))
	tables := map[string]bool{}
	for i, me := range memoExprs {
		exprs[i] = dl.MustParse(me.text)
		for _, tab := range me.reads {
			tables[tab] = true
		}
	}

	rng := rand.New(rand.NewSource(21))
	inds := []string{"x0", "x1", "x2", "x3", "x4", "x5"}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	evSeq := 0
	newEv := func() *event.Expr {
		if rng.Intn(2) == 0 {
			return nil // certain
		}
		evSeq++
		name := fmt.Sprintf("memo_e%d", evSeq)
		must(db.Space().Declare(name, 0.1+0.8*rng.Float64()))
		return event.Basic(name)
	}
	exec := func(stmt string) {
		t.Helper()
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	guests := 0
	steps := []struct {
		name string
		do   func()
	}{
		{"assert concept", func() { must(l.AssertConcept(pick([]string{"A", "B", "C"}), pick(inds), newEv())) }},
		{"retract concept", func() { must(l.RetractConcept(pick([]string{"A", "B", "C"}), pick(inds))) }},
		{"assert role", func() { must(l.AssertRole(pick([]string{"r", "s"}), pick(inds), pick(inds), newEv())) }},
		{"context apply", func() {
			ctx := situation.New(pick(inds))
			if rng.Intn(4) > 0 {
				ctx.Add("Ctx", 0.2+0.7*rng.Float64())
			}
			_, err := ctx.ApplyOwned(l)
			must(err)
		}},
		{"first-seen context apply", func() {
			guests++
			_, err := situation.New(fmt.Sprintf("guest%d", guests)).Certain("Ctx").ApplyOwned(l)
			must(err)
		}},
		{"sql delete", func() { exec(fmt.Sprintf("DELETE FROM c_B WHERE id = '%s'", pick(inds))) }},
		{"sql insert", func() { exec(fmt.Sprintf("INSERT INTO c_C (id, ev) VALUES ('%s', EV_TRUE())", pick(inds))) }},
		{"sql update", func() { exec(fmt.Sprintf("UPDATE r_s SET dst = '%s' WHERE src = '%s'", pick(inds), pick(inds))) }},
		{"drop and recreate", func() {
			exec("DROP TABLE c_C")
			exec("CREATE TABLE c_C (id TEXT, ev EVENT)")
		}},
		{"unrelated ddl", func() { exec(fmt.Sprintf("CREATE TABLE scratch_%d (k TEXT)", rng.Int())) }},
	}

	// versions reads the (identity, version) of every table an expression
	// reads: what a step wrote is what differs afterwards.
	type tabVersion struct {
		tab     *storage.Table
		version uint64
	}
	versions := func() map[string]tabVersion {
		out := make(map[string]tabVersion, len(tables))
		for name := range tables {
			tab, err := db.Catalog().Get(name)
			must(err)
			out[name] = tabVersion{tab, tab.Version()}
		}
		return out
	}

	check := func(step int, name string, i int, m *mapping.Membership) {
		t.Helper()
		want, err := freshMembers(l, exprs[i])
		must(err)
		if diff := sameMembers(m, want); diff != "" {
			t.Fatalf("step %d (%s): Members(%s): %s", step, name, memoExprs[i].text, diff)
		}
		if !m.Current() {
			t.Fatalf("step %d (%s): Members(%s) returned a handle that is not current", step, name, memoExprs[i].text)
		}
	}

	// Fill the memo: the first look-up of every expression is a query.
	for i, e := range exprs {
		m, err := l.Members(e)
		must(err)
		check(-1, "fill", i, m)
	}
	if st := l.MembershipStats(); st.Queries != int64(len(exprs)) || st.Hits != 0 || st.Entries != len(exprs) {
		t.Fatalf("after the fill: %+v, want %d queries, no hits", st, len(exprs))
	}

	for step := 0; step < 240; step++ {
		s := steps[rng.Intn(len(steps))]
		before := versions()
		redefs := db.Redefinitions()
		s.do()
		after := versions()
		dropped := db.Redefinitions() != redefs

		if step%2 == 1 {
			// Concurrent readers first: whatever mix of hits and racing misses
			// they are, each sees the truth, and nobody writes a handle.
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, e := range exprs {
						m, err := l.Members(e)
						if err != nil {
							t.Errorf("step %d (%s): Members(%s): %v", step, s.name, memoExprs[i].text, err)
							return
						}
						want, err := freshMembers(l, e)
						if err != nil {
							t.Errorf("step %d (%s): %v", step, s.name, err)
							return
						}
						if diff := sameMembers(m, want); diff != "" {
							t.Errorf("step %d (%s): concurrent Members(%s): %s", step, s.name, memoExprs[i].text, diff)
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
		for i, e := range exprs {
			written := dropped
			for _, tab := range memoExprs[i].reads {
				if before[tab] != after[tab] {
					written = true
				}
			}
			st := l.MembershipStats()
			m, err := l.Members(e)
			must(err)
			check(step, s.name, i, m)
			got := l.MembershipStats()
			hit, query := got.Hits-st.Hits, got.Queries-st.Queries
			if written && (hit != 0 || query != 1) {
				t.Fatalf("step %d (%s): Members(%s) after its read set was written: %d hits, %d queries, want a query",
					step, s.name, memoExprs[i].text, hit, query)
			}
			if !written && (hit != 1 || query != 0) {
				t.Fatalf("step %d (%s): Members(%s) with its read set untouched: %d hits, %d queries, want a hit",
					step, s.name, memoExprs[i].text, hit, query)
			}
		}
	}
	st := l.MembershipStats()
	if st.DroppedByDDL == 0 {
		t.Fatal("the history dropped a concept table and no handle was counted dropped by DDL")
	}
	if st.Entries != len(exprs) {
		t.Fatalf("memo holds %d handles for %d expressions", st.Entries, len(exprs))
	}
}

// TestMembershipMemoBounded: a stream of distinct ad-hoc expressions never
// grows the memo past its bound, and an expression pushed out is simply
// queried again.
func TestMembershipMemoBounded(t *testing.T) {
	db := engine.New()
	l := mapping.NewLoader(db, nil)
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

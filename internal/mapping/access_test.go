package mapping_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/mapping"
	"repro/internal/situation"
	"repro/internal/storage"
	"repro/internal/workload"
)

// benchPreference is the preference of bench rule 0 on the paper-scale
// dataset: TvProgram ⊓ ∃hasGenre.{g}.
func benchPreference(tb testing.TB) (*mapping.Loader, *dl.Expr) {
	tb.Helper()
	d, err := workload.Generate(workload.DefaultSpec())
	if err != nil {
		tb.Fatal(err)
	}
	rules, err := d.Rules(1)
	if err != nil {
		tb.Fatal(err)
	}
	return d.Loader, rules[0].Preference
}

// rowsRead runs fn and returns how many base-table rows the executor read
// meanwhile.
func rowsRead(l *mapping.Loader, fn func()) int64 {
	before := l.DB().RowsRead()
	fn()
	return l.DB().RowsRead() - before
}

// BenchmarkMembersQuery evaluates the bench preference over every individual
// on the paper-scale dataset with the memo bypassed: each iteration writes the
// role table through SQL first, which the loader's write log does not see —
// what a vocabulary write through /v1/exec costs every expression that reads
// the table, and what every vocabulary write cost before handles were patched.
func BenchmarkMembersQuery(b *testing.B) {
	benchMembersAfterWrite(b, func(l *mapping.Loader) error {
		_, err := l.DB().Exec("UPDATE r_hasGenre SET dst = 'genre00' WHERE src = 'tv000' AND dst = 'genre00'")
		return err
	}, func(st mapping.MembershipStats) int64 { return st.Queries })
}

// BenchmarkMembersPatch is the same look-up after the same tuple written
// through the loader: the stale handle is patched by evaluating the one
// program the write touched. CI holds it to a third of BenchmarkMembersQuery
// (a ratio row of internal/ci/benchcheck/gates.json).
func BenchmarkMembersPatch(b *testing.B) {
	benchMembersAfterWrite(b, func(l *mapping.Loader) error {
		return l.AssertRole("hasGenre", "tv000", "genre00", nil)
	}, func(st mapping.MembershipStats) int64 { return st.Patched })
}

// benchMembersAfterWrite times Members(bench preference) after write, which
// runs off the clock before every iteration, and checks that every look-up
// took the path counted by path.
func benchMembersAfterWrite(b *testing.B, write func(*mapping.Loader) error, path func(mapping.MembershipStats) int64) {
	l, pref := benchPreference(b)
	if err := l.AssertRole("hasGenre", "tv000", "genre00", nil); err != nil {
		b.Fatal(err)
	}
	if _, err := l.Members(pref); err != nil {
		b.Fatal(err)
	}
	before := path(l.MembershipStats())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := write(l); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := l.Members(pref); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := path(l.MembershipStats()) - before; got != int64(b.N) {
		b.Fatalf("%d look-ups took the benchmarked path in %d iterations", got, b.N)
	}
}

// BenchmarkMembershipEvent is the per-rule context look-up of every plan
// compile — one user's event in a context concept that holds a
// row per live session, read through the concept table's id index. It must
// not grow with the sessions (CI: rows=4096 within 2x rows=64, and an
// allocation cap). shape=exists is a compound context, ∃watchesWith.Ctx: the
// user's tuples through the role's src index, then the concept's id index.
func BenchmarkMembershipEvent(b *testing.B) {
	for _, bench := range []struct {
		name   string
		rows   int
		exists bool
	}{{"rows=64", 64, false}, {"rows=4096", 4096, false}, {"shape=exists", 64, true}} {
		b.Run(bench.name, func(b *testing.B) {
			l := mapping.NewLoader(engine.New())
			if err := l.DeclareConcept("Ctx"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < bench.rows; i++ {
				if err := l.AssertConcept("Ctx", fmt.Sprintf("user%05d", i), event.True()); err != nil {
					b.Fatal(err)
				}
			}
			ctx, user := dl.Atom("Ctx"), fmt.Sprintf("user%05d", bench.rows/2)
			if bench.exists {
				if err := l.DeclareRole("watchesWith"); err != nil {
					b.Fatal(err)
				}
				if err := l.AssertRole("watchesWith", "viewer", user, nil); err != nil {
					b.Fatal(err)
				}
				ctx, user = dl.Exists("watchesWith", ctx), "viewer"
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.MembershipEvent(ctx, user); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMembershipEventReadsTheIndex: an atomic concept's look-up reads the
// concept table's id index — at most three allocations — and answers exactly
// what the view query answers, expression for expression and error for error:
// for an absent individual, one row, several rows of one individual written by
// SQL (disjoined in index order), deleted rows, a NULL event and an
// undeclared concept. A compound context, and a concept table restored
// without its id index (scanned), answer what the view query answers too. No
// look-up reads a row through the SQL executor.
func TestMembershipEventReadsTheIndex(t *testing.T) {
	db := engine.New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	exec := func(stmt string) {
		t.Helper()
		_, err := db.Exec(stmt)
		must(err)
	}
	// c_Bare is a concept table the way an image without an indexes entry
	// restores it: declared in dl_vocab, no index on id.
	mapping.NewLoader(db)
	exec("CREATE TABLE c_Bare (id TEXT, ev EVENT)")
	must(db.InsertRow("dl_vocab", "concept", "Bare"))
	l := mapping.NewLoader(db)
	must(l.DeclareConcept("Ctx"))
	must(l.DeclareRole("watchesWith"))
	for i, p := range []float64{0.3, 0.5, 0.7} {
		must(db.Space().Declare(fmt.Sprintf("e%d", i), p))
	}
	must(l.AssertConcept("Ctx", "one", event.Basic("e0")))
	for _, ev := range []string{"EV_BASIC('e1')", "EV_TRUE()", "EV_AND(EV_BASIC('e2'), EV_BASIC('e0'))", "EV_BASIC('e1')"} {
		exec("INSERT INTO c_Ctx (id, ev) VALUES ('many', " + ev + ")")
	}
	exec("INSERT INTO c_Ctx (id, ev) VALUES ('many', EV_BASIC('e2'))")
	exec("DELETE FROM c_Ctx WHERE id = 'many' AND ev = EV_TRUE()")
	must(l.AssertConcept("Ctx", "gone", event.Basic("e1")))
	must(l.RetractConcept("Ctx", "gone"))
	must(l.AssertConcept("Ctx", "back", event.Basic("e1")))
	must(l.RetractConcept("Ctx", "back"))
	must(l.AssertConcept("Ctx", "back", event.Basic("e2")))
	exec("INSERT INTO c_Ctx (id, ev) VALUES ('null', NULL)")
	exec("INSERT INTO c_Ctx (id, ev) VALUES ('half', NULL)")
	exec("INSERT INTO c_Ctx (id, ev) VALUES ('half', EV_BASIC('e1'))")
	must(l.AssertConcept("Bare", "one", event.Basic("e2")))
	must(l.AssertRole("watchesWith", "viewer", "many", nil))

	ctx, bare := dl.Atom("Ctx"), dl.Atom("Bare")
	for _, c := range []struct {
		expr *dl.Expr
		id   string
	}{
		{ctx, "nobody"},
		{ctx, "one"},
		{ctx, "many"},
		{ctx, "gone"},
		{ctx, "back"},
		{ctx, "null"},
		{ctx, "half"},
		{dl.Atom("Undeclared"), "one"},
		{dl.Exists("watchesWith", ctx), "viewer"},
		{bare, "one"},
		{bare, "nobody"},
	} {
		var got *event.Expr
		var err error
		read := rowsRead(l, func() { got, err = l.MembershipEvent(c.expr, c.id) })
		want, wantErr := mapping.ViewEvent(l, c.expr, c.id)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && got.String() != want.String()) {
			t.Fatalf("MembershipEvent(%s, %s) = %v, %v; the view query says %v, %v", c.expr, c.id, got, err, want, wantErr)
		}
		if read != 0 {
			t.Errorf("MembershipEvent(%s, %s) read %d rows through the executor, want none", c.expr, c.id, read)
		}
	}
	if got, _ := l.MembershipEvent(ctx, "many"); got.String() != "e1 ∨ (e2 ∧ e0) ∨ e2" {
		t.Errorf("many's rows disjoin to %s, want the index order of their inserts", got)
	}
	for _, id := range []string{"one", "nobody"} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := l.MembershipEvent(ctx, id); err != nil {
				t.Fatal(err)
			}
		}); n > 3 {
			t.Errorf("an atomic look-up of %s makes %.0f allocations, want at most 3", id, n)
		}
	}
}

// TestMembersHitAllocatesNothing: every plan compile looks up each rule's
// preference, so a memo hit on a current compound expression must cost a map
// look-up and the handle's version checks — not a rendering of its key.
func TestMembersHitAllocatesNothing(t *testing.T) {
	l := mapping.NewLoader(engine.New())
	if err := l.DeclareRole("hasGenre"); err != nil {
		t.Fatal(err)
	}
	if err := l.AssertRole("hasGenre", "tv0", "g0", nil); err != nil {
		t.Fatal(err)
	}
	pref := dl.Exists("hasGenre", dl.Nominal("g0"))
	first, err := l.Members(pref)
	if err != nil {
		t.Fatal(err)
	}
	before := l.MembershipStats().Hits
	n := testing.AllocsPerRun(100, func() {
		if m, err := l.Members(pref); err != nil || m != first {
			t.Fatalf("look-up of %s = %p, %v; want the memoized handle %p", pref, m, err, first)
		}
	})
	if n != 0 {
		t.Errorf("a memo hit on %s makes %.0f allocations, want none", pref, n)
	}
	if hits := l.MembershipStats().Hits - before; hits != 101 {
		t.Errorf("%d memo hits in 101 look-ups", hits)
	}
}

// TestMembershipEventMatchesMembers: the point look-up — eval over one
// individual — says what the whole evaluation says, for one
// expression of every operator and every individual (one that is nowhere
// included), before and after asserts, retracts and owner-scoped context
// applies. An individual the view does not list has the impossible event.
func TestMembershipEventMatchesMembers(t *testing.T) {
	db := engine.New()
	l := mapping.NewLoader(db)
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
	rng := rand.New(rand.NewSource(22))
	inds := []string{"x0", "x1", "x2", "x3", "x4", "x5"}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	evSeq := 0
	newEv := func() *event.Expr {
		if rng.Intn(2) == 0 {
			return nil // certain
		}
		evSeq++
		name := fmt.Sprintf("pt_e%d", evSeq)
		must(db.Space().Declare(name, 0.1+0.8*rng.Float64()))
		return event.Basic(name)
	}
	steps := []func(){
		func() { must(l.AssertConcept(pick([]string{"A", "B", "C"}), pick(inds), newEv())) },
		func() { must(l.RetractConcept(pick([]string{"A", "B", "C"}), pick(inds))) },
		func() { must(l.AssertRole(pick([]string{"r", "s"}), pick(inds), pick(inds), newEv())) },
		func() {
			ctx := situation.New(pick(inds))
			if rng.Intn(4) > 0 {
				ctx.Add("Ctx", 0.2+0.7*rng.Float64())
			}
			_, err := ctx.ApplyOwned(l)
			must(err)
		},
	}
	check := func(step int) {
		t.Helper()
		for _, me := range memoExprs {
			expr := dl.MustParse(me.text)
			members, err := l.Members(expr)
			must(err)
			for _, id := range append([]string{"nobody"}, inds...) {
				got, err := l.MembershipEvent(expr, id)
				must(err)
				want, ok := members.Events[id]
				if !ok {
					want = event.False()
				}
				if !event.Equal(got, want) {
					t.Fatalf("step %d: MembershipEvent(%s, %s) = %s, the view says %s", step, me.text, id, got, want)
				}
			}
		}
	}
	check(-1)
	for step := 0; step < 150; step++ {
		steps[rng.Intn(len(steps))]()
		check(step)
	}
}

// A duplicate AssertRole replaces the pair's tuple through the src index: its
// cost is that source's tuples, not the role's. Counted in allocations, which
// the heap scan's index rebuild made proportional to the table.
func TestDuplicateAssertRoleCostsItsSourceNotTheRole(t *testing.T) {
	allocs := func(tuples int) float64 {
		l := mapping.NewLoader(engine.New())
		if err := l.DeclareRole("r"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tuples; i++ {
			if err := l.AssertRole("r", fmt.Sprintf("s%05d", i), fmt.Sprintf("d%03d", i%100), nil); err != nil {
				t.Fatal(err)
			}
		}
		tab, err := l.DB().Catalog().Get(mapping.RoleTable("r"))
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(50, func() {
			if err := l.AssertRole("r", "s00007", "d007", nil); err != nil {
				t.Fatal(err)
			}
		})
		if tab.Len() != tuples {
			t.Fatalf("%d tuples after re-asserting one of %d", tab.Len(), tuples)
		}
		rows := 0
		err = tab.ScanKey("dst", storage.Text("d007"), func(storage.Row) error { rows++; return nil })
		if err != nil || rows != tuples/100 {
			t.Fatalf("dst index lists %d tuples for d007 (%v), want %d", rows, err, tuples/100)
		}
		return n
	}
	small, large := allocs(200), allocs(6400)
	if large > 2*small+8 {
		t.Errorf("a duplicate AssertRole allocates %.0f times at 200 tuples and %.0f at 6400: it scales with the role", small, large)
	}
}

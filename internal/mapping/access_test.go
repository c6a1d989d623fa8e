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
// meanwhile, by scan and through an index.
func rowsRead(l *mapping.Loader, fn func()) (scan, index int64) {
	s0, i0 := l.DB().RowsRead()
	fn()
	s1, i1 := l.DB().RowsRead()
	return s1 - s0, i1 - i0
}

// Plan shape by count, not by clock: a point look-up reads the individual's
// rows through the id index, and the bench preference view walks the indexes
// from the one genre outwards instead of scanning the domain, the role and
// the programs (2 215 rows before the executor used them).
func TestQueriesReadThroughIndexes(t *testing.T) {
	l, pref := benchPreference(t)

	scan, index := rowsRead(l, func() {
		res, err := l.DB().Query("SELECT ev FROM c_TvProgram WHERE id = 'tv007'")
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("point query: %d rows, err %v", len(res.Rows), err)
		}
	})
	if scan != 0 || index != 1 {
		t.Errorf("point query read %d rows by scan and %d by index, want 0 and 1", scan, index)
	}

	var members *mapping.Membership
	scan, index = rowsRead(l, func() {
		var err error
		if members, err = l.Members(pref); err != nil {
			t.Fatal(err)
		}
	})
	if len(members.IDs) == 0 {
		t.Fatal("the bench preference has no members")
	}
	if scan != 0 || index >= 200 {
		t.Errorf("preference view read %d rows by scan and %d by index for %d members, want 0 and < 200",
			scan, index, len(members.IDs))
	}

	scan, index = rowsRead(l, func() {
		if _, err := l.MembershipEvent(pref, members.IDs[0]); err != nil {
			t.Fatal(err)
		}
	})
	if scan != 0 || index > 8 {
		t.Errorf("membership event read %d rows by scan and %d by index, want 0 and a handful", scan, index)
	}
}

// BenchmarkMembersQuery evaluates the bench preference view on the paper-scale
// dataset with the memo bypassed: each iteration writes the role table through
// SQL first, which the loader's write log does not see — what a vocabulary
// write through /v1/exec costs every view that reads the table, and what every
// vocabulary write cost before handles were patched.
func BenchmarkMembersQuery(b *testing.B) {
	benchMembersAfterWrite(b, func(l *mapping.Loader) error {
		_, err := l.DB().Exec("UPDATE r_hasGenre SET dst = 'genre00' WHERE src = 'tv000' AND dst = 'genre00'")
		return err
	}, func(st mapping.MembershipStats) int64 { return st.Queries })
}

// BenchmarkMembersPatch is the same look-up after the same tuple written
// through the loader: the stale handle is patched by re-reading the one
// program the write touched. CI holds it to a third of BenchmarkMembersQuery.
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
// compile and refresh — one user's event in a context concept that holds a
// row per live session. It must not grow with the sessions.
func BenchmarkMembershipEvent(b *testing.B) {
	for _, rows := range []int{64, 4096} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			l := mapping.NewLoader(engine.New(), nil)
			if err := l.DeclareConcept("Ctx"); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < rows; i++ {
				if err := l.AssertConcept("Ctx", fmt.Sprintf("user%05d", i), event.True()); err != nil {
					b.Fatal(err)
				}
			}
			ctx, user := dl.Atom("Ctx"), fmt.Sprintf("user%05d", rows/2)
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

// TestMembershipEventMatchesMembers: the point look-up — answered through the
// id indexes under the view — says what the whole view says, for one
// expression of every operator and every individual (one that is nowhere
// included), before and after asserts, retracts and owner-scoped context
// applies. An individual the view does not list has the impossible event.
func TestMembershipEventMatchesMembers(t *testing.T) {
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
		l := mapping.NewLoader(engine.New(), nil)
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
		rows, err := tab.Lookup("dst", storage.Text("d007"))
		if err != nil || len(rows) != tuples/100 {
			t.Fatalf("dst index lists %d tuples for d007 (%v), want %d", len(rows), err, tuples/100)
		}
		return n
	}
	small, large := allocs(200), allocs(6400)
	if large > 2*small+8 {
		t.Errorf("a duplicate AssertRole allocates %.0f times at 200 tuples and %.0f at 6400: it scales with the role", small, large)
	}
}

package mapping

import (
	"fmt"
	"testing"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/storage"
)

// evalInds are the individuals the fuzzed states speak of; "ghost" is never
// registered, so every scope also asks about an individual nobody asserted.
var evalInds = []string{"x0", "x1", "x2", "x3", "x4", "ghost"}

// fuzzBytes hands out an input's bytes, zeros once it is spent.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// decodeExpr reads a concept expression: one byte a node, the low three bits
// the construct, the rest its concept, role or individuals.
func decodeExpr(b *fuzzBytes, depth int) *dl.Expr {
	c := b.next()
	op, arg := c%8, int(c>>3)
	if depth == 0 {
		op %= 4
	}
	switch op {
	case 0:
		return dl.Atom([]string{"A", "B", "C"}[arg%3])
	case 1:
		return dl.Nominal(evalInds[arg%6], evalInds[(arg/6)%6])
	case 2:
		return dl.Top()
	case 3:
		return dl.Bottom()
	case 4:
		return dl.And(decodeExpr(b, depth-1), decodeExpr(b, depth-1))
	case 5:
		return dl.Or(decodeExpr(b, depth-1), decodeExpr(b, depth-1))
	case 6:
		return dl.Not(decodeExpr(b, depth-1))
	}
	return dl.Exists([]string{"r", "s"}[arg&1], decodeExpr(b, depth-1))
}

// sqlEvent is an EVENT literal for a SQL write: certain, NULL or one of the
// declared basic events.
func sqlEvent(c byte) string {
	switch c % 4 {
	case 0:
		return "EV_TRUE()"
	case 1:
		return "NULL"
	}
	return fmt.Sprintf("EV_BASIC('e%d')", c%3)
}

// FuzzMembershipEval holds the evaluator to the view query (ViewQuery), event
// for event, over every construct — roles may cycle — and over table states
// that mix loader asserts and retracts with what only SQL can write: a second
// row for an individual, a NULL event, a NULL id, a duplicate domain row and
// deleted rows. The first input is the expression; the second, three bytes an
// op, builds the state and, between writes, looks the expression up through
// the memo, so the loader's writes pile up under a handle that is then
// patched. At the end eval is checked in all three scopes: every individual,
// a subset of them, and each one alone (MembershipEvent).
func FuzzMembershipEval(f *testing.F) {
	// ∃r.(A ⊓ ¬B) over a two-cycle and a self-loop of r, B with two rows for x1.
	f.Add([]byte{7, 4, 0, 6, 8}, []byte{2, 0, 0x83, 2, 2, 0x80, 2, 0, 0x81, 0, 0, 1, 0, 1, 0x82, 3, 1, 1})
	// ¬A over an individual with two rows of A, one of them NULL.
	f.Add([]byte{6, 0}, []byte{0, 0, 0x80, 3, 0, 1, 7, 0, 0, 3, 0, 2})
	// ⊤ ⊔ {x1, ghost} with a duplicate domain row and a NULL id.
	f.Add([]byte{5, 2, 1 | 31<<3}, []byte{0, 1, 2, 6, 0, 2, 6, 1, 0, 5, 5, 2})
	// (∃s.∃r.C) ⊓ (A ⊔ B) with SQL role rows and a deleted source.
	f.Add([]byte{4, 15, 7, 16, 5, 0, 8}, []byte{2, 1, 0x81, 4, 3, 1, 0, 2, 0x82, 7, 0, 0, 4, 4, 2, 5, 3, 0, 0, 1, 0x80})
	// A ⊓ ∃r.{x1, x2}: the nominal read first, r through its dst index, with a
	// NULL destination, a SQL-written second row of A and a patched handle.
	f.Add([]byte{4, 0, 7, 1 | 13<<3}, []byte{2, 0, 0x81, 2, 6, 0x82, 7, 0, 0, 2, 2, 1, 4, 0x40, 0, 0, 0, 0x80, 0, 0, 3, 3, 0, 0, 7, 0, 0, 1, 0, 3})
	f.Fuzz(func(t *testing.T, exprIn, ops []byte) {
		if len(ops) > 3*60 {
			ops = ops[:3*60]
		}
		in := fuzzBytes(exprIn)
		expr := decodeExpr(&in, 4)
		db := engine.New()
		l := NewLoader(db)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []string{"A", "B", "C"} {
			must(l.DeclareConcept(c))
		}
		for _, r := range []string{"r", "s"} {
			must(l.DeclareRole(r))
		}
		for i, p := range []float64{0.5, 0.3, 0.8} {
			must(db.Space().Declare(fmt.Sprintf("e%d", i), p))
		}
		ev := func(c byte) *event.Expr {
			if c&0x80 == 0 {
				return nil
			}
			return event.Basic(fmt.Sprintf("e%d", c%3))
		}
		exec := func(stmt string) {
			t.Helper()
			_, err := db.Exec(stmt)
			must(err)
		}
		check := func(where string, got map[string]*event.Expr, only ...string) {
			t.Helper()
			want, err := ViewQuery(l, expr, only...)
			must(err)
			if len(got) != len(want) {
				t.Fatalf("%s: %s holds %d individuals, the view query %d", where, expr, len(got), len(want))
			}
			for id, w := range want {
				if g, ok := got[id]; !ok || !event.Equal(g, w) {
					t.Fatalf("%s: %s ∋ %s under %v, the view query says %s", where, expr, id, g, w)
				}
			}
		}

		for n := 0; n+2 < len(ops); n += 3 {
			kind, a, b := ops[n]%8, ops[n+1], ops[n+2]
			concept, ind := []string{"A", "B", "C"}[a%3], evalInds[b%5]
			switch kind {
			case 0:
				must(l.AssertConcept(concept, ind, ev(b)))
			case 1:
				must(l.RetractConcept(concept, ind))
			case 2:
				must(l.AssertRole([]string{"r", "s"}[a&1], evalInds[(a>>1)%5], ind, ev(b)))
			case 3:
				exec(fmt.Sprintf("INSERT INTO c_%s VALUES ('%s', %s)", concept, ind, sqlEvent(a>>2)))
			case 4:
				dst := "'" + ind + "'"
				if a&0x40 != 0 {
					dst = "NULL"
				}
				exec(fmt.Sprintf("INSERT INTO r_%s VALUES ('%s', %s, %s)", []string{"r", "s"}[a&1], evalInds[(a>>1)%5], dst, sqlEvent(b>>4)))
			case 5:
				table, col := []string{"c_A", "c_B", "c_C", "r_r", "r_s", "dl_domain"}[a%6], "id"
				if a%6 == 3 || a%6 == 4 {
					col = []string{"src", "dst"}[(a>>3)&1]
				}
				exec(fmt.Sprintf("DELETE FROM %s WHERE %s = '%s'", table, col, ind))
			case 6:
				if a&1 == 0 {
					exec(fmt.Sprintf("INSERT INTO dl_domain VALUES ('%s', EV_TRUE())", ind))
				} else {
					exec(fmt.Sprintf("INSERT INTO c_%s VALUES (NULL, %s)", concept, sqlEvent(b)))
				}
			case 7:
				m, err := l.Members(expr)
				must(err)
				check(fmt.Sprintf("Members after op %d", n/3), m.Events)
			}
		}

		m, err := l.Members(expr)
		must(err)
		check("Members", m.Events)
		all, err := l.evalEvents(expr, nil)
		must(err)
		check("eval over everyone", all)

		var only []string
		var scope []storage.Value
		for i, id := range evalInds {
			if len(exprIn) == 0 || exprIn[0]>>(i+2)&1 == 0 || len(only) == 0 && i == len(evalInds)-1 {
				only = append(only, id)
				scope = append(scope, storage.Text(id))
			}
		}
		some, err := l.evalEvents(expr, scope)
		must(err)
		check(fmt.Sprintf("eval over %v", only), some, only...)

		for _, id := range evalInds {
			got, err := l.MembershipEvent(expr, id)
			must(err)
			want, err := ViewEvent(l, expr, id)
			must(err)
			if !event.Equal(got, want) {
				t.Fatalf("MembershipEvent(%s, %s) = %s, the view query says %s", expr, id, got, want)
			}
		}
	})
}

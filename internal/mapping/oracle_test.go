package mapping

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
)

// oracleABox is an in-memory ABox mirror used as an independent semantics
// oracle: membership events are computed directly over Go maps, bypassing
// the SQL view compilation entirely. Agreement between the two paths
// cross-validates mapping + sql + storage + event at once.
type oracleABox struct {
	individuals []string
	concepts    map[string]map[string]*event.Expr            // concept -> id -> ev
	roles       map[string]map[string]map[string]*event.Expr // role -> src -> dst -> ev
}

func (o *oracleABox) membership(e *dl.Expr, id string) *event.Expr {
	switch e.Op() {
	case dl.OpTop:
		return event.True()
	case dl.OpBottom:
		return event.False()
	case dl.OpAtom:
		if ev, ok := o.concepts[e.Name()][id]; ok {
			return ev
		}
		return event.False()
	case dl.OpNominal:
		for _, ind := range e.Individuals() {
			if ind == id {
				return event.True()
			}
		}
		return event.False()
	case dl.OpAnd:
		evs := make([]*event.Expr, 0, len(e.Args()))
		for _, a := range e.Args() {
			evs = append(evs, o.membership(a, id))
		}
		return event.And(evs...)
	case dl.OpOr:
		evs := make([]*event.Expr, 0, len(e.Args()))
		for _, a := range e.Args() {
			evs = append(evs, o.membership(a, id))
		}
		return event.Or(evs...)
	case dl.OpNot:
		return event.Not(o.membership(e.Args()[0], id))
	case dl.OpExists:
		var alts []*event.Expr
		for dst, ev := range o.roles[e.Name()][id] {
			alts = append(alts, event.And(ev, o.membership(e.Filler(), dst)))
		}
		return event.Or(alts...)
	}
	return event.False()
}

// randOracleExpr builds a random concept expression over the vocabulary.
func randOracleExpr(r *rand.Rand, concepts, roles, inds []string, depth int) *dl.Expr {
	if depth == 0 {
		switch r.Intn(3) {
		case 0:
			return dl.Atom(concepts[r.Intn(len(concepts))])
		case 1:
			return dl.Nominal(inds[r.Intn(len(inds))])
		default:
			return dl.Top()
		}
	}
	switch r.Intn(6) {
	case 0:
		return dl.And(randOracleExpr(r, concepts, roles, inds, depth-1),
			randOracleExpr(r, concepts, roles, inds, depth-1))
	case 1:
		return dl.Or(randOracleExpr(r, concepts, roles, inds, depth-1),
			randOracleExpr(r, concepts, roles, inds, depth-1))
	case 2:
		return dl.Not(randOracleExpr(r, concepts, roles, inds, depth-1))
	case 3, 4:
		return dl.Exists(roles[r.Intn(len(roles))],
			randOracleExpr(r, concepts, roles, inds, depth-1))
	default:
		return dl.Atom(concepts[r.Intn(len(concepts))])
	}
}

// TestViewSemanticsMatchOracle generates random uncertain ABoxes and random
// concept expressions and checks per-individual membership probabilities
// computed through compiled SQL views against the in-memory oracle.
func TestViewSemanticsMatchOracle(t *testing.T) {
	conceptNames := []string{"A", "B", "C"}
	roleNames := []string{"r", "s"}
	for trial := 0; trial < 12; trial++ {
		r := rand.New(rand.NewSource(int64(trial) + 100))
		db := engine.New()
		l := NewLoader(db)
		oracle := &oracleABox{
			concepts: make(map[string]map[string]*event.Expr),
			roles:    make(map[string]map[string]map[string]*event.Expr),
		}
		for _, c := range conceptNames {
			if err := l.DeclareConcept(c); err != nil {
				t.Fatal(err)
			}
			oracle.concepts[c] = make(map[string]*event.Expr)
		}
		for _, ro := range roleNames {
			if err := l.DeclareRole(ro); err != nil {
				t.Fatal(err)
			}
			oracle.roles[ro] = make(map[string]map[string]*event.Expr)
		}
		nInds := 5
		inds := make([]string, nInds)
		for i := range inds {
			inds[i] = fmt.Sprintf("x%d", i)
		}
		oracle.individuals = inds

		evSeq := 0
		newEv := func() *event.Expr {
			if r.Intn(2) == 0 {
				return event.True()
			}
			evSeq++
			name := fmt.Sprintf("t%d_e%d", trial, evSeq)
			if err := db.Space().Declare(name, 0.1+0.8*r.Float64()); err != nil {
				t.Fatal(err)
			}
			return event.Basic(name)
		}

		// Random concept assertions.
		for _, c := range conceptNames {
			for _, id := range inds {
				if r.Intn(2) == 0 {
					ev := newEv()
					if err := l.AssertConcept(c, id, ev); err != nil {
						t.Fatal(err)
					}
					oracle.concepts[c][id] = ev
				}
			}
		}
		// Random role assertions.
		for _, ro := range roleNames {
			for _, src := range inds {
				for _, dst := range inds {
					if r.Intn(4) == 0 {
						ev := newEv()
						if err := l.AssertRole(ro, src, dst, ev); err != nil {
							t.Fatal(err)
						}
						if oracle.roles[ro][src] == nil {
							oracle.roles[ro][src] = make(map[string]*event.Expr)
						}
						oracle.roles[ro][src][dst] = ev
					}
				}
			}
		}
		// Make sure every individual is in the domain even if unasserted.
		for _, id := range inds {
			if err := l.AssertConcept("A", id, event.False()); err != nil {
				t.Fatal(err)
			}
		}

		space := db.Space()
		for q := 0; q < 8; q++ {
			expr := randOracleExpr(r, conceptNames, roleNames, inds, 3)
			for _, id := range inds {
				got, err := l.MembershipEvent(expr, id)
				if err != nil {
					t.Fatalf("trial %d expr %s: %v", trial, expr, err)
				}
				gotP, err := space.Prob(got)
				if err != nil {
					t.Fatal(err)
				}
				wantP, err := space.Prob(oracle.membership(expr, id))
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(gotP-wantP) > 1e-9 {
					t.Fatalf("trial %d: P(%s ∈ %s) view=%g oracle=%g",
						trial, id, expr, gotP, wantP)
				}
			}
		}
	}
}

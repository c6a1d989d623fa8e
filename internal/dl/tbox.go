package dl

import (
	"fmt"
	"sort"
	"sync"
)

// TBox is a terminology: concept-inclusion axioms plus disjointness
// declarations. Subsumption checking is structural over the ⊓/∃/nominal
// fragment with told-subsumer closure for atoms — sound but deliberately
// incomplete for arbitrary ⊔/¬ combinations, which is all the paper's
// preference rules need (their contexts and preferences are conjunctions of
// atoms and existential restrictions, §4.1).
type TBox struct {
	mu       sync.RWMutex
	supers   map[string][]*Expr  // atom -> told superconcept expressions
	disjoint map[string][]string // atom -> atoms declared disjoint with it
}

// NewTBox returns an empty terminology.
func NewTBox() *TBox {
	return &TBox{
		supers:   make(map[string][]*Expr),
		disjoint: make(map[string][]string),
	}
}

// AddSub records the axiom sub ⊑ super, e.g. AddSub("TrafficBulletin",
// Atom("TvProgram")). Only atomic left-hand sides participate in told
// subsumption.
func (t *TBox) AddSub(sub string, super *Expr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.supers[sub] = append(t.supers[sub], super)
}

// AddDisjoint declares the atomic concepts pairwise disjoint (e.g. the
// paper's "a program is either a traffic bulletin, or a weather bulletin, or
// something else", §3.2).
func (t *TBox) AddDisjoint(atoms ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, a := range atoms {
		for j, b := range atoms {
			if i != j {
				t.disjoint[a] = append(t.disjoint[a], b)
			}
		}
	}
}

// Disjoint reports whether atoms a and b were declared disjoint.
func (t *TBox) Disjoint(a, b string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, x := range t.disjoint[a] {
		if x == b {
			return true
		}
	}
	return false
}

// DisjointGroupOf returns the sorted set of atoms declared disjoint with a,
// including a itself, or nil if a has no disjointness declarations.
func (t *TBox) DisjointGroupOf(a string) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	others := t.disjoint[a]
	if len(others) == 0 {
		return nil
	}
	set := map[string]bool{a: true}
	for _, o := range others {
		set[o] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Subsumes reports whether sup subsumes sub (every instance of sub is an
// instance of sup) under the structural rules described on TBox. The result
// "false" may mean "not derivable".
func (t *TBox) Subsumes(sup, sub *Expr) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.subsumes(sup, sub, 0)
}

const maxSubsumptionDepth = 64

func (t *TBox) subsumes(sup, sub *Expr, depth int) bool {
	if depth > maxSubsumptionDepth {
		return false
	}
	if sup.op == OpTop || sub.op == OpBottom || Equal(sup, sub) {
		return true
	}
	// sub = C1 ⊔ … ⊔ Cn: each disjunct must be subsumed.
	if sub.op == OpOr {
		for _, c := range sub.args {
			if !t.subsumes(sup, c, depth+1) {
				return false
			}
		}
		return true
	}
	// sup = D1 ⊓ … ⊓ Dn: each conjunct must subsume sub.
	if sup.op == OpAnd {
		for _, d := range sup.args {
			if !t.subsumes(d, sub, depth+1) {
				return false
			}
		}
		return true
	}
	// sup = D1 ⊔ … ⊔ Dn: some disjunct subsuming sub suffices (sound).
	if sup.op == OpOr {
		for _, d := range sup.args {
			if t.subsumes(d, sub, depth+1) {
				return true
			}
		}
		return false
	}
	// sub = C1 ⊓ … ⊓ Cn: some conjunct subsumed by sup suffices.
	if sub.op == OpAnd {
		for _, c := range sub.args {
			if t.subsumes(sup, c, depth+1) {
				return true
			}
		}
		return false
	}
	switch {
	case sub.op == OpAtom:
		// Told subsumers: A ⊑ super; does some told super reach sup?
		for _, s := range t.supers[sub.name] {
			if t.subsumes(sup, s, depth+1) {
				return true
			}
		}
		return false
	case sub.op == OpNominal && sup.op == OpNominal:
		return subset(sub.inds, sup.inds)
	case sub.op == OpExists && sup.op == OpExists:
		return sub.name == sup.name && t.subsumes(sup.args[0], sub.args[0], depth+1)
	}
	return false
}

func subset(small, big []string) bool {
	set := make(map[string]bool, len(big))
	for _, b := range big {
		set[b] = true
	}
	for _, s := range small {
		if !set[s] {
			return false
		}
	}
	return true
}

// Validate checks a concept expression against a vocabulary of declared
// concept and role names, returning an error naming the first undeclared
// symbol: a name is declared when it is a key of the map. Nominals are not
// checked (individuals are data, not terminology).
func Validate[V any](e *Expr, concepts, roles map[string]V) error {
	switch e.op {
	case OpAtom:
		if _, ok := concepts[e.name]; !ok {
			return fmt.Errorf("dl: undeclared concept %q", e.name)
		}
	case OpExists:
		if _, ok := roles[e.name]; !ok {
			return fmt.Errorf("dl: undeclared role %q", e.name)
		}
	}
	for _, a := range e.args {
		if err := Validate(a, concepts, roles); err != nil {
			return err
		}
	}
	return nil
}

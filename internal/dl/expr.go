// Package dl implements the Description Logic substrate the paper models
// contexts and preferences with (van Bunningen et al., ICDE 2007, §4, after
// their DEXA'06 context model). It provides concept expressions over atomic
// concepts, roles and individuals — ⊤, ⊥, atomic concepts, conjunction,
// disjunction, negation, existential restriction ∃R.C and nominals {a,…} —
// together with a textual parser, vocabulary validation and signature
// extraction.
package dl

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Op discriminates concept-expression node types.
type Op uint8

// Concept expression operators.
const (
	OpTop Op = iota
	OpBottom
	OpAtom
	OpAnd
	OpOr
	OpNot
	OpExists
	OpNominal
)

// Expr is an immutable Description Logic concept expression. Build values
// with the constructors; the zero value is not valid.
type Expr struct {
	op   Op
	name string   // OpAtom: concept name; OpExists: role name
	inds []string // OpNominal: individual names (sorted, deduped)
	args []*Expr  // OpAnd/OpOr (>=2), OpNot (1), OpExists (1: filler)
	// str is String's rendering of a non-atomic expression, kept by the first
	// call: the expression cannot change, and the rendering is the memo key
	// of every membership and view look-up.
	str atomic.Pointer[string]
}

var (
	topExpr    = &Expr{op: OpTop}
	bottomExpr = &Expr{op: OpBottom}
)

// Top returns ⊤, the universal concept.
func Top() *Expr { return topExpr }

// Bottom returns ⊥, the empty concept.
func Bottom() *Expr { return bottomExpr }

// Atom returns the atomic concept with the given name.
func Atom(name string) *Expr { return &Expr{op: OpAtom, name: name} }

// Nominal returns the enumerated concept {inds…}. Duplicates are removed and
// the individuals are kept sorted; an empty nominal is ⊥.
func Nominal(inds ...string) *Expr {
	if len(inds) == 0 {
		return bottomExpr
	}
	set := make(map[string]bool, len(inds))
	for _, i := range inds {
		set[i] = true
	}
	out := make([]string, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Strings(out)
	return &Expr{op: OpNominal, inds: out}
}

// Exists returns the existential restriction ∃role.filler.
func Exists(role string, filler *Expr) *Expr {
	if filler.op == OpBottom {
		return bottomExpr
	}
	return &Expr{op: OpExists, name: role, args: []*Expr{filler}}
}

// HasValue returns ∃role.{ind}, the common "related to this individual"
// idiom used by the paper's preference rules. Tests build rules with it.
func HasValue(role, ind string) *Expr { return Exists(role, Nominal(ind)) }

// Not returns ¬c with involution and constant folding.
func Not(c *Expr) *Expr {
	switch c.op {
	case OpTop:
		return bottomExpr
	case OpBottom:
		return topExpr
	case OpNot:
		return c.args[0]
	}
	return &Expr{op: OpNot, args: []*Expr{c}}
}

// And returns the conjunction c1 ⊓ c2 ⊓ …, flattened, deduplicated and
// constant-folded. And() is ⊤.
func And(cs ...*Expr) *Expr { return nary(OpAnd, cs) }

// Or returns the disjunction c1 ⊔ c2 ⊔ …, flattened, deduplicated and
// constant-folded. Or() is ⊥.
func Or(cs ...*Expr) *Expr { return nary(OpOr, cs) }

func nary(op Op, cs []*Expr) *Expr {
	identity, absorber := topExpr, bottomExpr
	if op == OpOr {
		identity, absorber = bottomExpr, topExpr
	}
	flat := make([]*Expr, 0, len(cs))
	seen := make(map[string]bool, len(cs))
	for _, c := range cs {
		if c == nil {
			continue
		}
		if c.op == absorber.op {
			return absorber
		}
		if c.op == identity.op {
			continue
		}
		parts := []*Expr{c}
		if c.op == op {
			parts = c.args
		}
		for _, p := range parts {
			key := p.String()
			if !seen[key] {
				seen[key] = true
				flat = append(flat, p)
			}
		}
	}
	switch len(flat) {
	case 0:
		return identity
	case 1:
		return flat[0]
	}
	// Canonical argument order makes structurally-equal expressions render
	// identically regardless of construction order.
	sort.Slice(flat, func(i, j int) bool { return flat[i].String() < flat[j].String() })
	return &Expr{op: op, args: flat}
}

// Op reports the root operator.
func (e *Expr) Op() Op { return e.op }

// Name returns the concept name (OpAtom) or role name (OpExists).
func (e *Expr) Name() string { return e.name }

// Individuals returns the individuals of a nominal (nil otherwise). The
// returned slice must not be modified.
func (e *Expr) Individuals() []string { return e.inds }

// Args returns the child expressions. The returned slice must not be
// modified.
func (e *Expr) Args() []*Expr { return e.args }

// Filler returns the filler concept of an existential restriction and nil
// for other operators.
func (e *Expr) Filler() *Expr {
	if e.op == OpExists {
		return e.args[0]
	}
	return nil
}

// String renders the expression in the parser's input syntax, so
// Parse(e.String()) reproduces e.
func (e *Expr) String() string {
	if e.op == OpAtom {
		return e.name // the common look-up key, rendered without a copy
	}
	if s := e.str.Load(); s != nil {
		return *s
	}
	var b strings.Builder
	e.format(&b)
	s := b.String()
	e.str.Store(&s) // concurrent first calls store equal strings
	return s
}

func (e *Expr) format(b *strings.Builder) {
	switch e.op {
	case OpTop:
		b.WriteString("TOP")
	case OpBottom:
		b.WriteString("BOTTOM")
	case OpAtom:
		b.WriteString(e.name)
	case OpNominal:
		b.WriteByte('{')
		for i, ind := range e.inds {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(ind)
		}
		b.WriteByte('}')
	case OpNot:
		b.WriteString("NOT ")
		e.args[0].formatChild(b)
	case OpExists:
		b.WriteString("EXISTS ")
		b.WriteString(e.name)
		b.WriteByte('.')
		e.args[0].formatChild(b)
	case OpAnd, OpOr:
		sep := " AND "
		if e.op == OpOr {
			sep = " OR "
		}
		for i, a := range e.args {
			if i > 0 {
				b.WriteString(sep)
			}
			a.formatChild(b)
		}
	default:
		fmt.Fprintf(b, "<invalid op %d>", e.op)
	}
}

func (e *Expr) formatChild(b *strings.Builder) {
	if e.op == OpAnd || e.op == OpOr {
		b.WriteByte('(')
		e.format(b)
		b.WriteByte(')')
		return
	}
	e.format(b)
}

// Equal reports structural equality. Tests compare expressions with it.
func Equal(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	return a.String() == b.String()
}

// Signature is the vocabulary used by a concept expression.
type Signature struct {
	Concepts    []string
	Roles       []string
	Individuals []string
}

// Signature extracts the sorted vocabulary of e.
func (e *Expr) Signature() Signature {
	cs, rs, is := map[string]bool{}, map[string]bool{}, map[string]bool{}
	e.collect(cs, rs, is)
	return Signature{Concepts: sortedKeys(cs), Roles: sortedKeys(rs), Individuals: sortedKeys(is)}
}

func (e *Expr) collect(cs, rs, is map[string]bool) {
	switch e.op {
	case OpAtom:
		cs[e.name] = true
	case OpExists:
		rs[e.name] = true
	case OpNominal:
		for _, i := range e.inds {
			is[i] = true
		}
	}
	for _, a := range e.args {
		a.collect(cs, rs, is)
	}
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Package event implements probabilistic event expressions, the uncertainty
// substrate of the paper (van Bunningen et al., ICDE 2007, §3.3 and §5, after
// Fuhr & Rölleke's probabilistic relational algebra).
//
// A basic event is an atomic boolean random variable with a known
// probability, optionally belonging to an exclusive group (at most one event
// of a group is true — e.g. "a person can only be at a single place at one
// moment"). Event expressions combine basic events with NOT/AND/OR. A Space
// owns the basic-event declarations and computes *exact* probabilities of
// expressions via Shannon-style enumeration over the exclusive groups that an
// expression mentions, so shared lineage is never double-counted.
package event

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates the node types of an event expression tree.
type Kind uint8

// Expression node kinds.
const (
	KindTrue Kind = iota
	KindFalse
	KindBasic
	KindNot
	KindAnd
	KindOr
)

// Expr is an immutable event expression. The zero value is not valid; use the
// constructors. Expressions are shared freely between goroutines.
type Expr struct {
	kind Kind
	name string  // KindBasic only
	args []*Expr // KindNot (1), KindAnd/KindOr (>=2)
}

var (
	trueExpr  = &Expr{kind: KindTrue}
	falseExpr = &Expr{kind: KindFalse}
)

// True returns the certain event (probability 1).
func True() *Expr { return trueExpr }

// False returns the impossible event (probability 0).
func False() *Expr { return falseExpr }

// Basic returns a reference to the basic event with the given name. The name
// must be declared in any Space used to evaluate the expression.
func Basic(name string) *Expr { return &Expr{kind: KindBasic, name: name} }

// Not returns the complement of e, applying involution and constant folding.
func Not(e *Expr) *Expr {
	switch e.kind {
	case KindTrue:
		return falseExpr
	case KindFalse:
		return trueExpr
	case KindNot:
		return e.args[0]
	}
	return &Expr{kind: KindNot, args: []*Expr{e}}
}

// And returns the conjunction of the given expressions. Constants are folded,
// nested conjunctions are flattened, and duplicates are removed. And() with
// no arguments is True.
func And(es ...*Expr) *Expr { return nary(KindAnd, es) }

// Or returns the disjunction of the given expressions. Constants are folded,
// nested disjunctions are flattened, and duplicates are removed. Or() with no
// arguments is False.
func Or(es ...*Expr) *Expr { return nary(KindOr, es) }

func nary(k Kind, es []*Expr) *Expr {
	identity, absorber := trueExpr, falseExpr
	if k == KindOr {
		identity, absorber = falseExpr, trueExpr
	}
	// One operand that is not a k node: what the loop below returns for it,
	// without the loop's allocations.
	if len(es) == 1 && es[0] != nil && es[0].kind != k {
		switch es[0].kind {
		case absorber.kind:
			return absorber
		case identity.kind:
			return identity
		}
		return es[0]
	}
	flat := make([]*Expr, 0, len(es))
	seen := make(map[string]bool, len(es))
	for _, e := range es {
		if e == nil {
			continue
		}
		if e.kind == absorber.kind {
			return absorber
		}
		if e.kind == identity.kind {
			continue
		}
		parts := []*Expr{e}
		if e.kind == k {
			parts = e.args
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
	return &Expr{kind: k, args: flat}
}

// String renders the expression in a canonical parenthesized form, suitable
// both for display (lineage, §5) and as a map key.
func (e *Expr) String() string {
	var b strings.Builder
	e.format(&b)
	return b.String()
}

func (e *Expr) format(b *strings.Builder) {
	switch e.kind {
	case KindTrue:
		b.WriteString("⊤")
	case KindFalse:
		b.WriteString("⊥")
	case KindBasic:
		b.WriteString(e.name)
	case KindNot:
		b.WriteString("¬")
		child := e.args[0]
		if child.kind == KindAnd || child.kind == KindOr {
			b.WriteByte('(')
			child.format(b)
			b.WriteByte(')')
		} else {
			child.format(b)
		}
	case KindAnd, KindOr:
		sep := " ∧ "
		if e.kind == KindOr {
			sep = " ∨ "
		}
		for i, a := range e.args {
			if i > 0 {
				b.WriteString(sep)
			}
			if a.kind == KindAnd || a.kind == KindOr {
				b.WriteByte('(')
				a.format(b)
				b.WriteByte(')')
			} else {
				a.format(b)
			}
		}
	default:
		fmt.Fprintf(b, "<invalid kind %d>", e.kind)
	}
}

// Equal reports structural equality of two expressions.
func Equal(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.kind != b.kind || a.name != b.name || len(a.args) != len(b.args) {
		return false
	}
	for i := range a.args {
		if !Equal(a.args[i], b.args[i]) {
			return false
		}
	}
	return true
}

// Basics returns the sorted set of basic-event names mentioned by e.
func (e *Expr) Basics() []string {
	set := make(map[string]bool)
	e.collectBasics(set)
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (e *Expr) collectBasics(set map[string]bool) {
	if e.kind == KindBasic {
		set[e.name] = true
		return
	}
	for _, a := range e.args {
		a.collectBasics(set)
	}
}

// evaluate computes the truth value of e under a total assignment of the
// basic events it mentions.
func (e *Expr) evaluate(assign map[string]bool) bool {
	switch e.kind {
	case KindTrue:
		return true
	case KindFalse:
		return false
	case KindBasic:
		return assign[e.name]
	case KindNot:
		return !e.args[0].evaluate(assign)
	case KindAnd:
		for _, a := range e.args {
			if !a.evaluate(assign) {
				return false
			}
		}
		return true
	case KindOr:
		for _, a := range e.args {
			if a.evaluate(assign) {
				return true
			}
		}
		return false
	}
	return false
}

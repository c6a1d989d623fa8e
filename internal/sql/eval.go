package sql

import (
	"fmt"
	"strings"

	"repro/internal/event"
	"repro/internal/storage"
)

// Runtime supplies engine-level services to the evaluator; currently the
// event space backing the EVENT builtins.
type Runtime struct {
	Space *event.Space
}

// binding names one column of the working row during execution.
type binding struct {
	table  string // binding name (alias or table name); lower case
	column string // lower case
}

// env is the evaluation environment: the working row plus its bindings. One
// env serves a whole loop over rows — the loop sets row — so evaluation
// allocates per query, not per row.
type env struct {
	cols []binding
	row  storage.Row
	rt   *Runtime
	// agg marks an aggregate context: aggregate calls are computed over group
	// and everything else over row, the group's representative.
	agg   bool
	group []storage.Row
}

// truth evaluates a condition on row; NULL and non-BOOL results are false. A
// nil condition holds.
func (e *env) truth(cond Expr, row storage.Row) (bool, error) {
	if cond == nil {
		return true, nil
	}
	e.row = row
	v, err := e.eval(cond)
	if err != nil {
		return false, err
	}
	t, _ := v.Truth()
	return t, nil
}

// lookup resolves a column reference against the bindings. Unqualified names
// must be unambiguous.
func (e *env) lookup(table, column string) (storage.Value, error) {
	lt, lc := strings.ToLower(table), strings.ToLower(column)
	found := -1
	for i, b := range e.cols {
		if b.column != lc {
			continue
		}
		if lt != "" && b.table != lt {
			continue
		}
		if found >= 0 {
			return storage.Value{}, fmt.Errorf("sql: ambiguous column %q", column)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return storage.Value{}, fmt.Errorf("sql: unknown column %s.%s", table, column)
		}
		return storage.Value{}, fmt.Errorf("sql: unknown column %q", column)
	}
	return e.row[found], nil
}

// eval evaluates a scalar expression under SQL three-valued logic: NULL
// propagates through arithmetic and comparisons; AND uses Kleene logic.
func (e *env) eval(x Expr) (storage.Value, error) {
	switch x := x.(type) {
	case *Literal:
		return x.Val, nil
	case *ColumnRef:
		return e.lookup(x.Table, x.Column)
	case *Unary:
		return e.evalNeg(x)
	case *Binary:
		return e.evalBinary(x)
	case *FuncCall:
		return e.evalFunc(x)
	case *InList:
		return e.evalIn(x)
	case *IsNull:
		v, err := e.eval(x.X)
		if err != nil {
			return storage.Value{}, err
		}
		return storage.Bool(v.IsNull() != x.Not), nil
	}
	return storage.Value{}, fmt.Errorf("sql: cannot evaluate %T", x)
}

func (e *env) evalNeg(x *Unary) (storage.Value, error) {
	v, err := e.eval(x.X)
	if err != nil {
		return storage.Value{}, err
	}
	switch v.T {
	case storage.TypeNull:
		return storage.Null(), nil
	case storage.TypeInt:
		return storage.Int(-v.I), nil
	case storage.TypeFloat:
		return storage.Float(-v.F), nil
	}
	return storage.Value{}, fmt.Errorf("sql: cannot negate %s", v.T)
}

func (e *env) evalBinary(x *Binary) (storage.Value, error) {
	if x.Op == "AND" {
		return e.evalAnd(x)
	}
	l, err := e.eval(x.L)
	if err != nil {
		return storage.Value{}, err
	}
	r, err := e.eval(x.R)
	if err != nil {
		return storage.Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return storage.Null(), nil
	}
	switch x.Op {
	case "+", "*", "/":
		return arith(x.Op, l, r)
	case "=", "<>", "<", "<=", ">", ">=":
		c, err := storage.Compare(l, r)
		if err != nil {
			return storage.Value{}, err
		}
		switch x.Op {
		case "=":
			return storage.Bool(c == 0), nil
		case "<>":
			return storage.Bool(c != 0), nil
		case "<":
			return storage.Bool(c < 0), nil
		case "<=":
			return storage.Bool(c <= 0), nil
		case ">":
			return storage.Bool(c > 0), nil
		case ">=":
			return storage.Bool(c >= 0), nil
		}
	}
	return storage.Value{}, fmt.Errorf("sql: unknown operator %q", x.Op)
}

// evalAnd applies Kleene three-valued AND.
func (e *env) evalAnd(x *Binary) (storage.Value, error) {
	l, err := e.eval(x.L)
	if err != nil {
		return storage.Value{}, err
	}
	lVal, lKnown := l.Truth()
	if l.T != storage.TypeNull && l.T != storage.TypeBool {
		return storage.Value{}, fmt.Errorf("sql: AND requires BOOL operands, got %s", l.T)
	}
	// Short circuit where the result is determined.
	if lKnown && !lVal {
		return storage.Bool(false), nil
	}
	r, err := e.eval(x.R)
	if err != nil {
		return storage.Value{}, err
	}
	if r.T != storage.TypeNull && r.T != storage.TypeBool {
		return storage.Value{}, fmt.Errorf("sql: AND requires BOOL operands, got %s", r.T)
	}
	rVal, rKnown := r.Truth()
	switch {
	case rKnown && !rVal:
		return storage.Bool(false), nil
	case lKnown && rKnown:
		return storage.Bool(true), nil
	}
	return storage.Null(), nil
}

func arith(op string, l, r storage.Value) (storage.Value, error) {
	if l.T == storage.TypeInt && r.T == storage.TypeInt {
		switch op {
		case "+":
			return storage.Int(l.I + r.I), nil
		case "*":
			return storage.Int(l.I * r.I), nil
		case "/":
			if r.I == 0 {
				return storage.Value{}, fmt.Errorf("sql: division by zero")
			}
			return storage.Int(l.I / r.I), nil
		}
	}
	lf, err := l.AsFloat()
	if err != nil {
		return storage.Value{}, fmt.Errorf("sql: %q: %w", op, err)
	}
	rf, err := r.AsFloat()
	if err != nil {
		return storage.Value{}, fmt.Errorf("sql: %q: %w", op, err)
	}
	switch op {
	case "+":
		return storage.Float(lf + rf), nil
	case "*":
		return storage.Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return storage.Value{}, fmt.Errorf("sql: division by zero")
		}
		return storage.Float(lf / rf), nil
	}
	return storage.Value{}, fmt.Errorf("sql: unknown arithmetic op %q", op)
}

func (e *env) evalIn(x *InList) (storage.Value, error) {
	v, err := e.eval(x.X)
	if err != nil {
		return storage.Value{}, err
	}
	if v.IsNull() {
		return storage.Null(), nil
	}
	sawNull := false
	for _, se := range x.Set {
		sv, err := e.eval(se)
		if err != nil {
			return storage.Value{}, err
		}
		if sv.IsNull() {
			sawNull = true
			continue
		}
		c, err := storage.Compare(v, sv)
		if err != nil {
			return storage.Value{}, err
		}
		if c == 0 {
			return storage.Bool(true), nil
		}
	}
	if sawNull {
		return storage.Null(), nil
	}
	return storage.Bool(false), nil
}

// evalFunc dispatches scalar builtins, and aggregates in an aggregate
// context; anywhere else an aggregate is an unknown function.
func (e *env) evalFunc(x *FuncCall) (storage.Value, error) {
	if e.agg && builtins[x.Name] {
		return e.aggregate(x)
	}
	// callScalar keeps no reference to args, so the usual few live on the stack.
	var buf [4]storage.Value
	args := buf[:0]
	for _, a := range x.Args {
		v, err := e.eval(a)
		if err != nil {
			return storage.Value{}, err
		}
		args = append(args, v)
	}
	return callScalar(e.rt, x.Name, args)
}

func callScalar(rt *Runtime, name string, args []storage.Value) (storage.Value, error) {
	argn := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sql: %s expects %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "EV_TRUE":
		if err := argn(0); err != nil {
			return storage.Value{}, err
		}
		return storage.Event(event.True()), nil
	case "EV_FALSE":
		if err := argn(0); err != nil {
			return storage.Value{}, err
		}
		return storage.Event(event.False()), nil
	case "EV_BASIC":
		if err := argn(1); err != nil {
			return storage.Value{}, err
		}
		if args[0].T != storage.TypeText {
			return storage.Value{}, fmt.Errorf("sql: EV_BASIC requires TEXT")
		}
		return storage.Event(event.Basic(args[0].S)), nil
	case "EV_AND", "EV_OR":
		exprs := make([]*event.Expr, 0, len(args))
		for _, v := range args {
			ev, err := asEvent(v, name)
			if err != nil {
				return storage.Value{}, err
			}
			exprs = append(exprs, ev)
		}
		if name == "EV_AND" {
			return storage.Event(event.And(exprs...)), nil
		}
		return storage.Event(event.Or(exprs...)), nil
	case "EV_NOT":
		if err := argn(1); err != nil {
			return storage.Value{}, err
		}
		ev, err := asEvent(args[0], name)
		if err != nil {
			return storage.Value{}, err
		}
		return storage.Event(event.Not(ev)), nil
	case "PROB":
		if err := argn(1); err != nil {
			return storage.Value{}, err
		}
		if rt == nil || rt.Space == nil {
			return storage.Value{}, fmt.Errorf("sql: PROB requires an event space")
		}
		ev, err := asEvent(args[0], name)
		if err != nil {
			return storage.Value{}, err
		}
		p, err := rt.Space.Prob(ev)
		if err != nil {
			return storage.Value{}, fmt.Errorf("sql: PROB: %w", err)
		}
		return storage.Float(p), nil
	}
	return storage.Value{}, fmt.Errorf("sql: unknown function %s", name)
}

// asEvent interprets a value as an event expression. NULL is interpreted as
// the impossible event, which is exactly the semantics the concept-view
// mapping needs for LEFT JOIN misses ("tuple not asserted into the concept").
func asEvent(v storage.Value, fn string) (*event.Expr, error) {
	switch v.T {
	case storage.TypeEvent:
		return v.Ev, nil
	case storage.TypeNull:
		return event.False(), nil
	case storage.TypeBool:
		if v.B {
			return event.True(), nil
		}
		return event.False(), nil
	}
	return nil, fmt.Errorf("sql: %s requires EVENT arguments, got %s", fn, v.T)
}

// builtins maps every function the dialect has to whether it is an
// aggregate: the EVENT builtins the paper added to PostgreSQL (§5) and
// COUNT and SUM. The parser refuses any other name.
var builtins = map[string]bool{
	"EV_TRUE": false, "EV_FALSE": false, "EV_BASIC": false, "EV_AND": false,
	"EV_OR": false, "EV_NOT": false, "PROB": false,
	"EV_OR_AGG": true, "EV_AND_AGG": true, "COUNT": true, "SUM": true,
}

// hasAggregate reports whether x contains an aggregate call.
func hasAggregate(x Expr) bool {
	switch x := x.(type) {
	case nil, *Literal, *ColumnRef:
		return false
	case *Unary:
		return hasAggregate(x.X)
	case *Binary:
		return hasAggregate(x.L) || hasAggregate(x.R)
	case *FuncCall:
		if builtins[x.Name] {
			return true
		}
		for _, a := range x.Args {
			if hasAggregate(a) {
				return true
			}
		}
		return false
	case *InList:
		if hasAggregate(x.X) {
			return true
		}
		for _, s := range x.Set {
			if hasAggregate(s) {
				return true
			}
		}
		return false
	case *IsNull:
		return hasAggregate(x.X)
	}
	return false
}

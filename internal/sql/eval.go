package sql

import (
	"fmt"
	"math"
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
	// typ is the column's static type (see staticType); the zero value on
	// bindings nothing type-checks against.
	typ storage.Type
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
// propagates through arithmetic and comparisons; AND/OR use Kleene logic.
func (e *env) eval(x Expr) (storage.Value, error) {
	switch x := x.(type) {
	case *Literal:
		return x.Val, nil
	case *ColumnRef:
		return e.lookup(x.Table, x.Column)
	case *Unary:
		return e.evalUnary(x)
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
	case *Like:
		v, err := e.eval(x.X)
		if err != nil {
			return storage.Value{}, err
		}
		pat, err := e.eval(x.Pattern)
		if err != nil {
			return storage.Value{}, err
		}
		if v.IsNull() || pat.IsNull() {
			return storage.Null(), nil
		}
		if v.T != storage.TypeText || pat.T != storage.TypeText {
			return storage.Value{}, fmt.Errorf("sql: LIKE requires TEXT operands")
		}
		return storage.Bool(likeMatch(v.S, pat.S) != x.Not), nil
	case *CaseExpr:
		for _, w := range x.Whens {
			c, err := e.eval(w.Cond)
			if err != nil {
				return storage.Value{}, err
			}
			if truth, _ := c.Truth(); truth {
				return e.eval(w.Then)
			}
		}
		if x.Else != nil {
			return e.eval(x.Else)
		}
		return storage.Null(), nil
	}
	return storage.Value{}, fmt.Errorf("sql: cannot evaluate %T", x)
}

func (e *env) evalUnary(x *Unary) (storage.Value, error) {
	v, err := e.eval(x.X)
	if err != nil {
		return storage.Value{}, err
	}
	if v.IsNull() {
		return storage.Null(), nil
	}
	switch x.Op {
	case "-":
		switch v.T {
		case storage.TypeInt:
			return storage.Int(-v.I), nil
		case storage.TypeFloat:
			return storage.Float(-v.F), nil
		}
		return storage.Value{}, fmt.Errorf("sql: cannot negate %s", v.T)
	case "NOT":
		if v.T != storage.TypeBool {
			return storage.Value{}, fmt.Errorf("sql: NOT requires BOOL, got %s", v.T)
		}
		return storage.Bool(!v.B), nil
	}
	return storage.Value{}, fmt.Errorf("sql: unknown unary op %q", x.Op)
}

func (e *env) evalBinary(x *Binary) (storage.Value, error) {
	if x.Op == "AND" || x.Op == "OR" {
		return e.evalLogical(x)
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
	case "+", "-", "*", "/", "%":
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

// evalLogical applies Kleene three-valued AND/OR.
func (e *env) evalLogical(x *Binary) (storage.Value, error) {
	l, err := e.eval(x.L)
	if err != nil {
		return storage.Value{}, err
	}
	lVal, lKnown := l.Truth()
	if l.T != storage.TypeNull && l.T != storage.TypeBool {
		return storage.Value{}, fmt.Errorf("sql: %s requires BOOL operands, got %s", x.Op, l.T)
	}
	// Short circuit where the result is determined.
	if x.Op == "AND" && lKnown && !lVal {
		return storage.Bool(false), nil
	}
	if x.Op == "OR" && lKnown && lVal {
		return storage.Bool(true), nil
	}
	r, err := e.eval(x.R)
	if err != nil {
		return storage.Value{}, err
	}
	if r.T != storage.TypeNull && r.T != storage.TypeBool {
		return storage.Value{}, fmt.Errorf("sql: %s requires BOOL operands, got %s", x.Op, r.T)
	}
	rVal, rKnown := r.Truth()
	switch x.Op {
	case "AND":
		switch {
		case rKnown && !rVal:
			return storage.Bool(false), nil
		case lKnown && rKnown:
			return storage.Bool(lVal && rVal), nil
		default:
			return storage.Null(), nil
		}
	case "OR":
		switch {
		case rKnown && rVal:
			return storage.Bool(true), nil
		case lKnown && rKnown:
			return storage.Bool(lVal || rVal), nil
		default:
			return storage.Null(), nil
		}
	}
	return storage.Value{}, fmt.Errorf("sql: unknown logical op %q", x.Op)
}

func arith(op string, l, r storage.Value) (storage.Value, error) {
	if l.T == storage.TypeInt && r.T == storage.TypeInt {
		switch op {
		case "+":
			return storage.Int(l.I + r.I), nil
		case "-":
			return storage.Int(l.I - r.I), nil
		case "*":
			return storage.Int(l.I * r.I), nil
		case "/":
			if r.I == 0 {
				return storage.Value{}, fmt.Errorf("sql: division by zero")
			}
			return storage.Int(l.I / r.I), nil
		case "%":
			if r.I == 0 {
				return storage.Value{}, fmt.Errorf("sql: division by zero")
			}
			return storage.Int(l.I % r.I), nil
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
	case "-":
		return storage.Float(lf - rf), nil
	case "*":
		return storage.Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return storage.Value{}, fmt.Errorf("sql: division by zero")
		}
		return storage.Float(lf / rf), nil
	case "%":
		if rf == 0 {
			return storage.Value{}, fmt.Errorf("sql: division by zero")
		}
		return storage.Float(math.Mod(lf, rf)), nil
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
			return storage.Bool(!x.Not), nil
		}
	}
	if sawNull {
		return storage.Null(), nil
	}
	return storage.Bool(x.Not), nil
}

// evalFunc dispatches scalar builtins, and aggregates in an aggregate
// context; anywhere else an aggregate is an unknown function.
func (e *env) evalFunc(x *FuncCall) (storage.Value, error) {
	if e.agg && aggregateNames[x.Name] {
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
	case "ABS":
		if err := argn(1); err != nil {
			return storage.Value{}, err
		}
		v := args[0]
		switch v.T {
		case storage.TypeNull:
			return storage.Null(), nil
		case storage.TypeInt:
			if v.I < 0 {
				return storage.Int(-v.I), nil
			}
			return v, nil
		case storage.TypeFloat:
			return storage.Float(math.Abs(v.F)), nil
		}
		return storage.Value{}, fmt.Errorf("sql: ABS requires a number")
	case "LOWER", "UPPER":
		if err := argn(1); err != nil {
			return storage.Value{}, err
		}
		v := args[0]
		if v.IsNull() {
			return storage.Null(), nil
		}
		if v.T != storage.TypeText {
			return storage.Value{}, fmt.Errorf("sql: %s requires TEXT", name)
		}
		if name == "LOWER" {
			return storage.Text(strings.ToLower(v.S)), nil
		}
		return storage.Text(strings.ToUpper(v.S)), nil
	case "LENGTH":
		if err := argn(1); err != nil {
			return storage.Value{}, err
		}
		if args[0].IsNull() {
			return storage.Null(), nil
		}
		if args[0].T != storage.TypeText {
			return storage.Value{}, fmt.Errorf("sql: LENGTH requires TEXT")
		}
		return storage.Int(int64(len(args[0].S))), nil
	case "COALESCE":
		for _, v := range args {
			if !v.IsNull() {
				return v, nil
			}
		}
		return storage.Null(), nil
	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return storage.Value{}, fmt.Errorf("sql: ROUND expects 1 or 2 arguments")
		}
		if args[0].IsNull() {
			return storage.Null(), nil
		}
		f, err := args[0].AsFloat()
		if err != nil {
			return storage.Value{}, err
		}
		digits := 0
		if len(args) == 2 {
			if args[1].T != storage.TypeInt {
				return storage.Value{}, fmt.Errorf("sql: ROUND digits must be INT")
			}
			digits = int(args[1].I)
		}
		scale := math.Pow(10, float64(digits))
		return storage.Float(math.Round(f*scale) / scale), nil

	// EVENT builtins — the paper's datatype extension (§5).
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

// likeMatch implements SQL LIKE: '%' matches any run (including empty),
// '_' matches exactly one character. Matching is over runes and
// case-sensitive, with an iterative two-pointer backtracking algorithm.
func likeMatch(s, pattern string) bool {
	str, pat := []rune(s), []rune(pattern)
	si, pi := 0, 0
	starSi, starPi := -1, -1
	for si < len(str) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == str[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			starPi = pi
			starSi = si
			pi++
		case starPi >= 0:
			starSi++
			si = starSi
			pi = starPi + 1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// aggregateNames lists functions the executor treats as aggregates.
var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"EV_OR_AGG": true, "EV_AND_AGG": true,
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
		if aggregateNames[x.Name] {
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
	case *Like:
		return hasAggregate(x.X) || hasAggregate(x.Pattern)
	case *CaseExpr:
		for _, w := range x.Whens {
			if hasAggregate(w.Cond) || hasAggregate(w.Then) {
				return true
			}
		}
		return x.Else != nil && hasAggregate(x.Else)
	}
	return false
}

package sql

import (
	"fmt"
	"strings"

	"repro/internal/storage"
)

// Access paths. Before a SELECT reads anything it describes its FROM items
// (column names, and the static types of base-table columns), derives from its
// WHERE which columns can only hold one of a few literals, and hands each FROM
// item the sets that land on it: a base table with a hash index on such a
// column is read through the index; a view or subquery runs whole. The
// predicates themselves stay where they are, so a set only ever shrinks the
// input of a filter that runs anyway — and only when every expression the
// dropped rows would have met is statically unable to raise, so a query
// errors exactly when it would have without the sets.

// typeAny is the static type of an expression whose values' type is not known
// before it runs. TypeNull is the static type of an expression that is always
// NULL; every other static type T means "T or NULL".
const typeAny storage.Type = 0xff

// fromItem is one FROM item, described before anything is read.
type fromItem struct {
	ref  TableRef
	tab  *storage.Table // the base table, or nil for a view or subquery
	sub  *SelectStmt    // the body of the view or subquery
	cols []binding
	off  int // position of cols[0] in the joined row
}

// colSets says, per column position, which values a row must hold there (as
// = compares) to survive the filters above it. The values are never NULL; an
// empty set means no row survives.
type colSets map[int][]storage.Value

// add records a set for a column, keeping the smaller when one is known.
func (s colSets) add(col int, vals []storage.Value) {
	if old, ok := s[col]; !ok || len(vals) < len(old) {
		s[col] = vals
	}
}

// describeFrom resolves every FROM item to its columns without reading a row.
func (ex *Executor) describeFrom(refs []TableRef, depth int) ([]fromItem, error) {
	if len(refs) > 0 && (refs[0].Join != JoinCross || refs[0].On != nil) {
		return nil, fmt.Errorf("sql: first FROM item cannot have a join condition")
	}
	items := make([]fromItem, len(refs))
	off := 0
	for i, ref := range refs {
		it := fromItem{ref: ref, off: off}
		if ref.Subquery != nil {
			it.sub = ref.Subquery
		} else {
			ex.mu.RLock()
			it.sub = ex.views[strings.ToLower(ref.Table)]
			ex.mu.RUnlock()
		}
		if it.sub != nil {
			cols, err := ex.describe(it.sub, depth+1)
			if err != nil {
				if ref.Subquery == nil {
					err = fmt.Errorf("sql: view %s: %w", ref.Table, err)
				}
				return nil, err
			}
			it.cols = cols
		} else {
			tab, err := ex.catalog.Get(ref.Table)
			if err != nil {
				return nil, err
			}
			it.tab = tab
			schema := tab.Schema()
			it.cols = make([]binding, schema.Arity())
			for j, c := range schema.Columns {
				it.cols[j] = binding{column: strings.ToLower(c.Name), typ: c.Type}
			}
		}
		name := strings.ToLower(ref.Name())
		for j := range it.cols {
			it.cols[j].table = name
		}
		items[i] = it
		off += len(it.cols)
	}
	return items, nil
}

// describe returns the output columns of a SELECT (binding names left empty),
// typed typeAny: a set never enters a view or subquery, so only the columns a
// SELECT reads from base tables need a static type. It fails only where
// running the SELECT fails too.
func (ex *Executor) describe(sel *SelectStmt, depth int) ([]binding, error) {
	if depth > maxViewDepth {
		return nil, fmt.Errorf("sql: view nesting exceeds %d (cycle?)", maxViewDepth)
	}
	items, err := ex.describeFrom(sel.From, depth)
	if err != nil {
		return nil, err
	}
	names, _, err := expandItems(sel.Items, joinedCols(items))
	if err != nil {
		return nil, err
	}
	out := make([]binding, len(names))
	for i, name := range names {
		out[i] = binding{column: strings.ToLower(name), typ: typeAny}
	}
	return out, nil
}

func joinedCols(items []fromItem) []binding {
	var all []binding
	for _, it := range items {
		all = append(all, it.cols...)
	}
	return all
}

func isAggregated(sel *SelectStmt) bool {
	return len(sel.GroupBy) > 0 || sel.Having != nil || itemsHaveAggregate(sel.Items)
}

// constrain derives the column sets of one SELECT over its joined row: from
// its WHERE conjuncts of the shapes col = literal and col IN (literals),
// closed over the column equalities of its joins and WHERE. It returns nil
// unless every ON and the WHERE are statically unable to raise: a set drops
// rows before those expressions see them.
func constrain(sel *SelectStmt, items []fromItem) colSets {
	if sel.Where == nil {
		return nil
	}
	all := joinedCols(items)
	for _, it := range items {
		if it.ref.On == nil {
			continue
		}
		if _, safe := staticType(it.ref.On, all[:it.off+len(it.cols)]); !safe {
			return nil
		}
	}
	if _, safe := staticType(sel.Where, all); !safe {
		return nil
	}
	sets := colSets{}
	var edges [][2]int // directed: a set on [0] is a set on [1]
	for _, c := range splitAnd(sel.Where) {
		if col, vals, ok := pointPredicate(c, all); ok {
			sets.add(col, vals)
		} else if a, b, ok := columnEquality(c, all); ok {
			edges = append(edges, [2]int{a, b}, [2]int{b, a})
		}
	}
	if len(sets) == 0 {
		return nil
	}
	for _, it := range items {
		// A LEFT JOIN's ON narrows nothing: its preserved side must not be
		// narrowed from its right.
		if it.ref.Join != JoinInner {
			continue
		}
		end := it.off + len(it.cols)
		for _, c := range splitAnd(it.ref.On) {
			a, b, ok := columnEquality(c, all[:end])
			if !ok {
				continue
			}
			edges = append(edges, [2]int{a, b}, [2]int{b, a})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if vals, ok := sets[e[0]]; ok {
				if _, has := sets[e[1]]; !has {
					sets[e[1]] = vals
					changed = true
				}
			}
		}
	}
	return sets
}

// pointPredicate recognizes col = literal, literal = col and col IN
// (literals) over a column of the joined row. NULL literals match nothing
// under = and IN, so they are dropped from the set.
func pointPredicate(x Expr, cols []binding) (col int, vals []storage.Value, ok bool) {
	var ref *ColumnRef
	var lits []Expr
	switch x := x.(type) {
	case *Binary:
		if x.Op != "=" {
			return 0, nil, false
		}
		if l, isRef := x.L.(*ColumnRef); isRef {
			ref, lits = l, []Expr{x.R}
		} else if r, isRef := x.R.(*ColumnRef); isRef {
			ref, lits = r, []Expr{x.L}
		}
	case *InList:
		if r, isRef := x.X.(*ColumnRef); isRef && !x.Not {
			ref, lits = r, x.Set
		}
	}
	if ref == nil {
		return 0, nil, false
	}
	if col = findBinding(cols, ref); col < 0 {
		return 0, nil, false
	}
	vals = make([]storage.Value, 0, len(lits))
	for _, l := range lits {
		v, isLit := literalValue(l)
		if !isLit {
			return 0, nil, false
		}
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	return col, vals, true
}

// literalValue reads a literal, or a negated number (the parser's -1 is a
// unary minus over 1).
func literalValue(x Expr) (storage.Value, bool) {
	switch x := x.(type) {
	case *Literal:
		return x.Val, true
	case *Unary:
		if lit, ok := x.X.(*Literal); ok && x.Op == "-" {
			switch lit.Val.T {
			case storage.TypeInt:
				return storage.Int(-lit.Val.I), true
			case storage.TypeFloat:
				return storage.Float(-lit.Val.F), true
			}
		}
	}
	return storage.Value{}, false
}

// columnEquality recognizes a = b between two columns of the joined row.
func columnEquality(x Expr, cols []binding) (a, b int, ok bool) {
	bin, isBin := x.(*Binary)
	if !isBin || bin.Op != "=" {
		return 0, 0, false
	}
	l, lok := bin.L.(*ColumnRef)
	r, rok := bin.R.(*ColumnRef)
	if !lok || !rok {
		return 0, 0, false
	}
	a, b = findBinding(cols, l), findBinding(cols, r)
	return a, b, a >= 0 && b >= 0 && a != b
}

// staticType infers the type of x's values over rows with the given columns
// and whether evaluating x on any such row is certain not to raise. The check
// is conservative: it does not know that FALSE AND (1/0 = 1) short-circuits,
// and it takes an aggregate call, which only raises where the rows are not
// grouped, for one that raises.
func staticType(x Expr, cols []binding) (storage.Type, bool) {
	switch x := x.(type) {
	case *Literal:
		return x.Val.T, true
	case *ColumnRef:
		if i := findBinding(cols, x); i >= 0 {
			return cols[i].typ, true
		}
		return typeAny, false
	case *Unary:
		t, safe := staticType(x.X, cols)
		if x.Op == "NOT" {
			return storage.TypeBool, safe && among(t, storage.TypeBool)
		}
		return t, safe && x.Op == "-" && numeric(t)
	case *Binary:
		lt, lsafe := staticType(x.L, cols)
		rt, rsafe := staticType(x.R, cols)
		safe := lsafe && rsafe
		switch x.Op {
		case "AND", "OR":
			return storage.TypeBool, safe && among(lt, storage.TypeBool) && among(rt, storage.TypeBool)
		case "+", "-", "*", "/", "%":
			t := storage.TypeFloat
			if lt == storage.TypeInt && rt == storage.TypeInt {
				t = storage.TypeInt
			}
			// Division raises on a zero divisor.
			return t, safe && x.Op != "/" && x.Op != "%" &&
				numeric(lt) && numeric(rt)
		case "=", "<>", "<", "<=", ">", ">=":
			return storage.TypeBool, safe && comparableTypes(lt, rt)
		}
		return typeAny, false
	case *IsNull:
		_, safe := staticType(x.X, cols)
		return storage.TypeBool, safe
	case *Like:
		t, safe := staticType(x.X, cols)
		pt, psafe := staticType(x.Pattern, cols)
		return storage.TypeBool, safe && psafe && among(t, storage.TypeText) && among(pt, storage.TypeText)
	case *InList:
		t, safe := staticType(x.X, cols)
		for _, s := range x.Set {
			st, ssafe := staticType(s, cols)
			safe = safe && ssafe && comparableTypes(t, st)
		}
		return storage.TypeBool, safe
	case *CaseExpr:
		t, safe := storage.TypeNull, true
		for _, w := range x.Whens {
			_, csafe := staticType(w.Cond, cols)
			tt, tsafe := staticType(w.Then, cols)
			t, safe = mergeTypes(t, tt), safe && csafe && tsafe
		}
		if x.Else != nil {
			et, esafe := staticType(x.Else, cols)
			t, safe = mergeTypes(t, et), safe && esafe
		}
		return t, safe
	case *FuncCall:
		return staticFuncType(x, cols)
	}
	return typeAny, false
}

func staticFuncType(x *FuncCall, cols []binding) (storage.Type, bool) {
	if aggregateNames[x.Name] {
		return typeAny, false
	}
	types := make([]storage.Type, len(x.Args))
	safe := true
	for i, a := range x.Args {
		t, asafe := staticType(a, cols)
		types[i], safe = t, safe && asafe
	}
	one := func(want ...storage.Type) bool { return safe && len(types) == 1 && among(types[0], want...) }
	switch x.Name {
	case "ABS":
		if one(storage.TypeInt, storage.TypeFloat) {
			return types[0], true
		}
	case "LOWER", "UPPER":
		return storage.TypeText, one(storage.TypeText)
	case "LENGTH":
		return storage.TypeInt, one(storage.TypeText)
	case "ROUND":
		return storage.TypeFloat, one(storage.TypeInt, storage.TypeFloat)
	case "COALESCE":
		t := storage.TypeNull
		for _, at := range types {
			t = mergeTypes(t, at)
		}
		return t, safe
	case "EV_TRUE", "EV_FALSE":
		return storage.TypeEvent, len(types) == 0
	case "EV_BASIC":
		if len(x.Args) == 1 {
			lit, isLit := x.Args[0].(*Literal)
			return storage.TypeEvent, isLit && lit.Val.T == storage.TypeText
		}
	case "EV_NOT":
		return storage.TypeEvent, one(storage.TypeEvent, storage.TypeBool)
	case "EV_AND", "EV_OR":
		for _, at := range types {
			safe = safe && among(at, storage.TypeEvent, storage.TypeBool)
		}
		return storage.TypeEvent, safe
	}
	// PROB raises on an undeclared event; everything else is unknown.
	return typeAny, false
}

// among reports whether a value of static type t is NULL or of one of the
// wanted types.
func among(t storage.Type, want ...storage.Type) bool {
	if t == storage.TypeNull {
		return true
	}
	for _, w := range want {
		if t == w {
			return true
		}
	}
	return false
}

// numeric reports whether a value of static type t is NULL or a number.
func numeric(t storage.Type) bool { return among(t, storage.TypeInt, storage.TypeFloat) }

// comparableTypes reports whether storage.Compare accepts every pair of non-NULL
// values of the two static types.
func comparableTypes(a, b storage.Type) bool {
	if a == storage.TypeNull || b == storage.TypeNull {
		return true
	}
	if a == typeAny || b == typeAny {
		return false
	}
	return a == b || (numeric(a) && numeric(b))
}

func mergeTypes(a, b storage.Type) storage.Type {
	switch {
	case a == storage.TypeNull:
		return b
	case b == storage.TypeNull || a == b:
		return a
	}
	return typeAny
}

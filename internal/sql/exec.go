package sql

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/event"
	"repro/internal/storage"
)

// Result is a materialized query result.
type Result struct {
	Cols []string
	Rows []storage.Row
}

// Executor runs parsed statements against a catalog, a view registry and a
// runtime. All methods are safe for concurrent use; DDL takes the write
// lock.
type Executor struct {
	catalog *storage.Catalog
	rt      *Runtime

	mu sync.RWMutex
	// views holds each view's defining statement: the parsed query it runs
	// and the source text a snapshot writes.
	views map[string]*CreateViewStmt
	// redefs counts the DDL statements that removed or redefined an existing
	// name; see Redefinitions.
	redefs atomic.Uint64
	// Base-table rows handed to SELECTs; see RowsRead.
	rowsRead atomic.Int64
}

// NewExecutor builds an executor over the given catalog and runtime.
func NewExecutor(catalog *storage.Catalog, rt *Runtime) *Executor {
	return &Executor{catalog: catalog, rt: rt, views: make(map[string]*CreateViewStmt)}
}

// ViewNames returns the sorted registered view names.
func (ex *Executor) ViewNames() []string {
	ex.mu.RLock()
	defer ex.mu.RUnlock()
	out := make([]string, 0, len(ex.views))
	for n := range ex.views {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// HasView reports whether a view with the given name is registered.
func (ex *Executor) HasView(name string) bool {
	ex.mu.RLock()
	defer ex.mu.RUnlock()
	_, ok := ex.views[strings.ToLower(name)]
	return ok
}

// ViewText returns the SELECT text a registered view was created from, as
// its CREATE VIEW statement spelled it.
func (ex *Executor) ViewText(name string) (string, bool) {
	ex.mu.RLock()
	defer ex.mu.RUnlock()
	v, ok := ex.views[strings.ToLower(name)]
	if !ok {
		return "", false
	}
	return v.Text, true
}

// Redefinitions counts the DDL statements that took an existing name away
// or gave it a new meaning: DROP TABLE, DROP VIEW and CREATE OR REPLACE VIEW
// over an existing view. A query that ran successfully means the same while
// the count stands still — creating a table, view or index under a fresh name
// cannot change what an existing name resolves to (tables and views share one
// namespace), and row changes are the tables' own versions. Read lock-free.
func (ex *Executor) Redefinitions() uint64 { return ex.redefs.Load() }

// RowsRead counts the base-table rows SELECTs have read so far. Tests read
// off it whether a code path went through the executor at all.
func (ex *Executor) RowsRead() int64 { return ex.rowsRead.Load() }

// maxViewDepth bounds view expansion to catch accidental cycles.
const maxViewDepth = 64

// Exec parses and runs one SQL statement. SELECT returns a Result; other
// statements return nil or a small informational result.
func (ex *Executor) Exec(src string) (*Result, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return ex.ExecStmt(stmt)
}

// ExecStmt runs one parsed statement.
func (ex *Executor) ExecStmt(stmt Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *CreateTableStmt:
		return nil, ex.createTable(s)
	case *DropTableStmt:
		if !ex.catalog.Exists(s.Name) && s.IfExists {
			return nil, nil
		}
		err := ex.catalog.Drop(s.Name)
		if err == nil {
			ex.redefs.Add(1)
		}
		return nil, err
	case *CreateViewStmt:
		return nil, ex.createView(s)
	case *DropViewStmt:
		return nil, ex.dropView(s)
	case *CreateIndexStmt:
		tab, err := ex.catalog.Get(s.Table)
		if err != nil {
			return nil, err
		}
		return nil, tab.CreateIndex(s.Column)
	case *InsertStmt:
		return nil, ex.insert(s)
	case *DeleteStmt:
		return ex.delete(s)
	case *UpdateStmt:
		return ex.update(s)
	case *SelectStmt:
		return ex.execSelect(s, 0)
	}
	return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
}

func (ex *Executor) createTable(s *CreateTableStmt) error {
	if ex.catalog.Exists(s.Name) {
		if s.IfNotExists {
			return nil
		}
		return fmt.Errorf("sql: table %q already exists", s.Name)
	}
	if ex.HasView(s.Name) {
		return fmt.Errorf("sql: a view named %q already exists", s.Name)
	}
	cols := make([]storage.Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = storage.Column{Name: c.Name, Type: c.Type}
	}
	schema, err := storage.NewSchema(cols...)
	if err != nil {
		return err
	}
	_, err = ex.catalog.Create(s.Name, schema)
	return err
}

func (ex *Executor) createView(s *CreateViewStmt) error {
	key := strings.ToLower(s.Name)
	if ex.catalog.Exists(s.Name) {
		return fmt.Errorf("sql: a table named %q already exists", s.Name)
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if _, ok := ex.views[key]; ok {
		if !s.OrReplace {
			return fmt.Errorf("sql: view %q already exists", s.Name)
		}
		ex.redefs.Add(1)
	}
	ex.views[key] = s
	return nil
}

func (ex *Executor) dropView(s *DropViewStmt) error {
	key := strings.ToLower(s.Name)
	ex.mu.Lock()
	defer ex.mu.Unlock()
	if _, ok := ex.views[key]; !ok {
		if s.IfExists {
			return nil
		}
		return fmt.Errorf("sql: no view %q", s.Name)
	}
	delete(ex.views, key)
	ex.redefs.Add(1)
	return nil
}

func (ex *Executor) insert(s *InsertStmt) error {
	tab, err := ex.catalog.Get(s.Table)
	if err != nil {
		return err
	}
	schema := tab.Schema()
	// Map statement columns to schema positions.
	positions := make([]int, 0, schema.Arity())
	if len(s.Columns) == 0 {
		for i := range schema.Columns {
			positions = append(positions, i)
		}
	} else {
		for _, c := range s.Columns {
			idx := schema.ColumnIndex(c)
			if idx < 0 {
				return fmt.Errorf("sql: table %s has no column %q", s.Table, c)
			}
			positions = append(positions, idx)
		}
	}
	// Every row is evaluated before the table sees any, and the table inserts
	// all of them or none.
	empty := &env{rt: ex.rt}
	rows := make([]storage.Row, len(s.Rows))
	for j, exprRow := range s.Rows {
		if len(exprRow) != len(positions) {
			return fmt.Errorf("sql: INSERT expects %d values, got %d", len(positions), len(exprRow))
		}
		rows[j] = make(storage.Row, schema.Arity())
		for i, x := range exprRow {
			v, err := empty.eval(x)
			if err != nil {
				return err
			}
			rows[j][positions[i]] = v
		}
	}
	return tab.Insert(rows...)
}

func (ex *Executor) delete(s *DeleteStmt) (*Result, error) {
	tab, err := ex.catalog.Get(s.Table)
	if err != nil {
		return nil, err
	}
	schema := tab.Schema()
	cols := make([]binding, schema.Arity())
	lname := strings.ToLower(s.Table)
	for i, c := range schema.Columns {
		cols[i] = binding{table: lname, column: strings.ToLower(c.Name)}
	}
	e := &env{cols: cols, rt: ex.rt}
	n, err := tab.Delete(func(r storage.Row) (bool, error) { return e.truth(s.Where, r) })
	if err != nil {
		return nil, err
	}
	return &Result{Cols: []string{"deleted"}, Rows: []storage.Row{{storage.Int(int64(n))}}}, nil
}

func (ex *Executor) update(s *UpdateStmt) (*Result, error) {
	tab, err := ex.catalog.Get(s.Table)
	if err != nil {
		return nil, err
	}
	schema := tab.Schema()
	cols := make([]binding, schema.Arity())
	lname := strings.ToLower(s.Table)
	for i, c := range schema.Columns {
		cols[i] = binding{table: lname, column: strings.ToLower(c.Name)}
	}
	positions := make([]int, len(s.Set))
	for i, a := range s.Set {
		idx := schema.ColumnIndex(a.Column)
		if idx < 0 {
			return nil, fmt.Errorf("sql: table %s has no column %q", s.Table, a.Column)
		}
		positions[i] = idx
	}
	e := &env{cols: cols, rt: ex.rt}
	match := func(r storage.Row) (bool, error) { return e.truth(s.Where, r) }
	apply := func(r storage.Row) (storage.Row, error) {
		e.row = r
		// Evaluate all right-hand sides against the pre-update row first,
		// so "SET a = b, b = a" swaps.
		vals := make([]storage.Value, len(s.Set))
		for i, a := range s.Set {
			v, err := e.eval(a.Value)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		for i, pos := range positions {
			r[pos] = vals[i]
		}
		return r, nil
	}
	n, err := tab.Update(match, apply)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: []string{"updated"}, Rows: []storage.Row{{storage.Int(int64(n))}}}, nil
}

// relation is an intermediate result during FROM processing.
type relation struct {
	cols []binding
	rows []storage.Row
}

// execSelect runs one SELECT.
func (ex *Executor) execSelect(sel *SelectStmt, depth int) (*Result, error) {
	if depth > maxViewDepth {
		return nil, fmt.Errorf("sql: view nesting exceeds %d (cycle?)", maxViewDepth)
	}
	rel, err := ex.buildFrom(sel.From, depth)
	if err != nil {
		return nil, err
	}
	// WHERE.
	if sel.Where != nil {
		filtered := rel.rows[:0:0]
		e := &env{cols: rel.cols, rt: ex.rt}
		for _, r := range rel.rows {
			ok, err := e.truth(sel.Where, r)
			if err != nil {
				return nil, err
			}
			if ok {
				filtered = append(filtered, r)
			}
		}
		rel.rows = filtered
	}

	aggregated := isAggregated(sel)
	var res *Result
	if aggregated {
		res, err = ex.execAggregate(sel, rel)
	} else {
		res, err = ex.execProject(sel, rel)
	}
	if err != nil {
		return nil, err
	}
	if sel.Distinct {
		res.Rows = dedupeRows(res.Rows)
	}
	if len(sel.OrderBy) > 0 {
		if err := ex.orderRows(sel, rel, res, aggregated); err != nil {
			return nil, err
		}
	}
	if sel.Limit >= 0 && len(res.Rows) > sel.Limit {
		res.Rows = res.Rows[:sel.Limit]
	}
	if sel.Union != nil {
		rest, err := ex.execSelect(sel.Union, depth)
		if err != nil {
			return nil, err
		}
		if len(rest.Cols) != len(res.Cols) {
			return nil, fmt.Errorf("sql: UNION ALL branches have %d and %d columns", len(res.Cols), len(rest.Cols))
		}
		res.Rows = append(res.Rows, rest.Rows...)
	}
	return res, nil
}

func isAggregated(sel *SelectStmt) bool {
	if len(sel.GroupBy) > 0 {
		return true
	}
	for _, it := range sel.Items {
		if hasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// buildFrom assembles the working relation of a SELECT's FROM clause; a
// missing FROM yields a single empty row. Each item is resolved whole, in
// FROM order, and joined onto the items before it.
func (ex *Executor) buildFrom(refs []TableRef, depth int) (*relation, error) {
	if len(refs) == 0 {
		return &relation{rows: []storage.Row{{}}}, nil
	}
	acc, err := ex.resolveRef(refs[0], depth)
	if err != nil {
		return nil, err
	}
	for _, ref := range refs[1:] {
		right, err := ex.resolveRef(ref, depth)
		if err != nil {
			return nil, err
		}
		if acc, err = ex.join(acc, right, ref.Left, ref.On); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// resolveRef materializes one FROM item: a view or subquery is run whole, a
// base table is scanned.
func (ex *Executor) resolveRef(ref TableRef, depth int) (*relation, error) {
	name := strings.ToLower(ref.Name())
	sub := ref.Subquery
	if sub == nil {
		ex.mu.RLock()
		if v := ex.views[strings.ToLower(ref.Table)]; v != nil {
			sub = v.Query
		}
		ex.mu.RUnlock()
	}
	if sub != nil {
		res, err := ex.execSelect(sub, depth+1)
		if err != nil {
			if ref.Subquery == nil {
				err = fmt.Errorf("sql: view %s: %w", ref.Table, err)
			}
			return nil, err
		}
		rel := &relation{cols: make([]binding, len(res.Cols)), rows: res.Rows}
		for i, c := range res.Cols {
			rel.cols[i] = binding{table: name, column: strings.ToLower(c)}
		}
		return rel, nil
	}
	tab, err := ex.catalog.Get(ref.Table)
	if err != nil {
		return nil, err
	}
	schema := tab.Schema()
	rel := &relation{cols: make([]binding, schema.Arity())}
	for i, c := range schema.Columns {
		rel.cols[i] = binding{table: name, column: strings.ToLower(c.Name)}
	}
	_ = tab.Scan(func(r storage.Row) error { // the callback never fails
		rel.rows = append(rel.rows, r)
		return nil
	})
	ex.rowsRead.Add(int64(len(rel.rows)))
	return rel, nil
}

// join combines two relations, keeping each left row without a match,
// padded with NULLs, for a LEFT JOIN. Equality joins between one column of
// each side use a hash join over the right rows, probed in left order;
// everything else is a (filtered) nested loop.
func (ex *Executor) join(left, right *relation, leftJoin bool, on Expr) (*relation, error) {
	outCols := make([]binding, 0, len(left.cols)+len(right.cols))
	outCols = append(outCols, left.cols...)
	outCols = append(outCols, right.cols...)
	out := &relation{cols: outCols}

	e := &env{cols: out.cols, rt: ex.rt}
	// Try to extract an equi-join pair for hashing.
	if lIdx, rIdx, rest, ok := equiJoinColumns(on, left.cols, right.cols); ok {
		ht := make(map[storage.Key][]storage.Row, len(right.rows))
		for _, rr := range right.rows {
			if v := rr[rIdx]; !v.IsNull() {
				k := v.NumericKey()
				ht[k] = append(ht[k], rr)
			}
		}
		for _, lr := range left.rows {
			matched := false
			v := lr[lIdx]
			if !v.IsNull() {
				for _, rr := range ht[v.NumericKey()] {
					joined := concatRows(lr, rr)
					okRest, err := e.truth(rest, joined)
					if err != nil {
						return nil, err
					}
					if okRest {
						out.rows = append(out.rows, joined)
						matched = true
					}
				}
			}
			if leftJoin && !matched {
				out.rows = append(out.rows, padRight(lr, len(right.cols)))
			}
		}
		return out, nil
	}

	// Nested loop.
	for _, lr := range left.rows {
		matched := false
		for _, rr := range right.rows {
			joined := concatRows(lr, rr)
			ok, err := e.truth(on, joined)
			if err != nil {
				return nil, err
			}
			if ok {
				out.rows = append(out.rows, joined)
				matched = true
			}
		}
		if leftJoin && !matched {
			out.rows = append(out.rows, padRight(lr, len(right.cols)))
		}
	}
	return out, nil
}

func concatRows(a, b storage.Row) storage.Row {
	out := make(storage.Row, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

func padRight(a storage.Row, n int) storage.Row {
	out := make(storage.Row, 0, len(a)+n)
	out = append(out, a...)
	for i := 0; i < n; i++ {
		out = append(out, storage.Null())
	}
	return out
}

// equiJoinColumns recognizes ON conditions of the form l.c = r.c [AND rest],
// returning the column indexes on each side and the residual condition.
func equiJoinColumns(on Expr, left, right []binding) (lIdx, rIdx int, rest Expr, ok bool) {
	conjuncts := splitAnd(on)
	for i, c := range conjuncts {
		b, isBin := c.(*Binary)
		if !isBin || b.Op != "=" {
			continue
		}
		lc, lok := b.L.(*ColumnRef)
		rc, rok := b.R.(*ColumnRef)
		if !lok || !rok {
			continue
		}
		li, ri := findBinding(left, lc), findBinding(right, rc)
		if li >= 0 && ri >= 0 {
			return li, ri, joinAnd(append(conjuncts[:i:i], conjuncts[i+1:]...)), true
		}
		// Reversed orientation: r.c = l.c.
		li, ri = findBinding(left, rc), findBinding(right, lc)
		if li >= 0 && ri >= 0 {
			return li, ri, joinAnd(append(conjuncts[:i:i], conjuncts[i+1:]...)), true
		}
	}
	return 0, 0, nil, false
}

func splitAnd(x Expr) []Expr {
	if b, ok := x.(*Binary); ok && b.Op == "AND" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	if x == nil {
		return nil
	}
	return []Expr{x}
}

func joinAnd(xs []Expr) Expr {
	var out Expr
	for _, x := range xs {
		if out == nil {
			out = x
		} else {
			out = &Binary{Op: "AND", L: out, R: x}
		}
	}
	return out
}

// findBinding resolves a column reference against one side's bindings,
// requiring uniqueness.
func findBinding(cols []binding, ref *ColumnRef) int {
	lt, lc := strings.ToLower(ref.Table), strings.ToLower(ref.Column)
	found := -1
	for i, b := range cols {
		if b.column != lc {
			continue
		}
		if lt != "" && b.table != lt {
			continue
		}
		if found >= 0 {
			return -1 // ambiguous
		}
		found = i
	}
	return found
}

// execProject evaluates the projection for a non-aggregate SELECT. The
// returned result rows correspond 1:1 to rel.rows (before DISTINCT/ORDER),
// which orderRows exploits.
func (ex *Executor) execProject(sel *SelectStmt, rel *relation) (*Result, error) {
	res := &Result{Cols: outputColumns(sel.Items), Rows: make([]storage.Row, 0, len(rel.rows))}
	e := &env{cols: rel.cols, rt: ex.rt}
	for _, r := range rel.rows {
		e.row = r
		out := make(storage.Row, len(sel.Items))
		for i, it := range sel.Items {
			v, err := e.eval(it.Expr)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// outputColumns names the output columns: an item's alias, else the column
// it references, else colN for the Nth item.
func outputColumns(items []SelectItem) []string {
	names := make([]string, len(items))
	for i, it := range items {
		switch cr, ok := it.Expr.(*ColumnRef); {
		case it.Alias != "":
			names[i] = it.Alias
		case ok:
			names[i] = cr.Column
		default:
			names[i] = fmt.Sprintf("col%d", i+1)
		}
	}
	return names
}

func dedupeRows(rows []storage.Row) []storage.Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	var key []byte
	for _, r := range rows {
		key = key[:0]
		for _, v := range r {
			key = v.Key().AppendTo(key)
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, r)
		}
	}
	return out
}

// orderRows sorts res.Rows by the ORDER BY items. Order keys are resolved
// against the output columns first and fall back to the input relation for
// non-aggregate queries.
func (ex *Executor) orderRows(sel *SelectStmt, rel *relation, res *Result, aggregated bool) error {
	outBind := make([]binding, len(res.Cols))
	for i, c := range res.Cols {
		outBind[i] = binding{column: strings.ToLower(c)}
	}
	type keyed struct {
		row  storage.Row
		keys []storage.Value
	}
	canFallback := !aggregated && !sel.Distinct && len(rel.rows) == len(res.Rows)
	keyedRows := make([]keyed, len(res.Rows))
	outEnv := &env{cols: outBind, rt: ex.rt}
	inEnv := &env{cols: rel.cols, rt: ex.rt}
	for i, r := range res.Rows {
		keys := make([]storage.Value, len(sel.OrderBy))
		for j, ob := range sel.OrderBy {
			outEnv.row = r
			v, err := outEnv.eval(ob.Expr)
			if err != nil && canFallback {
				inEnv.row = rel.rows[i]
				v, err = inEnv.eval(ob.Expr)
			}
			if err != nil {
				return err
			}
			keys[j] = v
		}
		keyedRows[i] = keyed{row: r, keys: keys}
	}
	var sortErr error
	sort.SliceStable(keyedRows, func(a, b int) bool {
		for j, ob := range sel.OrderBy {
			c, err := storage.Compare(keyedRows[a].keys[j], keyedRows[b].keys[j])
			if err != nil {
				sortErr = err
				return false
			}
			if c != 0 {
				if ob.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	for i := range keyedRows {
		res.Rows[i] = keyedRows[i].row
	}
	return nil
}

// execAggregate runs GROUP BY / aggregate queries.
func (ex *Executor) execAggregate(sel *SelectStmt, rel *relation) (*Result, error) {
	// A group's representative is its first row.
	groups := make(map[string]int)
	var order [][]storage.Row
	e := &env{cols: rel.cols, rt: ex.rt}
	var key []byte
	for _, r := range rel.rows {
		e.row = r
		key = key[:0]
		for _, g := range sel.GroupBy {
			v, err := e.eval(g)
			if err != nil {
				return nil, err
			}
			key = v.Key().AppendTo(key)
		}
		i, ok := groups[string(key)]
		if !ok {
			i = len(order)
			groups[string(key)] = i
			order = append(order, nil)
		}
		order[i] = append(order[i], r)
	}
	// A global aggregate over zero rows still yields one group.
	if len(sel.GroupBy) == 0 && len(order) == 0 {
		order = append(order, nil)
	}

	res := &Result{Cols: outputColumns(sel.Items), Rows: make([]storage.Row, 0, len(order))}
	e.agg = true
	for _, rows := range order {
		e.row, e.group = nil, rows
		if len(rows) > 0 {
			e.row = rows[0]
		}
		out := make(storage.Row, len(sel.Items))
		for i, it := range sel.Items {
			v, err := e.eval(it.Expr)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// aggregate computes one aggregate call over the env's group.
func (e *env) aggregate(x *FuncCall) (storage.Value, error) {
	rows := e.group
	if x.Name == "COUNT" && x.Star {
		return storage.Int(int64(len(rows))), nil
	}
	if len(x.Args) != 1 {
		return storage.Value{}, fmt.Errorf("sql: %s expects exactly one argument", x.Name)
	}
	vals := make([]storage.Value, 0, len(rows))
	arg := &env{cols: e.cols, rt: e.rt}
	for _, r := range rows {
		arg.row = r
		v, err := arg.eval(x.Args[0])
		if err != nil {
			return storage.Value{}, err
		}
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	switch x.Name {
	case "COUNT":
		return storage.Int(int64(len(vals))), nil
	case "SUM":
		if len(vals) == 0 {
			return storage.Null(), nil
		}
		sum := 0.0
		allInt := true
		for _, v := range vals {
			f, err := v.AsFloat()
			if err != nil {
				return storage.Value{}, fmt.Errorf("sql: %s: %w", x.Name, err)
			}
			if v.T != storage.TypeInt {
				allInt = false
			}
			sum += f
		}
		if allInt {
			return storage.Int(int64(sum)), nil
		}
		return storage.Float(sum), nil
	case "EV_OR_AGG", "EV_AND_AGG":
		exprs := make([]*event.Expr, 0, len(vals))
		for _, v := range vals {
			ev, err := asEvent(v, x.Name)
			if err != nil {
				return storage.Value{}, err
			}
			exprs = append(exprs, ev)
		}
		if len(exprs) == 0 {
			// No contributing tuples: the disjunction is impossible, the
			// conjunction vacuous.
			if x.Name == "EV_OR_AGG" {
				return storage.Event(event.False()), nil
			}
			return storage.Event(event.True()), nil
		}
		if x.Name == "EV_OR_AGG" {
			return storage.Event(event.Or(exprs...)), nil
		}
		return storage.Event(event.And(exprs...)), nil
	}
	return storage.Value{}, fmt.Errorf("sql: unknown aggregate %s", x.Name)
}

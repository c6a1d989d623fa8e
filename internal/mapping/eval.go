package mapping

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dl"
	"repro/internal/event"
	"repro/internal/storage"
)

// The membership evaluator. Every membership the ranker reads — a whole
// expression (Members), the individuals a logged write reached (patchMembers)
// and one user (MembershipEvent) — is eval over the base tables, read through
// their indexes; the compiled views (viewSQLFor) are the reference it is held
// to, and nothing on those paths goes through the SQL executor.

// evalRow is one row of an expression's view: an individual and one of its
// inclusion events.
type evalRow struct {
	id string
	ev *event.Expr
}

// The columns the loader creates its tables with: SQL can recreate a table
// otherwise, and eval then refuses to read it.
var (
	memberCols = []string{"id", "ev"}
	roleCols   = []string{"src", "dst", "ev"}
)

// eval appends to out the rows the expression's view (viewSQLFor) holds for
// the individuals in scope — every individual when scope is nil — reading the
// concept tables and dl_domain through their id index and the role tables
// through their src or dst index (a table without the index is scanned). Each
// individual's rows come in the order the view query returns them, so
// disjoining them gives the event the view query gives, expression for
// expression; rows of different individuals may interleave. A NULL event
// reads as the impossible event, as EV_AND, EV_NOT and EV_OR_AGG read it; a
// row whose id is NULL names no individual and is skipped. The expression
// must have been validated (see validate).
func (l *Loader) eval(e *dl.Expr, scope []storage.Value, out []evalRow) ([]evalRow, error) {
	switch e.Op() {
	case dl.OpBottom:
		return out, nil
	case dl.OpTop:
		return l.readMembers("dl_domain", scope, out)
	case dl.OpAtom:
		return l.readMembers(l.vocab.Load().concepts[e.Name()], scope, out)
	case dl.OpNominal:
		// dl_domain WHERE id IN (the individuals); an empty scope reads nothing.
		keep := make([]storage.Value, 0, len(e.Individuals()))
		for _, ind := range e.Individuals() {
			if v := storage.Text(ind); scope == nil || inScope(scope, v) {
				keep = append(keep, v)
			}
		}
		return l.readMembers("dl_domain", keep, out)
	}
	// The operators derive their rows apart and append them here, so that out
	// does not flow through the recursion: a caller's stack buffer stays on its
	// stack.
	rows, err := l.evalOp(e, scope)
	return append(out, rows...), err
}

// evalOp is eval for ⊓, ⊔, ∃ and ¬.
func (l *Loader) evalOp(e *dl.Expr, scope []storage.Value) ([]evalRow, error) {
	switch e.Op() {
	case dl.OpAnd:
		// The join: an individual's rows are the conjoined combinations of its
		// rows of each operand, the first operand's outermost. Each operand is
		// read for the individuals the ones read before it kept, bounded ones
		// first.
		args := e.Args()
		evs := make([]map[string][]*event.Expr, len(args))
		for _, first := range []bool{true, false} {
			for i, a := range args {
				if bounded(a) != first {
					continue
				}
				rows, err := l.eval(a, scope, nil)
				if err != nil || len(rows) == 0 {
					return nil, err
				}
				scope, evs[i] = group(rows)
			}
		}
		var out []evalRow
		for _, id := range scope {
			conj := evs[0][id.S]
			for _, next := range evs[1:] {
				var c []*event.Expr
				for _, a := range conj {
					for _, b := range next[id.S] {
						c = append(c, event.And(a, b)) // And flattens: and(a, b, …)
					}
				}
				conj = c
			}
			for _, ev := range conj {
				out = append(out, evalRow{id.S, ev})
			}
		}
		return out, nil
	case dl.OpOr:
		// The branches' rows in branch order, disjoined per individual.
		var rows []evalRow
		for _, a := range e.Args() {
			var err error
			if rows, err = l.eval(a, scope, rows); err != nil {
				return nil, err
			}
		}
		return disjoined(rows), nil
	case dl.OpExists:
		// Per source, R(x, y) ∧ C(y) over its tuples in heap order and, for
		// each, y's rows of C in order, disjoined: the scope's tuples, then C
		// over their destinations — or, over every individual with a bounded
		// filler, C first and then the tuples into its individuals, through
		// R's dst index. Both read the tuples in heap order.
		var filler map[string][]*event.Expr
		col := 0
		if scope == nil && bounded(e.Filler()) {
			rows, err := l.eval(e.Filler(), nil, nil)
			if err != nil || len(rows) == 0 {
				return nil, err
			}
			scope, filler = group(rows)
			col = 1
		}
		var tuples, dsts []evalRow // (src, ev) and (dst, nil)
		err := l.readTable(l.vocab.Load().roles[e.Name()], roleCols, col, scope, func(r storage.Row) error {
			if r[0].IsNull() || r[1].IsNull() {
				return nil
			}
			ev, err := rowEvent(r[2])
			tuples, dsts = append(tuples, evalRow{r[0].S, ev}), append(dsts, evalRow{id: r[1].S})
			return err
		})
		if err != nil || len(tuples) == 0 {
			return nil, err
		}
		if filler == nil {
			ids, _ := group(dsts)
			rows, err := l.eval(e.Filler(), ids, nil)
			if err != nil {
				return nil, err
			}
			_, filler = group(rows)
		}
		var alts []evalRow
		for i, t := range tuples {
			for _, c := range filler[dsts[i].id] {
				alts = append(alts, evalRow{t.id, event.And(t.ev, c)})
			}
		}
		return disjoined(alts), nil
	case dl.OpNot:
		// Each dl_domain row with the complement of the individual's rows of C
		// disjoined: ¬(c1 ∨ c2), never ¬c1 ∨ ¬c2.
		dom, err := l.readMembers("dl_domain", scope, nil)
		if err != nil {
			return nil, err
		}
		inner, err := l.eval(e.Args()[0], scope, nil)
		if err != nil {
			return nil, err
		}
		_, evs := group(inner)
		for i, d := range dom {
			dom[i].ev = event.And(d.ev, event.Not(event.Or(evs[d.id]...)))
		}
		return dom, nil
	}
	return nil, fmt.Errorf("mapping: cannot evaluate %s", e)
}

// bounded reports whether the expression holds no more individuals than it
// names: a nominal, ⊥, or built from them by ∃, by a ⊓ with a bounded operand
// or by a ⊔ of bounded branches. Evaluated first, such an expression narrows
// what the rest of a ⊓ or an ∃ reads.
func bounded(e *dl.Expr) bool {
	switch e.Op() {
	case dl.OpNominal, dl.OpBottom:
		return true
	case dl.OpExists:
		return bounded(e.Filler())
	case dl.OpAnd:
		return slices.ContainsFunc(e.Args(), bounded)
	case dl.OpOr:
		return !slices.ContainsFunc(e.Args(), func(a *dl.Expr) bool { return !bounded(a) })
	}
	return false
}

// group files rows per individual: the individuals in order of first
// appearance, and each one's events in order.
func group(rows []evalRow) (ids []storage.Value, evs map[string][]*event.Expr) {
	ids, evs = make([]storage.Value, 0, len(rows)), make(map[string][]*event.Expr, len(rows))
	for _, r := range rows {
		if _, ok := evs[r.id]; !ok {
			ids = append(ids, storage.Text(r.id))
		}
		evs[r.id] = append(evs[r.id], r.ev)
	}
	return ids, evs
}

// disjoined is one row per individual, its rows' events disjoined in order.
func disjoined(rows []evalRow) []evalRow {
	ids, evs := group(rows)
	out := make([]evalRow, len(ids))
	for i, id := range ids {
		out[i] = evalRow{id.S, event.Or(evs[id.S]...)}
	}
	return out
}

// evalEvents is eval with each individual's rows disjoined.
func (l *Loader) evalEvents(e *dl.Expr, scope []storage.Value) (map[string]*event.Expr, error) {
	rows, err := l.eval(e, scope, nil)
	events := make(map[string]*event.Expr, len(rows))
	for _, r := range disjoined(rows) {
		events[r.id] = r.ev
	}
	return events, err
}

// readMembers appends the rows of an (id, ev) table whose id is in scope.
func (l *Loader) readMembers(table string, scope []storage.Value, out []evalRow) ([]evalRow, error) {
	err := l.readTable(table, memberCols, 0, scope, func(r storage.Row) error {
		if r[0].IsNull() {
			return nil
		}
		ev, err := rowEvent(r[1])
		out = append(out, evalRow{r[0].S, ev})
		return err
	})
	return out, err
}

// readTable calls fn, in heap order, for the rows of the table (by catalog
// key), which must have the given columns, whose column col holds a value of
// scope — every row when scope is nil: through the column's index, or by a
// scan when it has none.
func (l *Loader) readTable(table string, cols []string, col int, scope []storage.Value, fn func(storage.Row) error) error {
	tab, err := l.db.Catalog().Get(table)
	if err != nil {
		return err
	}
	if !slices.EqualFunc(tab.Schema().Columns, cols, func(c storage.Column, name string) bool { return strings.EqualFold(c.Name, name) }) {
		return fmt.Errorf("mapping: table %s is not a (%s) table", tab.Name(), strings.Join(cols, ", "))
	}
	if scope != nil {
		if indexed, err := tab.ScanKeys(cols[col], scope, fn); indexed || err != nil {
			return err
		}
	}
	return tab.Scan(func(r storage.Row) error {
		if scope == nil || inScope(scope, r[col]) {
			return fn(r)
		}
		return nil
	})
}

func inScope(scope []storage.Value, v storage.Value) bool {
	return !v.IsNull() && slices.ContainsFunc(scope, func(s storage.Value) bool { return storage.Equal(s, v) })
}

// validate checks the expression's vocabulary, as ViewFor does.
func (l *Loader) validate(e *dl.Expr) error {
	v := l.vocab.Load()
	return dl.Validate(e, v.concepts, v.roles)
}

// catalogKey is the catalog's key for a table name: formatted once per
// declaration, so that a look-up formats nothing.
func catalogKey(table string) string { return strings.ToLower(table) }

package mapping

import (
	"strings"

	"repro/internal/dl"
	"repro/internal/event"
	"repro/internal/storage"
)

// The memo's bounds, for the tests that drive a history past them.
const (
	MaxMemberships   = maxMemberships
	MaxLoggedWrites  = maxLoggedWrites
	MaxMemberHistory = maxMemberHistory
)

// TextIndexLen is how many target texts the memo's text index holds.
func (l *Loader) TextIndexLen() int {
	l.memoMu.Lock()
	defer l.memoMu.Unlock()
	return len(l.texts)
}

// ViewQuery is the reference the evaluator is held to: the expression's
// compiled view queried through the SQL executor — restricted to the given
// individuals, when there are any — with each individual's rows disjoined in
// the order the query returns them. A NULL event is the impossible event; a
// row with a NULL id names no individual.
func ViewQuery(l *Loader, expr *dl.Expr, only ...string) (map[string]*event.Expr, error) {
	view, err := l.ViewFor(expr)
	if err != nil {
		return nil, err
	}
	q := "SELECT id, ev FROM " + view
	if len(only) > 0 {
		quoted := make([]string, len(only))
		for i, id := range only {
			quoted[i] = sqlQuote(id)
		}
		q += " WHERE id IN (" + strings.Join(quoted, ", ") + ")"
	}
	res, err := l.DB().Query(q)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*event.Expr, len(res.Rows))
	for _, r := range res.Rows {
		if r[0].IsNull() {
			continue
		}
		ev := event.False()
		if r[1].T == storage.TypeEvent {
			ev = r[1].Ev
		}
		if old, ok := out[r[0].S]; ok {
			ev = event.Or(old, ev)
		}
		out[r[0].S] = ev
	}
	return out, nil
}

// ViewEvent is MembershipEvent by ViewQuery: the individual's rows of the
// view disjoined, or the impossible event.
func ViewEvent(l *Loader, expr *dl.Expr, id string) (*event.Expr, error) {
	members, err := ViewQuery(l, expr, id)
	if err != nil {
		return nil, err
	}
	if ev, ok := members[id]; ok {
		return ev, nil
	}
	return event.False(), nil
}

// ViewSQL returns the DDL that defined a compiled view (data lineage for
// traceability, §5) or "" if unknown.
func (l *Loader) ViewSQL(viewName string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.viewSQL[viewName]
}

// Package mapping loads a Description Logic ABox into the embedded
// relational engine and compiles concept expressions into SQL views with
// event-expression propagation — the paper's §5 architecture: "we view each
// concept as a table [with] an ID attribute and an event expression
// attribute … each role as a table [with] SOURCE, DESTINATION, and an event
// expression", following Borgida & Brachman's loading scheme, "with added
// support for the propagation of event expressions".
package mapping

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/storage"
)

// Loader owns the concept/role tables of one database and compiles concept
// expressions to views. Safe for concurrent reads; declarations and view
// compilation are serialized.
type Loader struct {
	db   *engine.DB
	tbox *dl.TBox

	mu       sync.Mutex
	concepts map[string]bool   // declared concept names (original case)
	roles    map[string]bool   // declared role names
	views    map[string]string // canonical expr -> view name
	viewSQL  map[string]string // view name -> defining SQL (traceability)
	seq      int

	// Applied-situation bookkeeping, owned by the situation package: per
	// owner (a situated user), the assertion rows its last context apply put
	// into concept tables and the basic events that apply declared. The
	// owner's next apply retracts exactly those rows and retires exactly
	// those events, which keeps the event space bounded under context churn
	// and makes an apply cost its owner's measurements, not everyone's.
	// ctxRows is the running number of context rows per concept over all
	// owners. Guarded by its own mutex (reads may come from goroutines that
	// never touch the vocabulary), though applies themselves are mutators
	// and must be externally serialized like all others.
	ctxMu     sync.Mutex
	ctxOwners map[string]ownerContext
	ctxRows   map[string]int
}

// ContextRow is one assertion row a context apply put into a concept table.
type ContextRow struct{ Concept, Individual string }

// ownerContext is what one owner's last context apply left behind.
type ownerContext struct {
	rows   []ContextRow
	events []string
}

// restoredOwner owns the applied context a snapshot carried: dl_ctx does not
// say which user asserted what, and the first whole-loader apply retracts
// every owner anyway.
const restoredOwner = ""

// NewLoader creates a loader over db with the given TBox (may be nil; a
// fresh one is created). If db already holds a DL vocabulary — e.g. it was
// restored from an engine snapshot — the declared concepts and roles are
// adopted from the dl_vocab table.
func NewLoader(db *engine.DB, tbox *dl.TBox) *Loader {
	if tbox == nil {
		tbox = dl.NewTBox()
	}
	l := &Loader{
		db:        db,
		tbox:      tbox,
		concepts:  make(map[string]bool),
		roles:     make(map[string]bool),
		views:     make(map[string]string),
		viewSQL:   make(map[string]string),
		ctxOwners: make(map[string]ownerContext),
		ctxRows:   make(map[string]int),
	}
	// The domain table holds every known individual; it backs ⊤, nominals
	// and negation. dl_vocab records declarations so the vocabulary
	// survives snapshot round trips.
	db.MustExec("CREATE TABLE IF NOT EXISTS dl_domain (id TEXT, ev EVENT)")
	db.MustExec("CREATE INDEX ON dl_domain (id)")
	db.MustExec("CREATE TABLE IF NOT EXISTS dl_vocab (kind TEXT, name TEXT)")
	if res, err := db.Query("SELECT kind, name FROM dl_vocab"); err == nil {
		for _, row := range res.Rows {
			switch row[0].S {
			case "concept":
				l.concepts[row[1].S] = true
			case "role":
				l.roles[row[1].S] = true
			}
		}
	}
	// dl_ctx persists the applied-situation record (which concepts hold
	// context rows, which basic events the applies declared; written by
	// PersistContext when a snapshot is dumped), so a system restored from a
	// snapshot retracts and retires the snapshot's context on its first
	// apply — including concepts asserted with certain measurements, which
	// declare no events and could not be reconstructed from event names
	// alone.
	db.MustExec("CREATE TABLE IF NOT EXISTS dl_ctx (kind TEXT, name TEXT)")
	if res, err := db.Query("SELECT kind, name FROM dl_ctx"); err == nil {
		var concepts, events []string
		for _, row := range res.Rows {
			switch row[0].S {
			case "concept":
				concepts = append(concepts, row[1].S)
			case "event":
				events = append(events, row[1].S)
			}
		}
		l.AdoptContext(concepts, events)
	}
	return l
}

// DB returns the underlying database handle.
func (l *Loader) DB() *engine.DB { return l.db }

// TBox returns the loader's terminology.
func (l *Loader) TBox() *dl.TBox { return l.tbox }

// sanitize turns a DL name into a SQL identifier fragment.
func sanitize(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// ConceptTable returns the base-table name backing an atomic concept.
func ConceptTable(name string) string { return "c_" + sanitize(name) }

// RoleTable returns the base-table name backing a role.
func RoleTable(name string) string { return "r_" + sanitize(name) }

func sqlQuote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// DeclareConcept creates the backing table for an atomic concept;
// idempotent.
func (l *Loader) DeclareConcept(name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.concepts[name] {
		return nil
	}
	tab := ConceptTable(name)
	if l.db.HasTable(tab) {
		return fmt.Errorf("mapping: concept table %q collides with an existing table (name clash after sanitizing %q?)", tab, name)
	}
	if _, err := l.db.Exec(fmt.Sprintf("CREATE TABLE %s (id TEXT, ev EVENT)", tab)); err != nil {
		return err
	}
	if _, err := l.db.Exec(fmt.Sprintf("CREATE INDEX ON %s (id)", tab)); err != nil {
		return err
	}
	if err := l.db.InsertRow("dl_vocab", "concept", name); err != nil {
		return err
	}
	l.concepts[name] = true
	return nil
}

// DeclareRole creates the backing table for a role; idempotent.
func (l *Loader) DeclareRole(name string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.roles[name] {
		return nil
	}
	tab := RoleTable(name)
	if l.db.HasTable(tab) {
		return fmt.Errorf("mapping: role table %q collides with an existing table (name clash after sanitizing %q?)", tab, name)
	}
	if _, err := l.db.Exec(fmt.Sprintf("CREATE TABLE %s (src TEXT, dst TEXT, ev EVENT)", tab)); err != nil {
		return err
	}
	if _, err := l.db.Exec(fmt.Sprintf("CREATE INDEX ON %s (src)", tab)); err != nil {
		return err
	}
	if _, err := l.db.Exec(fmt.Sprintf("CREATE INDEX ON %s (dst)", tab)); err != nil {
		return err
	}
	if err := l.db.InsertRow("dl_vocab", "role", name); err != nil {
		return err
	}
	l.roles[name] = true
	return nil
}

// HasConcept reports whether the named concept is declared.
func (l *Loader) HasConcept(name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.concepts[name]
}

// HasRole returns whether the named role is declared.
func (l *Loader) HasRole(name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.roles[name]
}

// vocabulary returns copies of the declared names for dl.Validate.
func (l *Loader) vocabulary() (concepts, roles map[string]bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	concepts = make(map[string]bool, len(l.concepts))
	for k := range l.concepts {
		concepts[k] = true
	}
	roles = make(map[string]bool, len(l.roles))
	for k := range l.roles {
		roles[k] = true
	}
	return concepts, roles
}

// DomainSize returns the number of registered individuals (dl_domain
// rows). The domain only grows, so an unchanged size proves that no
// individual was registered in between — which is what incremental plan
// maintenance checks before trusting cached memberships of views that read
// the closed domain (¬, ⊤, nominals).
func (l *Loader) DomainSize() int {
	tab, err := l.db.Catalog().Get("dl_domain")
	if err != nil {
		return 0
	}
	return tab.Len()
}

// registerIndividual ensures the individual is in the domain table.
func (l *Loader) registerIndividual(id string) error {
	tab, err := l.db.Catalog().Get("dl_domain")
	if err != nil {
		return err
	}
	rows, err := tab.Lookup("id", storage.Text(id))
	if err != nil {
		return err
	}
	if len(rows) > 0 {
		return nil
	}
	return l.db.InsertRow("dl_domain", id, event.True())
}

// AssertConcept asserts id ∈ concept with the given assertion event (nil
// means certain). Repeated assertions of the same membership are merged by
// disjunction of their events.
func (l *Loader) AssertConcept(concept, id string, ev *event.Expr) error {
	if !l.HasConcept(concept) {
		return fmt.Errorf("mapping: concept %q not declared", concept)
	}
	if ev == nil {
		ev = event.True()
	}
	if err := l.registerIndividual(id); err != nil {
		return err
	}
	tab, err := l.db.Catalog().Get(ConceptTable(concept))
	if err != nil {
		return err
	}
	key := storage.Text(id)
	existing, err := tab.Lookup("id", key)
	if err != nil {
		return err
	}
	if len(existing) > 0 {
		merged := ev
		for _, r := range existing {
			merged = event.Or(merged, r[1].Ev)
		}
		ev = merged
		if _, err := tab.DeleteKey("id", key); err != nil {
			return err
		}
	}
	return l.db.InsertRow(ConceptTable(concept), id, ev)
}

// RetractConcept removes the assertion of id ∈ concept, touching only that
// individual's row. Retracting from an undeclared concept is a no-op: it
// holds no assertions.
func (l *Loader) RetractConcept(concept, id string) error {
	if !l.HasConcept(concept) {
		return nil
	}
	tab, err := l.db.Catalog().Get(ConceptTable(concept))
	if err != nil {
		return err
	}
	_, err = tab.DeleteKey("id", storage.Text(id))
	return err
}

// AssertRole asserts (src, dst) ∈ role with the given assertion event (nil
// means certain). Repeated assertions of the same pair are merged by
// disjunction.
func (l *Loader) AssertRole(role, src, dst string, ev *event.Expr) error {
	if !l.HasRole(role) {
		return fmt.Errorf("mapping: role %q not declared", role)
	}
	if ev == nil {
		ev = event.True()
	}
	if err := l.registerIndividual(src); err != nil {
		return err
	}
	if err := l.registerIndividual(dst); err != nil {
		return err
	}
	tab, err := l.db.Catalog().Get(RoleTable(role))
	if err != nil {
		return err
	}
	srcKey, dstKey := storage.Text(src), storage.Text(dst)
	rows, err := tab.Lookup("src", srcKey)
	if err != nil {
		return err
	}
	var dup []*event.Expr
	for _, r := range rows {
		if storage.Equal(r[1], dstKey) {
			dup = append(dup, r[2].Ev)
		}
	}
	if len(dup) > 0 {
		merged := ev
		for _, d := range dup {
			merged = event.Or(merged, d)
		}
		ev = merged
		tab.Delete(func(r storage.Row) bool {
			return storage.Equal(r[0], srcKey) && storage.Equal(r[1], dstKey)
		})
	}
	return l.db.InsertRow(RoleTable(role), src, dst, ev)
}

// ClearConcept removes all assertions of a concept — used to refresh
// dynamic context concepts between queries (§5: dynamic contexts "must be
// acquired real-time").
func (l *Loader) ClearConcept(concept string) error {
	if !l.HasConcept(concept) {
		return fmt.Errorf("mapping: concept %q not declared", concept)
	}
	tab, err := l.db.Catalog().Get(ConceptTable(concept))
	if err != nil {
		return err
	}
	tab.Delete(func(storage.Row) bool { return true })
	return nil
}

// OwnerContext returns copies of the assertion rows the owner's last context
// apply left in concept tables and of the basic events it declared (both
// empty for an owner that never applied, or whose last apply was empty).
func (l *Loader) OwnerContext(owner string) (rows []ContextRow, events []string) {
	l.ctxMu.Lock()
	defer l.ctxMu.Unlock()
	oc := l.ctxOwners[owner]
	return slices.Clone(oc.rows), slices.Clone(oc.events)
}

// SetOwnerContext replaces the owner's applied-context record, keeping the
// per-concept row counts in step. The situation layer calls it at the end of
// every apply with exactly what the owner then has asserted and declared —
// after a mid-apply failure that is whatever was not yet retracted plus
// whatever was already asserted, so the owner's next apply finishes the
// cleanup. An owner left with nothing is forgotten. The loader keeps the
// slices; the caller must not use them afterwards.
func (l *Loader) SetOwnerContext(owner string, rows []ContextRow, events []string) {
	l.ctxMu.Lock()
	defer l.ctxMu.Unlock()
	for _, r := range l.ctxOwners[owner].rows {
		if l.ctxRows[r.Concept]--; l.ctxRows[r.Concept] <= 0 {
			delete(l.ctxRows, r.Concept)
		}
	}
	for _, r := range rows {
		l.ctxRows[r.Concept]++
	}
	if len(rows) == 0 && len(events) == 0 {
		delete(l.ctxOwners, owner)
		return
	}
	l.ctxOwners[owner] = ownerContext{rows: rows, events: events}
}

// ContextOwners returns the sorted owners that currently have context rows
// asserted or context events declared.
func (l *Loader) ContextOwners() []string {
	l.ctxMu.Lock()
	defer l.ctxMu.Unlock()
	owners := make([]string, 0, len(l.ctxOwners))
	for o := range l.ctxOwners {
		owners = append(owners, o)
	}
	slices.Sort(owners)
	return owners
}

// ContextConcepts returns the sorted concepts that currently hold context
// rows of any owner — O(vocabulary), not O(owners).
func (l *Loader) ContextConcepts() []string {
	l.ctxMu.Lock()
	defer l.ctxMu.Unlock()
	concepts := make([]string, 0, len(l.ctxRows))
	for c := range l.ctxRows {
		concepts = append(concepts, c)
	}
	slices.Sort(concepts)
	return concepts
}

// AppliedContext returns the applied context over all owners: the concepts
// holding context rows and the basic events context applies declared (both
// empty for a fresh loader).
func (l *Loader) AppliedContext() (concepts, events []string) {
	concepts = l.ContextConcepts()
	l.ctxMu.Lock()
	defer l.ctxMu.Unlock()
	for _, oc := range l.ctxOwners {
		events = append(events, oc.events...)
	}
	slices.Sort(events)
	return concepts, events
}

// ConceptRows returns how many assertion rows the concept's table holds (0
// for an undeclared concept) and how many rows context applies put there;
// total > context means the concept also holds data, which a context's rows
// must not be mixed with.
func (l *Loader) ConceptRows(concept string) (total, context int) {
	l.ctxMu.Lock()
	context = l.ctxRows[concept]
	l.ctxMu.Unlock()
	if !l.HasConcept(concept) {
		return 0, context
	}
	if tab, err := l.db.Catalog().Get(ConceptTable(concept)); err == nil {
		total = tab.Len()
	}
	return total, context
}

// AdoptContext records an applied context found in a restored database —
// every row currently in the given concepts' tables and the given events —
// under one owner of its own, so the first whole-loader apply retracts and
// retires it. A no-op when both lists are empty.
func (l *Loader) AdoptContext(concepts, events []string) {
	var rows []ContextRow
	for _, c := range concepts {
		tab, err := l.db.Catalog().Get(ConceptTable(c))
		if err != nil {
			continue
		}
		_ = tab.Scan(func(r storage.Row) error { // the callback never fails
			rows = append(rows, ContextRow{Concept: c, Individual: r[0].S})
			return nil
		})
	}
	l.SetOwnerContext(restoredOwner, rows, events)
}

// PersistContext writes the applied-context record through to the dl_ctx
// table so it survives a snapshot round trip. Called when a snapshot is
// dumped, not on every apply: the table is only ever read by NewLoader.
func (l *Loader) PersistContext() error {
	concepts, events := l.AppliedContext()
	tab, err := l.db.Catalog().Get("dl_ctx")
	if err != nil {
		return err
	}
	tab.Delete(func(storage.Row) bool { return true })
	for _, c := range concepts {
		if err := l.db.InsertRow("dl_ctx", "concept", c); err != nil {
			return err
		}
	}
	for _, e := range events {
		if err := l.db.InsertRow("dl_ctx", "event", e); err != nil {
			return err
		}
	}
	return nil
}

// ViewFor compiles a concept expression into a database view and returns
// the view's name. The view has columns (id TEXT, ev EVENT): the tuples
// possibly included in the expression together with their inclusion events.
// Compilation is cached per canonical expression.
func (l *Loader) ViewFor(expr *dl.Expr) (string, error) {
	concepts, roles := l.vocabulary()
	if err := dl.Validate(expr, concepts, roles); err != nil {
		return "", err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.viewForLocked(expr)
}

func (l *Loader) viewForLocked(expr *dl.Expr) (string, error) {
	// Atomic concepts are backed directly by their base tables.
	if expr.Op() == dl.OpAtom {
		return ConceptTable(expr.Name()), nil
	}
	if expr.Op() == dl.OpTop {
		return "dl_domain", nil
	}
	key := expr.String()
	if name, ok := l.views[key]; ok {
		return name, nil
	}
	l.seq++
	name := fmt.Sprintf("v_dl_%04d", l.seq)
	sqlText, err := l.viewSQLFor(expr)
	if err != nil {
		return "", err
	}
	ddl := fmt.Sprintf("CREATE OR REPLACE VIEW %s AS %s", name, sqlText)
	if _, err := l.db.Exec(ddl); err != nil {
		return "", fmt.Errorf("mapping: compiling %s: %w", expr, err)
	}
	l.views[key] = name
	l.viewSQL[name] = ddl
	return name, nil
}

// viewSQLFor emits the SELECT for one expression node, recursing through
// viewForLocked so shared subexpressions compile once.
func (l *Loader) viewSQLFor(expr *dl.Expr) (string, error) {
	switch expr.Op() {
	case dl.OpTop:
		return "SELECT id, ev FROM dl_domain", nil
	case dl.OpBottom:
		return "SELECT id, ev FROM dl_domain WHERE FALSE", nil
	case dl.OpAtom:
		return fmt.Sprintf("SELECT id, ev FROM %s", ConceptTable(expr.Name())), nil
	case dl.OpNominal:
		quoted := make([]string, len(expr.Individuals()))
		for i, ind := range expr.Individuals() {
			quoted[i] = sqlQuote(ind)
		}
		return fmt.Sprintf("SELECT id, ev FROM dl_domain WHERE id IN (%s)", strings.Join(quoted, ", ")), nil
	case dl.OpAnd:
		// t0 JOIN t1 ON t0.id = t1.id …, conjoining events.
		var from strings.Builder
		evArgs := make([]string, len(expr.Args()))
		for i, arg := range expr.Args() {
			child, err := l.viewForLocked(arg)
			if err != nil {
				return "", err
			}
			alias := fmt.Sprintf("t%d", i)
			if i == 0 {
				fmt.Fprintf(&from, "%s %s", child, alias)
			} else {
				fmt.Fprintf(&from, " JOIN %s %s ON t0.id = %s.id", child, alias, alias)
			}
			evArgs[i] = alias + ".ev"
		}
		return fmt.Sprintf("SELECT t0.id AS id, EV_AND(%s) AS ev FROM %s",
			strings.Join(evArgs, ", "), from.String()), nil
	case dl.OpOr:
		// Union the branches, then group per individual disjoining events.
		branches := make([]string, len(expr.Args()))
		for i, arg := range expr.Args() {
			child, err := l.viewForLocked(arg)
			if err != nil {
				return "", err
			}
			branches[i] = fmt.Sprintf("SELECT id, ev FROM %s", child)
		}
		return fmt.Sprintf("SELECT u.id AS id, EV_OR_AGG(u.ev) AS ev FROM (%s) u GROUP BY u.id",
			strings.Join(branches, " UNION ALL ")), nil
	case dl.OpExists:
		filler, err := l.viewForLocked(expr.Filler())
		if err != nil {
			return "", err
		}
		// ∃R.C: an individual x is included if some (x, y) ∈ R with y ∈ C;
		// the inclusion event is ∨_y (R(x,y) ∧ C(y)).
		return fmt.Sprintf(
			"SELECT r.src AS id, EV_OR_AGG(EV_AND(r.ev, c.ev)) AS ev FROM %s r JOIN %s c ON r.dst = c.id GROUP BY r.src",
			RoleTable(expr.Name()), filler), nil
	case dl.OpNot:
		inner, err := l.viewForLocked(expr.Args()[0])
		if err != nil {
			return "", err
		}
		// ¬C over the closed domain: every individual, with the complement
		// of its inclusion event (a LEFT JOIN miss is the impossible event,
		// so EV_NOT yields ⊤).
		return fmt.Sprintf(
			"SELECT d.id AS id, EV_AND(d.ev, EV_NOT(c.ev)) AS ev FROM dl_domain d LEFT JOIN %s c ON d.id = c.id",
			inner), nil
	}
	return "", fmt.Errorf("mapping: cannot compile %s", expr)
}

// ViewSQL returns the DDL that defined a compiled view (data lineage for
// traceability, §5) or "" if unknown.
func (l *Loader) ViewSQL(viewName string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.viewSQL[viewName]
}

// MembershipEvent returns the event under which individual id belongs to
// the concept expression — the impossible event if the individual does not
// appear in the compiled view.
func (l *Loader) MembershipEvent(expr *dl.Expr, id string) (*event.Expr, error) {
	view, err := l.ViewFor(expr)
	if err != nil {
		return nil, err
	}
	res, err := l.db.Query(fmt.Sprintf("SELECT ev FROM %s WHERE id = %s", view, sqlQuote(id)))
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return event.False(), nil
	}
	evs := make([]*event.Expr, 0, len(res.Rows))
	for _, r := range res.Rows {
		ev, err := rowEvent(r[0])
		if err != nil {
			return nil, err
		}
		evs = append(evs, ev)
	}
	return event.Or(evs...), nil
}

// Members returns every individual possibly in the concept expression with
// its inclusion event.
func (l *Loader) Members(expr *dl.Expr) (map[string]*event.Expr, error) {
	view, err := l.ViewFor(expr)
	if err != nil {
		return nil, err
	}
	res, err := l.db.Query(fmt.Sprintf("SELECT id, ev FROM %s", view))
	if err != nil {
		return nil, err
	}
	out := make(map[string]*event.Expr, len(res.Rows))
	for _, r := range res.Rows {
		ev, err := rowEvent(r[1])
		if err != nil {
			return nil, err
		}
		if old, ok := out[r[0].S]; ok {
			ev = event.Or(old, ev)
		}
		out[r[0].S] = ev
	}
	return out, nil
}

func rowEvent(v storage.Value) (*event.Expr, error) {
	switch v.T {
	case storage.TypeEvent:
		return v.Ev, nil
	case storage.TypeNull:
		return event.False(), nil
	}
	return nil, fmt.Errorf("mapping: expected EVENT column, got %s", v.T)
}

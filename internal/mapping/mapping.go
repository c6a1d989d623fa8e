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
	"sync/atomic"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/sql"
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

	// The membership memo (see Members): canonical expr -> the last handle
	// computed for it, all of them computed at memoRedefs redefinitions of the
	// engine's schema. Its own mutex, so a rank's look-up never waits behind a
	// view compilation. The counters (and the size mirror) are atomics so
	// MembershipStats never takes memoMu: a stats scrape must not queue behind
	// rank traffic.
	memoMu      sync.Mutex
	memo        map[string]*Membership
	memoRedefs  uint64
	memoEntries atomic.Int64 // mirrors len(memo), maintained under memoMu
	memoHits    atomic.Int64
	memoPatched atomic.Int64
	memoQueries atomic.Int64
	memoDropped atomic.Int64

	// The write log (see logWrite): per base table, which individual each of
	// the loader's own writes touched and the table-version interval it moved.
	// It is what lets Members patch a stale handle instead of re-running its
	// view.
	logMu  sync.Mutex
	writes map[*storage.Table][]loggedWrite

	// The document sides (see DocSide): one per ordered handle list plans are
	// compiled over, oldest first.
	docMu    sync.Mutex
	docSides []*DocSide

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
		memo:      make(map[string]*Membership),
		writes:    make(map[*storage.Table][]loggedWrite),
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
	defer l.logWrite(tab, tab.Version(), id)
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
	defer l.logWrite(tab, tab.Version(), id)
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
	defer l.logWrite(tab, tab.Version(), id)
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
	defer l.logWrite(tab, tab.Version(), src)
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
		// Through the src index, with the dst test as the residual: replacing
		// one pair costs that source's tuples, not the role's.
		if _, err := tab.DeleteKeyWhere("src", srcKey, func(r storage.Row) bool {
			return storage.Equal(r[1], dstKey)
		}); err != nil {
			return err
		}
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
// Compilation is cached per canonical expression, and only a compilation
// validates the expression's vocabulary: a cached view was validated when it
// compiled, and nothing is ever undeclared.
func (l *Loader) ViewFor(expr *dl.Expr) (string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.viewForLocked(expr)
}

func (l *Loader) viewForLocked(expr *dl.Expr) (string, error) {
	// Atomic concepts are backed directly by their base tables.
	if expr.Op() == dl.OpAtom {
		if err := dl.Validate(expr, l.concepts, l.roles); err != nil {
			return "", err
		}
		return ConceptTable(expr.Name()), nil
	}
	if expr.Op() == dl.OpTop {
		return "dl_domain", nil
	}
	key := expr.String()
	if name, ok := l.views[key]; ok {
		return name, nil
	}
	if err := dl.Validate(expr, l.concepts, l.roles); err != nil {
		return "", err
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
	res, err := l.db.QueryStmt(eventQuery(view, id))
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

// The two statements the rank path issues against a compiled view, built as
// syntax trees so that no SQL text is formatted, lexed or parsed per call.
var (
	idItem = sql.SelectItem{Expr: &sql.ColumnRef{Column: "id"}}
	evItem = sql.SelectItem{Expr: &sql.ColumnRef{Column: "ev"}}
)

// membersQuery is SELECT id, ev FROM view, restricted by WHERE id IN (only…)
// when only is non-nil; eventQuery is SELECT ev FROM view WHERE id = 'id'.
// The executor answers both restrictions through the id indexes under the
// view, and returns the rows the unrestricted query would — the same rows in
// the same order — for those ids.
func membersQuery(view string, only []string) *sql.SelectStmt {
	stmt := &sql.SelectStmt{
		Items: []sql.SelectItem{idItem, evItem},
		From:  []sql.TableRef{{Table: view}},
		Limit: -1,
	}
	if only != nil {
		set := make([]sql.Expr, len(only))
		for i, id := range only {
			set[i] = &sql.Literal{Val: storage.Text(id)}
		}
		stmt.Where = &sql.InList{X: idItem.Expr, Set: set}
	}
	return stmt
}

// foldRows files (id, ev) rows into events, disjoining the rows of one
// individual in the order they come.
func foldRows(events map[string]*event.Expr, rows []storage.Row) error {
	for _, r := range rows {
		ev, err := rowEvent(r[1])
		if err != nil {
			return err
		}
		if old, ok := events[r[0].S]; ok {
			ev = event.Or(old, ev)
		}
		events[r[0].S] = ev
	}
	return nil
}

func eventQuery(view, id string) *sql.SelectStmt {
	return &sql.SelectStmt{
		Items: []sql.SelectItem{evItem},
		From:  []sql.TableRef{{Table: view}},
		Where: &sql.Binary{Op: "=", L: idItem.Expr, R: &sql.Literal{Val: storage.Text(id)}},
		Limit: -1,
	}
}

// Membership is who is in a concept expression: every individual possibly
// included, with its inclusion event. A handle is immutable and shared — by
// the loader's memo, by every compiled plan that ranks under the expression
// and by every rank that resolves it as a target — so holders must treat
// Events and IDs as read-only. A handle patched from a predecessor (see
// Members) shares with it every event the writes in between left alone, and
// IDs — or all of Events — when they did not move.
type Membership struct {
	Events map[string]*event.Expr // individual -> inclusion event
	IDs    []string               // the keys of Events, sorted

	// What the handle was computed under: the engine's redefinition count and
	// the write version of every base table the expression's view reads.
	db     *engine.DB
	redefs uint64
	reads  []tableRead

	// Where the handle stands among the handles patched from one view query
	// (see ChangedSince): the query's lineage, how many patches that moved a
	// membership lie between it and this handle, and the individuals each of
	// the last few of them moved, oldest first.
	lineage *byte
	seq     uint64
	history [][]string

	// blocks memoizes Blocks.
	blocks atomic.Pointer[memberBlocks]
}

// tableRead is one base table of a read set at the version it was read at.
type tableRead struct {
	tab     *storage.Table
	version uint64
}

// Current reports whether the handle still says who is in the expression:
// no table it read has been written and no name has been redefined since it
// was computed. The views are pure functions of their base tables, so a
// current handle is bit-identical to a fresh query. It costs a handful of
// atomic loads. Versions only move inside the caller's write section
// (System's locking contract), so an answer obtained while reading holds for
// the whole read.
func (m *Membership) Current() bool {
	if m.db.Redefinitions() != m.redefs {
		return false
	}
	for _, r := range m.reads {
		if r.tab.Version() != r.version {
			return false
		}
	}
	return true
}

// MembershipStats counts the membership memo's work. Per loader, so a test
// can count one system's queries.
type MembershipStats struct {
	// Hits are look-ups answered by a current handle; Patched the look-ups
	// that brought a stale handle up to date by re-reading the individuals
	// the loader's logged writes touched; Queries the look-ups that evaluated
	// the expression's whole view. Every look-up is exactly one of the three.
	Hits    int64 `json:"hits"`
	Patched int64 `json:"patched"`
	Queries int64 `json:"queries"`
	// Entries is the number of handles the memo holds.
	Entries int `json:"entries"`
	// DroppedByDDL counts handles discarded because a DDL statement dropped
	// or redefined a table or view.
	DroppedByDDL int64 `json:"dropped_by_ddl"`
}

// Merge sums two loaders' counters (the shard coordinator's aggregate).
func (s MembershipStats) Merge(o MembershipStats) MembershipStats {
	return MembershipStats{
		Hits:         s.Hits + o.Hits,
		Patched:      s.Patched + o.Patched,
		Queries:      s.Queries + o.Queries,
		Entries:      s.Entries + o.Entries,
		DroppedByDDL: s.DroppedByDDL + o.DroppedByDDL,
	}
}

// MembershipStats snapshots the memo's counters, lock-free.
func (l *Loader) MembershipStats() MembershipStats {
	return MembershipStats{
		Hits:         l.memoHits.Load(),
		Patched:      l.memoPatched.Load(),
		Queries:      l.memoQueries.Load(),
		Entries:      int(l.memoEntries.Load()),
		DroppedByDDL: l.memoDropped.Load(),
	}
}

// maxMemberships bounds the memo. Rule preferences and the targets people
// rank are a few hundred expressions at most; a client streaming distinct
// ad-hoc targets past the bound pushes out an arbitrary entry per new one,
// which costs that expression's next look-up a query and nothing else.
const maxMemberships = 1024

// maxLoggedWrites bounds each base table's write log. A handle is looked up —
// and patched — by the first rank after a write, so the writes between two
// look-ups of a live expression are a few; an expression nobody asked for
// while more than this many went by is queried once and is exact again.
const maxLoggedWrites = 64

// maxMemberHistory bounds how many moving patches back a handle can name the
// individuals that changed (Membership.ChangedSince). A plan refreshes on its
// user's next rank; one that slept through more than this many compares the
// memberships itself, as it does across a view query.
const maxMemberHistory = 16

// Members returns every individual possibly in the concept expression with
// its inclusion event, as a shared read-only handle. The answer is a function
// of the base tables the expression's view reads, so it is computed once per
// version of those tables and memoized per canonical expression: every plan,
// target resolution and user asking while the tables stand still gets the
// same handle. A memoized handle whose tables moved is patched — only the
// individuals the writes reached are re-read — when the loader's write log
// accounts for every step they moved by, and the view is queried otherwise
// (see patchMembers). Concurrent misses may both patch or query; the last one
// stays.
func (l *Loader) Members(expr *dl.Expr) (*Membership, error) {
	key := expr.String()
	l.memoMu.Lock()
	redefs := l.db.Redefinitions()
	if redefs != l.memoRedefs {
		// A name was dropped or redefined: no handle can be current again.
		l.memoDropped.Add(int64(len(l.memo)))
		clear(l.memo)
		l.memoEntries.Store(0)
		l.memoRedefs = redefs
	}
	m := l.memo[key]
	l.memoMu.Unlock()
	if m != nil && m.Current() {
		l.memoHits.Add(1)
		return m, nil
	}

	if m != nil {
		m = l.patchMembers(expr, m)
	}
	if m != nil {
		l.memoPatched.Add(1)
	} else {
		var err error
		if m, err = l.queryMembers(expr, redefs); err != nil {
			return nil, err
		}
		l.memoQueries.Add(1)
	}
	l.memoMu.Lock()
	if redefs == l.memoRedefs {
		if _, ok := l.memo[key]; !ok && len(l.memo) >= maxMemberships {
			for evict := range l.memo {
				delete(l.memo, evict)
				break
			}
		}
		l.memo[key] = m
		l.memoEntries.Store(int64(len(l.memo)))
	}
	l.memoMu.Unlock()
	return m, nil
}

// queryMembers evaluates the expression's view. The read set's versions are
// taken before the query, so a write racing it (a caller breaking the locking
// contract) leaves a handle that reads as stale, never one that validates
// rows it did not see.
func (l *Loader) queryMembers(expr *dl.Expr, redefs uint64) (*Membership, error) {
	view, err := l.ViewFor(expr)
	if err != nil {
		return nil, err
	}
	m := &Membership{db: l.db, redefs: redefs, lineage: new(byte)}
	if m.reads, err = l.readSet(expr); err != nil {
		return nil, err
	}
	res, err := l.db.QueryStmt(membersQuery(view, nil))
	if err != nil {
		return nil, err
	}
	m.Events = make(map[string]*event.Expr, len(res.Rows))
	if err := foldRows(m.Events, res.Rows); err != nil {
		return nil, err
	}
	m.IDs = make([]string, 0, len(m.Events))
	for id := range m.Events {
		m.IDs = append(m.IDs, id)
	}
	slices.Sort(m.IDs)
	return m, nil
}

// readSet resolves the base tables the expression's view reads — its
// signature's concept and role tables, and dl_domain when the view compiles
// against the closed domain — each at its current version. The TBox is not
// in it: the views are structural and never consult the terminology.
func (l *Loader) readSet(expr *dl.Expr) ([]tableRead, error) {
	sig := expr.Signature()
	names := make([]string, 0, len(sig.Concepts)+len(sig.Roles)+1)
	for _, c := range sig.Concepts {
		names = append(names, ConceptTable(c))
	}
	for _, r := range sig.Roles {
		names = append(names, RoleTable(r))
	}
	if readsDomain(expr) {
		names = append(names, "dl_domain")
	}
	reads := make([]tableRead, len(names))
	for i, name := range names {
		tab, err := l.db.Catalog().Get(name)
		if err != nil {
			return nil, err
		}
		reads[i] = tableRead{tab: tab, version: tab.Version()}
	}
	return reads, nil
}

// readsDomain reports whether the expression's compiled view reads dl_domain
// (¬, ⊤ and nominals do), i.e. whether registering a new individual — which
// a context apply for a first-seen user does — can change who is in it even
// though no concept or role table changed.
func readsDomain(e *dl.Expr) bool {
	switch e.Op() {
	case dl.OpTop, dl.OpNot, dl.OpNominal:
		return true
	}
	for _, a := range e.Args() {
		if readsDomain(a) {
			return true
		}
	}
	return false
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

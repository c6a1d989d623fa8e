// Package mapping loads a Description Logic ABox into the embedded
// relational engine and compiles concept expressions into SQL views with
// event-expression propagation — the paper's §5 architecture: "we view each
// concept as a table [with] an ID attribute and an event expression
// attribute … each role as a table [with] SOURCE, DESTINATION, and an event
// expression", following Borgida & Brachman's loading scheme, "with added
// support for the propagation of event expressions". The views are the
// reference semantics; the memberships the ranker reads are evaluated straight
// off the base tables (eval), row for row what the views return.
package mapping

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/storage"
)

// Loader owns the concept/role tables of one database, evaluates concept
// expressions over them and compiles them to views. Safe for concurrent
// reads; declarations and view compilation are serialized.
type Loader struct {
	db *engine.DB

	// vocab is the declared vocabulary, read without a lock; declarations
	// swap in a copy under mu.
	vocab atomic.Pointer[vocabulary]

	mu      sync.Mutex
	views   map[string]string // canonical expr -> view name
	viewSQL map[string]string // view name -> defining SQL (traceability)
	seq     int

	// The membership memo (see Members): canonical expr -> the last handle
	// computed for it, all of them computed at memoRedefs redefinitions of the
	// engine's schema. texts is the memo's index by the text a target was
	// sent as (see MembersOf): each text's parsed expression and its
	// canonical key, so a repeated text reaches its handle without parsing.
	// Both maps share the bound and are emptied together. Its own mutex, so a
	// rank's look-up never waits behind a declaration. The counters (and the
	// size mirror) are atomics so MembershipStats never takes memoMu: a stats
	// scrape must not queue behind rank traffic.
	memoMu      sync.Mutex
	memo        map[string]*Membership
	texts       map[string]parsedText
	memoRedefs  uint64
	memoEntries atomic.Int64 // mirrors len(memo), maintained under memoMu
	memoHits    atomic.Int64
	memoPatched atomic.Int64
	memoQueries atomic.Int64
	memoDropped atomic.Int64

	// The write log (see logWrite): per base table, which individual each of
	// the loader's own writes touched and the table-version interval it moved.
	// It is what lets Members patch a stale handle instead of evaluating the
	// expression again.
	logMu  sync.Mutex
	writes map[*storage.Table]*writeLog

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

// vocabulary maps the declared concept and role names (original case) to
// their tables' catalog keys. It is never written once published.
type vocabulary struct{ concepts, roles map[string]string }

// ContextRow is one assertion row a context apply put into a concept table.
type ContextRow struct{ Concept, Individual string }

// ownerContext is what one owner's last context apply left behind.
type ownerContext struct {
	rows   []ContextRow
	events []string
}

// NewLoader creates a loader over db. If db already holds a DL vocabulary —
// e.g. it was restored from an engine snapshot — the declared concepts and
// roles are adopted from the dl_vocab table.
func NewLoader(db *engine.DB) *Loader {
	l := &Loader{
		db:        db,
		views:     make(map[string]string),
		viewSQL:   make(map[string]string),
		memo:      make(map[string]*Membership),
		texts:     make(map[string]parsedText),
		writes:    make(map[*storage.Table]*writeLog),
		ctxOwners: make(map[string]ownerContext),
		ctxRows:   make(map[string]int),
	}
	// The domain table holds every known individual; it backs ⊤, nominals
	// and negation. dl_vocab records declarations so the vocabulary
	// survives snapshot round trips.
	db.MustExec("CREATE TABLE IF NOT EXISTS dl_domain (id TEXT, ev EVENT)")
	db.MustExec("CREATE INDEX ON dl_domain (id)")
	db.MustExec("CREATE TABLE IF NOT EXISTS dl_vocab (kind TEXT, name TEXT)")
	v := &vocabulary{concepts: make(map[string]string), roles: make(map[string]string)}
	if res, err := db.Query("SELECT kind, name FROM dl_vocab"); err == nil {
		for _, row := range res.Rows {
			switch row[0].S {
			case "concept":
				v.concepts[row[1].S] = catalogKey(ConceptTable(row[1].S))
			case "role":
				v.roles[row[1].S] = catalogKey(RoleTable(row[1].S))
			}
		}
	}
	l.vocab.Store(v)
	// Snapshots leave applied context out, but older ones carry the dl_ctx
	// table that recorded it; drop it so it shows neither in queries nor in
	// the next snapshot.
	db.MustExec("DROP TABLE IF EXISTS dl_ctx")
	return l
}

// DB returns the underlying database handle.
func (l *Loader) DB() *engine.DB { return l.db }

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
// idempotent, and a declared name costs one map read.
func (l *Loader) DeclareConcept(name string) error {
	if l.HasConcept(name) {
		return nil
	}
	return l.declare("concept", name, ConceptTable(name), "(id TEXT, ev EVENT)", "id")
}

// DeclareRole creates the backing table for a role; idempotent, and a
// declared name costs one map read.
func (l *Loader) DeclareRole(name string) error {
	if l.HasRole(name) {
		return nil
	}
	return l.declare("role", name, RoleTable(name), "(src TEXT, dst TEXT, ev EVENT)", "src", "dst")
}

// CheckName refuses a concept or role name no rule can mention: the
// expression parser must read the name back as that same atom. Anything else
// ("", "a b", "TOP") could never be ranked on, yet would take a table — and,
// after sanitizing, the table a legal name needs ("a b" takes "a_b"'s).
func CheckName(kind, name string) error {
	if e, err := dl.Parse(name); err != nil || e.Op() != dl.OpAtom || e.Name() != name {
		return fmt.Errorf("mapping: %s name %q is not a name a rule can mention", kind, name)
	}
	return nil
}

// declare checks a new name, creates its table with an index on each of the
// indexed columns, records the name in dl_vocab and publishes the vocabulary
// with it; a declared name is left as it is.
func (l *Loader) declare(kind, name, tab, cols string, indexed ...string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := *l.vocab.Load()
	names := &v.concepts
	if kind == "role" {
		names = &v.roles
	}
	if _, ok := (*names)[name]; ok {
		return nil
	}
	if err := CheckName(kind, name); err != nil {
		return err
	}
	if l.db.HasTable(tab) {
		return fmt.Errorf("mapping: %s table %q collides with an existing table (name clash after sanitizing %q?)", kind, tab, name)
	}
	stmts := []string{fmt.Sprintf("CREATE TABLE %s %s", tab, cols)}
	for _, c := range indexed {
		stmts = append(stmts, fmt.Sprintf("CREATE INDEX ON %s (%s)", tab, c))
	}
	for _, stmt := range stmts {
		if _, err := l.db.Exec(stmt); err != nil {
			return err
		}
	}
	if err := l.db.InsertRow("dl_vocab", kind, name); err != nil {
		return err
	}
	*names = maps.Clone(*names)
	(*names)[name] = catalogKey(tab)
	l.vocab.Store(&v)
	return nil
}

// HasConcept reports whether the named concept is declared.
func (l *Loader) HasConcept(name string) bool {
	_, ok := l.vocab.Load().concepts[name]
	return ok
}

// HasRole returns whether the named role is declared.
func (l *Loader) HasRole(name string) bool {
	_, ok := l.vocab.Load().roles[name]
	return ok
}

// declared returns the table of a declared concept or role — names is the
// published vocabulary's concepts or roles — and whether the name is
// declared. The table is found through the catalog key the vocabulary stores,
// on every call: it is never remembered, so after SQL drops a loader table
// and creates it again the next write lands in the live one.
func (l *Loader) declared(names map[string]string, name string) (*storage.Table, bool, error) {
	key, ok := names[name]
	if !ok {
		return nil, false, nil
	}
	tab, err := l.db.Catalog().ByKey(key)
	return tab, true, err
}

// RegisterIndividual puts the individual into the domain table unless it is
// there already. AssertConcept and AssertRole register the individuals they
// assert; a caller asserting one individual many times registers it once and
// asserts with AssertRegistered.
func (l *Loader) RegisterIndividual(id string) error {
	tab, err := l.db.Catalog().ByKey("dl_domain")
	if err != nil {
		return err
	}
	key, known := storage.Text(id), false
	if err := tab.ScanKey("id", key, func(storage.Row) error { known = true; return nil }); err != nil || known {
		return err
	}
	defer l.logWrite(tab, tab.Version(), id)
	return tab.Insert(storage.Row{key, storage.Event(event.True())})
}

// AssertConcept asserts id ∈ concept with the given assertion event (nil
// means certain). Repeated assertions of the same membership are merged by
// disjunction of their events.
func (l *Loader) AssertConcept(concept, id string, ev *event.Expr) error {
	if !l.HasConcept(concept) {
		return fmt.Errorf("mapping: concept %q not declared", concept)
	}
	if err := l.RegisterIndividual(id); err != nil {
		return err
	}
	return l.AssertRegistered(concept, id, ev)
}

// AssertRegistered is AssertConcept for an individual RegisterIndividual has
// put into the domain: it asserts the membership and leaves the domain alone.
func (l *Loader) AssertRegistered(concept, id string, ev *event.Expr) error {
	tab, ok, err := l.declared(l.vocab.Load().concepts, concept)
	if !ok {
		return fmt.Errorf("mapping: concept %q not declared", concept)
	}
	if err != nil {
		return err
	}
	if ev == nil {
		ev = event.True()
	}
	defer l.logWrite(tab, tab.Version(), id)
	key, existing := storage.Text(id), 0
	if err := tab.ScanKey("id", key, func(r storage.Row) error {
		ev = event.Or(ev, r[1].Ev)
		existing++
		return nil
	}); err != nil {
		return err
	}
	if existing > 0 {
		if _, err := tab.DeleteKey("id", key); err != nil {
			return err
		}
	}
	return tab.Insert(storage.Row{key, storage.Event(ev)})
}

// RetractConcept removes the assertion of id ∈ concept, touching only that
// individual's row. Retracting from an undeclared concept is a no-op: it
// holds no assertions.
func (l *Loader) RetractConcept(concept, id string) error {
	tab, ok, err := l.declared(l.vocab.Load().concepts, concept)
	if !ok || err != nil {
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
	if err := l.RegisterIndividual(src); err != nil {
		return err
	}
	if err := l.RegisterIndividual(dst); err != nil {
		return err
	}
	tab, _, err := l.declared(l.vocab.Load().roles, role)
	if err != nil {
		return err
	}
	defer l.logWrite(tab, tab.Version(), src)
	srcKey, dstKey, dups := storage.Text(src), storage.Text(dst), 0
	if err := tab.ScanKey("src", srcKey, func(r storage.Row) error {
		if storage.Equal(r[1], dstKey) {
			ev = event.Or(ev, r[2].Ev)
			dups++
		}
		return nil
	}); err != nil {
		return err
	}
	if dups > 0 {
		// Through the src index, with the dst test as the residual: replacing
		// one pair costs that source's tuples, not the role's.
		if _, err := tab.DeleteKeyWhere("src", srcKey, func(r storage.Row) bool {
			return storage.Equal(r[1], dstKey)
		}); err != nil {
			return err
		}
	}
	return tab.Insert(storage.Row{srcKey, dstKey, storage.Event(ev)})
}

// ClearConcept removes all assertions of a concept — used to refresh
// dynamic context concepts between queries (§5: dynamic contexts "must be
// acquired real-time").
func (l *Loader) ClearConcept(concept string) error {
	tab, ok, err := l.declared(l.vocab.Load().concepts, concept)
	if !ok {
		return fmt.Errorf("mapping: concept %q not declared", concept)
	}
	if err != nil {
		return err
	}
	_, _ = tab.Delete(func(storage.Row) (bool, error) { return true, nil }) // the match never fails
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

// ContextOmit returns what a snapshot leaves out of the database: every
// owner's context rows and the basic events its apply declared.
func (l *Loader) ContextOmit() engine.Omit {
	omit := engine.Omit{Rows: make(map[string]map[string]bool), Events: make(map[string]bool)}
	l.ctxMu.Lock()
	defer l.ctxMu.Unlock()
	for _, oc := range l.ctxOwners {
		for _, r := range oc.rows {
			tab := ConceptTable(r.Concept)
			if omit.Rows[tab] == nil {
				omit.Rows[tab] = make(map[string]bool)
			}
			omit.Rows[tab][r.Individual] = true
		}
		for _, e := range oc.events {
			omit.Events[e] = true
		}
	}
	return omit
}

// ConceptRows returns how many assertion rows the concept's table holds (0
// for an undeclared concept) and how many rows context applies put there;
// total > context means the concept also holds data, which a context's rows
// must not be mixed with.
func (l *Loader) ConceptRows(concept string) (total, context int) {
	l.ctxMu.Lock()
	context = l.ctxRows[concept]
	l.ctxMu.Unlock()
	if tab, ok, err := l.declared(l.vocab.Load().concepts, concept); ok && err == nil {
		total = tab.Len()
	}
	return total, context
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
		if err := l.validate(expr); err != nil {
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
	if err := l.validate(expr); err != nil {
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

// viewSQLFor emits the SELECT for one expression node other than an atom or
// ⊤ (viewForLocked names their tables), recursing through viewForLocked so
// shared subexpressions compile once.
func (l *Loader) viewSQLFor(expr *dl.Expr) (string, error) {
	switch expr.Op() {
	case dl.OpBottom:
		return "SELECT id, ev FROM dl_domain WHERE FALSE", nil
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
		// of its inclusion event — C's rows of it disjoined first, so two rows
		// c1, c2 give ¬(c1 ∨ c2), not ¬c1 ∨ ¬c2 (a LEFT JOIN miss is the
		// impossible event, so EV_NOT yields ⊤).
		return fmt.Sprintf(
			"SELECT d.id AS id, EV_AND(d.ev, EV_NOT(c.ev)) AS ev FROM dl_domain d LEFT JOIN (SELECT id, EV_OR_AGG(ev) AS ev FROM %s GROUP BY id) c ON d.id = c.id",
			inner), nil
	}
	return "", fmt.Errorf("mapping: cannot compile %s", expr)
}

// MembershipEvent returns the event under which individual id belongs to
// the concept expression — the disjunction of the individual's rows of the
// expression's view, in the view's order, and the impossible event if it has
// none: eval over the one individual.
func (l *Loader) MembershipEvent(expr *dl.Expr, id string) (*event.Expr, error) {
	if err := l.validate(expr); err != nil {
		return nil, err
	}
	scope := [1]storage.Value{storage.Text(id)}
	var buf [1]evalRow
	rows, err := l.eval(expr, scope[:], buf[:0])
	switch {
	case err != nil:
		return nil, err
	case len(rows) == 0:
		return event.False(), nil
	case len(rows) > 1:
		rows = disjoined(rows)
	}
	return rows[0].ev, nil
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

	// Where the handle stands among the handles patched from one whole
	// evaluation (see ChangedSince): the evaluation's lineage, how many
	// patches that moved a membership lie between it and this handle, and
	// the individuals each of the last few of them moved, oldest first.
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
// was computed. The views, and eval, are pure functions of their base tables,
// so a current handle is bit-identical to a fresh evaluation. It costs a
// handful of atomic loads. Versions only move inside the caller's write
// section (System's locking contract), so an answer obtained while reading
// holds for the whole read.
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
// can count one system's evaluations.
type MembershipStats struct {
	// Hits are look-ups answered by a current handle; Patched the look-ups
	// that brought a stale handle up to date by re-reading the individuals
	// the loader's logged writes touched; Queries the look-ups that evaluated
	// the expression over every individual. Every look-up is exactly one of
	// the three.
	Hits    int64 `json:"hits"`
	Patched int64 `json:"patched"`
	Queries int64 `json:"queries"`
	// Entries is the number of handles the memo holds.
	Entries int `json:"entries"`
	// DroppedByDDL counts handles discarded because a DDL statement dropped
	// or redefined a table or view.
	DroppedByDDL int64 `json:"dropped_by_ddl"`
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

// maxMemberships bounds the memo, and its text index apart. Rule preferences
// and the targets people rank are a few hundred expressions at most; a client
// streaming distinct ad-hoc targets past the bound pushes out an arbitrary
// entry per new one, which costs that expression's next look-up a whole
// evaluation (and that text's a parse) and nothing else.
const maxMemberships = 1024

// maxLoggedWrites bounds each base table's write log. A handle is looked up —
// and patched — by the first rank after a write, so the writes between two
// look-ups of a live expression are a few; an expression nobody asked for
// while more than this many went by is evaluated whole once and is exact
// again.
const maxLoggedWrites = 64

// maxMemberHistory bounds how many moving patches back a handle can name the
// individuals that changed (Membership.ChangedSince). The first plan compiled
// over the new handles carries the old handles' document side across the
// writes (Loader.DocSide); a side that slept through more than this many is
// derived again, as it is across a whole evaluation.
const maxMemberHistory = 16

// parsedText is what the memo's text index keeps for one target text.
type parsedText struct {
	expr *dl.Expr
	key  string // expr.String(), the memo key
}

// Members returns every individual possibly in the concept expression with
// its inclusion event, as a shared read-only handle. The answer is a function
// of the base tables the expression reads, so it is computed once per
// version of those tables and memoized per canonical expression: every plan,
// target resolution and user asking while the tables stand still gets the
// same handle. A memoized handle whose tables moved is patched — only the
// individuals the writes reached are re-read — when the loader's write log
// accounts for every step they moved by, and evaluated over every individual
// otherwise (see patchMembers). Concurrent misses may both patch or evaluate;
// the first one filed is the handle they all return.
func (l *Loader) Members(expr *dl.Expr) (*Membership, error) {
	t := parsedText{expr: expr, key: expr.String()}
	l.memoMu.Lock()
	redefs := l.syncMemo()
	m := l.memo[t.key]
	l.memoMu.Unlock()
	return l.resolve(t, m, redefs, "")
}

// MembersOf is Members for the expression a target text parses to, found
// through the memo's text index: a text looked up before is neither parsed
// nor rendered again. A text that does not parse returns dl.Parse's error and
// is not remembered; nor is one whose look-up fails.
func (l *Loader) MembersOf(text string) (*Membership, error) {
	l.memoMu.Lock()
	redefs := l.syncMemo()
	t, seen := l.texts[text]
	newText := ""
	if !seen {
		l.memoMu.Unlock()
		expr, err := dl.Parse(text)
		if err != nil {
			return nil, err
		}
		t, newText = parsedText{expr: expr, key: expr.String()}, text
		l.memoMu.Lock()
		redefs = l.syncMemo()
	}
	m := l.memo[t.key]
	l.memoMu.Unlock()
	return l.resolve(t, m, redefs, newText)
}

// syncMemo empties the memo and its text index once a name was dropped or
// redefined — no handle can be current again — and returns the redefinition
// count the memo now stands at. Called with memoMu held.
func (l *Loader) syncMemo() uint64 {
	redefs := l.db.Redefinitions()
	if redefs != l.memoRedefs {
		l.memoDropped.Add(int64(len(l.memo)))
		clear(l.memo)
		clear(l.texts)
		l.memoEntries.Store(0)
		l.memoRedefs = redefs
	}
	return redefs
}

// resolve ends a look-up that found m (nil for none) under t's key at redefs
// redefinitions: a current handle is a hit, a stale one is patched or, failing
// that, evaluated again, and the new handle is filed. A newText is indexed
// once the look-up succeeds.
func (l *Loader) resolve(t parsedText, m *Membership, redefs uint64, newText string) (*Membership, error) {
	if m != nil && m.Current() {
		l.memoHits.Add(1)
		if newText != "" {
			return l.file(t, m, m, redefs, newText), nil
		}
		return m, nil
	}

	read := m
	if m != nil {
		m = l.patchMembers(t.expr, m)
	}
	if m != nil {
		l.memoPatched.Add(1)
	} else {
		var err error
		if m, err = l.evalMembers(t.expr, redefs); err != nil {
			return nil, err
		}
		l.memoQueries.Add(1)
	}
	return l.file(t, read, m, redefs, newText), nil
}

// file memoizes m under t's key when the memo still holds read — the entry
// the look-up started from, nil for none — and returns m. Otherwise a
// concurrent look-up filed first: its handle is returned when it is current,
// so concurrent first look-ups of one expression all return one handle, and
// m replaces it when it is not. A text (when not empty) is indexed either
// way. Nothing is filed once the memo moved past redefs.
func (l *Loader) file(t parsedText, read, m *Membership, redefs uint64, text string) *Membership {
	l.memoMu.Lock()
	defer l.memoMu.Unlock()
	if redefs != l.memoRedefs {
		return m
	}
	if text != "" {
		boundedPut(l.texts, text, t)
	}
	if cur := l.memo[t.key]; cur != read && cur != nil && cur.Current() {
		return cur
	}
	boundedPut(l.memo, t.key, m)
	l.memoEntries.Store(int64(len(l.memo)))
	return m
}

// boundedPut sets m[k], first evicting an arbitrary entry when k is new and m
// already holds maxMemberships.
func boundedPut[V any](m map[string]V, k string, v V) {
	if _, ok := m[k]; !ok && len(m) >= maxMemberships {
		for evict := range m {
			delete(m, evict)
			break
		}
	}
	m[k] = v
}

// evalMembers evaluates the expression over every individual. The read set's
// versions are taken before the rows, so a write racing it (a caller breaking
// the locking contract) leaves a handle that reads as stale, never one that
// validates rows it did not see.
func (l *Loader) evalMembers(expr *dl.Expr, redefs uint64) (*Membership, error) {
	if err := l.validate(expr); err != nil {
		return nil, err
	}
	m := &Membership{db: l.db, redefs: redefs, lineage: new(byte)}
	var err error
	if m.reads, err = l.readSet(expr); err != nil {
		return nil, err
	}
	if m.Events, err = l.evalEvents(expr, nil); err != nil {
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
// against the closed domain — each at its current version.
func (l *Loader) readSet(expr *dl.Expr) ([]tableRead, error) {
	sig := expr.Signature()
	names := make([]string, 0, len(sig.Concepts)+len(sig.Roles)+1)
	for _, c := range sig.Concepts {
		names = append(names, ConceptTable(c))
	}
	for _, r := range sig.Roles {
		names = append(names, RoleTable(r))
	}
	if ReadsDomain(expr) {
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

// ReadsDomain reports whether the expression's compiled view reads dl_domain
// (¬, ⊤ and nominals do), i.e. whether registering a new individual — which
// a context apply for a first-seen user does — can change who is in it even
// though no concept or role table changed.
func ReadsDomain(e *dl.Expr) bool {
	switch e.Op() {
	case dl.OpTop, dl.OpNot, dl.OpNominal:
		return true
	}
	for _, a := range e.Args() {
		if ReadsDomain(a) {
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

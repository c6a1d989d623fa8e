package storage

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Column describes one table column.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema, rejecting duplicate or empty column names.
func NewSchema(cols ...Column) (Schema, error) {
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if c.Name == "" {
			return Schema{}, fmt.Errorf("storage: empty column name")
		}
		lower := strings.ToLower(c.Name)
		if seen[lower] {
			return Schema{}, fmt.Errorf("storage: duplicate column %q", c.Name)
		}
		seen[lower] = true
	}
	return Schema{Columns: cols}, nil
}

// ColumnIndex returns the position of the named column (case-insensitive)
// or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Arity returns the number of columns.
func (s Schema) Arity() int { return len(s.Columns) }

// Row is one tuple; len(Row) always equals the table arity.
type Row []Value

// Clone returns a copy of the row (values are immutable, so a shallow copy
// suffices).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is an in-memory heap of rows with optional hash indexes. All methods
// are safe for concurrent use.
type Table struct {
	name   string
	schema Schema

	// version counts the mutations that changed the table's rows. It is
	// advanced under mu and read without it, so a holder of a result derived
	// from the table can ask "still true?" with one atomic load.
	version atomic.Uint64

	mu      sync.RWMutex
	rows    []Row
	indexes map[int]map[Key][]int // column -> value key -> live row ids, ascending
	// deleted is parallel to rows: deleted[id] marks row id as a tombstone.
	// The flags are atomics because Scan reads them without the lock; a
	// delete sets them in place, so it costs the rows it removes, not the
	// tombstones the heap already holds.
	deleted []atomic.Bool
	nLive   int
}

// NewTable creates an empty table.
func NewTable(name string, schema Schema) *Table {
	return &Table{
		name:    name,
		schema:  schema,
		indexes: make(map[int]map[Key][]int),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// Version returns the table's write version: a counter every mutation that
// changes rows advances (Insert, Update, Delete and DeleteKey that matched
// something; a no-op does not), and Catalog.Drop advances one last time. Two
// reads of the same *Table that return the same version saw the same rows.
// The counter is per table, so the pair to remember is (*Table, version): a
// dropped and recreated table is a different *Table, and the drop's final
// advance makes every version remembered from the old one stale.
func (t *Table) Version() uint64 { return t.version.Load() }

// Len returns the number of live rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nLive
}

// coerce returns a copy of the row with each value coerced to its column
// type, or an error if the row does not fit the schema.
func (t *Table) coerce(r Row) (Row, error) {
	if len(r) != t.schema.Arity() {
		return nil, fmt.Errorf("storage: table %s expects %d values, got %d", t.name, t.schema.Arity(), len(r))
	}
	coerced := make(Row, len(r))
	for i, v := range r {
		cv, err := v.CoerceTo(t.schema.Columns[i].Type)
		if err != nil {
			return nil, fmt.Errorf("storage: table %s column %s: %w", t.name, t.schema.Columns[i].Name, err)
		}
		coerced[i] = cv
	}
	return coerced, nil
}

// Insert appends rows after coercing each value to its column type. It is
// all or nothing: if one row does not fit the schema, none is inserted.
func (t *Table) Insert(rows ...Row) error {
	if len(rows) == 0 {
		return nil
	}
	var one [1]Row // a single row, the common case, allocates no slice
	coerced := one[:0]
	if len(rows) > 1 {
		coerced = make([]Row, 0, len(rows))
	}
	for _, r := range rows {
		c, err := t.coerce(r)
		if err != nil {
			return err
		}
		coerced = append(coerced, c)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range coerced {
		id := len(t.rows)
		t.rows = append(t.rows, r)
		t.deleted = append(t.deleted, atomic.Bool{})
		for col, idx := range t.indexes {
			key := r[col].Key()
			idx[key] = append(idx[key], id)
		}
	}
	t.nLive += len(coerced)
	t.version.Add(1)
	return nil
}

// CreateIndex builds a hash index on the named column; idempotent.
func (t *Table) CreateIndex(column string) error {
	col := t.schema.ColumnIndex(column)
	if col < 0 {
		return fmt.Errorf("storage: table %s has no column %q", t.name, column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.indexes[col]; ok {
		return nil
	}
	t.indexes[col] = t.buildIndexLocked(col)
	return nil
}

// HasIndex reports whether the named column has a hash index.
func (t *Table) HasIndex(column string) bool {
	col := t.schema.ColumnIndex(column)
	if col < 0 {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.indexes[col]
	return ok
}

// Scan calls fn for every live row. The row passed to fn must not be
// retained or modified; clone it if needed. Scan takes a snapshot reference
// under the read lock and iterates without it, so concurrent inserts during
// a scan are not observed; a row deleted during the scan is skipped if the
// scan has not reached it yet.
func (t *Table) Scan(fn func(Row) error) error {
	t.mu.RLock()
	rows := t.rows
	deleted := t.deleted
	t.mu.RUnlock()
	for id := range rows {
		if deleted[id].Load() {
			continue
		}
		if err := fn(rows[id]); err != nil {
			return err
		}
	}
	return nil
}

// ScanKeys is the index read: it calls fn for the live rows whose column
// equals any of vals — under Equal, so an INT probe finds a FLOAT column's
// 1.0 — in heap order, the order Scan would visit them in. It reports false
// and visits nothing when the column has no index; the caller then scans.
// Like Scan it passes rows without cloning; the posting lists are copied out
// under the read lock, because DeleteKey edits them in place.
func (t *Table) ScanKeys(column string, vals []Value, fn func(Row) error) (indexed bool, err error) {
	col := t.schema.ColumnIndex(column)
	if col < 0 {
		return false, fmt.Errorf("storage: table %s has no column %q", t.name, column)
	}
	var buf [16]int
	ids := buf[:0]
	lists := 0
	t.mu.RLock()
	idx, ok := t.indexes[col]
	for i := 0; ok && i < len(vals); i++ {
		if key, found := probeKey(t.schema.Columns[col].Type, vals[i]); found {
			if list := idx[key]; len(list) > 0 {
				ids = append(ids, list...)
				lists++
			}
		}
	}
	rows, deleted := t.rows, t.deleted
	t.mu.RUnlock()
	if !ok {
		return false, nil
	}
	if lists > 1 {
		// Each list ascends; together they may interleave, and a value given
		// twice contributes its list twice.
		slices.Sort(ids)
		ids = slices.Compact(ids)
	}
	for _, id := range ids {
		if deleted[id].Load() {
			continue
		}
		if err := fn(rows[id]); err != nil {
			return true, err
		}
	}
	return true, nil
}

// ScanKey calls fn, in heap order, for the live rows whose column equals v:
// through the hash index if present and by a scan otherwise. Like Scan it
// passes rows without cloning.
func (t *Table) ScanKey(column string, v Value, fn func(Row) error) error {
	if indexed, err := t.ScanKeys(column, []Value{v}, fn); indexed || err != nil {
		return err
	}
	col := t.schema.ColumnIndex(column)
	return t.Scan(func(r Row) error {
		if Equal(r[col], v) {
			return fn(r)
		}
		return nil
	})
}

// Lookup returns the live rows whose column equals v (see ScanKey) as clones.
func (t *Table) Lookup(column string, v Value) ([]Row, error) {
	var out []Row
	err := t.ScanKey(column, v, func(r Row) error {
		out = append(out, r.Clone())
		return nil
	})
	return out, err
}

// Update rewrites every live row for which match returns true by calling
// apply on a clone; the returned row is coerced to the schema. It reports
// how many rows changed. It is all or nothing: every row is decided before
// any changes, so an error from match, apply or a coercion leaves the table
// untouched. It copy-on-writes the row heap: a concurrent lock-free Scan
// keeps iterating its own consistent snapshot.
func (t *Table) Update(match func(Row) (bool, error), apply func(Row) (Row, error)) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	replacement := make(map[int]Row)
	for id, r := range t.rows {
		if t.deleted[id].Load() {
			continue
		}
		ok, err := match(r)
		if err != nil {
			return 0, err
		}
		if !ok {
			continue
		}
		updated, err := apply(r.Clone())
		if err != nil {
			return 0, err
		}
		if replacement[id], err = t.coerce(updated); err != nil {
			return 0, err
		}
	}
	if len(replacement) == 0 {
		return 0, nil
	}
	rows := make([]Row, len(t.rows))
	copy(rows, t.rows)
	for id, r := range replacement {
		rows[id] = r
	}
	t.rows = rows
	t.version.Add(1)
	t.rebuildIndexesLocked()
	return len(replacement), nil
}

// Delete removes every live row for which match returns true and reports
// how many were removed. It is all or nothing: every row is matched before
// any is removed, so an error from match leaves the table untouched. Once
// tombstones outnumber live rows the heap is compacted, so a table that is
// repeatedly cleared and refilled stays bounded by its live size instead of
// accumulating its whole delete history.
func (t *Table) Delete(match func(Row) (bool, error)) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var victims []int
	for id, r := range t.rows {
		if t.deleted[id].Load() {
			continue
		}
		ok, err := match(r)
		if err != nil {
			return 0, err
		}
		if ok {
			victims = append(victims, id)
		}
	}
	if len(victims) == 0 {
		return 0, nil
	}
	for _, id := range victims {
		t.deleted[id].Store(true)
	}
	t.nLive -= len(victims)
	t.version.Add(1)
	// One rebuild rather than n removals: the heap was scanned anyway, and
	// removing many ids from one long index list one by one is quadratic.
	if !t.compactLocked() {
		t.rebuildIndexesLocked()
	}
	return len(victims), nil
}

// DeleteKey removes the live rows whose column equals v and reports how
// many were removed. With a hash index on the column it touches only those
// rows: it tombstones the ids the index returns and takes them out of every
// index, without scanning the heap — which is what keeps a context apply
// that replaces one user's rows independent of how many rows other users
// hold in the same table. Without an index it is Delete with an equality
// match. Compaction is amortized as in Delete.
func (t *Table) DeleteKey(column string, v Value) (int, error) {
	return t.DeleteKeyWhere(column, v, nil)
}

// DeleteKeyWhere is DeleteKey restricted to the rows match accepts (nil
// accepts all): the index finds the column's rows, match is the residual.
func (t *Table) DeleteKeyWhere(column string, v Value, match func(Row) bool) (int, error) {
	col := t.schema.ColumnIndex(column)
	if col < 0 {
		return 0, fmt.Errorf("storage: table %s has no column %q", t.name, column)
	}
	t.mu.Lock()
	idx, ok := t.indexes[col]
	key, found := probeKey(t.schema.Columns[col].Type, v)
	if !ok {
		t.mu.Unlock()
		return t.Delete(func(r Row) (bool, error) { return Equal(r[col], v) && (match == nil || match(r)), nil })
	}
	defer t.mu.Unlock()
	if !found {
		return 0, nil
	}
	// The probed column's own list is filtered in place, in the pass that
	// picks the victims; every other index loses them one by one below.
	list := idx[key]
	victims := make([]int, 0, len(list))
	rest := list[:0]
	for _, id := range list {
		if match == nil || match(t.rows[id]) {
			victims = append(victims, id)
		} else {
			rest = append(rest, id)
		}
	}
	if len(victims) == 0 {
		return 0, nil
	}
	if len(rest) > 0 {
		idx[key] = rest
	} else {
		delete(idx, key)
	}
	for _, id := range victims {
		t.deleted[id].Store(true)
		for c, other := range t.indexes {
			if c == col {
				continue
			}
			k := t.rows[id][c].Key()
			if rest := slices.DeleteFunc(other[k], func(x int) bool { return x == id }); len(rest) > 0 {
				other[k] = rest
			} else {
				delete(other, k)
			}
		}
	}
	t.nLive -= len(victims)
	t.version.Add(1)
	t.compactLocked()
	return len(victims), nil
}

// compactLocked drops the tombstoned rows once they outnumber the live
// ones, renumbering the live rows in insertion order and rebuilding the
// indexes over the new ids; it reports whether it did. Fresh slices are
// allocated rather than filtered in place: Scan iterates lock-free over
// snapshot references to rows and deleted, which must stay internally
// consistent. Caller holds t.mu.
func (t *Table) compactLocked() bool {
	if dead := len(t.rows) - t.nLive; dead <= t.nLive {
		return false
	}
	live := make([]Row, 0, t.nLive)
	for id, r := range t.rows {
		if !t.deleted[id].Load() {
			live = append(live, r)
		}
	}
	t.rows = live
	t.deleted = make([]atomic.Bool, len(live))
	t.rebuildIndexesLocked()
	return true
}

func (t *Table) rebuildIndexesLocked() {
	for col := range t.indexes {
		t.indexes[col] = t.buildIndexLocked(col)
	}
}

// buildIndexLocked indexes the live rows by the column's value key.
func (t *Table) buildIndexLocked(col int) map[Key][]int {
	idx := make(map[Key][]int)
	for id, r := range t.rows {
		if t.deleted[id].Load() {
			continue
		}
		key := r[col].Key()
		idx[key] = append(idx[key], id)
	}
	return idx
}

// Catalog maps table names (case-insensitive) to tables.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Create registers a new empty table.
func (c *Catalog) Create(name string, schema Schema) (*Table, error) {
	key := strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	t := NewTable(name, schema)
	c.tables[key] = t
	return t, nil
}

// Get returns the named table or an error.
func (c *Catalog) Get(name string) (*Table, error) {
	if t, err := c.ByKey(strings.ToLower(name)); err == nil {
		return t, nil
	}
	return nil, fmt.Errorf("storage: no table %q", name)
}

// ByKey is Get for a name already in the catalog's key form, lower case: a
// caller that resolves one name often formats the key once and looks up with
// it, so a look-up formats nothing.
func (c *Catalog) ByKey(key string) (*Table, error) {
	c.mu.RLock()
	t, ok := c.tables[key]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: no table %q", key)
	}
	return t, nil
}

// Exists reports whether the named table exists.
func (c *Catalog) Exists(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[strings.ToLower(name)]
	return ok
}

// Drop removes the named table and advances its version, so nothing
// remembered about the dropped *Table validates again.
func (c *Catalog) Drop(name string) error {
	key := strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("storage: no table %q", name)
	}
	delete(c.tables, key)
	t.mu.Lock()
	t.version.Add(1)
	t.mu.Unlock()
	return nil
}

// Names returns the sorted table names.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.name)
	}
	sort.Strings(out)
	return out
}

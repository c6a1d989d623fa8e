package mapping

import (
	"maps"
	"slices"

	"repro/internal/dl"
	"repro/internal/event"
	"repro/internal/storage"
)

// loggedWrite is one entry of the loader's record of its own writes to a base
// table: the table-version interval (before, after] a mutator moved, and the
// one individual whose rows it touched. A table's entries form a contiguous
// chain — a write the loader did not make (SQL through the engine,
// ClearConcept, a restore) leaves a gap before the next logged one, and the
// log restarts there, because no interval before a gap can be part of a chain
// that reaches the table's present.
type loggedWrite struct {
	before, after uint64
	id            string // the concept member, role source or domain individual written
}

// writeLog is one table's chain of logged writes, the last maxLoggedWrites
// of them: a ring, so a write past the bound overwrites the oldest entry in
// place and moves nothing else.
type writeLog struct {
	ring   [maxLoggedWrites]loggedWrite
	oldest int // the slot of the oldest entry
	n      int // how many entries the chain holds
}

// at returns the chain's i-th entry, oldest first.
func (w *writeLog) at(i int) *loggedWrite { return &w.ring[(w.oldest+i)%maxLoggedWrites] }

// push appends an entry to the chain, dropping the oldest at the bound.
func (w *writeLog) push(e loggedWrite) {
	if w.n < maxLoggedWrites {
		*w.at(w.n) = e
		w.n++
		return
	}
	w.ring[w.oldest] = e
	w.oldest = (w.oldest + 1) % maxLoggedWrites
}

// logWrite records that the mutator which saw tab at version before has since
// moved it, touching only id's rows (a role's rows are its source's). The
// mutators defer it, so a write that failed half-way is logged with what it
// did move. A no-op when the table did not move. Mutators are serialized by
// the caller (System's locking contract), which is what makes the interval
// this write's alone.
func (l *Loader) logWrite(tab *storage.Table, before uint64, id string) {
	after := tab.Version()
	if after == before {
		return
	}
	l.logMu.Lock()
	defer l.logMu.Unlock()
	log := l.writes[tab]
	switch {
	case log == nil:
		// The first write to a table is when the logs of tables dropped since
		// the last one are let go: logs are kept by table identity, so there
		// are never more of them than live tables plus one.
		for t := range l.writes {
			if cur, err := l.db.Catalog().Get(t.Name()); err != nil || cur != t {
				delete(l.writes, t)
			}
		}
		log = new(writeLog)
		l.writes[tab] = log
	case log.at(log.n-1).after != before:
		log.n = 0
	}
	log.push(loggedWrite{before: before, after: after, id: id})
}

// writtenBetween returns the individuals whose rows the loader wrote while
// tab went from version from to version to, and whether logged writes account
// for every step of that way. When they do not — an unlogged write, a table
// dropped and recreated (another *Table), more writes than the log holds —
// nothing can be said about which rows moved.
func (l *Loader) writtenBetween(tab *storage.Table, from, to uint64) ([]string, bool) {
	l.logMu.Lock()
	defer l.logMu.Unlock()
	log := l.writes[tab]
	if log == nil || log.at(log.n-1).after != to {
		return nil, false
	}
	for i := log.n - 1; i >= 0 && log.at(i).before >= from; i-- {
		if log.at(i).before == from {
			ids := make([]string, 0, log.n-i)
			for ; i < log.n; i++ {
				ids = append(ids, log.at(i).id)
			}
			return ids, true
		}
	}
	return nil, false
}

// patchMembers brings a stale handle up to date without evaluating the whole
// expression: when the loader's write log accounts for every version step the
// handle's tables have moved by, the individuals whose row of the view those
// writes can have changed follow from the expression (affected); exactly their
// rows are evaluated again — eval over them returns what it returns for them
// over everyone, in the same order, so the result is bit-identical to a whole
// evaluation — and the successor shares everything else with its predecessor.
// It returns nil on any doubt (an unaccounted step, a role table without its
// dst index, an error in the read), and the caller evaluates the whole.
func (l *Loader) patchMembers(expr *dl.Expr, old *Membership) *Membership {
	m := &Membership{
		Events: old.Events, IDs: old.IDs,
		db: old.db, redefs: old.redefs, reads: make([]tableRead, len(old.reads)),
		lineage: old.lineage, seq: old.seq, history: old.history,
	}
	// Versions before rows, as in evalMembers.
	written := make(map[*storage.Table][]string)
	for i, r := range old.reads {
		now := r.tab.Version()
		m.reads[i] = tableRead{tab: r.tab, version: now}
		if now == r.version {
			continue
		}
		ids, ok := l.writtenBetween(r.tab, r.version, now)
		if !ok {
			return nil
		}
		written[r.tab] = ids
	}
	reached := make(map[string]bool)
	if !l.affected(expr, written, reached) {
		return nil
	}
	var moved []string
	if len(reached) > 0 {
		scope := make([]storage.Value, 0, len(reached))
		for id := range reached {
			scope = append(scope, storage.Text(id))
		}
		fresh, err := l.evalEvents(expr, scope)
		if err != nil {
			return nil
		}
		keysMoved := false
		for _, v := range scope {
			id := v.S
			was, had := old.Events[id]
			is, has := fresh[id]
			if had != has {
				keysMoved = true
			} else if !had || event.Equal(was, is) {
				continue
			}
			if moved == nil {
				m.Events = maps.Clone(old.Events)
			}
			moved = append(moved, id)
			if has {
				m.Events[id] = is
			} else {
				delete(m.Events, id)
			}
		}
		slices.Sort(moved)
		if keysMoved {
			m.IDs = mergeIDs(old.IDs, moved, m.Events)
		}
	}
	if moved == nil {
		// Reached, not moved: the same membership at newer versions.
		m.blocks.Store(old.blocks.Load())
		return m
	}
	m.seq++
	m.history = append(slices.Clone(old.history[max(0, len(old.history)-maxMemberHistory+1):]), moved)
	return m
}

// mergeIDs is old with the sorted ids of moved put in or taken out, according
// to whether events holds them.
func mergeIDs(old, moved []string, events map[string]*event.Expr) []string {
	out := make([]string, 0, len(events))
	i := 0
	for _, id := range moved {
		for i < len(old) && old[i] < id {
			out = append(out, old[i])
			i++
		}
		if i < len(old) && old[i] == id {
			i++
		}
		if _, ok := events[id]; ok {
			out = append(out, id)
		}
	}
	return append(out, old[i:]...)
}

// affected adds to out every individual whose row of e's view can differ
// after the given writes (per base table, the individuals written), and
// reports whether it could tell. The delta rule per operator: a write to
// c_C(id) can only change id's row of C; an individual new to dl_domain only
// its own row of ⊤, a nominal or ¬C; a row of C ⊓ D, C ⊔ D or ¬C only moves
// with the same individual's row of an operand; and a row of ∃R.D moves with
// the source's tuples in r_R or with D's row of one of their destinations —
// the sources r_R's dst index gives for D's affected individuals.
func (l *Loader) affected(e *dl.Expr, written map[*storage.Table][]string, out map[string]bool) bool {
	// add puts the individuals written to the named table into out.
	add := func(table string) (*storage.Table, bool) {
		tab, err := l.db.Catalog().Get(table)
		if err != nil {
			return nil, false
		}
		for _, id := range written[tab] {
			out[id] = true
		}
		return tab, true
	}
	switch e.Op() {
	case dl.OpAtom:
		_, ok := add(ConceptTable(e.Name()))
		return ok
	case dl.OpTop, dl.OpNominal:
		_, ok := add("dl_domain")
		return ok
	case dl.OpNot:
		_, ok := add("dl_domain")
		return ok && l.affected(e.Args()[0], written, out)
	case dl.OpAnd, dl.OpOr:
		for _, a := range e.Args() {
			if !l.affected(a, written, out) {
				return false
			}
		}
	case dl.OpExists:
		role, ok := add(RoleTable(e.Name()))
		filler := make(map[string]bool)
		if !ok || !l.affected(e.Filler(), written, filler) {
			return false
		}
		if len(filler) == 0 {
			return true
		}
		dsts := make([]storage.Value, 0, len(filler))
		for id := range filler {
			dsts = append(dsts, storage.Text(id))
		}
		indexed, err := role.ScanKeys("dst", dsts, func(r storage.Row) error {
			out[r[0].S] = true
			return nil
		})
		return indexed && err == nil
	}
	return true
}

// ChangedSince returns the individuals whose inclusion event differs between
// old and m — a superset is allowed, a miss is not — when m descends from old
// by patches the handle still remembers; tracked is false when the two come
// from different whole evaluations or more than maxMemberHistory moving
// patches lie between them, and the caller compares the memberships itself.
func (m *Membership) ChangedSince(old *Membership) (ids []string, tracked bool) {
	if m.lineage != old.lineage || m.seq < old.seq || m.seq-old.seq > uint64(len(m.history)) {
		return nil, false
	}
	for _, step := range m.history[len(m.history)-int(m.seq-old.seq):] {
		ids = append(ids, step...)
	}
	return ids, true
}

// mentionsAny reports whether the sorted footprint holds one of the changed
// keys — the few a handful of context applies touched, against a footprint
// that may span the catalog.
func mentionsAny(sorted []string, changed map[string]bool) bool {
	for k := range changed {
		if _, hit := slices.BinarySearch(sorted, k); hit {
			return true
		}
	}
	return false
}

// memberBlocks is a membership's block footprint as of an event-space
// generation.
type memberBlocks struct {
	keys []string
	gen  uint64
}

// Blocks returns the sorted correlated-block keys (event.Space.Blocks' key
// space) the handle's inclusion events mention: the document-side footprint of
// a rule that prefers the expression. It is walked once per handle, not once
// per plan that ranks under it — the handle remembers it with the space
// generation it was computed at, and it stands as long as the space's
// footprint diff since then misses every key of it (an event of the handle
// retired, regrouped or re-declared would be in the diff).
func (m *Membership) Blocks() ([]string, error) {
	space := m.db.Space()
	gen := space.Generation()
	if b := m.blocks.Load(); b != nil {
		if b.gen == gen {
			return b.keys, nil
		}
		if changed, asOf, tracked := space.ChangedBlocksSince(b.gen); tracked && !mentionsAny(b.keys, changed) {
			m.blocks.Store(&memberBlocks{keys: b.keys, gen: asOf})
			return b.keys, nil
		}
	}
	fp := make(map[string]bool)
	for _, ev := range m.Events {
		if err := space.Blocks(ev, fp); err != nil {
			return nil, err
		}
	}
	keys := make([]string, 0, len(fp))
	for k := range fp {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	m.blocks.Store(&memberBlocks{keys: keys, gen: gen})
	return keys, nil
}

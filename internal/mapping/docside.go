package mapping

import (
	"encoding/binary"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/event"
)

// DocSide is the document side of one ordered list of preference handles:
// everything a rank plan needs of its rules' preferences that depends on
// neither the user nor the context — per individual the probability of its
// membership event under each rule, and one index from every block key of
// the rules' footprints to the rules whose footprint holds it, from which
// follows which rules share a block. It is made of the handles, their events'
// probabilities and their footprints only, so the loader keeps one per live
// handle list (Loader.DocSide) and every plan compiled over those handles,
// whoever its user and whatever their context, reads the same one. What a
// context change costs the side is the index probed with the keys the event
// space's diff names — O(diff), whatever the footprints' size.
//
// The side itself never changes its handles; its content (DocProbs) is valid
// as of an event-space generation and is re-stamped or rebuilt as the space
// moves on — see Probs.
type DocSide struct {
	handles []*Membership
	space   *event.Space

	mu    sync.Mutex // one settle or rebuild at a time
	probs atomic.Pointer[DocProbs]
}

// DocProbs is a document side's content. Immutable once published, apart from
// its generation stamp and the list of joint tables, which grows on first use.
type DocProbs struct {
	marginal *DocTable  // per individual, P(membership event) under each rule
	blocks   [][]string // per rule: its handle's sorted block footprint
	// byBlock is the block → rules index: every key of a footprint, with the
	// ascending rules whose footprint holds it. The space's diff is probed in
	// it (settle), a plan's context keys are (the partition), and shares is
	// read off it.
	byBlock map[string][]int
	shares  []bool // rule a × rule b (a*n+b): some key of byBlock lists both
	// err is why a footprint or a probability could not be derived — an event
	// of a handle was retired. Such a content is never taken for current: every
	// look at it derives it again, and every plan that reads it fails with err.
	err error
	gen atomic.Uint64 // the space generation the content is valid as of

	side    *DocSide
	jointMu sync.Mutex
	joint   []*DocTable // the rule tuples asked for so far: a few
}

// DocTable holds one row of probabilities per individual that a preference of
// its rules contains. The marginal table's row has one entry per rule, the
// probability of the individual's membership event; a joint table's has 2^m,
// the individual's joint document-state distribution over the tuple's m rules,
// bit i of the index saying whether it is in the i-th rule's preference. The
// rows are found by position: ids ascends, rows[i] is ids[i]'s row, so a rank
// gathers a sorted candidate list's rows with one forward cursor (Gather) and
// a write's successor merges its changed individuals into the order (carried).
type DocTable struct {
	rules []int
	joint bool
	ids   []string
	// keys[i] is prefixKey(ids[i]): the cursor compares two ids by their keys
	// and only the ids that share a key as strings.
	keys   []uint64
	rows   [][]float64
	absent []float64 // an individual in none of the preferences
}

// prefixKey returns the id's first eight bytes, zero-padded, as a big-endian
// number. Two ids order as their keys do wherever the keys differ.
func prefixKey(id string) uint64 {
	var b [8]byte
	copy(b[:], id)
	return binary.BigEndian.Uint64(b[:])
}

// add appends one individual's row.
func (t *DocTable) add(id string, row []float64) {
	t.ids, t.keys, t.rows = append(t.ids, id), append(t.keys, prefixKey(id)), append(t.rows, row)
}

// Row returns the individual's row. The caller must not modify it.
func (t *DocTable) Row(id string) []float64 {
	if i, ok := slices.BinarySearch(t.ids, id); ok {
		return t.rows[i]
	}
	return t.absent
}

// Gather sets rows[i] to ids[i]'s row, for every i; rows must be as long as
// ids. One cursor walks the table forward. An id at the cursor is a hit;
// otherwise the cursor steps up to gatherWalk places comparing keys alone and,
// past them, gallops on the keys — 1, 2, 4, … places — to the first key not
// below the id's, halving the last stride without a branch on the probes; ids
// that share the id's key are then binary-searched as strings. An ascending
// list of m ids costs O(m·log(n/m)) comparisons where keys differ, and an id
// below the last one found starts the walk over from the table's head, which
// keeps any order correct. The caller must not modify the rows.
func (t *DocTable) Gather(ids []string, rows [][]float64) {
	tids, keys, n := t.ids, t.keys, len(t.ids)
	keys = keys[:n]
	lo := 0 // tids[:lo] sorts at or below the last id looked up
	for i, id := range ids {
		if lo < n && tids[lo] == id {
			rows[i] = t.rows[lo]
			lo++
			continue
		}
		k := prefixKey(id)
		// below reports whether the table's j-th id sorts below id.
		below := func(j int) bool { return keys[j] < k || keys[j] == k && tids[j] < id }
		if lo > 0 && !below(lo-1) {
			lo = 0
		}
		// Walk while the keys alone say the cursor is below id; past the
		// walk, gallop on the keys and halve the last stride without a
		// branch on the probes.
		hi := min(lo+gatherWalk, n)
		for lo < hi && keys[lo] < k {
			lo++
		}
		if lo == hi && lo < n {
			for step := 1; hi < n && keys[hi] < k; step <<= 1 {
				lo, hi = hi+1, hi+step
			}
			for size := min(hi+1, n) - lo; size > 1; size -= size >> 1 {
				if keys[lo+size>>1] < k {
					lo += size >> 1
				}
			}
			if lo < n && keys[lo] < k {
				lo++
			}
		}
		if lo < n && keys[lo] == k && tids[lo] != id {
			// Among ids that share id's key: search them as strings.
			lo += sort.Search(n-lo, func(j int) bool { return !below(lo + j) })
		}
		if lo < n && tids[lo] == id {
			rows[i] = t.rows[lo]
			lo++
		} else {
			rows[i] = t.absent
		}
	}
}

// gatherWalk is how many places Gather's cursor steps one by one before it
// gallops: a narrow target's candidates lie a few places apart in the table,
// and a step is one predictable comparison of two keys.
const gatherWalk = 8

// docRowsComputed counts the rows — marginal or joint — derived through
// Space.Prob, process-wide like the rank hot path's other counters.
var docRowsComputed atomic.Int64

// DocRowsComputed returns how many document-side rows this process has
// derived through Space.Prob, over all loaders.
func DocRowsComputed() int64 { return docRowsComputed.Load() }

// maxDocSides bounds the document sides a loader keeps. A side lives while its
// handles are current, and handle lists differ only with the rule list they
// were resolved for, so there is one per rule list in use; past the bound the
// oldest is let go and a plan asking for it again derives it again.
const maxDocSides = 16

// DocSide returns the shared document side of the ordered handle list,
// deriving it when the loader keeps none for exactly these handles. After a
// vocabulary write — new handles patched from the ones a kept side holds —
// the successor carries every row of an individual outside the handles'
// ChangedSince delta and derives the rest; an untracked delta derives all.
// Sides whose handles have been superseded are let go here, content and all:
// the plans still holding one are stale, and cached ones would otherwise keep
// a side's rows and block index per vocabulary write alive.
func (l *Loader) DocSide(handles []*Membership) *DocSide {
	l.docMu.Lock()
	defer l.docMu.Unlock()
	for _, d := range l.docSides {
		if slices.Equal(d.handles, handles) {
			return d
		}
	}
	d := &DocSide{handles: slices.Clone(handles), space: l.db.Space()}
	var probs *DocProbs
	for i := len(l.docSides) - 1; i >= 0 && probs == nil; i-- {
		probs = d.carry(l.docSides[i])
	}
	if probs == nil {
		probs = d.build(d.space.Generation(), nil, nil)
	}
	d.probs.Store(probs)
	live := slices.DeleteFunc(l.docSides, func(o *DocSide) bool {
		if !slices.ContainsFunc(o.handles, func(h *Membership) bool { return !h.Current() }) {
			return false
		}
		o.probs.Store(nil) // derived again if a stale plan ever ranks
		return true
	})
	if len(live) == maxDocSides {
		live = slices.Delete(live, 0, 1)
	}
	l.docSides = append(live, d)
	return d
}

// Probs returns the side's content as of the space's present generation. One
// of three things happened since it was last asked: nothing (the stamp is the
// present generation — two loads); invalidations that the space's footprint
// diff shows missed every rule's footprint, so every probability stands and
// the content is re-stamped; or anything else — a footprint block retired,
// regrouped or re-declared, a diff that no longer reaches back — and the
// content is derived again through Space.Prob, which is what turns a retired
// data event into "not declared" (Err) rather than a stale probability.
func (d *DocSide) Probs() *DocProbs {
	p := d.probs.Load()
	if p != nil && p.err == nil && p.gen.Load() == d.space.Generation() {
		return p
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if p = d.settle(); p == nil {
		p = d.build(d.space.Generation(), nil, nil)
		d.probs.Store(p)
	}
	return p
}

// settle re-stamps the content at the space's present generation when every
// invalidation since its stamp missed every footprint — one index probe per
// key of the diff — and returns nil when the content has to be derived again.
// Caller holds d.mu.
func (d *DocSide) settle() *DocProbs {
	p := d.probs.Load()
	if p == nil || p.err != nil {
		return nil
	}
	changed, asOf, tracked := d.space.ChangedBlocksSince(p.gen.Load())
	if !tracked {
		return nil
	}
	for key := range changed {
		if _, hit := p.byBlock[key]; hit {
			return nil
		}
	}
	p.gen.Store(asOf)
	return p
}

// carry derives d's content from the side kept for the handles d's were
// patched from, or returns nil when old is no such side, cannot name what
// moved, or does not stand itself.
func (d *DocSide) carry(old *DocSide) *DocProbs {
	if len(old.handles) != len(d.handles) {
		return nil
	}
	var changed []string
	for i, h := range d.handles {
		ids, tracked := h.ChangedSince(old.handles[i])
		if !tracked {
			return nil
		}
		changed = append(changed, ids...)
	}
	slices.Sort(changed)
	changed = slices.Compact(changed)
	// The generation before the look at old: what is carried stands as of a
	// later one, so the stamp errs on the side of looking again.
	gen := d.space.Generation()
	old.mu.Lock()
	prev := old.settle()
	old.mu.Unlock()
	if prev == nil {
		return nil
	}
	return d.build(gen, prev, changed)
}

// build derives the side's content, stamped gen: footprints, the block → rules
// index and the share relation from the handles — the index and the relation
// prev's when no footprint moved — and the marginal table through Space.Prob:
// all of it, or with prev only the changed individuals' (ascending) rows of
// the marginal table and of every joint table prev has filled, the other rows
// being prev's.
func (d *DocSide) build(gen uint64, prev *DocProbs, changed []string) *DocProbs {
	n := len(d.handles)
	p := &DocProbs{blocks: make([][]string, n), side: d}
	p.gen.Store(gen)
	for r, h := range d.handles {
		keys, err := h.Blocks()
		p.fail(err)
		p.blocks[r] = keys
	}
	if prev != nil && slices.EqualFunc(prev.blocks, p.blocks, slices.Equal[[]string]) {
		p.byBlock, p.shares = prev.byBlock, prev.shares
	} else {
		p.index()
	}
	if prev == nil {
		p.marginal = &DocTable{rules: make([]int, n), absent: make([]float64, n)}
		for r := range p.marginal.rules {
			p.marginal.rules[r] = r
		}
		p.fail(d.fillAll(p.marginal))
		return p
	}
	prev.jointMu.Lock()
	defer prev.jointMu.Unlock()
	for _, old := range append([]*DocTable{prev.marginal}, prev.joint...) {
		t := &DocTable{rules: old.rules, joint: old.joint, ids: old.ids, keys: old.keys, rows: old.rows, absent: old.absent}
		if len(changed) > 0 { // else nobody's row moved: a published table is never written again
			p.fail(d.carried(t, changed))
		}
		if !t.joint {
			p.marginal = t
		} else {
			p.joint = append(p.joint, t)
		}
	}
	return p
}

// carried re-lays t — a copy of a published table, or an empty one — for the
// changed individuals (ascending): one merge of its ids with them, in which an
// unchanged row is the published one and a changed individual's row is
// derived again — never a sort of the whole table.
func (d *DocSide) carried(t *DocTable, changed []string) (err error) {
	ids, keys, rows := t.ids, t.keys, t.rows
	size := len(ids) + len(changed)
	t.ids, t.keys, t.rows = make([]string, 0, size), make([]uint64, 0, size), make([][]float64, 0, size)
	for _, id := range changed {
		j, found := slices.BinarySearch(ids, id)
		t.ids, t.keys, t.rows = append(t.ids, ids[:j]...), append(t.keys, keys[:j]...), append(t.rows, rows[:j]...)
		if found {
			j++
		}
		ids, keys, rows = ids[j:], keys[j:], rows[j:]
		row, rowErr := d.row(t, id)
		if err == nil {
			err = rowErr
		}
		if row != nil {
			t.add(id, row)
		}
	}
	t.ids, t.keys, t.rows = append(t.ids, ids...), append(t.keys, keys...), append(t.rows, rows...)
	return err
}

// fail keeps the first error met while deriving the content.
func (p *DocProbs) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// index builds byBlock from the footprints, and shares from byBlock.
func (p *DocProbs) index() {
	n := len(p.blocks)
	p.byBlock = make(map[string][]int)
	p.shares = make([]bool, n*n)
	for r, keys := range p.blocks {
		for _, key := range keys {
			for _, o := range p.byBlock[key] {
				p.shares[o*n+r], p.shares[r*n+o] = true, true
			}
			p.byBlock[key] = append(p.byBlock[key], r)
		}
	}
}

// row derives one individual's row of a table, nil if no preference of the
// table's rules contains it.
func (d *DocSide) row(t *DocTable, id string) (row []float64, err error) {
	evs := make([]*event.Expr, len(t.rules))
	member := false
	for i, r := range t.rules {
		ev, ok := d.handles[r].Events[id]
		if !ok {
			ev = event.False()
		}
		evs[i], member = ev, member || ok
	}
	if !member {
		return nil, nil
	}
	row = make([]float64, len(t.absent))
	if t.joint {
		err = d.space.JointProbs(evs, row)
	} else {
		for i, ev := range evs {
			if row[i], err = d.space.Prob(ev); err != nil {
				break
			}
		}
	}
	docRowsComputed.Add(1)
	return row, err
}

// fillAll derives the row of every individual a preference of the table's
// rules contains, into an empty table.
func (d *DocSide) fillAll(t *DocTable) error {
	var ids []string
	for _, r := range t.rules {
		ids = append(ids, d.handles[r].IDs...)
	}
	slices.Sort(ids)
	return d.carried(t, slices.Compact(ids))
}

// Err returns why the content could not be derived, if it could not: every
// plan that reads the side fails with it.
func (p *DocProbs) Err() error { return p.err }

// Row returns the individual's probabilities of membership, one per rule of
// the handle list. The caller must not modify it.
func (p *DocProbs) Row(id string) []float64 { return p.marginal.Row(id) }

// Gather is Row for every id, by the marginal table's Gather.
func (p *DocProbs) Gather(ids []string, rows [][]float64) { p.marginal.Gather(ids, rows) }

// RulesOf returns the ascending rules whose footprint holds the block key, nil
// when none does. The caller must not modify it.
func (p *DocProbs) RulesOf(key string) []int { return p.byBlock[key] }

// Shares reports whether the two rules' footprints share a block, i.e.
// whether some individual's membership events under them can be correlated.
func (p *DocProbs) Shares(a, b int) bool { return p.shares[a*len(p.blocks)+b] }

// Joint returns the joint table of the given rules (indices into the handle
// list, ascending), deriving it the first time the tuple is asked for.
func (p *DocProbs) Joint(rules []int) (*DocTable, error) {
	p.jointMu.Lock()
	defer p.jointMu.Unlock()
	for _, t := range p.joint {
		if slices.Equal(t.rules, rules) {
			return t, nil
		}
	}
	t := &DocTable{rules: slices.Clone(rules), joint: true, absent: make([]float64, 1<<len(rules))}
	t.absent[0] = 1
	if err := p.side.fillAll(t); err != nil {
		return nil, err
	}
	p.joint = append(p.joint, t)
	return t, nil
}

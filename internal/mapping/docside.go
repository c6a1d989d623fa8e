package mapping

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/event"
)

// DocSide is the document side of one ordered list of preference handles:
// everything a rank plan needs of its rules' preferences that depends on
// neither the user nor the context — per individual the probability of its
// membership event under each rule, each rule's block footprint, and which
// rules share a block. It is made of the handles, their events' probabilities
// and their footprints only, so the loader keeps one per live handle list
// (Loader.DocSide) and every plan compiled over those handles, whoever its
// user and whatever their context, reads the same one.
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
	shares   []bool     // rule a × rule b (a*n+b): their footprints intersect
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
// bit i of the index saying whether it is in the i-th rule's preference.
type DocTable struct {
	rules  []int
	joint  bool
	rows   map[string][]float64
	absent []float64 // an individual in none of the preferences
}

// Row returns the individual's row. The caller must not modify it.
func (t *DocTable) Row(id string) []float64 {
	if row, ok := t.rows[id]; ok {
		return row
	}
	return t.absent
}

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
// Sides whose handles have been superseded are let go here.
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
		return slices.ContainsFunc(o.handles, func(h *Membership) bool { return !h.Current() })
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
	if p.err == nil && p.gen.Load() == d.space.Generation() {
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
// invalidation since its stamp missed every footprint, and returns nil when
// the content has to be derived again. Caller holds d.mu.
func (d *DocSide) settle() *DocProbs {
	p := d.probs.Load()
	changed, asOf, tracked := d.space.ChangedBlocksSince(p.gen.Load())
	if p.err != nil || !tracked {
		return nil
	}
	for _, keys := range p.blocks {
		if mentionsAny(keys, changed) {
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
	changed := make(map[string]bool)
	for i, h := range d.handles {
		ids, tracked := h.ChangedSince(old.handles[i])
		if !tracked {
			return nil
		}
		for _, id := range ids {
			changed[id] = true
		}
	}
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

// build derives the side's content, stamped gen: footprints and the share
// relation from the handles, and the marginal table through Space.Prob — all
// of it, or with prev only the changed individuals' rows of the marginal table
// and of every joint table prev has filled, the other rows being prev's.
func (d *DocSide) build(gen uint64, prev *DocProbs, changed map[string]bool) *DocProbs {
	n := len(d.handles)
	p := &DocProbs{blocks: make([][]string, n), shares: make([]bool, n*n), side: d}
	p.gen.Store(gen)
	for r, h := range d.handles {
		keys, err := h.Blocks()
		p.fail(err)
		p.blocks[r] = keys
		for o := 0; o < r; o++ {
			if intersects(p.blocks[o], keys) {
				p.shares[o*n+r], p.shares[r*n+o] = true, true
			}
		}
	}
	if prev == nil {
		p.marginal = &DocTable{rules: make([]int, n), rows: make(map[string][]float64), absent: make([]float64, n)}
		for r := range p.marginal.rules {
			p.marginal.rules[r] = r
		}
		p.fail(d.fillAll(p.marginal))
		return p
	}
	prev.jointMu.Lock()
	defer prev.jointMu.Unlock()
	for _, old := range append([]*DocTable{prev.marginal}, prev.joint...) {
		t := &DocTable{rules: old.rules, joint: old.joint, rows: old.rows, absent: old.absent}
		if len(changed) > 0 { // else nobody's row moved: a published table is never written again
			t.rows = make(map[string][]float64, len(old.rows))
			for id, row := range old.rows {
				if !changed[id] {
					t.rows[id] = row
				}
			}
			for id := range changed {
				p.fail(d.fill(t, id))
			}
		}
		if !t.joint {
			p.marginal = t
		} else {
			p.joint = append(p.joint, t)
		}
	}
	return p
}

// fail keeps the first error met while deriving the content.
func (p *DocProbs) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// intersects reports whether two sorted key lists share a key.
func intersects(a, b []string) bool {
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			a = a[1:]
		case a[0] > b[0]:
			b = b[1:]
		default:
			return true
		}
	}
	return false
}

// fill derives one individual's row of a table, if a preference of the
// table's rules contains it.
func (d *DocSide) fill(t *DocTable, id string) (err error) {
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
		return nil
	}
	row := make([]float64, len(t.absent))
	if t.joint {
		err = d.space.JointProbs(evs, row)
	} else {
		for i, ev := range evs {
			if row[i], err = d.space.Prob(ev); err != nil {
				break
			}
		}
	}
	t.rows[id] = row
	docRowsComputed.Add(1)
	return err
}

// fillAll derives the row of every individual a preference of the table's
// rules contains.
func (d *DocSide) fillAll(t *DocTable) error {
	for _, r := range t.rules {
		for _, id := range d.handles[r].IDs {
			if _, done := t.rows[id]; !done {
				if err := d.fill(t, id); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Err returns why the content could not be derived, if it could not: every
// plan that reads the side fails with it.
func (p *DocProbs) Err() error { return p.err }

// Row returns the individual's probabilities of membership, one per rule of
// the handle list. The caller must not modify it.
func (p *DocProbs) Row(id string) []float64 { return p.marginal.Row(id) }

// Blocks returns the rule's sorted block footprint (Membership.Blocks).
func (p *DocProbs) Blocks(rule int) []string { return p.blocks[rule] }

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
	t := &DocTable{rules: slices.Clone(rules), joint: true, rows: make(map[string][]float64), absent: make([]float64, 1<<len(rules))}
	t.absent[0] = 1
	if err := p.side.fillAll(t); err != nil {
		return nil, err
	}
	p.joint = append(p.joint, t)
	return t, nil
}

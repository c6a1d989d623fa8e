package event

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// basicInfo records the declaration of a basic event.
type basicInfo struct {
	prob  float64
	group int // -1 when the event is independent of all others
}

// Space owns basic-event declarations and computes exact probabilities of
// event expressions over them. All methods are safe for concurrent use.
//
// Independence model: basic events in different groups (or ungrouped) are
// mutually independent; basic events within one exclusive group are mutually
// exclusive (at most one is true).
//
// A Space remembers declarations and a record of which correlated blocks
// changed when (Generation, ChangedBlocksSince) — no probability: Prob
// computes every answer from the declarations it reads.
//
// # Retirement contract
//
// Declarations are not permanent: Retire removes basic events again,
// freeing their declaration and compacting their exclusive-group slot for
// reuse. The caller owns the obligation that no stored
// event expression still references a retired event — Prob of such an
// expression fails with "not declared", the same as for a name that never
// existed. Retiring a member of an exclusive group does not change the
// probability of any expression over the remaining members (residual mass
// is computed from mentioned members only), so churning context loaders can
// retire a dead epoch's events without perturbing live rankings.
type Space struct {
	mu     sync.RWMutex
	basics map[string]basicInfo
	groups [][]string // group id -> member names; nil = retired slot
	free   []int      // retired group slots available for reuse

	// gen counts changes (Retire, DeclareExclusive). It advances under
	// changeMu, together with the change record, and is read without it.
	gen atomic.Uint64
	// changes records, per generation, the correlated-block keys (in Blocks'
	// key space) whose probability semantics that change may have altered —
	// the footprint diff that stamped readers intersect against their
	// footprints. Ascending by gen; bounded by maxTrackedChanges, with
	// changeFloor the highest generation whose changes were trimmed away
	// (callers asking about older generations must assume everything
	// changed). Guarded by changeMu.
	changeMu    sync.Mutex
	changes     []genChange
	changeFloor uint64
}

// genChange is one generation's changed-block record.
type genChange struct {
	gen  uint64
	keys []string
}

// maxTrackedChanges bounds the change history. A context apply costs a
// handful of generations (one retire plus one declare per exclusive
// group), so the bound covers hundreds of applies between two settles of a
// stamped reader (a document side, a membership's block footprint); an older
// stamp just loses the incremental fast path.
const maxTrackedChanges = 4096

// NewSpace returns an empty event space.
func NewSpace() *Space {
	return &Space{basics: make(map[string]basicInfo)}
}

// Declare registers an independent basic event with probability p.
// Redeclaring an existing name with a different probability is an error;
// redeclaring with the same probability is a no-op (so loaders can be
// idempotent).
func (s *Space) Declare(name string, p float64) error {
	// Positive form so NaN is rejected too.
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("event: probability %g of %q out of [0,1]", p, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.basics[name]; ok {
		if old.prob == p && old.group == -1 {
			return nil
		}
		return fmt.Errorf("event: basic event %q already declared", name)
	}
	s.basics[name] = basicInfo{prob: p, group: -1}
	// No change recorded: a fresh independent basic cannot change any
	// existing expression's probability — expressions mentioning it failed
	// with "not declared" before, and expressions not mentioning it are
	// unaffected by an independent addition. (Retire recorded this name's
	// block when it was last retired, so a retire/redeclare cycle with a
	// different probability is covered too.)
	return nil
}

// DeclareExclusive registers a group of mutually exclusive basic events. The
// probabilities must sum to at most 1; the residual mass is the probability
// that none of them is true.
func (s *Space) DeclareExclusive(names []string, probs []float64) error {
	if len(names) != len(probs) {
		return fmt.Errorf("event: %d names but %d probabilities", len(names), len(probs))
	}
	if len(names) == 0 {
		return fmt.Errorf("event: empty exclusive group")
	}
	sum := 0.0
	dup := make(map[string]bool, len(names))
	for i, p := range probs {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("event: probability %g of %q out of [0,1]", p, names[i])
		}
		// A name repeated within one call would be stored once but counted
		// once per occurrence by enumerate, double-counting its mass and
		// over-subtracting the residual.
		if dup[names[i]] {
			return fmt.Errorf("event: duplicate name %q in exclusive group", names[i])
		}
		dup[names[i]] = true
		sum += p
	}
	if sum > 1+1e-9 {
		return fmt.Errorf("event: exclusive group probabilities sum to %g > 1", sum)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range names {
		if _, ok := s.basics[n]; ok {
			return fmt.Errorf("event: basic event %q already declared", n)
		}
	}
	members := make([]string, len(names))
	copy(members, names)
	var gid int
	if n := len(s.free); n > 0 {
		// Reuse a retired group slot so churning loaders do not grow the
		// group table without bound.
		gid = s.free[n-1]
		s.free = s.free[:n-1]
		s.groups[gid] = members
	} else {
		gid = len(s.groups)
		s.groups = append(s.groups, members)
	}
	for i, n := range names {
		s.basics[n] = basicInfo{prob: probs[i], group: gid}
	}
	// The group key may be a reused slot id: recording it as changed is what
	// tells footprint-diffing callers that "g:<gid>" no longer means the
	// group they saw at compile time.
	s.recordChange([]string{groupKey(gid)})
	return nil
}

// Retire removes previously declared basic events (independent or exclusive
// group members). The call is atomic: if any name is not declared, nothing
// is retired. A group whose last member is retired has its slot freed for
// reuse by a later DeclareExclusive. The retired names' blocks are recorded
// as changed; see the retirement contract on Space for the caller's
// obligations.
func (s *Space) Retire(names ...string) error {
	if len(names) == 0 {
		return nil
	}
	s.mu.Lock()
	for _, n := range names {
		if _, ok := s.basics[n]; !ok {
			s.mu.Unlock()
			return fmt.Errorf("event: cannot retire %q: not declared", n)
		}
	}
	keys := make([]string, 0, len(names))
	seenKeys := make(map[string]bool, len(names))
	for _, n := range names {
		info, ok := s.basics[n]
		if !ok {
			continue // duplicate name within this call
		}
		if k := blockKey(n, info.group); !seenKeys[k] {
			seenKeys[k] = true
			keys = append(keys, k)
		}
		delete(s.basics, n)
		if info.group >= 0 {
			s.removeGroupMemberLocked(info.group, n)
		}
	}
	s.mu.Unlock()
	s.recordChange(keys)
	return nil
}

// removeGroupMemberLocked drops one member from its group, freeing the slot
// when the group empties. Caller holds s.mu.
func (s *Space) removeGroupMemberLocked(gid int, name string) {
	members := s.groups[gid]
	for i, m := range members {
		if m == name {
			members = append(members[:i], members[i+1:]...)
			break
		}
	}
	if len(members) == 0 {
		s.groups[gid] = nil
		s.free = append(s.free, gid)
		return
	}
	s.groups[gid] = members
}

// Declared reports whether name is a declared basic event.
func (s *Space) Declared(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.basics[name]
	return ok
}

// BasicProb returns the declared probability of a basic event.
func (s *Space) BasicProb(name string) (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	info, ok := s.basics[name]
	if !ok {
		return 0, fmt.Errorf("event: basic event %q not declared", name)
	}
	return info.prob, nil
}

// Decl describes one declared basic event for snapshotting: Group is -1
// for independent events, otherwise the index of its exclusive group.
type Decl struct {
	Name  string
	Prob  float64
	Group int
}

// Decls returns every declaration, grouped events first (ordered by group,
// then by their position in the group), then independent events sorted by
// name — an order that Restore-style loops can replay directly. Retired
// group slots are skipped; surviving groups keep their original ids, which
// may therefore have gaps.
func (s *Space) Decls() []Decl {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Decl
	for gid, members := range s.groups {
		for _, n := range members {
			out = append(out, Decl{Name: n, Prob: s.basics[n].prob, Group: gid})
		}
	}
	var singles []Decl
	for n, info := range s.basics {
		if info.group == -1 {
			singles = append(singles, Decl{Name: n, Prob: info.prob, Group: -1})
		}
	}
	sort.Slice(singles, func(i, j int) bool { return singles[i].Name < singles[j].Name })
	return append(out, singles...)
}

// Len returns the number of declared basic events.
func (s *Space) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.basics)
}

// Groups returns the number of live (non-retired) exclusive groups; tests
// check group retirement with it.
func (s *Space) Groups() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, members := range s.groups {
		if len(members) > 0 {
			n++
		}
	}
	return n
}

// recordChange advances the generation by one change of the given block keys
// and records them, trimming the oldest half of the record past
// maxTrackedChanges.
func (s *Space) recordChange(keys []string) {
	s.changeMu.Lock()
	defer s.changeMu.Unlock()
	s.changes = append(s.changes, genChange{gen: s.gen.Add(1), keys: keys})
	if len(s.changes) > maxTrackedChanges {
		drop := len(s.changes) / 2
		s.changeFloor = s.changes[drop-1].gen
		s.changes = append([]genChange(nil), s.changes[drop:]...)
	}
}

// ChangedBlocksSince returns every correlated-block key (in Blocks' key
// space) whose probability semantics may have changed after generation gen,
// together with the generation the answer is valid as of. ok is false when
// the change history no longer reaches back to gen — the caller must then
// assume every block changed. A reader that derived probabilities at
// generation g over a footprint disjoint from the returned set is guaranteed
// that none of its footprint blocks were retired, regrouped or re-declared
// in (g, asOf]: its probabilities are still exact.
func (s *Space) ChangedBlocksSince(gen uint64) (keys map[string]bool, asOf uint64, ok bool) {
	s.changeMu.Lock()
	defer s.changeMu.Unlock()
	asOf = s.gen.Load()
	if gen < s.changeFloor {
		return nil, asOf, false
	}
	keys = make(map[string]bool)
	for i := len(s.changes) - 1; i >= 0 && s.changes[i].gen > gen; i-- {
		for _, k := range s.changes[i].keys {
			keys[k] = true
		}
	}
	return keys, asOf, true
}

// Generation returns the space's change counter, one atomic load. It
// advances on every mutation that could change the probability of an
// already-held expression — Retire, DeclareExclusive — and stays put on
// plain Declare, which provably cannot (see the comment in Declare). Callers
// that hold derived probabilities (the shared document sides, the membership
// block footprints) stamp them with the generation and treat an advance as
// "ask ChangedBlocksSince, or derive again": a derivation over retired events
// then fails with "not declared" exactly like a fresh Prob, so the retirement
// contract is preserved rather than masked by what the caller holds.
func (s *Space) Generation() uint64 { return s.gen.Load() }

// Prob computes the exact probability of e. It enumerates joint states of
// the exclusive groups (and singleton events) that e mentions, so the cost is
// exponential only in the number of *distinct correlated groups mentioned by
// e*, never in the size of the space. Nothing is remembered: every call
// computes its answer from the present declarations.
func (s *Space) Prob(e *Expr) (float64, error) {
	switch e.kind {
	case KindTrue:
		return 1, nil
	case KindFalse:
		return 0, nil
	case KindBasic:
		return s.BasicProb(e.name)
	}
	return s.enumerate(e)
}

// JointProbs fills out — 2^len(evs) entries — with the joint distribution of
// the given events: out[mask] is the probability that exactly the events whose
// bit is set in mask hold, each computed through Prob as one conjunction of
// the events and their complements in the order given.
func (s *Space) JointProbs(evs []*Expr, out []float64) error {
	conj := make([]*Expr, len(evs))
	for mask := range out {
		for i, ev := range evs {
			if mask&(1<<i) == 0 {
				ev = Not(ev)
			}
			conj[i] = ev
		}
		p, err := s.Prob(And(conj...))
		if err != nil {
			return err
		}
		out[mask] = p
	}
	return nil
}

// factor is one independent block of basic events mentioned by an
// expression: either a singleton independent event or the mentioned members
// of one exclusive group.
type factor struct {
	names []string
	probs []float64
	excl  bool
}

func (s *Space) factorsOf(e *Expr) ([]factor, error) {
	names := e.Basics()
	s.mu.RLock()
	defer s.mu.RUnlock()
	byGroup := make(map[int]*factor)
	var singles []factor
	for _, n := range names {
		info, ok := s.basics[n]
		if !ok {
			return nil, fmt.Errorf("event: basic event %q not declared", n)
		}
		if info.group == -1 {
			singles = append(singles, factor{names: []string{n}, probs: []float64{info.prob}})
			continue
		}
		f := byGroup[info.group]
		if f == nil {
			f = &factor{excl: true}
			byGroup[info.group] = f
		}
		f.names = append(f.names, n)
		f.probs = append(f.probs, info.prob)
	}
	out := singles
	gids := make([]int, 0, len(byGroup))
	for g := range byGroup {
		gids = append(gids, g)
	}
	sort.Ints(gids)
	for _, g := range gids {
		out = append(out, *byGroup[g])
	}
	return out, nil
}

// enumerate sums the probability of every joint state of the mentioned
// factors under which e evaluates to true.
func (s *Space) enumerate(e *Expr) (float64, error) {
	factors, err := s.factorsOf(e)
	if err != nil {
		return 0, err
	}
	assign := make(map[string]bool, 8)
	var rec func(i int, acc float64) float64
	rec = func(i int, acc float64) float64 {
		if acc == 0 {
			return 0
		}
		if i == len(factors) {
			if e.evaluate(assign) {
				return acc
			}
			return 0
		}
		f := factors[i]
		total := 0.0
		if f.excl {
			// One mentioned member true, or none of the mentioned members
			// true (residual includes unmentioned members and "nothing").
			residual := 1.0
			for j, n := range f.names {
				residual -= f.probs[j]
				for _, m := range f.names {
					assign[m] = m == n
				}
				total += rec(i+1, acc*f.probs[j])
			}
			if residual < 0 {
				residual = 0
			}
			for _, m := range f.names {
				assign[m] = false
			}
			total += rec(i+1, acc*residual)
		} else {
			n := f.names[0]
			assign[n] = true
			total += rec(i+1, acc*f.probs[0])
			assign[n] = false
			total += rec(i+1, acc*(1-f.probs[0]))
		}
		return total
	}
	return rec(0, 1), nil
}

// blockKey is the canonical correlated-block key of one declared basic:
// its own name for independent events, the shared group key otherwise.
func blockKey(name string, group int) string {
	if group == -1 {
		return "b:" + name
	}
	return groupKey(group)
}

// groupKey is the block key shared by every member of one exclusive group.
func groupKey(gid int) string { return fmt.Sprintf("g:%d", gid) }

// Blocks adds the canonical correlated-block keys of every basic event
// mentioned by e into dst: an independent basic contributes its own name,
// an exclusive-group member contributes its group's key (shared by all
// members). Two expressions are independent — P(a ∧ b) = P(a)·P(b) is
// guaranteed by the space's structure — exactly when their block-key sets
// are disjoint, so callers partition many expressions into correlation
// clusters with one pass per expression. It is an error if e mentions an
// undeclared basic event (e.g. one that was retired).
func (s *Space) Blocks(e *Expr, dst map[string]bool) error {
	names := e.Basics()
	if len(names) == 0 {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, n := range names {
		info, ok := s.basics[n]
		if !ok {
			return fmt.Errorf("event: basic event %q not declared", n)
		}
		dst[blockKey(n, info.group)] = true
	}
	return nil
}

// AppendBlocks is Blocks into a slice: it appends to dst the block key of
// every basic event e mentions that the keys appended by this call do not
// already hold, and returns the extended slice. A caller keeping many
// expressions' keys in one slice runs it once per expression.
func (s *Space) AppendBlocks(dst []string, e *Expr) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.appendBlocksLocked(dst, len(dst), e)
}

// appendBlocksLocked walks e for AppendBlocks; the keys from dst[from:] on
// are this call's. Caller holds s.mu.
func (s *Space) appendBlocksLocked(dst []string, from int, e *Expr) ([]string, error) {
	if e.kind != KindBasic {
		var err error
		for _, a := range e.args {
			if dst, err = s.appendBlocksLocked(dst, from, a); err != nil {
				return dst, err
			}
		}
		return dst, nil
	}
	info, ok := s.basics[e.name]
	if !ok {
		return dst, fmt.Errorf("event: basic event %q not declared", e.name)
	}
	if key := blockKey(e.name, info.group); !slices.Contains(dst[from:], key) {
		dst = append(dst, key)
	}
	return dst, nil
}

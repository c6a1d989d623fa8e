package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dl"
	"repro/internal/event"
	"repro/internal/mapping"
	"repro/internal/prefs"
)

// Plan is a compiled ranking plan: everything about a (user, rule set,
// applied context) triple that does not depend on the candidate being scored,
// resolved once so that scoring a catalog of n documents costs n× the
// document-side work only. Compilation performs the §6 "early stages" of
// the factorized ranker up front:
//
//  1. Rule contexts are resolved to the user's membership events and rules
//     whose context cannot apply (probability 0) are pruned.
//  2. Every rule's preference view is compiled and its membership events
//     fetched for the whole catalog.
//  3. The surviving rules are partitioned into correlation clusters by
//     their basic-event footprint — the correlated blocks mentioned by the
//     rule's context event or by any of its preference membership events.
//     Rules in different clusters touch disjoint blocks for *every*
//     candidate, so the expectation factorizes across clusters. (This
//     replaces the per-candidate union-find over Space.Independent probes:
//     the footprint partition is candidate-independent and may therefore be
//     slightly coarser than the per-candidate one, which changes only
//     floating-point association order, never the semantics.)
//  4. Per multi-rule cluster the 2^m context-state probability table is
//     precomputed; singleton clusters store the scalar context probability.
//
// When step 3's candidate-independent partition chains more rules into one
// cluster than can be enumerated exactly (maxClusterRules), the plan keeps
// steps 1–2 and scores in per-candidate mode instead: clustering and the
// state enumeration run per candidate (scorePerCandidate), where the same
// rules usually fall into small clusters. Callers never see the difference —
// every method works in both modes and returns the same scores — except
// that a per-candidate plan cannot be refreshed.
//
// Score then evaluates only the document-state distribution per candidate,
// and memoizes it: each candidate's per-cluster document-side distribution
// is cached inside the plan (keyed by the event space's invalidation
// generation), so repeat ranks over a stable catalog skip the doc-side
// Prob calls entirely and reduce to pure float arithmetic.
//
// A Plan is immutable after compilation apart from its internal caches and
// safe for concurrent use. What it answers for, and how a holder finds out
// that it no longer does:
//
//   - The user's context side — each rule's context event and probability —
//     is frozen at compile time. It moves with the user's own context applies
//     (and with another user's apply that reaches this user's contexts over a
//     role edge); nothing in the plan notices, so whoever caches a plan keys
//     it by the user's applied generation, as internal/serve does. A plan used
//     after its context events were retired fails with "not declared" — the
//     cached distributions are invalidated by the space's generation counter,
//     so retirement surfaces as an error, never as a stale score.
//   - The preference side is a membership handle per rule (mapping.Membership),
//     valid by the write versions of the tables the preference's view reads.
//     Current reports whether every handle still is; while it does, no assert,
//     retract, context row or SQL write has touched anything the plan ranks
//     by. A stale plan is brought up to date by Refresh, not recompiled.
//   - The rule list is the caller's: Refresh takes the current rules and
//     refuses a plan compiled from different ones.
//   - A Target's candidate list is not plan state at all: every rank resolves
//     it through the loader's membership memo, so it is as fresh as the
//     tables, whatever the plan's age.
type Plan struct {
	loader *mapping.Loader
	space  *event.Space
	user   string

	rules    []planRule    // every requested rule, in request order
	clusters []planCluster // active (unpruned) rules only
	distLen  int           // floats per candidate in the doc-distribution cache
	// perCandidate marks per-candidate mode (see the type comment): clusters
	// is empty and active lists the unpruned rules scorePerCandidate
	// partitions for each candidate.
	perCandidate bool
	active       []*planRule

	// Incremental-maintenance state (see Refresh). restricted marks a plan
	// compiled with a candidate restriction, which Refresh refuses to
	// maintain; docBlocks holds, for the active rules of an unrestricted
	// plan, the document-side block keys clustering ran on (sorted) — each
	// the rule's membership handle's own footprint (Membership.Blocks),
	// shared with every plan that ranks under the same preference.
	restricted bool
	docBlocks  [][]string

	// Document-side distribution cache: candidate id -> flat per-cluster
	// distribution (planCluster.distOff slices it). Entries are valid for
	// the space generation docGen was stamped with; on an advance
	// carryDocDist re-stamps or wipes them.
	docMu   sync.RWMutex
	docGen  uint64
	docDist map[string][]float64
}

// docCacheMaxEntries bounds the per-plan distribution cache so a plan
// ranking an unbounded stream of ad-hoc candidate lists cannot grow
// without limit. Past the bound scoring still works, it just recomputes.
const docCacheMaxEntries = 1 << 17

// planRule is one rule's candidate-independent compilation product.
type planRule struct {
	rule    prefs.Rule
	ctxEv   *event.Expr
	ctxProb float64
	// members is the preference's membership handle: candidate id ->
	// membership event for every individual the preference view contains;
	// absent ids are non-members (event.False()). Shared with every other
	// plan over the same preference, and read-only.
	members *mapping.Membership
}

// docEv returns the candidate's membership event in the rule's preference.
func (pr *planRule) docEv(id string) *event.Expr {
	if ev, ok := pr.members.Events[id]; ok {
		return ev
	}
	return event.False()
}

// planCluster is one correlation cluster of active rules.
type planCluster struct {
	rules []int // indices into Plan.rules, ascending request order
	// ctxProbs is the precomputed context-state distribution over the
	// cluster's rules (index = bitmask of "rule context applies"); nil for
	// singleton clusters, whose factor uses ctxProb directly.
	ctxProbs []float64
	// distOff is the cluster's offset into a candidate's flat document
	// distribution: 1 slot (P(docEv)) for singletons, 2^m slots (the
	// document-state table) for an m-rule cluster.
	distOff int
}

// PlanScratch holds the per-request temporaries of the rank hot path —
// conjunction buffers, the result accumulator, the top-k heap — so a
// caller ranking in a loop allocates nothing per call. A scratch is
// single-goroutine state: use one per goroutine (Plan itself stays safe
// for concurrent use). Results returned by RankInto alias the scratch and
// are valid until its next use.
type PlanScratch struct {
	docConj []*event.Expr
	results []Result
}

// NewPlanScratch returns an empty scratch arena. Plan.Rank and Plan.Score
// draw from an internal pool automatically; allocate explicitly only for
// the zero-allocation RankInto path.
func NewPlanScratch() *PlanScratch { return &PlanScratch{} }

// Hot-path effectiveness counters, process-global like runtime metrics:
// plans come and go through caches, so per-plan counts cannot be
// aggregated reliably by callers. Exposed through ReadHotPathStats.
var (
	scratchGets    atomic.Int64
	scratchNews    atomic.Int64
	docCacheHits   atomic.Int64
	docCacheMisses atomic.Int64
)

// HotPathStats reports how effective the rank hot path's scratch pool and
// document-distribution caches are, cumulatively for the process.
type HotPathStats struct {
	// ScratchGets counts internal scratch-pool checkouts; ScratchNews the
	// subset that had to allocate a fresh arena (pool empty / GC'd).
	ScratchGets int64 `json:"scratch_gets"`
	ScratchNews int64 `json:"scratch_news"`
	// DocCacheHits/Misses count candidate scorings served from a plan's
	// cached document-side distribution vs. recomputed via Space.Prob.
	DocCacheHits   int64 `json:"doc_cache_hits"`
	DocCacheMisses int64 `json:"doc_cache_misses"`
}

// ReadHotPathStats returns the process-wide hot-path counters.
func ReadHotPathStats() HotPathStats {
	return HotPathStats{
		ScratchGets:    scratchGets.Load(),
		ScratchNews:    scratchNews.Load(),
		DocCacheHits:   docCacheHits.Load(),
		DocCacheMisses: docCacheMisses.Load(),
	}
}

var scratchPool = sync.Pool{New: func() any {
	scratchNews.Add(1)
	return &PlanScratch{}
}}

func getScratch() *PlanScratch {
	scratchGets.Add(1)
	return scratchPool.Get().(*PlanScratch)
}

func putScratch(sc *PlanScratch) { scratchPool.Put(sc) }

// CompilePlan resolves and compiles the rules for one situated user. The
// compile cost is paid once per (user, rule set, applied context) instead of
// once per candidate; see the Plan type comment for what is hoisted.
func CompilePlan(l *mapping.Loader, user string, rules []prefs.Rule) (*Plan, error) {
	return compilePlan(l, user, rules, nil)
}

// compilePlan is CompilePlan with an optional candidate restriction: when
// only is non-nil, the footprint partition considers just those candidates'
// preference-membership events. A restricted plan is valid only for
// candidates in the set — the per-request path uses it so a 3-candidate
// RankQuery over a 100k-member preference does not walk 100k events'
// blocks; cacheable catalog-wide plans pass nil.
func compilePlan(l *mapping.Loader, user string, rules []prefs.Rule, only map[string]bool) (*Plan, error) {
	p, err := resolvePlan(l, user, rules)
	if err != nil {
		return nil, err
	}
	p.restricted = only != nil
	if err := p.compileClusters(only); err != nil {
		return nil, err
	}
	return p, nil
}

// perCandidatePlan compiles a plan directly into per-candidate mode, skipping
// the footprint partition. Production plans get there only through
// compileClusters hitting the cluster bound; the equivalence tests and
// BenchmarkPlanScoreLargeCatalog's baseline use this to hold the mode against
// the compiled one on rule sets that fit both.
func perCandidatePlan(l *mapping.Loader, user string, rules []prefs.Rule) (*Plan, error) {
	p, err := resolvePlan(l, user, rules)
	if err != nil {
		return nil, err
	}
	p.usePerCandidate()
	return p, nil
}

// usePerCandidate switches the plan to per-candidate mode, dropping what only
// the enumerating mode and its Refresh use.
func (p *Plan) usePerCandidate() {
	p.perCandidate, p.clusters, p.docBlocks = true, nil, nil
	for i := range p.rules {
		if p.rules[i].ctxProb > 0 {
			p.active = append(p.active, &p.rules[i])
		}
	}
}

// resolvePlan is the mode-independent half of compilation: every rule's
// context event and probability for the user and its preference's membership
// events for the whole catalog.
func resolvePlan(l *mapping.Loader, user string, rules []prefs.Rule) (*Plan, error) {
	if user == "" {
		return nil, fmt.Errorf("core: request without a user")
	}
	space := l.DB().Space()
	p := &Plan{loader: l, space: space, user: user}
	p.rules = make([]planRule, 0, len(rules))
	for _, rule := range rules {
		if err := rule.Validate(); err != nil {
			return nil, err
		}
		ctxEv, err := l.MembershipEvent(rule.Context, user)
		if err != nil {
			return nil, fmt.Errorf("core: rule %s context: %w", rule.Name, err)
		}
		pCtx, err := space.Prob(ctxEv)
		if err != nil {
			return nil, fmt.Errorf("core: rule %s context: %w", rule.Name, err)
		}
		members, err := l.Members(rule.Preference)
		if err != nil {
			return nil, fmt.Errorf("core: rule %s preference: %w", rule.Name, err)
		}
		p.rules = append(p.rules, planRule{rule: rule, ctxEv: ctxEv, ctxProb: pCtx, members: members})
	}
	return p, nil
}

// compileClusters prunes impossible contexts, partitions the active rules
// by basic-event footprint and precomputes the per-cluster context-state
// tables — or, when the partition produces a cluster past the enumeration
// bound, switches the plan to per-candidate mode. only, when non-nil,
// restricts the document-side footprint to those candidates (see
// compilePlan).
func (p *Plan) compileClusters(only map[string]bool) error {
	gen := p.space.Generation()
	if only == nil {
		p.docBlocks = make([][]string, len(p.rules))
	}
	var active []int
	for i := range p.rules {
		if p.rules[i].ctxProb > 0 {
			active = append(active, i)
		}
	}

	// Union-find over the active rules, merging rules whose footprints
	// share a correlated block. blockOwner maps each block key to the
	// first active rule that mentioned it.
	parent := make([]int, len(active))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	blockOwner := make(map[string]int)
	// link merges rule ai with whichever rule mentioned the block first.
	link := func(ai int, key string) {
		if owner, ok := blockOwner[key]; ok {
			parent[find(ai)] = find(owner)
		} else {
			blockOwner[key] = ai
		}
	}
	footprint := make(map[string]bool)
	for ai, ri := range active {
		clear(footprint)
		st := &p.rules[ri]
		if err := p.space.Blocks(st.ctxEv, footprint); err != nil {
			return fmt.Errorf("core: rule %s context: %w", st.rule.Name, err)
		}
		if only == nil {
			keys, err := st.members.Blocks()
			if err != nil {
				return fmt.Errorf("core: rule %s preference: %w", st.rule.Name, err)
			}
			p.docBlocks[ri] = keys
			for _, k := range keys {
				link(ai, k)
			}
		} else {
			for id := range only {
				if ev, ok := st.members.Events[id]; ok {
					if err := p.space.Blocks(ev, footprint); err != nil {
						return fmt.Errorf("core: rule %s preference: %w", st.rule.Name, err)
					}
				}
			}
		}
		for key := range footprint {
			link(ai, key)
		}
	}

	byRoot := make(map[int][]int)
	var roots []int
	for ai, ri := range active {
		root := find(ai)
		if _, ok := byRoot[root]; !ok {
			roots = append(roots, root)
		}
		byRoot[root] = append(byRoot[root], ri)
	}

	p.clusters = make([]planCluster, 0, len(roots))
	for _, root := range roots {
		cl := planCluster{rules: byRoot[root]}
		m := len(cl.rules)
		if m > maxClusterRules {
			p.usePerCandidate()
			return nil
		}
		if m > 1 {
			// Precompute the context-state distribution, exactly as the
			// per-candidate path did — identical expressions, so the event
			// space's memo keys match too.
			cl.ctxProbs = make([]float64, 1<<m)
			for mask := 0; mask < 1<<m; mask++ {
				ctxConj := make([]*event.Expr, m)
				for i, ri := range cl.rules {
					if mask&(1<<i) != 0 {
						ctxConj[i] = p.rules[ri].ctxEv
					} else {
						ctxConj[i] = event.Not(p.rules[ri].ctxEv)
					}
				}
				prob, err := p.space.Prob(event.And(ctxConj...))
				if err != nil {
					return err
				}
				cl.ctxProbs[mask] = prob
			}
		}
		p.clusters = append(p.clusters, cl)
	}

	// Lay out the flat document-distribution record: 1 slot per singleton,
	// 2^m per m-rule cluster.
	off := 0
	for i := range p.clusters {
		p.clusters[i].distOff = off
		if m := len(p.clusters[i].rules); m > 1 {
			off += 1 << m
		} else {
			off++
		}
	}
	p.distLen = off
	p.docGen = gen
	p.docDist = make(map[string][]float64)
	return nil
}

// ErrPlanNotRefreshable marks a plan Refresh cannot maintain incrementally:
// a candidate-restricted compile, per-candidate mode (the bound is a property
// of the footprint partition and a refresh would only rediscover it), or a
// plan compiled from other rules than the ones to refresh under. Callers fall
// back to a fresh CompilePlan.
var ErrPlanNotRefreshable = fmt.Errorf("core: plan cannot be refreshed incrementally")

// Current reports whether every rule's preference membership is still what
// the plan compiled: no table a preference's view reads has been written
// since. A handful of atomic loads per rule; it says nothing about the user's
// own context or the rule list (see the type comment).
func (p *Plan) Current() bool {
	for i := range p.rules {
		if !p.rules[i].members.Current() {
			return false
		}
	}
	return true
}

// sameRules reports whether rules are the ones the plan compiled, in order.
func (p *Plan) sameRules(rules []prefs.Rule) bool {
	if len(rules) != len(p.rules) {
		return false
	}
	for i, r := range rules {
		old := p.rules[i].rule
		if r.Name != old.Name || r.Sigma != old.Sigma ||
			!dl.Equal(r.Context, old.Context) || !dl.Equal(r.Preference, old.Preference) {
			return false
		}
	}
	return true
}

// Refresh compiles a successor plan against the loader's *current* state,
// reusing the candidate-independent work that state left intact instead of
// recompiling from scratch. Anything may have happened since the plan
// compiled — context applies of any user, asserts and retracts, SQL writes —
// as long as rules, the rule list to rank under now, is the one the plan
// compiled from; otherwise it returns ErrPlanNotRefreshable.
//
// What is reused, and why it is exact:
//
//   - Preference memberships: a rule whose handle is still current (no table
//     its view reads was written) keeps it without touching the store. Any
//     other rule fetches the loader's handle — patched or queried once per
//     table version, shared by every user's refresh — and asks it which
//     candidates moved since the old one (Membership.ChangedSince); only
//     across a view query does it compare the two memberships itself.
//   - Cluster partition: re-run over fresh context footprints plus the
//     handles' document footprints, each walked once per handle for all its
//     plans — the same union-find over the same keys a fresh compile would
//     walk, so the partition (and hence float association order) is
//     identical by construction.
//   - 2^m context-state tables: recomputed through Space.Prob, whose memo
//     retains entries for expressions that mention no retired event — an
//     unchanged rule context is a lookup, only genuinely touched clusters
//     pay an enumeration.
//   - Document-side distributions: adopted from the predecessor for every
//     candidate whose membership events are unchanged, provided the cluster
//     layout is identical and the event space's footprint diff
//     (ChangedBlocksSince) confirms no document block was retired,
//     regrouped or re-declared since they were computed. Re-scoring then
//     touches only candidates the change actually reached.
func (p *Plan) Refresh(rules []prefs.Rule) (*Plan, error) {
	if p.restricted || p.perCandidate || !p.sameRules(rules) {
		return nil, ErrPlanNotRefreshable
	}
	np := &Plan{loader: p.loader, space: p.space, user: p.user}
	np.rules = make([]planRule, len(p.rules))
	// changedIDs collects candidates whose membership event differs in any
	// re-fetched rule; their cached distributions are the ones invalidated.
	changedIDs := make(map[string]bool)
	for i := range p.rules {
		old := &p.rules[i]
		ctxEv, err := p.loader.MembershipEvent(old.rule.Context, p.user)
		if err != nil {
			return nil, fmt.Errorf("core: rule %s context: %w", old.rule.Name, err)
		}
		pCtx, err := p.space.Prob(ctxEv)
		if err != nil {
			return nil, fmt.Errorf("core: rule %s context: %w", old.rule.Name, err)
		}
		members := old.members
		if !members.Current() {
			if members, err = p.loader.Members(old.rule.Preference); err != nil {
				return nil, fmt.Errorf("core: rule %s preference: %w", old.rule.Name, err)
			}
			if ids, tracked := members.ChangedSince(old.members); tracked {
				for _, id := range ids {
					changedIDs[id] = true
				}
			} else {
				diffMembers(old.members.Events, members.Events, changedIDs)
			}
		}
		np.rules[i] = planRule{rule: old.rule, ctxEv: ctxEv, ctxProb: pCtx, members: members}
	}
	if err := np.compileClusters(nil); err != nil {
		return nil, err
	}
	np.adoptDocDist(p, changedIDs)
	return np, nil
}

// diffMembers records into changed every candidate whose membership event
// differs between old and new: the refresh's fall-back when the new handle
// cannot name them (Membership.ChangedSince untracked — a view query, or more
// patches than a handle remembers, lies between the two).
func diffMembers(old, new map[string]*event.Expr, changed map[string]bool) {
	for id, ev := range new {
		if oev, ok := old[id]; !ok || !event.Equal(oev, ev) {
			changed[id] = true
		}
	}
	for id := range old {
		if _, ok := new[id]; !ok {
			changed[id] = true
		}
	}
}

// adoptDocDist carries the predecessor's cached document-side
// distributions into np for every candidate the context change provably
// did not reach. Preconditions checked here: the cluster layout (partition,
// rule order, distribution offsets) is identical, so the flat records have
// the same shape and association order; and the event space's footprint
// diff since the entries were computed is disjoint from every active
// rule's document footprint, so each adopted value is bit-identical to
// what a fresh computation would produce. On any doubt it adopts nothing —
// correctness never depends on adoption, only refresh speed does.
func (np *Plan) adoptDocDist(p *Plan, changedIDs map[string]bool) {
	if np.distLen != p.distLen || len(np.clusters) != len(p.clusters) {
		return
	}
	for i := range np.clusters {
		if np.clusters[i].distOff != p.clusters[i].distOff ||
			!slices.Equal(np.clusters[i].rules, p.clusters[i].rules) {
			return
		}
	}
	p.docMu.RLock()
	oldGen := p.docGen
	n := len(p.docDist)
	p.docMu.RUnlock()
	if n == 0 {
		return
	}
	asOf, ok := np.docBlocksUntouchedSince(oldGen)
	if !ok {
		return
	}
	p.docMu.RLock()
	if p.docGen != oldGen {
		p.docMu.RUnlock()
		return
	}
	adopt := make(map[string][]float64, len(p.docDist))
	for id, d := range p.docDist {
		if !changedIDs[id] {
			adopt[id] = d
		}
	}
	p.docMu.RUnlock()
	np.docMu.Lock()
	np.docGen = asOf
	np.docDist = adopt
	np.docMu.Unlock()
}

// docBlocksUntouchedSince reports whether every invalidation of the event
// space after generation gen left the document-side footprint of every
// active rule alone — none of its blocks retired, regrouped or re-declared —
// and the generation that answer holds as of: document-side distributions
// computed at gen are then bit-identical to what a computation at asOf would
// produce. False when the space's change history no longer reaches back to
// gen or a rule's footprint is not known (a candidate-restricted compile).
func (p *Plan) docBlocksUntouchedSince(gen uint64) (asOf uint64, ok bool) {
	changed, asOf, tracked := p.space.ChangedBlocksSince(gen)
	if !tracked {
		return asOf, false
	}
	for _, cl := range p.clusters {
		for _, ri := range cl.rules {
			if p.docBlocks == nil || p.docBlocks[ri] == nil {
				return asOf, false
			}
			// The changed keys are the few a handful of context applies
			// touched; the footprint is sorted and may span the catalog.
			for k := range changed {
				if _, hit := slices.BinarySearch(p.docBlocks[ri], k); hit {
					return asOf, false
				}
			}
		}
	}
	return asOf, true
}

// User returns the situated user the plan was compiled for.
func (p *Plan) User() string { return p.user }

// Rules returns the number of rules the plan was compiled from (including
// pruned ones).
func (p *Plan) Rules() int { return len(p.rules) }

// ActiveRules returns the number of rules whose context can apply.
func (p *Plan) ActiveRules() int {
	n := 0
	for i := range p.rules {
		if p.rules[i].ctxProb > 0 {
			n++
		}
	}
	return n
}

// Score computes the candidate's ideal-document probability under the
// plan's compiled rule set: only the document-side distribution is
// evaluated here, the context side was resolved at compile time.
func (p *Plan) Score(id string) (float64, error) {
	sc := getScratch()
	defer putScratch(sc)
	return p.ScoreWith(sc, id)
}

// ScoreWith is Score with a caller-owned scratch arena, for scoring loops
// that must not allocate. The scratch must not be shared across goroutines.
func (p *Plan) ScoreWith(sc *PlanScratch, id string) (float64, error) {
	if p.perCandidate {
		return p.scorePerCandidate(id)
	}
	dist, err := p.docDistFor(sc, id)
	if err != nil {
		return 0, err
	}
	score := 1.0
	for i := range p.clusters {
		score *= p.clusterScoreFromDist(&p.clusters[i], dist)
	}
	return score, nil
}

// docDistFor returns the candidate's flat per-cluster document-state
// distribution from the plan's cache. A warm hit is one RLock and zero
// allocations; when the space's generation moved since the cache was stamped
// carryDocDist decides, once, whether the entries survive; a miss computes
// via Space.Prob and publishes the record for subsequent ranks.
func (p *Plan) docDistFor(sc *PlanScratch, id string) ([]float64, error) {
	gen := p.space.Generation()
	p.docMu.RLock()
	current := p.docGen == gen
	d, ok := p.docDist[id]
	p.docMu.RUnlock()
	if !current {
		if ok = p.carryDocDist(gen); ok {
			p.docMu.RLock()
			d, ok = p.docDist[id]
			p.docMu.RUnlock()
		}
	}
	if ok {
		docCacheHits.Add(1)
		return d, nil
	}
	docCacheMisses.Add(1)

	d = make([]float64, p.distLen)
	if err := p.computeDocDist(sc, id, d); err != nil {
		return nil, err
	}
	p.docMu.Lock()
	if p.docGen == gen && len(p.docDist) < docCacheMaxEntries {
		p.docDist[id] = d
	}
	p.docMu.Unlock()
	return d, nil
}

// carryDocDist brings the distribution cache to the space's generation gen
// and reports whether its entries are valid there. They are kept and
// re-stamped when the invalidations since the stamp provably left every
// active rule's document footprint alone — another user's context apply
// retires only that user's context events, so a plan that outlives it keeps
// its warm distributions. Otherwise the map is wiped wholesale, which re-runs
// Prob and therefore re-surfaces "not declared" for retired document events
// instead of masking them.
func (p *Plan) carryDocDist(gen uint64) bool {
	p.docMu.Lock()
	defer p.docMu.Unlock()
	if p.docGen >= gen {
		return p.docGen == gen
	}
	if len(p.docDist) > 0 {
		if asOf, ok := p.docBlocksUntouchedSince(p.docGen); ok {
			p.docGen = asOf
			return asOf == gen
		}
		clear(p.docDist)
	}
	p.docGen = gen
	return true
}

// computeDocDist fills out with the candidate's document-side distribution
// for every cluster — the only part of scoring that consults the event
// space. Semantics are identical to the pre-cache clusterScore: the same
// expressions are built, so the space's memo keys match too.
func (p *Plan) computeDocDist(sc *PlanScratch, id string, out []float64) error {
	for ci := range p.clusters {
		cl := &p.clusters[ci]
		if len(cl.rules) == 1 {
			pX, err := p.space.Prob(p.rules[cl.rules[0]].docEv(id))
			if err != nil {
				return err
			}
			out[cl.distOff] = pX
			continue
		}
		m := len(cl.rules)
		if cap(sc.docConj) < m {
			sc.docConj = make([]*event.Expr, m)
		}
		docConj := sc.docConj[:m]
		for mask := 0; mask < 1<<m; mask++ {
			for i, ri := range cl.rules {
				if mask&(1<<i) != 0 {
					docConj[i] = p.rules[ri].docEv(id)
				} else {
					docConj[i] = event.Not(p.rules[ri].docEv(id))
				}
			}
			prob, err := p.space.Prob(event.And(docConj...))
			if err != nil {
				return err
			}
			out[cl.distOff+mask] = prob
		}
	}
	return nil
}

// clusterScoreFromDist computes one cluster's expected factor from the
// candidate's cached document distribution — the same §3.3 semantics as
// the pre-plan clusterFactor, now pure float arithmetic.
func (p *Plan) clusterScoreFromDist(cl *planCluster, dist []float64) float64 {
	if len(cl.rules) == 1 {
		// Singleton fast path: factor = (1−pC) + pC·(σ·pX + (1−σ)(1−pX)).
		st := &p.rules[cl.rules[0]]
		pX := dist[cl.distOff]
		s := st.rule.Sigma
		pC := st.ctxProb
		return (1 - pC) + pC*(s*pX+(1-s)*(1-pX))
	}
	m := len(cl.rules)
	docProbs := dist[cl.distOff : cl.distOff+1<<m]
	total := 0.0
	for g := 0; g < 1<<m; g++ {
		if cl.ctxProbs[g] == 0 {
			continue
		}
		inner := 0.0
		for f := 0; f < 1<<m; f++ {
			if docProbs[f] == 0 {
				continue
			}
			prod := 1.0
			for i, ri := range cl.rules {
				if g&(1<<i) == 0 {
					continue
				}
				if f&(1<<i) != 0 {
					prod *= p.rules[ri].rule.Sigma
				} else {
					prod *= 1 - p.rules[ri].rule.Sigma
				}
			}
			inner += docProbs[f] * prod
		}
		total += cl.ctxProbs[g] * inner
	}
	return total
}

// Explain builds the per-rule contribution trace for one candidate from
// the compiled context probabilities.
func (p *Plan) Explain(id string) (*Explanation, error) {
	ex := &Explanation{}
	for i := range p.rules {
		st := &p.rules[i]
		if st.ctxProb == 0 {
			ex.Rules = append(ex.Rules, RuleContribution{Rule: st.rule.Name, Sigma: st.rule.Sigma, Pruned: true, Factor: 1})
			continue
		}
		pDoc, err := p.space.Prob(st.docEv(id))
		if err != nil {
			return nil, err
		}
		s := st.rule.Sigma
		pCtx := st.ctxProb
		factor := pCtx*(pDoc*s+(1-pDoc)*(1-s)) + (1 - pCtx)
		ex.Rules = append(ex.Rules, RuleContribution{
			Rule:        st.rule.Name,
			ContextProb: pCtx,
			MemberProb:  pDoc,
			Sigma:       s,
			Factor:      factor,
		})
	}
	return ex, nil
}

// compareResults is the rank total order: score descending, then ID
// ascending — strict for distinct candidates, so top-k selection under it
// is bit-identical to truncating the full sort.
func compareResults(a, b Result) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return strings.Compare(a.ID, b.ID)
}

// Rank scores the request's candidates with the compiled plan and returns
// them ordered, thresholded and truncated exactly like Ranker.Rank. The
// returned slice is freshly allocated and owned by the caller; loops that
// must not allocate use RankInto.
func (p *Plan) Rank(req PlanRequest) ([]Result, error) {
	sc := getScratch()
	defer putScratch(sc)
	res, err := p.rankInto(sc, req)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(res))
	copy(out, res)
	return out, nil
}

// RankInto is Rank with a caller-owned scratch arena: with a warm
// document-distribution cache the whole call performs zero allocations.
// The returned results alias the scratch and are valid until its next
// use; the scratch must not be shared across goroutines.
func (p *Plan) RankInto(sc *PlanScratch, req PlanRequest) ([]Result, error) {
	if sc == nil {
		return nil, fmt.Errorf("core: rank with a nil scratch")
	}
	return p.rankInto(sc, req)
}

func (p *Plan) rankInto(sc *PlanScratch, req PlanRequest) ([]Result, error) {
	if req.TopK < 0 {
		return nil, fmt.Errorf("core: top-k must be positive (got %d)", req.TopK)
	}
	candidates, err := resolveCandidates(p.loader, p.user, req)
	if err != nil {
		return nil, err
	}

	// Limit and TopK truncate to the same prefix of the sorted order; the
	// smaller positive one bounds the heap.
	k := req.TopK
	if req.Limit > 0 && (k == 0 || req.Limit < k) {
		k = req.Limit
	}
	heap := req.TopK > 0

	sc.results = sc.results[:0]
	for _, id := range candidates {
		score, err := p.ScoreWith(sc, id)
		if err != nil {
			return nil, err
		}
		if req.Threshold > 0 && score <= req.Threshold {
			continue
		}
		if heap {
			sc.pushTopK(k, Result{ID: id, Score: score})
		} else {
			sc.results = append(sc.results, Result{ID: id, Score: score})
		}
	}
	slices.SortFunc(sc.results, compareResults)
	if !heap && req.Limit > 0 && len(sc.results) > req.Limit {
		sc.results = sc.results[:req.Limit]
	}
	if req.Explain {
		for i := range sc.results {
			ex, err := p.Explain(sc.results[i].ID)
			if err != nil {
				return nil, err
			}
			sc.results[i].Explanation = ex
		}
	}
	return sc.results, nil
}

// pushTopK offers a result to the bounded selection heap living in
// sc.results: a binary heap with the *worst* kept result at the root
// (inverse of compareResults), so a better newcomer evicts the root in
// O(log k). The heap is unordered until the final sort.
func (sc *PlanScratch) pushTopK(k int, r Result) {
	h := sc.results
	if len(h) < k {
		h = append(h, r)
		// Sift up: a node worse than its parent moves toward the root.
		i := len(h) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if compareResults(h[i], h[parent]) <= 0 {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
		sc.results = h
		return
	}
	if compareResults(r, h[0]) >= 0 {
		return // not better than the worst kept result
	}
	h[0] = r
	// Sift down: swap with the worse child while a child is worse.
	i := 0
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && compareResults(h[l], h[worst]) > 0 {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && compareResults(h[r], h[worst]) > 0 {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

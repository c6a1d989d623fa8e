package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

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
//     candidate, so the expectation factorizes across clusters. (The
//     per-candidate partition, clusterRules, unions on the same block keys
//     for one candidate's events; the footprint partition is
//     candidate-independent and may therefore be slightly coarser, which
//     changes only floating-point association order, never the semantics.)
//  4. Per multi-rule cluster the 2^m context-state probability table is
//     precomputed; singleton clusters store the scalar context probability.
//
// When step 3's candidate-independent partition chains more rules into one
// cluster than can be enumerated exactly (maxClusterRules), the plan keeps
// steps 1–2 and scores in per-candidate mode instead: clustering and the
// state enumeration run per candidate (scorePerCandidate), where the same
// rules usually fall into small clusters. Callers never see the difference —
// every method works in both modes and returns the same scores.
//
// The document side — per candidate, the probability of its membership event
// under each rule, and the joint document-state distribution of each
// multi-rule cluster — depends on neither the user nor the context, so the
// plan does not own it: it reads the loader's shared mapping.DocSide of its
// rules' membership handles, the same one every other plan over those handles
// reads. A rank then finds its candidates' rows by position — the side's
// tables are sorted by individual, and one galloping cursor walks each for the
// ascending candidate list (mapping.DocTable.Gather) — and multiplies the
// clusters' factors in, the singletons' terms hoisted at compile time: float
// arithmetic. A context change — a new plan — derives no document probability.
// What it does cost is the user's context, and nothing that grows with the
// catalog: one look-up per rule of the user's row in the rule's context
// (through the concept table's id index when the context is atomic), the
// side settled by probing its block → rules index with the event space's
// diff, and the partition, whose context ∩ document edges are look-ups of
// the context's few block keys in the same index.
//
// A Plan is immutable after compilation and safe for concurrent use. What it
// answers for, and how a holder finds out that it no longer does:
//
//   - The user's context side — each rule's context event, probability and
//     block keys, the context half — is frozen at compile time. It moves with
//     the user's own context applies, with another user's apply that reaches
//     this user's contexts over a role edge, and with any write to a table a
//     rule's context reads; nothing in the plan notices, so whoever caches a
//     plan keys it by the user's applied generation and by what those writes
//     move, as internal/serve does with its context generation.
//   - The document side is checked against the event space once per rank
//     (DocSide.Probs): a data event retired under a live plan makes the next
//     rank of every plan that shares the side fail with "not declared", never
//     serve a stale score.
//   - The preference side is a membership handle per rule (mapping.Membership),
//     valid by the write versions of the tables the preference's view reads.
//     Current reports whether every handle still is; while it does, no assert,
//     retract, context row or SQL write has touched anything the plan ranks
//     by. A stale plan is compiled again: the handles that are still current
//     are the loader's memo hits, and the document side is the one the
//     handles already share (or the one carried across the write for all
//     plans), so a recompile costs the context side and the partition — and,
//     handed the stale plan while its context half still holds (CompilePlan's
//     keep), the partition only.
//   - The rule list is the caller's: a plan knows nothing of rule changes.
//   - A Target's candidate list is not plan state at all: every rank resolves
//     it through the loader's membership memo, so it is as fresh as the
//     tables, whatever the plan's age.
type Plan struct {
	loader *mapping.Loader
	space  *event.Space
	user   string

	rules    []planRule    // every requested rule, in request order
	clusters []planCluster // active (unpruned) rules only
	multi    []int         // the clusters of more than one rule
	// perCandidate marks per-candidate mode (see the type comment): clusters
	// is empty and active lists the unpruned rules scorePerCandidate
	// partitions for each candidate.
	perCandidate bool
	active       []*planRule

	// docs is the document side the plan scores from, shared with every plan
	// over the same membership handles. Nil for a plan compiled with a
	// candidate restriction — it lives for one request, scores each candidate
	// once and derives its probabilities as it goes — and in per-candidate
	// mode.
	docs *mapping.DocSide
}

// planRule is one rule's candidate-independent compilation product.
type planRule struct {
	rule prefs.Rule
	// The context half: the rule's context event for the user, its
	// probability and the event's block keys (none for a pruned rule). One
	// compile's rules share the keys' backing array, and so does every plan
	// that keeps this context half.
	ctxEv   *event.Expr
	ctxProb float64
	ctxKeys []string
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
	// A singleton's factor terms, hoisted from its rule: 1−pC, pC, σ and 1−σ.
	notC, pC, sigma, notSigma float64
	// ctxProbs is the precomputed context-state distribution over a multi-rule
	// cluster's rules (index = bitmask of "rule context applies") and sigmas
	// their σ; nil for singleton clusters.
	ctxProbs []float64
	sigmas   []float64
}

// PlanScratch holds the per-request temporaries of the rank hot path —
// conjunction buffers, the result accumulator, the top-k heap — so a
// caller ranking in a loop allocates nothing per call. A scratch is
// single-goroutine state: use one per goroutine (Plan itself stays safe
// for concurrent use). Plan.Rank and Plan.Explain draw one from an internal
// pool; ScoreWith takes the caller's, whose zero value is ready to use.
type PlanScratch struct {
	results []Result
	// Per multi-rule cluster (parallel to Plan.multi): the rank's joint tables.
	tabs []*mapping.DocTable
	// The gather: per candidate its marginal row, and per multi-rule cluster
	// (cluster-major, a run of candidates each) its joint row; then the
	// candidates' scores.
	rows   [][]float64
	joint  [][]float64
	scores []float64
	one    [1]string // the candidate list of ScoreWith and Explain
	// What a plan without a shared document side derives: every candidate's
	// row and joint rows, which rows and joint then point into (a shared
	// side's rows are not the scratch's to write).
	derived []float64
	evs     []*event.Expr
}

// Hot-path effectiveness counters, process-global like runtime metrics:
// plans come and go through caches, so per-plan counts cannot be
// aggregated reliably by callers. Exposed through ReadHotPathStats.
var (
	scratchGets    atomic.Int64
	scratchNews    atomic.Int64
	docCacheHits   atomic.Int64
	docCacheMisses atomic.Int64 // the one-shot plans' share; see ReadHotPathStats
)

// HotPathStats reports how effective the rank hot path's scratch pool and
// shared document sides are, cumulatively for the process.
type HotPathStats struct {
	// ScratchGets counts internal scratch-pool checkouts; ScratchNews the
	// subset that had to allocate a fresh arena (pool empty / GC'd).
	ScratchGets int64 `json:"scratch_gets"`
	ScratchNews int64 `json:"scratch_news"`
	// DocCacheHits counts candidate scorings answered from a shared document
	// side's rows; DocCacheMisses the rows derived through Space.Prob — when
	// a side is built, rebuilt or carried across a write (once for all its
	// plans), and per candidate by plans that have no side.
	DocCacheHits   int64 `json:"doc_cache_hits"`
	DocCacheMisses int64 `json:"doc_cache_misses"`
}

// ReadHotPathStats returns the process-wide hot-path counters.
func ReadHotPathStats() HotPathStats {
	return HotPathStats{
		ScratchGets:    scratchGets.Load(),
		ScratchNews:    scratchNews.Load(),
		DocCacheHits:   docCacheHits.Load(),
		DocCacheMisses: docCacheMisses.Load() + mapping.DocRowsComputed(),
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
//
// keep, when non-nil, is a plan compiled earlier for the same user and rules
// whose context half the caller knows to be still exact: the user's context
// has not been applied again and nothing written since reaches a table a
// rule's context reads (internal/serve decides that with its context
// generation). The compile then takes each rule's context event, probability
// and block keys from keep and resolves only the preference half — the memo's
// handles, the shared document side and the partition. A keep compiled for
// another user, loader or rule list is ignored.
func CompilePlan(l *mapping.Loader, user string, rules []prefs.Rule, keep *Plan) (*Plan, error) {
	return compilePlan(l, user, rules, nil, keep)
}

// compilePlan is CompilePlan with an optional candidate restriction: when
// only is non-nil, the footprint partition considers just those candidates'
// preference-membership events. A restricted plan is valid only for
// candidates in the set — the per-request path uses it so a 3-candidate
// RankQuery over a 100k-member preference does not walk 100k events'
// blocks; cacheable catalog-wide plans pass nil.
func compilePlan(l *mapping.Loader, user string, rules []prefs.Rule, only map[string]bool, keep *Plan) (*Plan, error) {
	p, err := resolvePlan(l, user, rules, keep)
	if err != nil {
		return nil, err
	}
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
	p, err := resolvePlan(l, user, rules, nil)
	if err != nil {
		return nil, err
	}
	p.usePerCandidate()
	return p, nil
}

// usePerCandidate switches the plan to per-candidate mode, dropping what only
// the enumerating mode uses.
func (p *Plan) usePerCandidate() {
	p.perCandidate, p.clusters, p.multi, p.docs = true, nil, nil, nil
	for i := range p.rules {
		if p.rules[i].ctxProb > 0 {
			p.active = append(p.active, &p.rules[i])
		}
	}
}

// contextsResolved counts the rule contexts compiles have resolved (the
// context half's look-ups), process-wide; a compile that keeps a plan's
// context half adds nothing. Tests read it.
var contextsResolved atomic.Int64

// resolvePlan is the mode-independent half of compilation: the context half —
// every rule's context event, probability and block keys for the user, taken
// from keep when it matches (see CompilePlan) — and the preference half, every
// rule's membership handle.
func resolvePlan(l *mapping.Loader, user string, rules []prefs.Rule, keep *Plan) (*Plan, error) {
	if user == "" {
		return nil, fmt.Errorf("core: request without a user")
	}
	p := &Plan{loader: l, space: l.DB().Space(), user: user}
	if keep.keepsContext(l, user, rules) {
		p.rules = slices.Clone(keep.rules)
		for i := range p.rules {
			p.rules[i].rule = rules[i]
		}
	} else if err := p.resolveContext(rules); err != nil {
		return nil, err
	}
	for i := range p.rules {
		pr := &p.rules[i]
		members, err := l.Members(pr.rule.Preference)
		if err != nil {
			return nil, fmt.Errorf("core: rule %s preference: %w", pr.rule.Name, err)
		}
		pr.members = members
	}
	return p, nil
}

// keepsContext reports whether a compile of rules for user over l may take
// p's context half: p is non-nil and was compiled for that user and loader
// from rules with the same contexts, in the same order.
func (p *Plan) keepsContext(l *mapping.Loader, user string, rules []prefs.Rule) bool {
	if p == nil || p.loader != l || p.user != user || len(p.rules) != len(rules) {
		return false
	}
	for i := range rules {
		if p.rules[i].rule.Context != rules[i].Context {
			return false
		}
	}
	return true
}

// resolveContext resolves the context half: per rule its context event for
// the plan's user, the event's probability and — for a rule whose context can
// apply — the event's block keys, all rules' in one array. The keys stay exact
// while the context half does: an independent basic's key is its name, and a
// live exclusive group keeps its id (the event space frees a group's slot
// only once the group is empty, which retires the events the context names).
func (p *Plan) resolveContext(rules []prefs.Rule) error {
	contextsResolved.Add(int64(len(rules)))
	p.rules = make([]planRule, len(rules))
	keys := make([]string, 0, len(rules))
	for i, rule := range rules {
		if err := rule.Validate(); err != nil {
			return err
		}
		ctxEv, err := p.loader.MembershipEvent(rule.Context, p.user)
		if err != nil {
			return fmt.Errorf("core: rule %s context: %w", rule.Name, err)
		}
		pCtx, err := p.space.Prob(ctxEv)
		if err != nil {
			return fmt.Errorf("core: rule %s context: %w", rule.Name, err)
		}
		start := len(keys)
		if pCtx > 0 {
			// An append that moves the array leaves the earlier rules' keys
			// where they were, still theirs.
			if keys, err = p.space.AppendBlocks(keys, ctxEv); err != nil {
				return fmt.Errorf("core: rule %s context: %w", rule.Name, err)
			}
		}
		p.rules[i] = planRule{rule: rule, ctxEv: ctxEv, ctxProb: pCtx, ctxKeys: keys[start:len(keys):len(keys)]}
	}
	return nil
}

// compileClusters prunes impossible contexts, partitions the active rules
// by basic-event footprint and precomputes the per-cluster context-state
// tables — or, when the partition produces a cluster past the enumeration
// bound, switches the plan to per-candidate mode. only, when non-nil,
// restricts the document-side footprint to those candidates (see
// compilePlan); otherwise the document side is the loader's shared one and
// brings which rules' footprints meet, and which rules hold a block, with it.
func (p *Plan) compileClusters(only map[string]bool) error {
	// The active rules, and each rule's place among them (-1: pruned).
	active := make([]int, 0, len(p.rules))
	pos := make([]int, len(p.rules))
	for i := range p.rules {
		pos[i] = -1
		if p.rules[i].ctxProb > 0 {
			pos[i] = len(active)
			active = append(active, i)
		}
	}
	var docs *mapping.DocProbs
	if only == nil {
		handles := make([]*mapping.Membership, len(p.rules))
		for i := range p.rules {
			handles[i] = p.rules[i].members
		}
		p.docs = p.loader.DocSide(handles)
		if docs = p.docs.Probs(); docs.Err() != nil {
			return fmt.Errorf("core: rule preferences: %w", docs.Err())
		}
	}

	// Union-find over the active rules, merging rules whose footprints —
	// context event plus every preference membership event — share a
	// correlated block. The clusters are the connected components, ordered by
	// their first rule, whichever way the shared blocks are found.
	sets := newDisjoint(len(active))
	// blockOwner maps each block key of a walked footprint to the first active
	// rule that mentioned it.
	blockOwner := make(map[string]int)
	// visit joins active rule ai to every rule whose footprint holds key. A
	// key visited twice for one rule joins nothing new.
	visit := func(ai int, key string) {
		if docs != nil {
			// Context ∩ document: the rules whose footprint holds the key.
			for _, rj := range docs.RulesOf(key) {
				if aj := pos[rj]; aj >= 0 {
					sets.union(ai, aj)
				}
			}
		}
		if owner, ok := blockOwner[key]; ok {
			sets.union(ai, owner)
		} else {
			blockOwner[key] = ai
		}
	}
	var footprint map[string]bool // the restricted candidates' preference blocks
	if only != nil {
		footprint = make(map[string]bool)
	}
	for ai, ri := range active {
		if docs != nil {
			// Document ∩ document is the side's relation.
			for aj, rj := range active[:ai] {
				if docs.Shares(ri, rj) {
					sets.union(ai, aj)
				}
			}
		}
		for _, key := range p.rules[ri].ctxKeys {
			visit(ai, key)
		}
		if only == nil {
			continue
		}
		clear(footprint)
		st := &p.rules[ri]
		for id := range only {
			if ev, ok := st.members.Events[id]; ok {
				if err := p.space.Blocks(ev, footprint); err != nil {
					return fmt.Errorf("core: rule %s preference: %w", st.rule.Name, err)
				}
			}
		}
		for key := range footprint {
			visit(ai, key)
		}
	}

	comps := sets.components()
	p.clusters = make([]planCluster, 0, len(comps))
	var ctxEvs []*event.Expr
	for _, members := range comps {
		m := len(members)
		if m > maxClusterRules {
			p.usePerCandidate()
			return nil
		}
		for i, ai := range members {
			members[i] = active[ai]
		}
		cl := planCluster{rules: members}
		if m == 1 {
			st := &p.rules[members[0]]
			cl.notC, cl.pC, cl.sigma, cl.notSigma = 1-st.ctxProb, st.ctxProb, st.rule.Sigma, 1-st.rule.Sigma
		} else {
			// The context-state distribution, over the same expressions the
			// per-candidate path enumerates.
			ctxEvs = ctxEvs[:0]
			cl.sigmas = make([]float64, m)
			for i, ri := range cl.rules {
				ctxEvs = append(ctxEvs, p.rules[ri].ctxEv)
				cl.sigmas[i] = p.rules[ri].rule.Sigma
			}
			cl.ctxProbs = make([]float64, 1<<m)
			if err := p.space.JointProbs(ctxEvs, cl.ctxProbs); err != nil {
				return err
			}
			p.multi = append(p.multi, len(p.clusters))
		}
		p.clusters = append(p.clusters, cl)
	}
	return nil
}

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

// User returns the situated user the plan was compiled for.
func (p *Plan) User() string { return p.user }

// ScoreWith computes the candidate's ideal-document probability under the
// plan's compiled rule set, in a caller-owned scratch arena, for scoring
// loops that must not allocate: only the document side is read here, the
// context side was resolved at compile time. The scratch must not be shared
// across goroutines.
func (p *Plan) ScoreWith(sc *PlanScratch, id string) (float64, error) {
	docs, err := p.docProbs(sc, 1)
	if err != nil {
		return 0, err
	}
	sc.one[0] = id
	scores, err := p.scoreAll(sc, docs, sc.one[:])
	if err != nil {
		return 0, err
	}
	return scores[0], nil
}

// docProbs readies the scratch for scoring n candidates and returns where
// their document probabilities come from: the shared document side's content,
// checked against the event space here — once, not per candidate — with the
// joint table of every multi-rule cluster; or nil for a plan without a side,
// which derives them per candidate (gather).
func (p *Plan) docProbs(sc *PlanScratch, n int) (*mapping.DocProbs, error) {
	sc.tabs = sc.tabs[:0]
	if p.docs == nil {
		return nil, nil
	}
	docs := p.docs.Probs()
	if err := docs.Err(); err != nil {
		return nil, err
	}
	for _, ci := range p.multi {
		tab, err := docs.Joint(p.clusters[ci].rules)
		if err != nil {
			return nil, err
		}
		sc.tabs = append(sc.tabs, tab)
	}
	docCacheHits.Add(int64(n))
	return docs, nil
}

// scoreAll scores the candidates of a rank docProbs has readied the scratch
// for, into sc.scores: it gathers every candidate's rows, then multiplies the
// clusters' expected factors in, cluster by cluster — the §3.3 semantics as
// pure float arithmetic, each candidate's product the same operations in the
// same cluster order as one candidate scored alone. Per-candidate mode scores
// candidate by candidate.
func (p *Plan) scoreAll(sc *PlanScratch, docs *mapping.DocProbs, ids []string) ([]float64, error) {
	n := len(ids)
	if cap(sc.scores) < n {
		sc.scores = make([]float64, n)
	}
	scores := sc.scores[:n]
	if p.perCandidate {
		for i, id := range ids {
			score, err := p.scorePerCandidate(id)
			if err != nil {
				return nil, err
			}
			scores[i] = score
		}
		return scores, nil
	}
	if err := p.gather(sc, docs, ids); err != nil {
		return nil, err
	}
	for i := range scores {
		scores[i] = 1
	}
	next := 0 // the next multi-rule cluster's run in sc.joint
	for i := range p.clusters {
		cl := &p.clusters[i]
		if cl.ctxProbs == nil {
			// Singleton: factor = (1−pC) + pC·(σ·pX + (1−σ)(1−pX)), the terms
			// hoisted but the expression's operations as written out per rule,
			// so no fused multiply-add can form that the unhoisted form lacks.
			r, notC, pC, s, notS := cl.rules[0], cl.notC, cl.pC, cl.sigma, cl.notSigma
			for c, row := range sc.rows[:n] {
				pX := row[r]
				scores[c] *= notC + pC*(s*pX+notS*(1-pX))
			}
			continue
		}
		for c, dist := range sc.joint[next*n : (next+1)*n] {
			scores[c] *= expectedFactor(cl.sigmas, cl.ctxProbs, dist)
		}
		next++
	}
	return scores, nil
}

// gather points sc.rows at every candidate's probabilities of membership under
// each rule (indexed like Plan.rules) and sc.joint at its joint distribution
// per multi-rule cluster: found by position in the shared side's tables, or —
// docs nil — derived through Space.Prob into the scratch, over the
// expressions the shared side would derive them from.
func (p *Plan) gather(sc *PlanScratch, docs *mapping.DocProbs, ids []string) error {
	n, m := len(ids), len(p.multi)
	if cap(sc.rows) < n {
		sc.rows = make([][]float64, n)
	}
	if cap(sc.joint) < n*m {
		sc.joint = make([][]float64, n*m)
	}
	rows, joint := sc.rows[:n], sc.joint[:n*m]
	if docs != nil {
		docs.Gather(ids, rows)
		for j, tab := range sc.tabs {
			tab.Gather(ids, joint[j*n:(j+1)*n])
		}
		return nil
	}
	docCacheMisses.Add(int64(n))
	width := len(p.rules)
	for _, ci := range p.multi {
		width += 1 << len(p.clusters[ci].rules)
	}
	if cap(sc.derived) < n*width {
		sc.derived = make([]float64, n*width)
	}
	free := sc.derived[:n*width]
	// take cuts the next w floats off free.
	take := func(w int) []float64 {
		out := free[:w:w]
		free = free[w:]
		return out
	}
	for c, id := range ids {
		rows[c] = take(len(p.rules))
		for r := range p.rules {
			if p.rules[r].ctxProb == 0 {
				continue
			}
			pX, err := p.space.Prob(p.rules[r].docEv(id))
			if err != nil {
				return err
			}
			rows[c][r] = pX
		}
		for j, ci := range p.multi {
			sc.evs = sc.evs[:0]
			for _, r := range p.clusters[ci].rules {
				sc.evs = append(sc.evs, p.rules[r].docEv(id))
			}
			dist := take(1 << len(sc.evs))
			if err := p.space.JointProbs(sc.evs, dist); err != nil {
				return err
			}
			joint[j*n+c] = dist
		}
	}
	return nil
}

// explain builds the per-rule contribution trace for one candidate from the
// compiled context probabilities and the membership probabilities its score
// is computed from.
func (p *Plan) explain(sc *PlanScratch, docs *mapping.DocProbs, id string) (*Explanation, error) {
	sc.one[0] = id
	if err := p.gather(sc, docs, sc.one[:]); err != nil {
		return nil, err
	}
	row := sc.rows[0]
	ex := &Explanation{}
	for i := range p.rules {
		st := &p.rules[i]
		if st.ctxProb == 0 {
			ex.Rules = append(ex.Rules, RuleContribution{Rule: st.rule.Name, Sigma: st.rule.Sigma, Pruned: true, Factor: 1})
			continue
		}
		pDoc := row[i]
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
// them ordered, thresholded and truncated exactly like NaiveRanker.Rank. The
// returned slice is freshly allocated and owned by the caller.
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

// rankInto is Rank in the caller's scratch arena: with a warm document side
// the whole call performs zero allocations. The returned results alias the
// scratch and are valid until its next use.
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
	k := req.keep()
	heap := req.TopK > 0

	docs, err := p.docProbs(sc, len(candidates))
	if err != nil {
		return nil, err
	}
	scores, err := p.scoreAll(sc, docs, candidates)
	if err != nil {
		return nil, err
	}
	sc.results = sc.results[:0]
	for i, score := range scores {
		if req.Threshold > 0 && score <= req.Threshold {
			continue
		}
		switch {
		case !heap:
			sc.results = append(sc.results, Result{ID: candidates[i], Score: score})
		case len(sc.results) < k || score >= sc.results[0].Score:
			// A full heap's root is its worst result: a lower score cannot
			// enter, and only an entrant or a tie, which the ids decide, is
			// offered.
			sc.pushTopK(k, Result{ID: candidates[i], Score: score})
		}
	}
	slices.SortFunc(sc.results, compareResults)
	if !heap && k > 0 && len(sc.results) > k {
		sc.results = sc.results[:k]
	}
	if req.Explain {
		for i := range sc.results {
			ex, err := p.explain(sc, docs, sc.results[i].ID)
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

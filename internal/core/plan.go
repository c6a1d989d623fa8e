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
// The document side — per candidate, the probability of its membership event
// under each rule, and the joint document-state distribution of each
// multi-rule cluster — depends on neither the user nor the context, so the
// plan does not own it: it reads the loader's shared mapping.DocSide of its
// rules' membership handles, the same one every other plan over those handles
// reads. Score is then one row look-up per candidate plus float arithmetic,
// and a context change — a new plan — derives no document probability at all.
//
// A Plan is immutable after compilation and safe for concurrent use. What it
// answers for, and how a holder finds out that it no longer does:
//
//   - The user's context side — each rule's context event and probability —
//     is frozen at compile time. It moves with the user's own context applies
//     (and with another user's apply that reaches this user's contexts over a
//     role edge); nothing in the plan notices, so whoever caches a plan keys
//     it by the user's applied generation, as internal/serve does.
//   - The document side is checked against the event space once per rank
//     (DocSide.Probs): a data event retired under a live plan makes the next
//     rank of every plan that shares the side fail with "not declared", never
//     serve a stale score.
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
	// mode; Refresh maintains neither.
	docs *mapping.DocSide
}

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
	// cluster's rules (index = bitmask of "rule context applies") and sigmas
	// their σ; nil for singleton clusters, whose factor uses the rule's directly.
	ctxProbs []float64
	sigmas   []float64
}

// PlanScratch holds the per-request temporaries of the rank hot path —
// conjunction buffers, the result accumulator, the top-k heap — so a
// caller ranking in a loop allocates nothing per call. A scratch is
// single-goroutine state: use one per goroutine (Plan itself stays safe
// for concurrent use). Results returned by RankInto alias the scratch and
// are valid until its next use.
type PlanScratch struct {
	results []Result
	// Per multi-rule cluster (parallel to Plan.multi): the rank's joint tables,
	// and the document-state distribution of the candidate being scored.
	tabs  []*mapping.DocTable
	joint [][]float64
	// What a plan without a shared document side derives per candidate: its
	// row, and behind joint its distributions (joint itself may point into a
	// shared side's tables, which are not the scratch's to write).
	row  []float64
	dist [][]float64
	evs  []*event.Expr
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
func CompilePlan(l *mapping.Loader, user string, rules []prefs.Rule) (*Plan, error) {
	return compilePlan(l, user, rules, nil, nil)
}

// compilePlan is CompilePlan with an optional candidate restriction: when
// only is non-nil, the footprint partition considers just those candidates'
// preference-membership events. A restricted plan is valid only for
// candidates in the set — the per-request path uses it so a 3-candidate
// RankQuery over a 100k-member preference does not walk 100k events'
// blocks; cacheable catalog-wide plans pass nil. old, when non-nil, is a plan
// over the same rules whose still-current handles are kept (see Refresh).
func compilePlan(l *mapping.Loader, user string, rules []prefs.Rule, only map[string]bool, old *Plan) (*Plan, error) {
	p, err := resolvePlan(l, user, rules, old)
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
// the enumerating mode and its Refresh use.
func (p *Plan) usePerCandidate() {
	p.perCandidate, p.clusters, p.multi, p.docs = true, nil, nil, nil
	for i := range p.rules {
		if p.rules[i].ctxProb > 0 {
			p.active = append(p.active, &p.rules[i])
		}
	}
}

// resolvePlan is the mode-independent half of compilation: every rule's
// context event and probability for the user and its preference's membership
// handle. old, when non-nil, is a plan over the same rules: a handle of its
// that is still current is kept without asking the loader.
func resolvePlan(l *mapping.Loader, user string, rules []prefs.Rule, old *Plan) (*Plan, error) {
	if user == "" {
		return nil, fmt.Errorf("core: request without a user")
	}
	space := l.DB().Space()
	p := &Plan{loader: l, space: space, user: user}
	p.rules = make([]planRule, 0, len(rules))
	for i, rule := range rules {
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
		var members *mapping.Membership
		if old != nil && old.rules[i].members.Current() {
			members = old.rules[i].members
		} else if members, err = l.Members(rule.Preference); err != nil {
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
// compilePlan); otherwise the document side is the loader's shared one and
// brings every rule's footprint, and which rules' footprints meet, with it.
func (p *Plan) compileClusters(only map[string]bool) error {
	var active []int
	for i := range p.rules {
		if p.rules[i].ctxProb > 0 {
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
	footprint := make(map[string]bool)
	for ai, ri := range active {
		clear(footprint)
		st := &p.rules[ri]
		if err := p.space.Blocks(st.ctxEv, footprint); err != nil {
			return fmt.Errorf("core: rule %s context: %w", st.rule.Name, err)
		}
		if only != nil {
			for id := range only {
				if ev, ok := st.members.Events[id]; ok {
					if err := p.space.Blocks(ev, footprint); err != nil {
						return fmt.Errorf("core: rule %s preference: %w", st.rule.Name, err)
					}
				}
			}
		} else {
			// Document ∩ document is the side's relation; context ∩ document
			// looks the few context keys up in the other rules' footprints.
			for aj, rj := range active {
				if aj < ai && docs.Shares(ri, rj) {
					sets.union(ai, aj)
				}
				for key := range footprint {
					if _, hit := slices.BinarySearch(docs.Blocks(rj), key); hit {
						sets.union(ai, aj)
					}
				}
			}
		}
		for key := range footprint {
			if owner, ok := blockOwner[key]; ok {
				sets.union(ai, owner)
			} else {
				blockOwner[key] = ai
			}
		}
	}

	var ctxEvs []*event.Expr
	for _, members := range sets.components() {
		cl := planCluster{rules: make([]int, len(members))}
		for i, ai := range members {
			cl.rules[i] = active[ai]
		}
		m := len(cl.rules)
		if m > maxClusterRules {
			p.usePerCandidate()
			return nil
		}
		if m > 1 {
			// The context-state distribution, over the same expressions the
			// per-candidate path enumerates — the event space's memo keys match.
			ctxEvs = ctxEvs[:0]
			for _, ri := range cl.rules {
				ctxEvs = append(ctxEvs, p.rules[ri].ctxEv)
				cl.sigmas = append(cl.sigmas, p.rules[ri].rule.Sigma)
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

// Refresh compiles a successor plan against the loader's *current* state.
// Anything may have happened since the plan compiled — context applies of any
// user, asserts and retracts, SQL writes — as long as rules, the rule list to
// rank under now, is the one the plan compiled from; otherwise it returns
// ErrPlanNotRefreshable.
//
// It is a compile that keeps the membership handles that are still current
// (any other is the loader's — patched or queried once per table version, for
// every user's refresh). Nothing else needs handing down from the plan: the
// document side — probabilities, footprints and what the partition needs of
// them — belongs to the handles, so the successor reads the side this plan
// reads (or, after a write, the one side carried across it for all plans);
// and the 2^m context-state tables go through Space.Prob, whose memo keeps
// every expression that mentions no retired event. The partition is the one a
// fresh compile computes, by the same code, so scores are bit-identical to it.
func (p *Plan) Refresh(rules []prefs.Rule) (*Plan, error) {
	if p.docs == nil || !p.sameRules(rules) {
		return nil, ErrPlanNotRefreshable
	}
	return compilePlan(p.loader, p.user, rules, nil, p)
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
// plan's compiled rule set: only the document side is read here, the context
// side was resolved at compile time.
func (p *Plan) Score(id string) (float64, error) {
	sc := getScratch()
	defer putScratch(sc)
	return p.ScoreWith(sc, id)
}

// ScoreWith is Score with a caller-owned scratch arena, for scoring loops
// that must not allocate. The scratch must not be shared across goroutines.
func (p *Plan) ScoreWith(sc *PlanScratch, id string) (float64, error) {
	docs, err := p.docProbs(sc, 1)
	if err != nil {
		return 0, err
	}
	return p.score(sc, docs, id)
}

// score scores one candidate of a rank docProbs has readied the scratch for.
func (p *Plan) score(sc *PlanScratch, docs *mapping.DocProbs, id string) (float64, error) {
	if p.perCandidate {
		return p.scorePerCandidate(id)
	}
	row, err := p.docRow(sc, docs, id)
	if err != nil {
		return 0, err
	}
	return p.scoreRow(sc, row), nil
}

// docProbs readies the scratch for scoring n candidates and returns where
// their document probabilities come from: the shared document side's content,
// checked against the event space here — once, not per candidate — with the
// joint table of every multi-rule cluster; or nil for a plan without a side,
// which derives them per candidate (docRow).
func (p *Plan) docProbs(sc *PlanScratch, n int) (*mapping.DocProbs, error) {
	sc.tabs = sc.tabs[:0]
	if len(sc.joint) < len(p.multi) {
		sc.joint = make([][]float64, len(p.multi))
		sc.dist = make([][]float64, len(p.multi))
	}
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

// docRow returns the candidate's probability of membership under each active
// rule (indexed like Plan.rules) and leaves its joint distribution per
// multi-rule cluster in sc.joint: looked up in the shared side, or — docs nil —
// derived through Space.Prob into the scratch, over the expressions the
// shared side would derive them from.
func (p *Plan) docRow(sc *PlanScratch, docs *mapping.DocProbs, id string) ([]float64, error) {
	if docs != nil {
		for i, tab := range sc.tabs {
			sc.joint[i] = tab.Row(id)
		}
		return docs.Row(id), nil
	}
	docCacheMisses.Add(1)
	if len(sc.row) < len(p.rules) {
		sc.row = make([]float64, len(p.rules))
	}
	for i := range p.rules {
		if p.rules[i].ctxProb == 0 {
			continue
		}
		pX, err := p.space.Prob(p.rules[i].docEv(id))
		if err != nil {
			return nil, err
		}
		sc.row[i] = pX
	}
	for i, ci := range p.multi {
		sc.evs = sc.evs[:0]
		for _, ri := range p.clusters[ci].rules {
			sc.evs = append(sc.evs, p.rules[ri].docEv(id))
		}
		if len(sc.dist[i]) != 1<<len(sc.evs) {
			sc.dist[i] = make([]float64, 1<<len(sc.evs))
		}
		if err := p.space.JointProbs(sc.evs, sc.dist[i]); err != nil {
			return nil, err
		}
		sc.joint[i] = sc.dist[i]
	}
	return sc.row, nil
}

// scoreRow multiplies the clusters' expected factors for the candidate docRow
// looked up last — the §3.3 semantics as pure float arithmetic.
func (p *Plan) scoreRow(sc *PlanScratch, row []float64) float64 {
	score := 1.0
	next := 0 // the next multi-rule cluster's slot in sc.joint
	for i := range p.clusters {
		cl := &p.clusters[i]
		if len(cl.rules) == 1 {
			// Singleton fast path: factor = (1−pC) + pC·(σ·pX + (1−σ)(1−pX)).
			st := &p.rules[cl.rules[0]]
			pX := row[cl.rules[0]]
			s := st.rule.Sigma
			pC := st.ctxProb
			score *= (1 - pC) + pC*(s*pX+(1-s)*(1-pX))
			continue
		}
		score *= expectedFactor(cl.sigmas, cl.ctxProbs, sc.joint[next])
		next++
	}
	return score
}

// Explain builds the per-rule contribution trace for one candidate from the
// compiled context probabilities and the membership probabilities its score
// is computed from.
func (p *Plan) Explain(id string) (*Explanation, error) {
	sc := getScratch()
	defer putScratch(sc)
	docs, err := p.docProbs(sc, 1)
	if err != nil {
		return nil, err
	}
	return p.explain(sc, docs, id)
}

func (p *Plan) explain(sc *PlanScratch, docs *mapping.DocProbs, id string) (*Explanation, error) {
	row, err := p.docRow(sc, docs, id)
	if err != nil {
		return nil, err
	}
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

	docs, err := p.docProbs(sc, len(candidates))
	if err != nil {
		return nil, err
	}
	sc.results = sc.results[:0]
	for _, id := range candidates {
		score, err := p.score(sc, docs, id)
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

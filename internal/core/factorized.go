package core

import (
	"errors"
	"fmt"

	"repro/internal/event"
	"repro/internal/mapping"
)

// FactorizedRanker is the §6 "Performance" extension. It computes the same
// expectation as NaiveRanker,
//
//	score(d) = E[ Π_i ((1−C_i) + C_i · (σ_i X_i + (1−σ_i)(1−X_i))) ],
//
// where C_i is the indicator "rule i's context applies" and X_i the
// indicator "d carries rule i's preferred feature", but exploits the event
// space's independence structure:
//
//  1. Rules whose context event is impossible are pruned (factor 1) —
//     "prune the amount of applicable rules … in early stages".
//  2. The remaining rules are partitioned into clusters such that rules in
//     different clusters touch disjoint correlated blocks of basic events;
//     the expectation factorizes across clusters.
//  3. Within a cluster the joint state is enumerated exactly (2^(2m) for a
//     cluster of m rules); a fully independent rule forms a singleton
//     cluster whose factor costs O(1).
//
// Since the 2007 reproduction's first serving PRs, Rank is implemented by
// compiling a Plan (see plan.go): pruning, clustering and the context-state
// distributions depend only on the user's context and the rule set, so they
// are resolved once per request instead of once per candidate, and only the
// document-side distribution is evaluated per candidate. With mutually
// independent rules — the common case, since sensor events and data events
// are distinct — the per-candidate cost is linear in the number of rules
// while the scores are bit-identical to the reference semantics up to
// floating-point association order.
type FactorizedRanker struct {
	loader *mapping.Loader
}

// NewFactorizedRanker builds the optimized ranker over the loader.
func NewFactorizedRanker(l *mapping.Loader) *FactorizedRanker {
	return &FactorizedRanker{loader: l}
}

// Name implements Ranker.
func (r *FactorizedRanker) Name() string { return "factorized" }

// maxClusterRules bounds exact within-cluster enumeration. Plan compilation
// applies the bound to the footprint (candidate-independent) partition,
// which can be coarser than the per-candidate one: two rules whose
// preferences share an event for *any* document land in one cluster for
// every document.
const maxClusterRules = 16

// ErrClusterBound marks a correlation cluster too large to enumerate
// exactly. Only a *single candidate's* cluster past the bound fails with it:
// when the coarse footprint partition exceeds the bound, the plan scores in
// per-candidate mode instead (see Plan).
var ErrClusterBound = errors.New("exceeds the exact-enumeration bound")

// Rank implements Ranker by compiling a Plan for the request's user and
// rules and ranking the request against it.
func (r *FactorizedRanker) Rank(req Request) ([]Result, error) {
	// An explicit candidate list restricts the footprint partition to those
	// candidates' events: the plan lives for this request only, and walking
	// the whole catalog's membership events to rank three candidates would
	// cost more than the hoisting saves.
	var only map[string]bool
	if req.Candidates != nil {
		only = make(map[string]bool, len(req.Candidates))
		for _, id := range req.Candidates {
			only[id] = true
		}
	}
	plan, err := compilePlan(r.loader, req.User, req.Rules, only)
	if err != nil {
		return nil, err
	}
	return plan.Rank(req.PlanRequest)
}

// scorePerCandidate is the plan's per-candidate scoring mode (and, through
// perCandidatePlan, the equivalence tests' second executable reference): it
// re-runs rule clustering over the Space's independence relation and the
// full within-cluster state enumeration for this one candidate. Rules
// chained together only through different documents' events (doc d couples
// rules A,B; doc e couples B,C; …) stay in small per-candidate clusters
// here, so rule sets the footprint partition cannot enumerate still rank —
// and ones where a single candidate's cluster exceeds the bound fail with
// the error they always did.
func (p *Plan) scorePerCandidate(id string) (float64, error) {
	clusters, err := clusterRules(p.space, p.active, id)
	if err != nil {
		return 0, err
	}
	score := 1.0
	for _, cl := range clusters {
		f, err := clusterFactor(p.space, cl, id)
		if err != nil {
			return 0, err
		}
		score *= f
	}
	return score, nil
}

// clusterRules partitions the active rules into groups of mutually
// dependent rules using union-find over the Space's independence relation.
// An Independent probe that fails (e.g. a membership event referencing a
// retired basic) aborts the clustering: treating the error as "dependent"
// would silently merge clusters and then fail later — or worse, enumerate a
// cluster whose probabilities are undefined.
func clusterRules(space *event.Space, states []*planRule, id string) ([][]*planRule, error) {
	n := len(states)
	parent := make([]int, n)
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
	union := func(a, b int) { parent[find(a)] = find(b) }

	joint := make([]*event.Expr, n)
	for i, st := range states {
		joint[i] = event.And(st.ctxEv, st.docEv(id))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			indep, err := space.Independent(joint[i], joint[j])
			if err != nil {
				return nil, fmt.Errorf("core: clustering rules %s and %s: %w",
					states[i].rule.Name, states[j].rule.Name, err)
			}
			if !indep {
				union(i, j)
			}
		}
	}
	byRoot := make(map[int][]*planRule)
	var roots []int
	for i, st := range states {
		root := find(i)
		if _, ok := byRoot[root]; !ok {
			roots = append(roots, root)
		}
		byRoot[root] = append(byRoot[root], st)
	}
	out := make([][]*planRule, 0, len(roots))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out, nil
}

// clusterFactor computes the cluster's expected factor product under the
// paper's §3.3 semantics: the context-state distribution and the
// document-state distribution are independent (P(g)·P(f)), each computed
// exactly over the cluster's events — so cross-rule correlation among
// context events and among document events is honoured, while a dependency
// between a rule's context and a document's features is deliberately
// marginalized out, exactly as in the paper's formula ("features of the
// document as context features … is out of scope", §3.2).
func clusterFactor(space *event.Space, cluster []*planRule, id string) (float64, error) {
	m := len(cluster)
	if m == 1 {
		// Singleton fast path: factor = (1−pC) + pC·(σ·pX + (1−σ)(1−pX)).
		st := cluster[0]
		pX, err := space.Prob(st.docEv(id))
		if err != nil {
			return 0, err
		}
		s, pC := st.rule.Sigma, st.ctxProb
		return (1 - pC) + pC*(s*pX+(1-s)*(1-pX)), nil
	}
	if m > maxClusterRules {
		return 0, fmt.Errorf("core: correlation cluster of %d rules %w %d", m, ErrClusterBound, maxClusterRules)
	}
	// Pre-compute the context-state and document-state distributions.
	ctxProbs := make([]float64, 1<<m)
	docProbs := make([]float64, 1<<m)
	for mask := 0; mask < 1<<m; mask++ {
		ctxConj := make([]*event.Expr, m)
		docConj := make([]*event.Expr, m)
		for i, st := range cluster {
			if mask&(1<<i) != 0 {
				ctxConj[i] = st.ctxEv
				docConj[i] = st.docEv(id)
			} else {
				ctxConj[i] = event.Not(st.ctxEv)
				docConj[i] = event.Not(st.docEv(id))
			}
		}
		p, err := space.Prob(event.And(ctxConj...))
		if err != nil {
			return 0, err
		}
		ctxProbs[mask] = p
		p, err = space.Prob(event.And(docConj...))
		if err != nil {
			return 0, err
		}
		docProbs[mask] = p
	}
	total := 0.0
	for g := 0; g < 1<<m; g++ {
		if ctxProbs[g] == 0 {
			continue
		}
		inner := 0.0
		for f := 0; f < 1<<m; f++ {
			if docProbs[f] == 0 {
				continue
			}
			prod := 1.0
			for i, st := range cluster {
				if g&(1<<i) == 0 {
					continue
				}
				if f&(1<<i) != 0 {
					prod *= st.rule.Sigma
				} else {
					prod *= 1 - st.rule.Sigma
				}
			}
			inner += docProbs[f] * prod
		}
		total += ctxProbs[g] * inner
	}
	return total, nil
}

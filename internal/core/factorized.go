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
	sets := newDisjoint(n)
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
				sets.union(i, j)
			}
		}
	}
	var out [][]*planRule
	for _, members := range sets.components() {
		cluster := make([]*planRule, len(members))
		for i, m := range members {
			cluster[i] = states[m]
		}
		out = append(out, cluster)
	}
	return out, nil
}

// disjoint is a union-find over 0..n-1.
type disjoint []int

func newDisjoint(n int) disjoint {
	d := make(disjoint, n)
	for i := range d {
		d[i] = i
	}
	return d
}

func (d disjoint) find(x int) int {
	for d[x] != x {
		d[x] = d[d[x]]
		x = d[x]
	}
	return x
}

func (d disjoint) union(a, b int) { d[d.find(a)] = d.find(b) }

// components returns the sets, each ascending, ordered by their first member.
// The sets are slices of one array, sized by a first pass.
func (d disjoint) components() [][]int {
	n := len(d)
	buf := make([]int, 3*n)
	// slot: per root, 1 + its set's index (0 until met); sizes: per set, its size.
	slot, sizes, members := buf[:n], buf[n:n:2*n], buf[2*n:]
	for x := range d {
		root := d.find(x)
		if slot[root] == 0 {
			sizes = append(sizes, 0)
			slot[root] = len(sizes)
		}
		sizes[slot[root]-1]++
	}
	out := make([][]int, len(sizes))
	for i, size := range sizes {
		out[i], members = members[:0:size], members[size:]
	}
	for x := range d {
		i := slot[d.find(x)] - 1
		out[i] = append(out[i], x)
	}
	return out
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
	ctxEvs := make([]*event.Expr, m)
	docEvs := make([]*event.Expr, m)
	sigmas := make([]float64, m)
	for i, st := range cluster {
		ctxEvs[i], docEvs[i], sigmas[i] = st.ctxEv, st.docEv(id), st.rule.Sigma
	}
	if err := space.JointProbs(ctxEvs, ctxProbs); err != nil {
		return 0, err
	}
	if err := space.JointProbs(docEvs, docProbs); err != nil {
		return 0, err
	}
	return expectedFactor(sigmas, ctxProbs, docProbs), nil
}

// expectedFactor is the §3.3 double sum for one cluster of rules with the
// given σ: over every context state g and document state f (bit i = rule i's
// context applies / the document carries rule i's feature), the product over
// the rules whose context applies of σ or 1−σ, weighted P(g)·P(f).
func expectedFactor(sigmas, ctxProbs, docProbs []float64) float64 {
	total := 0.0
	for g := range ctxProbs {
		if ctxProbs[g] == 0 {
			continue
		}
		inner := 0.0
		for f := range docProbs {
			if docProbs[f] == 0 {
				continue
			}
			prod := 1.0
			for i, s := range sigmas {
				if g&(1<<i) == 0 {
					continue
				}
				if f&(1<<i) != 0 {
					prod *= s
				} else {
					prod *= 1 - s
				}
			}
			inner += docProbs[f] * prod
		}
		total += ctxProbs[g] * inner
	}
	return total
}

// Package core implements the paper's primary contribution: scoring query
// results by the probability that each tuple is the "ideal document" for
// the situated user (van Bunningen et al., ICDE 2007, §3). It holds the
// semantics and its compiled form:
//
//   - NaiveRanker evaluates the §3.3 formula literally — a double sum over
//     all combinations of context-feature and document-feature states —
//     and serves as the executable reference semantics (exponential in the
//     number of rules by construction).
//   - Plan is the §6 "Performance" extension, compiled once per user, rule
//     set and context: it prunes rules whose context cannot apply,
//     partitions the remaining rules into correlation clusters via the
//     event space's independence structure, enumerates states only within
//     clusters, and multiplies cluster factors — linear in the number of
//     mutually independent rules while returning exactly the same scores.
//     Rank compiles one for a single request.
//
// GroupRank and SmoothedScore are the §6 features built on those scores.
// The §5 "big preference view" the paper measures lives with the
// experiments (internal/experiments), not here: core reaches no SQL.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/dl"
	"repro/internal/event"
	"repro/internal/mapping"
	"repro/internal/prefs"
)

// Request describes one ranking task: score the individuals of Target (or
// the explicit Candidates) for the situated user under the given scored
// preference rules. What to rank and how to shape the result is the embedded
// PlanRequest — the part a compiled Plan, which owns user and rules, takes on
// its own.
type Request struct {
	User  string       // the situated user individual
	Rules []prefs.Rule // the applicable preference rules (repository order)
	PlanRequest
}

// PlanRequest is what to rank and how to shape the result: a Request minus
// the user and rules, which a compiled Plan owns.
type PlanRequest struct {
	Target *dl.Expr // candidate concept, e.g. TvProgram; may be nil when Candidates is set
	// Candidates, when non-nil, restricts scoring to exactly these
	// individuals instead of the members of Target — the §5 integration
	// with the user's query, where "the probability of the query-dependent
	// part is either 1, if the tuple was contained in the user query, or 0
	// if it was not".
	Candidates []string
	// Members, when non-nil, is Target already resolved (ResolveTarget): its
	// ids are the candidates and the rank does not look the target up again —
	// for a caller that keeps the handle to ask later whether the candidate
	// list it ranked still stands.
	Members   *mapping.Membership
	Threshold float64 // drop results with Score <= Threshold (0 keeps all)
	Limit     int     // keep at most Limit results (0 = unlimited)
	// TopK, when positive, asks for only the best k results. Every ranker
	// returns exactly the first k of its full result list (same order, same
	// tie-breaking); the compiled plan selects them with a bounded heap
	// instead of a full sort, and a k past the candidate count degrades to
	// one. 0 disables, negative is an error.
	TopK    int
	Explain bool // attach per-rule explanations (traceability, §6)
}

// Result is one scored candidate.
type Result struct {
	ID          string
	Score       float64
	Explanation *Explanation
}

// Explanation justifies a score rule by rule — the paper's traceability
// goal (§6 "Explanation of results").
type Explanation struct {
	Rules []RuleContribution
}

// RuleContribution is one rule's share of a score: the probability the
// rule's context applies, the probability the candidate carries the
// preferred feature, the rule's σ, and the expected multiplicative factor
// the rule contributes under independence.
type RuleContribution struct {
	Rule        string
	ContextProb float64
	MemberProb  float64
	Sigma       float64
	Factor      float64
	Pruned      bool // context cannot apply; the rule contributed factor 1
}

// String renders the contribution for display.
func (rc RuleContribution) String() string {
	if rc.Pruned {
		return fmt.Sprintf("%s: context inapplicable (factor 1)", rc.Rule)
	}
	return fmt.Sprintf("%s: P(ctx)=%.3f P(feature)=%.3f σ=%.2f → factor %.4f",
		rc.Rule, rc.ContextProb, rc.MemberProb, rc.Sigma, rc.Factor)
}

// Resolve fetches the events a state-enumerating rank needs — the naive
// reference here, the Monte Carlo ranker of the experiments: the sorted
// candidates, every rule's context event for the user (ctxEvs[i] for rule
// i) and every candidate's membership event in every rule's preference
// (docEvs[c][i] for candidate c), ⊥ outside it. Each rule is validated on
// the way.
func Resolve(l *mapping.Loader, req Request) (candidates []string, ctxEvs []*event.Expr, docEvs [][]*event.Expr, err error) {
	candidates, err = resolveCandidates(l, req.User, req.PlanRequest)
	if err != nil {
		return nil, nil, nil, err
	}
	k := len(req.Rules)
	ctxEvs = make([]*event.Expr, k)
	docEvs = make([][]*event.Expr, len(candidates))
	all := make([]*event.Expr, len(candidates)*k)
	for c := range docEvs {
		docEvs[c] = all[c*k : (c+1)*k : (c+1)*k]
	}
	for i, rule := range req.Rules {
		if err := rule.Validate(); err != nil {
			return nil, nil, nil, err
		}
		if ctxEvs[i], err = l.MembershipEvent(rule.Context, req.User); err != nil {
			return nil, nil, nil, fmt.Errorf("core: rule %s context: %w", rule.Name, err)
		}
		prefMembers, err := l.Members(rule.Preference)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: rule %s preference: %w", rule.Name, err)
		}
		for c, id := range candidates {
			ev, ok := prefMembers.Events[id]
			if !ok {
				ev = event.False()
			}
			docEvs[c][i] = ev
		}
	}
	return candidates, ctxEvs, docEvs, nil
}

// resolveCandidates determines the sorted, deduplicated candidate ids of a
// request: the explicit candidate list if given, otherwise the members of
// the target concept — the loader's shared id list, which the caller must
// not modify.
func resolveCandidates(l *mapping.Loader, user string, req PlanRequest) ([]string, error) {
	if user == "" {
		return nil, fmt.Errorf("core: request without a user")
	}
	if req.TopK < 0 {
		return nil, fmt.Errorf("core: top-k must be positive (got %d)", req.TopK)
	}
	var candidates []string
	switch {
	case req.Candidates != nil:
		seen := make(map[string]bool, len(req.Candidates))
		for _, id := range req.Candidates {
			if !seen[id] {
				seen[id] = true
				candidates = append(candidates, id)
			}
		}
	case req.Members != nil:
		return req.Members.IDs, nil
	case req.Target != nil:
		targetMembers, err := ResolveTarget(l, req.Target)
		if err != nil {
			return nil, err
		}
		return targetMembers.IDs, nil
	default:
		return nil, fmt.Errorf("core: request needs a target concept or an explicit candidate list")
	}
	sort.Strings(candidates)
	return candidates, nil
}

// ResolveTarget returns the membership handle of a target concept: who the
// candidates are, through the loader's memo.
func ResolveTarget(l *mapping.Loader, target *dl.Expr) (*mapping.Membership, error) {
	m, err := l.Members(target)
	if err != nil {
		return nil, fmt.Errorf("core: target: %w", err)
	}
	return m, nil
}

// Finalize sorts, thresholds and truncates the results of a rank that
// scored every candidate. TopK and Limit both keep a prefix of the sorted
// order, so here they collapse to the smaller positive bound — the plan path
// gets the same semantics from its bounded heap without sorting the whole
// catalog.
func Finalize(req Request, results []Result) []Result {
	slices.SortFunc(results, compareResults)
	if req.Threshold > 0 {
		kept := results[:0]
		for _, r := range results {
			if r.Score > req.Threshold {
				kept = append(kept, r)
			}
		}
		results = kept
	}
	if k := req.keep(); k > 0 && len(results) > k {
		results = results[:k]
	}
	return results
}

// keep is how many results a request keeps: the smaller positive bound of
// Limit and TopK, 0 for all.
func (req PlanRequest) keep() int {
	k := req.TopK
	if req.Limit > 0 && (k <= 0 || req.Limit < k) {
		k = req.Limit
	}
	return max(k, 0)
}

// explain builds the per-rule contribution trace for one candidate from
// the rules' context events and the candidate's membership events.
func explain(space *event.Space, rules []prefs.Rule, ctxEvs, docEvs []*event.Expr) (*Explanation, error) {
	ex := &Explanation{}
	for i, rule := range rules {
		pCtx, err := space.Prob(ctxEvs[i])
		if err != nil {
			return nil, err
		}
		if pCtx == 0 {
			ex.Rules = append(ex.Rules, RuleContribution{Rule: rule.Name, Sigma: rule.Sigma, Pruned: true, Factor: 1})
			continue
		}
		pDoc, err := space.Prob(docEvs[i])
		if err != nil {
			return nil, err
		}
		s := rule.Sigma
		factor := pCtx*(pDoc*s+(1-pDoc)*(1-s)) + (1 - pCtx)
		ex.Rules = append(ex.Rules, RuleContribution{
			Rule:        rule.Name,
			ContextProb: pCtx,
			MemberProb:  pDoc,
			Sigma:       s,
			Factor:      factor,
		})
	}
	return ex, nil
}

// SmoothedScore combines the query-dependent probability (the traditional
// IR part of equation (3), e.g. a language-model score from internal/ir)
// with the query-independent context score by a weighted geometric mean —
// the smoothing-style weighting the paper proposes exploring in §6
// ("weighting of the query-independent and query-dependent part of
// equation (3), using smoothing methods"). lambda = 1 ranks purely by the
// query; lambda = 0 purely by context.
func SmoothedScore(queryDependent, contextScore, lambda float64) (float64, error) {
	if lambda < 0 || lambda > 1 {
		return 0, fmt.Errorf("core: lambda %g outside [0,1]", lambda)
	}
	if queryDependent < 0 || contextScore < 0 {
		return 0, fmt.Errorf("core: negative probability input")
	}
	return pow(queryDependent, lambda) * pow(contextScore, 1-lambda), nil
}

// pow wraps math.Pow with the 0^0 = 1 convention so that a missing
// component with weight 0 is neutral.
func pow(base, exp float64) float64 {
	if exp == 0 {
		return 1
	}
	return math.Pow(base, exp)
}

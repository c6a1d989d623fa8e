package core

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/mapping"
)

// NaiveRanker evaluates the paper's §3.3 formula literally:
//
//	P(D=d|U=u_sit) = Σ_g P(G(u_sit)=g) · Σ_f P(F(d)=f) ·
//	                 Π_(g,f)∈H { 1 | σ(g,f) | 1−σ(g,f) }
//
// The outer sums range over every combination of context-feature states and
// document-feature states, so evaluation is Θ(4^k) in the number of rules k
// — this ranker is the executable reference semantics, not a fast path.
// State probabilities are computed exactly on the event space, so shared
// lineage and exclusive sensor groups are honoured.
type NaiveRanker struct {
	loader *mapping.Loader
	// StateBudget bounds the work of one rank: a request whose
	// 2^rules × (candidates+1) context and document states exceed it is
	// refused before any probability is computed. 0 means unbounded.
	StateBudget int
}

// NewNaiveRanker builds an unbounded reference ranker over the loader.
func NewNaiveRanker(l *mapping.Loader) *NaiveRanker { return &NaiveRanker{loader: l} }

// Rank returns the request's candidates ordered by descending score (ties
// broken by ID), filtered by its threshold and limit. A rank past 20 rules
// or past the state budget fails with a TooCostlyError before any
// probability is computed.
func (r *NaiveRanker) Rank(req Request) ([]Result, error) {
	candidates, ctxEvs, docEvs, err := Resolve(r.loader, req)
	if err != nil {
		return nil, err
	}
	space := r.loader.DB().Space()
	k := len(ctxEvs)
	if k > 20 {
		return nil, &TooCostlyError{Err: fmt.Errorf("naive ranker limited to 20 rules (Θ(4^k) double enumeration of context- and document-feature states), got %d", k)}
	}
	if n := (1 << k) * (len(candidates) + 1); r.StateBudget > 0 && n > r.StateBudget {
		return nil, &TooCostlyError{Err: fmt.Errorf("naive ranker over %d rules and %d candidates enumerates %d states, past its budget of %d", k, len(candidates), n, r.StateBudget)}
	}

	// Pre-compute the probability of every context-feature state g ⊆ rules.
	ctxProbs := make([]float64, 1<<k)
	for mask := 0; mask < 1<<k; mask++ {
		conj := make([]*event.Expr, k)
		for i, ev := range ctxEvs {
			if mask&(1<<i) != 0 {
				conj[i] = ev
			} else {
				conj[i] = event.Not(ev)
			}
		}
		p, err := space.Prob(event.And(conj...))
		if err != nil {
			return nil, err
		}
		ctxProbs[mask] = p
	}

	results := make([]Result, 0, len(candidates))
	for c, id := range candidates {
		// Probability of every document-feature state f ⊆ rules for d.
		docProbs := make([]float64, 1<<k)
		for mask := 0; mask < 1<<k; mask++ {
			conj := make([]*event.Expr, k)
			for i, ev := range docEvs[c] {
				if mask&(1<<i) != 0 {
					conj[i] = ev
				} else {
					conj[i] = event.Not(ev)
				}
			}
			p, err := space.Prob(event.And(conj...))
			if err != nil {
				return nil, err
			}
			docProbs[mask] = p
		}

		score := 0.0
		for g := 0; g < 1<<k; g++ {
			if ctxProbs[g] == 0 {
				continue
			}
			inner := 0.0
			for f := 0; f < 1<<k; f++ {
				if docProbs[f] == 0 {
					continue
				}
				prod := 1.0
				for i, rule := range req.Rules {
					if g&(1<<i) == 0 {
						continue // g ∉ g: factor 1
					}
					if f&(1<<i) != 0 {
						prod *= rule.Sigma
					} else {
						prod *= 1 - rule.Sigma
					}
				}
				inner += docProbs[f] * prod
			}
			score += ctxProbs[g] * inner
		}

		res := Result{ID: id, Score: score}
		if req.Explain {
			res.Explanation, err = explain(space, req.Rules, ctxEvs, docEvs[c])
			if err != nil {
				return nil, err
			}
		}
		results = append(results, res)
	}
	return Finalize(req, results), nil
}

package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mapping"
)

// ViewRanker is the paper's §5 naive implementation: the ranking lives in
// the database as a "big preference view" that assigns every candidate
// tuple its probability of being the ideal document, and the user's query
// is answered by selecting from that view ordered by the probability.
//
// The defining SQL of the big view enumerates every combination of
// context-feature states and document-feature states — "for each new rule,
// both the amount of possible combinations of context features and the
// amount of possible combination of tuple features … are doubled, [which]
// leads to highly exponential query times" — so both the view text and its
// evaluation grow as Θ(4^k) in the number of rules k, reproducing the
// paper's bottleneck measurement (experiment E3). It is the bottleneck the
// paper measures, not a way to serve, so it does not explain its scores.
type ViewRanker struct {
	loader *mapping.Loader
	seq    atomic.Int64
}

// NewViewRanker builds the view-based ranker over the loader.
func NewViewRanker(l *mapping.Loader) *ViewRanker { return &ViewRanker{loader: l} }

// maxViewRules caps the size of the generated view text (4^k terms).
const maxViewRules = 10

func sqlQuote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// BuildPreferenceView registers the big preference view for the request and
// returns its name, so that callers (and benchmarks) can separate view
// construction from query execution. Each call registers a new view, which
// stays until dropped; Rank registers none.
func (r *ViewRanker) BuildPreferenceView(req core.Request) (string, error) {
	sel, err := r.preferenceSelect(req)
	if err != nil {
		return "", err
	}
	name := fmt.Sprintf("pref_big_%d", r.seq.Add(1))
	if _, err := r.loader.DB().Exec("CREATE OR REPLACE VIEW " + name + " AS " + sel); err != nil {
		return "", fmt.Errorf("experiments: building preference view: %w", err)
	}
	return name, nil
}

// preferenceSelect is the defining SELECT of the big preference view: one
// (id, score) row per candidate.
func (r *ViewRanker) preferenceSelect(req core.Request) (string, error) {
	switch {
	case req.User == "":
		return "", fmt.Errorf("experiments: request without a user")
	case req.Target == nil || req.Candidates != nil:
		return "", fmt.Errorf("experiments: the view ranker ranks a target concept, not a candidate list")
	case req.TopK < 0:
		return "", fmt.Errorf("experiments: top-k must be positive (got %d)", req.TopK)
	}
	k := len(req.Rules)
	if k > maxViewRules {
		return "", fmt.Errorf("experiments: view ranker limited to %d rules (the view doubles per rule), got %d", maxViewRules, k)
	}
	targetView, err := r.loader.ViewFor(req.Target)
	if err != nil {
		return "", err
	}
	// One preference view and one single-row context relation per rule.
	prefViews := make([]string, k)
	ctxViews := make([]string, k)
	for i, rule := range req.Rules {
		if err := rule.Validate(); err != nil {
			return "", err
		}
		pv, err := r.loader.ViewFor(rule.Preference)
		if err != nil {
			return "", fmt.Errorf("experiments: rule %s preference: %w", rule.Name, err)
		}
		cv, err := r.loader.ViewFor(rule.Context)
		if err != nil {
			return "", fmt.Errorf("experiments: rule %s context: %w", rule.Name, err)
		}
		prefViews[i] = pv
		ctxViews[i] = cv
	}

	var from strings.Builder
	fmt.Fprintf(&from, "%s d", targetView)
	for i, pv := range prefViews {
		fmt.Fprintf(&from, " LEFT JOIN %s p%d ON d.id = p%d.id", pv, i, i)
	}
	for i, cv := range ctxViews {
		fmt.Fprintf(&from, " LEFT JOIN (SELECT ev FROM %s WHERE id = %s) g%d ON TRUE",
			cv, sqlQuote(req.User), i)
	}

	// The §3.3 double sum, expanded term by term. A LEFT JOIN miss yields
	// NULL, which the EV_* builtins read as the impossible event — exactly
	// "the tuple is not in the concept".
	var score strings.Builder
	score.WriteString("0")
	for g := 0; g < 1<<k; g++ {
		for f := 0; f < 1<<k; f++ {
			coeff := 1.0
			for i := 0; i < k; i++ {
				if g&(1<<i) == 0 {
					continue
				}
				if f&(1<<i) != 0 {
					coeff *= req.Rules[i].Sigma
				} else {
					coeff *= 1 - req.Rules[i].Sigma
				}
			}
			ctxTerms := make([]string, k)
			docTerms := make([]string, k)
			for i := 0; i < k; i++ {
				if g&(1<<i) != 0 {
					ctxTerms[i] = fmt.Sprintf("g%d.ev", i)
				} else {
					ctxTerms[i] = fmt.Sprintf("EV_NOT(g%d.ev)", i)
				}
				if f&(1<<i) != 0 {
					docTerms[i] = fmt.Sprintf("p%d.ev", i)
				} else {
					docTerms[i] = fmt.Sprintf("EV_NOT(p%d.ev)", i)
				}
			}
			ctxExpr, docExpr := "EV_TRUE()", "EV_TRUE()"
			if k > 0 {
				ctxExpr = "EV_AND(" + strings.Join(ctxTerms, ", ") + ")"
				docExpr = "EV_AND(" + strings.Join(docTerms, ", ") + ")"
			}
			fmt.Fprintf(&score, " + PROB(%s) * PROB(%s) * %g", ctxExpr, docExpr, coeff)
		}
	}

	return fmt.Sprintf("SELECT d.id AS id, (%s) AS score FROM %s", score.String(), from.String()), nil
}

// Rank runs the paper's introductory query shape against the big preference
// view, inlined as a subquery so that a rank registers nothing —
//
//	SELECT name, preferencescore FROM Programs
//	WHERE preferencescore > θ ORDER BY preferencescore DESC
//
// — with the WHERE only for θ > 0: like every ranker, θ = 0 keeps all.
// core.Finalize then cuts the request's Limit or TopK off the view's order.
func (r *ViewRanker) Rank(req core.Request) ([]core.Result, error) {
	if req.Explain {
		return nil, errNoExplain
	}
	sel, err := r.preferenceSelect(req)
	if err != nil {
		return nil, err
	}
	q := fmt.Sprintf("SELECT id, score FROM (%s) v", sel)
	if req.Threshold > 0 {
		q += fmt.Sprintf(" WHERE score > %g", req.Threshold)
	}
	res, err := r.loader.DB().Query(q + " ORDER BY score DESC, id ASC")
	if err != nil {
		return nil, err
	}
	out := make([]core.Result, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = core.Result{ID: row[0].S, Score: row[1].F}
	}
	return core.Finalize(req, out), nil
}

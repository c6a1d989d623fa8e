package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/mapping"
)

// SampledRanker estimates the ideal-document probability by Monte Carlo
// over the event space instead of exact state enumeration: it draws
// independent random worlds of the context events and of the document
// events (the paper's P(g)·P(f) independence, §3.3) and averages the
// per-world factor product
//
//	Π_i ((1−C_i) + C_i · (σ_i X_i + (1−σ_i)(1−X_i))).
//
// The cost is O(samples · rules) per candidate regardless of correlation
// structure — an anytime alternative the paper's §6 performance discussion
// invites, trading a O(1/√samples) standard error for immunity to the
// exponential blow-up (ablation A4). Deterministic per Seed. It does not
// explain its scores.
type SampledRanker struct {
	loader *mapping.Loader
	// Samples per candidate; 0 means DefaultSamples.
	Samples int
	// Seed for the internal generator; rankings are reproducible per seed.
	Seed int64
}

// DefaultSamples is used when SampledRanker.Samples is 0.
const DefaultSamples = 4000

// NewSampledRanker builds a Monte Carlo ranker over the loader.
func NewSampledRanker(l *mapping.Loader, samples int, seed int64) *SampledRanker {
	return &SampledRanker{loader: l, Samples: samples, Seed: seed}
}

// Rank scores every candidate by its sample mean and orders the results
// like every ranker (core.Finalize).
func (r *SampledRanker) Rank(req core.Request) ([]core.Result, error) {
	if req.Explain {
		return nil, errNoExplain
	}
	candidates, ctxEvs, docEvs, err := core.Resolve(r.loader, req)
	if err != nil {
		return nil, err
	}
	n := r.Samples
	if n <= 0 {
		n = DefaultSamples
	}
	space := r.loader.DB().Space()
	rng := rand.New(rand.NewSource(r.Seed))

	// Context events are shared across candidates: one sampler serves every
	// candidate's rounds.
	ctxSampler, err := space.NewSampler(ctxEvs...)
	if err != nil {
		return nil, fmt.Errorf("experiments: sampled ranker: %w", err)
	}

	results := make([]core.Result, 0, len(candidates))
	// Separate assignments for the context world and the document world:
	// the paper's formula treats the two distributions as independent
	// (P(g)·P(f), §3.3), so they are sampled independently even if they
	// happen to share basic events.
	ctxAssign := make(map[string]bool, 32)
	docAssign := make(map[string]bool, 32)
	for c, id := range candidates {
		docSampler, err := space.NewSampler(docEvs[c]...)
		if err != nil {
			return nil, fmt.Errorf("experiments: sampled ranker: %w", err)
		}
		total := 0.0
		for it := 0; it < n; it++ {
			ctxSampler.Sample(rng, ctxAssign)
			docSampler.Sample(rng, docAssign)
			prod := 1.0
			for i, rule := range req.Rules {
				if !ctxEvs[i].Eval(ctxAssign) {
					continue // context does not apply in this world
				}
				if docEvs[c][i].Eval(docAssign) {
					prod *= rule.Sigma
				} else {
					prod *= 1 - rule.Sigma
				}
			}
			total += prod
		}
		results = append(results, core.Result{ID: id, Score: total / float64(n)})
	}
	return core.Finalize(req, results), nil
}

// Package history implements the paper's history relation H and the
// semantics of the score function σ (§3.2): "σ(g,f) is the probability that
// if we take a random context in history with feature g and the user was
// able to choose a document with feature f given the other features of the
// document, the user actually chose a document with feature f." It provides
// a choice log, a σ miner implementing exactly that conditional frequency,
// and a synthetic episode generator with known ground truth (§6
// "Mining/learning preferences").
package history

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Doc is one candidate document in an episode, described by its feature
// set, as in §3.1: "both documents and context can be described by
// features".
type Doc struct {
	ID       string
	Features map[string]bool
}

// HasFeature reports whether the document carries the feature.
func (d Doc) HasFeature(f string) bool { return d.Features[f] }

// Episode is one historical choice situation: a context (as a feature set),
// the documents that were available, and the ones the user chose. A single
// episode may contain several chosen documents — "one should take the whole
// workday morning as one context where the user chose two documents"
// (§3.2).
type Episode struct {
	ContextFeatures map[string]bool
	Available       []Doc
	Chosen          map[string]bool // doc IDs
}

// Log is an append-only history of episodes. Safe for concurrent use.
type Log struct {
	mu       sync.RWMutex
	episodes []Episode
}

// NewLog returns an empty history log.
func NewLog() *Log { return &Log{} }

// Append adds an episode after validating that chosen documents were
// available.
func (l *Log) Append(e Episode) error {
	avail := make(map[string]bool, len(e.Available))
	for _, d := range e.Available {
		avail[d.ID] = true
	}
	for id := range e.Chosen {
		if !avail[id] {
			return fmt.Errorf("history: chosen document %q was not available", id)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.episodes = append(l.episodes, e)
	return nil
}

// Len returns the number of episodes.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.episodes)
}

// Estimate is one mined σ value with its support.
type Estimate struct {
	ContextFeature string
	DocFeature     string
	Sigma          float64
	Support        int // number of episodes the estimate is based on
}

// MineSigma estimates σ(g, f) from the log: among episodes whose context
// has feature g and in which at least one available document has feature f,
// the fraction in which the user chose a document with feature f.
// The boolean result reports whether any supporting episode exists.
func (l *Log) MineSigma(g, f string) (Estimate, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	support, chose := 0, 0
	for _, e := range l.episodes {
		if !e.ContextFeatures[g] {
			continue
		}
		available := false
		chosen := false
		for _, d := range e.Available {
			if !d.HasFeature(f) {
				continue
			}
			available = true
			if e.Chosen[d.ID] {
				chosen = true
			}
		}
		if !available {
			continue // the user was not able to choose an f-document
		}
		support++
		if chosen {
			chose++
		}
	}
	if support == 0 {
		return Estimate{ContextFeature: g, DocFeature: f}, false
	}
	return Estimate{
		ContextFeature: g,
		DocFeature:     f,
		Sigma:          float64(chose) / float64(support),
		Support:        support,
	}, true
}

// MineAll estimates σ for every (context feature, document feature) pair
// with at least minSupport supporting episodes, sorted by descending σ and
// then by names for determinism. This is the "preference mining" the paper
// leaves as future work (§6), using exactly the σ semantics of §3.2.
func (l *Log) MineAll(minSupport int) []Estimate {
	l.mu.RLock()
	ctxFeatures := make(map[string]bool)
	docFeatures := make(map[string]bool)
	for _, e := range l.episodes {
		for g := range e.ContextFeatures {
			ctxFeatures[g] = true
		}
		for _, d := range e.Available {
			for f := range d.Features {
				docFeatures[f] = true
			}
		}
	}
	l.mu.RUnlock()

	var out []Estimate
	for g := range ctxFeatures {
		for f := range docFeatures {
			est, ok := l.MineSigma(g, f)
			if ok && est.Support >= minSupport {
				out = append(out, est)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sigma != out[j].Sigma {
			return out[i].Sigma > out[j].Sigma
		}
		if out[i].ContextFeature != out[j].ContextFeature {
			return out[i].ContextFeature < out[j].ContextFeature
		}
		return out[i].DocFeature < out[j].DocFeature
	})
	return out
}

// GroundTruth is one true preference used by the generator: in contexts
// with feature Context, the user picks an available document with feature
// DocFeature with probability Sigma — the generative reading of a scored
// preference rule.
type GroundTruth struct {
	Context    string
	DocFeature string
	Sigma      float64
}

// Generator synthesizes episodes from ground-truth preferences.
type Generator struct {
	Truth    []GroundTruth
	Contexts []string // context features to cycle through; must cover Truth contexts
	Docs     []Doc    // the candidate pool available in every episode
	Rng      *rand.Rand
}

// Generate appends n episodes to the log. Each episode takes one context
// feature (cycling deterministically through Contexts) and, independently
// for each ground-truth rule active in that context, chooses a random
// available document carrying the rule's feature with probability Sigma —
// mirroring the paper's independence assumption for feature choices (§3.2).
func (g *Generator) Generate(log *Log, n int) error {
	if len(g.Contexts) == 0 || len(g.Docs) == 0 {
		return fmt.Errorf("history: generator needs contexts and docs")
	}
	if g.Rng == nil {
		return fmt.Errorf("history: generator needs a seeded Rng")
	}
	for i := 0; i < n; i++ {
		ctx := g.Contexts[i%len(g.Contexts)]
		ep := Episode{
			ContextFeatures: map[string]bool{ctx: true},
			Available:       g.Docs,
			Chosen:          make(map[string]bool),
		}
		for _, truth := range g.Truth {
			if truth.Context != ctx {
				continue
			}
			if g.Rng.Float64() >= truth.Sigma {
				continue
			}
			// Choose uniformly among available documents with the feature.
			var pool []string
			for _, d := range g.Docs {
				if d.HasFeature(truth.DocFeature) {
					pool = append(pool, d.ID)
				}
			}
			if len(pool) > 0 {
				ep.Chosen[pool[g.Rng.Intn(len(pool))]] = true
			}
		}
		if err := log.Append(ep); err != nil {
			return err
		}
	}
	return nil
}

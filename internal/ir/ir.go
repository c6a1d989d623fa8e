// Package ir implements the traditional, non-context-aware information
// retrieval model the paper builds on (§2): the language-modeling approach
// of Ponte & Croft as generalized by Berger & Lafferty. Documents are bags
// of features; the query-dependent part P(Q=q | D=d) is the product over
// query features of the smoothed feature-generation probabilities. This is
// the "query-dependent" half of equation (3); the core package supplies the
// context-aware query-independent half, and core.SmoothedScore combines
// them (§6).
package ir

import (
	"fmt"
	"sync"
)

// Document is a bag of features with counts (for text these would be term
// frequencies; for the TVTouch scenario they are genre/subject tags).
type Document struct {
	ID       string
	Features map[string]int
}

// Len returns the total feature count of the document.
func (d Document) Len() int {
	n := 0
	for _, c := range d.Features {
		n += c
	}
	return n
}

// Index is a feature-frequency index over a corpus. Safe for concurrent
// reads after documents are added.
type Index struct {
	mu        sync.RWMutex
	docs      map[string]Document
	collFreq  map[string]int // collection frequency per feature
	collTotal int
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{docs: make(map[string]Document), collFreq: make(map[string]int)}
}

// Add inserts a document; re-adding an ID replaces the previous version.
func (ix *Index) Add(d Document) error {
	if d.ID == "" {
		return fmt.Errorf("ir: document without ID")
	}
	for f, c := range d.Features {
		if c < 0 {
			return fmt.Errorf("ir: document %s has negative count for %q", d.ID, f)
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if old, ok := ix.docs[d.ID]; ok {
		for f, c := range old.Features {
			ix.collFreq[f] -= c
			ix.collTotal -= c
		}
	}
	ix.docs[d.ID] = d
	for f, c := range d.Features {
		ix.collFreq[f] += c
		ix.collTotal += c
	}
	return nil
}

// Model scores documents against queries. Lambda is the Jelinek–Mercer
// mixing weight of the collection model (0 < Lambda < 1 recommended; 0
// degenerates to maximum likelihood with zero-probability holes).
type Model struct {
	Index  *Index
	Lambda float64
}

// Score returns P(q | d) under the smoothed language model: the product
// over query features of (1−λ)·tf/|d| + λ·cf/|C|. A document unknown to the
// index scores using the collection model alone.
func (m Model) Score(docID string, query []string) (float64, error) {
	if m.Lambda < 0 || m.Lambda > 1 {
		return 0, fmt.Errorf("ir: lambda %g outside [0,1]", m.Lambda)
	}
	ix := m.Index
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	doc, hasDoc := ix.docs[docID]
	docLen := 0
	if hasDoc {
		docLen = doc.Len()
	}
	score := 1.0
	for _, f := range query {
		docPart := 0.0
		if hasDoc && docLen > 0 {
			docPart = float64(doc.Features[f]) / float64(docLen)
		}
		collPart := 0.0
		if ix.collTotal > 0 {
			collPart = float64(ix.collFreq[f]) / float64(ix.collTotal)
		}
		score *= (1-m.Lambda)*docPart + m.Lambda*collPart
	}
	return score, nil
}

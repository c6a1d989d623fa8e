package ir

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func newIndex(t *testing.T) *Index {
	t.Helper()
	ix := NewIndex()
	docs := []Document{
		{ID: "d1", Features: map[string]int{"news": 3, "weather": 1}},
		{ID: "d2", Features: map[string]int{"comedy": 4}},
		{ID: "d3", Features: map[string]int{"news": 1, "comedy": 1}},
	}
	for _, d := range docs {
		if err := ix.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

func TestScoreMaximumLikelihood(t *testing.T) {
	ix := newIndex(t)
	m := Model{Index: ix, Lambda: 0}
	s, err := m.Score("d1", []string{"news"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.75) > 1e-12 { // 3/4
		t.Fatalf("P(news|d1) = %g, want 0.75", s)
	}
	// Unsmoothed zero hole.
	s, _ = m.Score("d1", []string{"comedy"})
	if s != 0 {
		t.Fatalf("P(comedy|d1) = %g, want 0", s)
	}
}

func TestJelinekMercerSmoothing(t *testing.T) {
	ix := newIndex(t)
	m := Model{Index: ix, Lambda: 0.5}
	// collection: news 4, weather 1, comedy 5, total 10.
	s, err := m.Score("d1", []string{"comedy"})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5 * 0.5 // (1-λ)·0 + λ·5/10
	if math.Abs(s-want) > 1e-12 {
		t.Fatalf("smoothed P = %g, want %g", s, want)
	}
	// Multi-feature query multiplies.
	s, _ = m.Score("d1", []string{"news", "weather"})
	pNews := 0.5*0.75 + 0.5*0.4
	pWeather := 0.5*0.25 + 0.5*0.1
	if math.Abs(s-pNews*pWeather) > 1e-12 {
		t.Fatalf("joint = %g, want %g", s, pNews*pWeather)
	}
}

func TestUnknownDocumentUsesCollectionModel(t *testing.T) {
	ix := newIndex(t)
	m := Model{Index: ix, Lambda: 0.5}
	s, err := m.Score("ghost", []string{"news"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.5*0.4) > 1e-12 {
		t.Fatalf("P = %g", s)
	}
}

func TestRankOrdering(t *testing.T) {
	ix := newIndex(t)
	m := Model{Index: ix, Lambda: 0.1}
	ranked, err := m.Rank([]string{"news"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 || ranked[0].ID != "d1" || ranked[2].ID != "d2" {
		t.Fatalf("ranked = %v", ranked)
	}
}

func TestAddReplaceMaintainsCollectionStats(t *testing.T) {
	ix := NewIndex()
	ix.Add(Document{ID: "d", Features: map[string]int{"a": 10}})
	ix.Add(Document{ID: "d", Features: map[string]int{"b": 2}})
	if ix.Len() != 1 {
		t.Fatalf("len = %d", ix.Len())
	}
	m := Model{Index: ix, Lambda: 1}
	s, _ := m.Score("d", []string{"a"})
	if s != 0 {
		t.Fatalf("stale collection frequency: %g", s)
	}
	s, _ = m.Score("d", []string{"b"})
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("P = %g", s)
	}
}

func TestValidation(t *testing.T) {
	ix := NewIndex()
	if err := ix.Add(Document{}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if err := ix.Add(Document{ID: "d", Features: map[string]int{"a": -1}}); err == nil {
		t.Fatal("negative count accepted")
	}
	m := Model{Index: ix, Lambda: 2}
	if _, err := m.Score("d", []string{"a"}); err == nil {
		t.Fatal("bad lambda accepted")
	}
}

func TestEmptyQueryScoresOne(t *testing.T) {
	ix := newIndex(t)
	m := Model{Index: ix, Lambda: 0.5}
	s, err := m.Score("d1", nil)
	if err != nil || s != 1 {
		t.Fatalf("empty query: %g, %v", s, err)
	}
}

func TestQuickScoreIsProbability(t *testing.T) {
	ix := newIndex(t)
	f := func(lambdaRaw uint8, useNews, useComedy bool) bool {
		lambda := float64(lambdaRaw) / 255
		m := Model{Index: ix, Lambda: lambda}
		var q []string
		if useNews {
			q = append(q, "news")
		}
		if useComedy {
			q = append(q, "comedy")
		}
		for _, id := range []string{"d1", "d2", "d3"} {
			s, err := m.Score(id, q)
			if err != nil || s < 0 || s > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// Ranked is one ranked document.
type Ranked struct {
	ID    string
	Score float64
}

// Rank scores every indexed document against the query and returns them in
// descending score order (ties broken by ID).
func (m Model) Rank(query []string) ([]Ranked, error) {
	m.Index.mu.RLock()
	ids := make([]string, 0, len(m.Index.docs))
	for id := range m.Index.docs {
		ids = append(ids, id)
	}
	m.Index.mu.RUnlock()
	sort.Strings(ids)
	out := make([]Ranked, 0, len(ids))
	for _, id := range ids {
		s, err := m.Score(id, query)
		if err != nil {
			return nil, err
		}
		out = append(out, Ranked{ID: id, Score: s})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

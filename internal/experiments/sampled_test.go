package experiments

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dl"
)

func TestSampledRankerApproximatesTable1(t *testing.T) {
	l, req := table1(t)
	results, err := NewSampledRanker(l, 60000, 1).Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %v", results)
	}
	for _, res := range results {
		want := wantTable1[res.ID]
		if math.Abs(res.Score-want) > 0.01 {
			t.Fatalf("score(%s) = %.4f, want ≈%.4f", res.ID, res.Score, want)
		}
	}
	// Ranking order is preserved despite sampling noise.
	if results[0].ID != "Channel5News" || results[3].ID != "MPFS" {
		t.Fatalf("order = %v", results)
	}
}

func TestSampledRankerDeterministicPerSeed(t *testing.T) {
	l, req := table1(t)
	a, err := NewSampledRanker(l, 2000, 7).Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSampledRanker(l, 2000, 7).Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Score != b[i].Score {
			t.Fatalf("nondeterministic: %v vs %v", a[i], b[i])
		}
	}
}

func TestSampledRankerErrorShrinksWithSamples(t *testing.T) {
	l, req := table1(t)
	errAt := func(samples int) float64 {
		res, err := NewSampledRanker(l, samples, 11).Rank(req)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for _, r := range res {
			if d := math.Abs(r.Score - wantTable1[r.ID]); d > worst {
				worst = d
			}
		}
		return worst
	}
	small := errAt(200)
	large := errAt(50000)
	if large > small+1e-9 && large > 0.01 {
		t.Fatalf("error did not shrink: %g (200) vs %g (50000)", small, large)
	}
}

// TestSampledRankerDefaultsAndExplain: 0 samples means DefaultSamples, and
// an explanation is refused.
func TestSampledRankerDefaultsAndExplain(t *testing.T) {
	l, req := table1(t)
	r := NewSampledRanker(l, 0, 3) // 0 → DefaultSamples
	results, err := r.Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 || math.Abs(results[0].Score-wantTable1[results[0].ID]) > 0.05 {
		t.Fatalf("results = %v", results)
	}
	req.Explain = true
	if _, err := r.Rank(req); !errors.Is(err, errNoExplain) {
		t.Fatalf("explain request answered: err = %v", err)
	}
}

func TestSampledRankerValidation(t *testing.T) {
	l, _ := table1(t)
	if _, err := NewSampledRanker(l, 100, 1).Rank(core.Request{PlanRequest: core.PlanRequest{Target: dl.Atom("TvProgram")}}); err == nil {
		t.Fatal("missing user accepted")
	}
}

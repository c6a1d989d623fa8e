package core

import (
	"math"
	"testing"

	"repro/internal/dl"
)

func TestSampledRankerApproximatesTable1(t *testing.T) {
	l := paperSetup(t)
	r := NewSampledRanker(l, 60000, 1)
	results, err := r.Rank(paperRequest(t))
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
	l := paperSetup(t)
	a, err := NewSampledRanker(l, 2000, 7).Rank(paperRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSampledRanker(l, 2000, 7).Rank(paperRequest(t))
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
	l := paperSetup(t)
	req := paperRequest(t)
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

func TestSampledRankerDefaultsAndExplain(t *testing.T) {
	l := paperSetup(t)
	req := paperRequest(t)
	req.Explain = true
	r := NewSampledRanker(l, 0, 3) // 0 → DefaultSamples
	results, err := r.Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Explanation == nil || len(results[0].Explanation.Rules) != 2 {
		t.Fatalf("explanation missing: %v", results[0])
	}
	if r.Name() != "sampled" {
		t.Fatalf("name = %q", r.Name())
	}
}

func TestSampledRankerValidation(t *testing.T) {
	l := paperSetup(t)
	if _, err := NewSampledRanker(l, 100, 1).Rank(Request{PlanRequest: PlanRequest{Target: dl.Atom("TvProgram")}}); err == nil {
		t.Fatal("missing user accepted")
	}
}

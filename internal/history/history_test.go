package history

import (
	"math"
	"math/rand"
	"testing"
)

func doc(id string, feats ...string) Doc {
	m := make(map[string]bool, len(feats))
	for _, f := range feats {
		m[f] = true
	}
	return Doc{ID: id, Features: m}
}

func TestAppendValidatesChosen(t *testing.T) {
	l := NewLog()
	err := l.Append(Episode{
		ContextFeatures: map[string]bool{"Morning": true},
		Available:       []Doc{doc("d1", "traffic")},
		Chosen:          map[string]bool{"d2": true},
	})
	if err == nil {
		t.Fatal("chosen-but-unavailable document accepted")
	}
	if l.Len() != 0 {
		t.Fatal("invalid episode appended")
	}
}

// fig1Log reproduces the Figure 1 abstraction: on workday mornings the user
// watched traffic bulletins in 80% of the episodes and weather bulletins in
// 60%.
func fig1Log(t *testing.T) *Log {
	t.Helper()
	l := NewLog()
	docs := []Doc{doc("t", "traffic"), doc("w", "weather"), doc("o", "other")}
	for i := 0; i < 100; i++ {
		ep := Episode{
			ContextFeatures: map[string]bool{"WorkdayMorning": true},
			Available:       docs,
			Chosen:          map[string]bool{},
		}
		if i < 80 {
			ep.Chosen["t"] = true
		}
		if i < 60 {
			ep.Chosen["w"] = true
		}
		if err := l.Append(ep); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestMineSigmaFigure1(t *testing.T) {
	l := fig1Log(t)
	est, ok := l.MineSigma("WorkdayMorning", "traffic")
	if !ok || math.Abs(est.Sigma-0.8) > 1e-9 || est.Support != 100 {
		t.Fatalf("traffic estimate = %+v, ok=%v", est, ok)
	}
	est, ok = l.MineSigma("WorkdayMorning", "weather")
	if !ok || math.Abs(est.Sigma-0.6) > 1e-9 {
		t.Fatalf("weather estimate = %+v", est)
	}
	// Features never chosen mine to σ = 0 with full support.
	est, ok = l.MineSigma("WorkdayMorning", "other")
	if !ok || est.Sigma != 0 {
		t.Fatalf("other estimate = %+v", est)
	}
}

func TestMineSigmaRequiresAvailability(t *testing.T) {
	l := NewLog()
	// Episode where no weather bulletin was available must not count.
	l.Append(Episode{
		ContextFeatures: map[string]bool{"Morning": true},
		Available:       []Doc{doc("t", "traffic")},
		Chosen:          map[string]bool{"t": true},
	})
	if _, ok := l.MineSigma("Morning", "weather"); ok {
		t.Fatal("estimate produced without availability support")
	}
	l.Append(Episode{
		ContextFeatures: map[string]bool{"Morning": true},
		Available:       []Doc{doc("t", "traffic"), doc("w", "weather")},
		Chosen:          map[string]bool{"w": true},
	})
	est, ok := l.MineSigma("Morning", "weather")
	if !ok || est.Sigma != 1 || est.Support != 1 {
		t.Fatalf("estimate = %+v", est)
	}
}

func TestMineSigmaUnknownContext(t *testing.T) {
	l := fig1Log(t)
	if _, ok := l.MineSigma("Evening", "traffic"); ok {
		t.Fatal("estimate for unseen context")
	}
}

func TestMineAllOrderingAndSupport(t *testing.T) {
	l := fig1Log(t)
	ests := l.MineAll(1)
	if len(ests) != 3 {
		t.Fatalf("got %d estimates: %v", len(ests), ests)
	}
	if ests[0].DocFeature != "traffic" || ests[1].DocFeature != "weather" {
		t.Fatalf("ordering wrong: %v", ests)
	}
	if got := l.MineAll(101); len(got) != 0 {
		t.Fatalf("min support not honored: %v", got)
	}
}

func TestGeneratorRecoversGroundTruth(t *testing.T) {
	truth := []GroundTruth{
		{Context: "WorkdayMorning", DocFeature: "traffic", Sigma: 0.8},
		{Context: "WorkdayMorning", DocFeature: "weather", Sigma: 0.6},
		{Context: "Weekend", DocFeature: "film", Sigma: 0.9},
	}
	gen := &Generator{
		Truth:    truth,
		Contexts: []string{"WorkdayMorning", "Weekend"},
		Docs: []Doc{
			doc("t1", "traffic"), doc("t2", "traffic"),
			doc("w1", "weather"),
			doc("f1", "film"), doc("f2", "film"),
			doc("o1", "other"),
		},
		Rng: rand.New(rand.NewSource(1)),
	}
	l := NewLog()
	if err := gen.Generate(l, 10000); err != nil {
		t.Fatal(err)
	}
	for _, tr := range truth {
		est, ok := l.MineSigma(tr.Context, tr.DocFeature)
		if !ok {
			t.Fatalf("no estimate for %v", tr)
		}
		if math.Abs(est.Sigma-tr.Sigma) > 0.03 {
			t.Fatalf("mined σ(%s,%s) = %g, truth %g", tr.Context, tr.DocFeature, est.Sigma, tr.Sigma)
		}
	}
	// Cross-context leakage: film preference must not appear on mornings.
	est, ok := l.MineSigma("WorkdayMorning", "film")
	if !ok || est.Sigma > 0.01 {
		t.Fatalf("leaked estimate %+v", est)
	}
}

func TestGeneratorValidation(t *testing.T) {
	l := NewLog()
	if err := (&Generator{}).Generate(l, 1); err == nil {
		t.Fatal("empty generator accepted")
	}
	g := &Generator{Contexts: []string{"c"}, Docs: []Doc{doc("d", "f")}}
	if err := g.Generate(l, 1); err == nil {
		t.Fatal("generator without Rng accepted")
	}
}

func TestEpisodesSnapshot(t *testing.T) {
	l := NewLog()
	l.Append(Episode{
		ContextFeatures: map[string]bool{"c": true},
		Available:       []Doc{doc("d", "f")},
		Chosen:          map[string]bool{"d": true},
	})
	snap := l.Episodes()
	l.Append(Episode{
		ContextFeatures: map[string]bool{"c": true},
		Available:       []Doc{doc("d", "f")},
		Chosen:          map[string]bool{},
	})
	if len(snap) != 1 || l.Len() != 2 {
		t.Fatalf("snapshot len %d, log len %d", len(snap), l.Len())
	}
}

// Episodes returns a snapshot of the episodes.
func (l *Log) Episodes() []Episode {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]Episode, len(l.episodes))
	copy(out, l.episodes)
	return out
}

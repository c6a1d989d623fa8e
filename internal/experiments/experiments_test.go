package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestRunE1MatchesPaper(t *testing.T) {
	res, err := RunE1()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxError() > 1e-4 {
		t.Fatalf("max error %g vs paper", res.MaxError())
	}
	if len(res.Rows) != 4 || len(res.Rankers) != 3 {
		t.Fatalf("result shape: %+v", res)
	}
	var b strings.Builder
	res.Table().Write(&b)
	if !strings.Contains(b.String(), "0.6006") {
		t.Fatalf("table missing paper score:\n%s", b.String())
	}
}

func TestRunE2RecoversFigure1(t *testing.T) {
	res, err := RunE2(5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TrafficSigma-0.8) > 0.05 || math.Abs(res.WeatherSigma-0.6) > 0.05 {
		t.Fatalf("mined σ = %.3f / %.3f", res.TrafficSigma, res.WeatherSigma)
	}
	if math.Abs(res.PNeither-0.08) > 0.03 {
		t.Fatalf("P(neither) = %.4f", res.PNeither)
	}
	var b strings.Builder
	res.Table().Write(&b)
	if !strings.Contains(b.String(), "0.08") {
		t.Fatalf("table:\n%s", b.String())
	}
}

func TestRunE3SmallShowsGrowth(t *testing.T) {
	cfg := E3Config{
		Spec:     workload.SmallSpec(),
		MaxRules: 4,
		Timeout:  20 * time.Second,
		Ranker:   "view",
	}
	res, err := RunE3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	// The shape check: once past the fixed-overhead regime, runtime grows.
	last := res.Points[len(res.Points)-1]
	first := res.Points[0]
	if !last.TimedOut && last.Duration < first.Duration {
		t.Fatalf("no growth: first %v, last %v", first.Duration, last.Duration)
	}
	var b strings.Builder
	res.Table().Write(&b)
	if !strings.Contains(b.String(), "DNF (>30min)") && !strings.Contains(b.String(), "<1s") {
		t.Fatalf("paper column missing:\n%s", b.String())
	}
}

func TestRunE3RejectsUnknownRanker(t *testing.T) {
	cfg := DefaultE3Config()
	cfg.Ranker = "quantum"
	cfg.Spec = workload.SmallSpec()
	if _, err := RunE3(cfg); err == nil {
		t.Fatal("unknown ranker accepted")
	}
}

func TestRunA1FactorizedBeatsViewAtScale(t *testing.T) {
	res, err := RunA1(workload.SmallSpec(), 4, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	view := res.Series["view"]
	fact := res.Series["factorized"]
	if len(view) == 0 || len(fact) == 0 {
		t.Fatal("missing series")
	}
	// At the largest completed rule count, the factorized ranker must be
	// faster than the view ranker.
	k := len(view) - 1
	if view[k].TimedOut {
		k--
	}
	if k >= 0 && k < len(fact) && fact[k].Duration > view[k].Duration {
		t.Fatalf("factorized (%v) slower than view (%v) at %d rules",
			fact[k].Duration, view[k].Duration, k+1)
	}
	var b strings.Builder
	res.Table().Write(&b)
	if !strings.Contains(b.String(), "factorized") {
		t.Fatalf("table:\n%s", b.String())
	}
}

func TestRunA2SweepShape(t *testing.T) {
	res, err := RunA2(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %v", res.Points)
	}
	for _, p := range res.Points {
		if p.Tau < -1 || p.Tau > 1 {
			t.Fatalf("tau out of range: %v", p)
		}
	}
	// The blended truth contains both signals, so some mixed λ must do at
	// least as well as both extremes.
	var tau0, tau1, best float64 = 0, 0, math.Inf(-1)
	for _, p := range res.Points {
		if p.Lambda == 0 {
			tau0 = p.Tau
		}
		if p.Lambda == 1 {
			tau1 = p.Tau
		}
		if p.Tau > best {
			best = p.Tau
		}
	}
	if best < tau0 || best < tau1 {
		t.Fatalf("sweep maximum below an extreme: %+v", res.Points)
	}
}

func TestRunA3ErrorShrinks(t *testing.T) {
	res, err := RunA3([]int{20, 200, 2000}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %v", res.Points)
	}
	if res.Points[2].MeanErr > res.Points[0].MeanErr+0.02 {
		t.Fatalf("error did not shrink: %+v", res.Points)
	}
	if res.Points[2].MeanErr > 0.05 {
		t.Fatalf("final error too large: %+v", res.Points[2])
	}
}

func TestRunA4AccuracyImproves(t *testing.T) {
	res, err := RunA4(workload.SmallSpec(), 4, []int{100, 20000}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Rules != 4 {
		t.Fatalf("result = %+v", res)
	}
	small, large := res.Points[0], res.Points[1]
	if large.MaxErr > small.MaxErr+1e-9 && large.MaxErr > 0.005 {
		t.Fatalf("error did not shrink: %+v", res.Points)
	}
	if large.Tau < 0.8 {
		t.Fatalf("large-budget tau = %g", large.Tau)
	}
}

func TestKendallTau(t *testing.T) {
	ids := []string{"a", "b", "c"}
	x := map[string]float64{"a": 3, "b": 2, "c": 1}
	if tau := kendallTau(ids, x, x); tau != 1 {
		t.Fatalf("self tau = %g", tau)
	}
	y := map[string]float64{"a": 1, "b": 2, "c": 3}
	if tau := kendallTau(ids, x, y); tau != -1 {
		t.Fatalf("reversed tau = %g", tau)
	}
	z := map[string]float64{"a": 1, "b": 1, "c": 1}
	if tau := kendallTau(ids, x, z); tau != 0 {
		t.Fatalf("tied tau = %g", tau)
	}
}

// DefaultE3Config reproduces the paper's setup with a CI-friendly budget.
func DefaultE3Config() E3Config {
	return E3Config{
		Spec:     workload.DefaultSpec(),
		MaxRules: 8,
		Timeout:  30 * time.Second,
		Ranker:   "view",
	}
}

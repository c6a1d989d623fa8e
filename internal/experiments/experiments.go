// Package experiments implements the paper's evaluation artifacts as
// runnable procedures — one per table/figure plus the ablations listed in
// DESIGN.md §4. cmd/carbench prints them; the root bench_test.go measures
// them. Each experiment returns both the measured values and the paper's
// reported values so EXPERIMENTS.md can be regenerated mechanically.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/benchutil"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/history"
	"repro/internal/ir"
	"repro/internal/mapping"
	"repro/internal/prefs"
	"repro/internal/situation"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// E1 — Table 1 + §4.2 worked example.

// E1Row is one program of Table 1 with the paper's score and ours.
type E1Row struct {
	Program  string
	Paper    float64
	Measured map[string]float64 // ranker name -> score
}

// E1Result is the outcome of the worked example.
type E1Result struct {
	Rows    []E1Row
	Rankers []string
}

// paperTable1 is §4.2's hand calculation.
var paperTable1 = []struct {
	id    string
	score float64
}{
	{"Channel5News", 0.6006},
	{"BBCNews", 0.18},
	{"Oprah", 0.071},
	{"MPFS", 0.02},
}

// SetupTable1 loads the §4.2 example into a fresh loader.
func SetupTable1() (*mapping.Loader, []prefs.Rule, error) {
	db := engine.New()
	l := mapping.NewLoader(db, nil)
	if err := l.DeclareConcept("TvProgram"); err != nil {
		return nil, nil, err
	}
	for _, r := range []string{"hasGenre", "hasSubject"} {
		if err := l.DeclareRole(r); err != nil {
			return nil, nil, err
		}
	}
	space := db.Space()
	steps := []error{
		space.Declare("oprah_hi", 0.85),
		space.Declare("c5_hi", 0.95),
		space.Declare("c5_news", 0.85),
	}
	for _, p := range []string{"Oprah", "BBCNews", "Channel5News", "MPFS"} {
		steps = append(steps, l.AssertConcept("TvProgram", p, nil))
	}
	steps = append(steps,
		l.AssertRole("hasGenre", "Oprah", "HUMAN-INTEREST", event.Basic("oprah_hi")),
		l.AssertRole("hasGenre", "Channel5News", "HUMAN-INTEREST", event.Basic("c5_hi")),
		l.AssertRole("hasSubject", "BBCNews", "News", nil),
		l.AssertRole("hasSubject", "Channel5News", "News", event.Basic("c5_news")),
		situation.New("peter").Certain("Weekend").Certain("Breakfast").Apply(l),
	)
	for _, err := range steps {
		if err != nil {
			return nil, nil, err
		}
	}
	rules := []prefs.Rule{
		prefs.MustParseRule("RULE R1 WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.8"),
		prefs.MustParseRule("RULE R2 WHEN Breakfast PREFER TvProgram AND EXISTS hasSubject.{News} WITH 0.9"),
	}
	return l, rules, nil
}

// RunE1 executes the worked example on all three rankers.
func RunE1() (*E1Result, error) {
	l, rules, err := SetupTable1()
	if err != nil {
		return nil, err
	}
	req := core.Request{User: "peter", Rules: rules, PlanRequest: core.PlanRequest{Target: dl.Atom("TvProgram")}}
	rankers := []core.Ranker{
		core.NewNaiveRanker(l), core.NewViewRanker(l), core.NewFactorizedRanker(l),
	}
	res := &E1Result{}
	byProgram := make(map[string]map[string]float64)
	for _, r := range rankers {
		res.Rankers = append(res.Rankers, r.Name())
		results, err := r.Rank(req)
		if err != nil {
			return nil, fmt.Errorf("experiments: e1 %s: %w", r.Name(), err)
		}
		for _, out := range results {
			if byProgram[out.ID] == nil {
				byProgram[out.ID] = make(map[string]float64)
			}
			byProgram[out.ID][r.Name()] = out.Score
		}
	}
	for _, want := range paperTable1 {
		res.Rows = append(res.Rows, E1Row{
			Program:  want.id,
			Paper:    want.score,
			Measured: byProgram[want.id],
		})
	}
	return res, nil
}

// Table renders E1 as a benchutil table.
func (r *E1Result) Table() *benchutil.Table {
	t := &benchutil.Table{Header: append([]string{"program", "paper"}, r.Rankers...)}
	for _, row := range r.Rows {
		cells := []string{row.Program, fmt.Sprintf("%.4f", row.Paper)}
		for _, name := range r.Rankers {
			cells = append(cells, fmt.Sprintf("%.4f", row.Measured[name]))
		}
		t.Add(cells...)
	}
	return t
}

// MaxError returns the largest |paper − measured| across rows and rankers.
func (r *E1Result) MaxError() float64 {
	worst := 0.0
	for _, row := range r.Rows {
		for _, v := range row.Measured {
			if d := math.Abs(v - row.Paper); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// ---------------------------------------------------------------------------
// E2 — Figure 1: the history abstraction and σ mining.

// E2Result captures the Figure 1 reproduction.
type E2Result struct {
	TrafficSigma  float64 // mined; paper: 0.8
	WeatherSigma  float64 // mined; paper: 0.6
	PNeither      float64 // computed from mined σ; paper: 0.08
	PaperPNeither float64
	Episodes      int
}

// RunE2 generates a workday-morning history from the Figure 1 ground truth,
// mines σ back, and recomputes the paper's closing probability
// (1−σ_traffic)(1−σ_weather).
func RunE2(episodes int, seed int64) (*E2Result, error) {
	gen := &history.Generator{
		Truth: []history.GroundTruth{
			{Context: "WorkdayMorning", DocFeature: "traffic", Sigma: 0.8},
			{Context: "WorkdayMorning", DocFeature: "weather", Sigma: 0.6},
		},
		Contexts: []string{"WorkdayMorning"},
		Docs: []history.Doc{
			{ID: "t", Features: map[string]bool{"traffic": true}},
			{ID: "w", Features: map[string]bool{"weather": true}},
			{ID: "o", Features: map[string]bool{"other": true}},
		},
		Rng: rand.New(rand.NewSource(seed)),
	}
	log := history.NewLog()
	if err := gen.Generate(log, episodes); err != nil {
		return nil, err
	}
	tr, ok := log.MineSigma("WorkdayMorning", "traffic")
	if !ok {
		return nil, fmt.Errorf("experiments: e2: no traffic support")
	}
	we, ok := log.MineSigma("WorkdayMorning", "weather")
	if !ok {
		return nil, fmt.Errorf("experiments: e2: no weather support")
	}
	return &E2Result{
		TrafficSigma:  tr.Sigma,
		WeatherSigma:  we.Sigma,
		PNeither:      (1 - tr.Sigma) * (1 - we.Sigma),
		PaperPNeither: 0.08,
		Episodes:      episodes,
	}, nil
}

// Table renders E2.
func (r *E2Result) Table() *benchutil.Table {
	t := &benchutil.Table{Header: []string{"quantity", "paper", "measured"}}
	t.Add("σ(workday morning, traffic)", "0.80", fmt.Sprintf("%.3f", r.TrafficSigma))
	t.Add("σ(workday morning, weather)", "0.60", fmt.Sprintf("%.3f", r.WeatherSigma))
	t.Add("P(neither-featured ideal)", fmt.Sprintf("%.2f", r.PaperPNeither), fmt.Sprintf("%.4f", r.PNeither))
	return t
}

// ---------------------------------------------------------------------------
// E3 — §5 scalability: query time vs number of rules.

// E3Config parametrizes the scalability run.
type E3Config struct {
	Spec     workload.Spec
	MaxRules int
	Timeout  time.Duration // per-point budget (the paper cut off at 30 min)
	Ranker   string        // "view" (paper), "naive" or "factorized"
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

// E3Result is the measured sweep plus the paper's reported buckets.
type E3Result struct {
	Config E3Config
	Points []benchutil.Point
	Growth []float64
}

// PaperE3 summarizes the paper's §5 measurements.
const PaperE3 = "paper: 1-4 rules <1s; 5 rules 4-20s; 6 rules 4-20s; 7 rules DNF (>30min)"

// RunE3 generates the dataset once and sweeps the rule count. The dataset
// and context are rebuilt per point inside the timed function? No — the
// paper measures query time only, so the sweep times exactly one ranker
// call per point; context and rules are prepared outside the timer.
func RunE3(cfg E3Config) (*E3Result, error) {
	d, err := workload.Generate(cfg.Spec)
	if err != nil {
		return nil, err
	}
	if err := d.ApplyBenchContext(cfg.MaxRules, false); err != nil {
		return nil, err
	}
	var ranker core.Ranker
	switch cfg.Ranker {
	case "view":
		ranker = core.NewViewRanker(d.Loader)
	case "naive":
		ranker = core.NewNaiveRanker(d.Loader)
	case "factorized":
		ranker = core.NewFactorizedRanker(d.Loader)
	default:
		return nil, fmt.Errorf("experiments: unknown ranker %q", cfg.Ranker)
	}
	xs := make([]int, cfg.MaxRules)
	for i := range xs {
		xs[i] = i + 1
	}
	points := benchutil.RunSeries(xs, cfg.Timeout, func(k int) (string, error) {
		rules, err := d.Rules(k)
		if err != nil {
			return "", err
		}
		res, err := ranker.Rank(core.Request{
			User:        d.User,
			Rules:       rules,
			PlanRequest: core.PlanRequest{Target: dl.Atom("TvProgram")},
		})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d results", len(res)), nil
	})
	return &E3Result{Config: cfg, Points: points, Growth: benchutil.GrowthFactors(points)}, nil
}

// Table renders E3 with the paper's bucket next to each point.
func (r *E3Result) Table() *benchutil.Table {
	t := &benchutil.Table{Header: []string{"rules", "measured (" + r.Config.Ranker + ")", "paper (PostgreSQL 2006)", "note"}}
	for _, p := range r.Points {
		paper := ""
		switch {
		case p.X <= 4:
			paper = "<1s"
		case p.X <= 6:
			paper = "4-20s"
		default:
			paper = "DNF (>30min)"
		}
		t.Add(fmt.Sprintf("%d", p.X), p.Label(), paper, p.Extra)
	}
	return t
}

// ---------------------------------------------------------------------------
// A1 — ablation: the three rankers on the same sweep.

// A1Result compares rankers on the scalability workload.
type A1Result struct {
	Rankers []string
	Series  map[string][]benchutil.Point
}

// RunA1 sweeps each ranker with the given per-point budget on a shared
// dataset.
func RunA1(spec workload.Spec, maxRules int, timeout time.Duration) (*A1Result, error) {
	d, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	if err := d.ApplyBenchContext(maxRules, false); err != nil {
		return nil, err
	}
	out := &A1Result{Series: make(map[string][]benchutil.Point)}
	for _, name := range []string{"view", "naive", "factorized"} {
		var ranker core.Ranker
		switch name {
		case "view":
			ranker = core.NewViewRanker(d.Loader)
		case "naive":
			ranker = core.NewNaiveRanker(d.Loader)
		default:
			ranker = core.NewFactorizedRanker(d.Loader)
		}
		xs := make([]int, maxRules)
		for i := range xs {
			xs[i] = i + 1
		}
		out.Rankers = append(out.Rankers, name)
		out.Series[name] = benchutil.RunSeries(xs, timeout, func(k int) (string, error) {
			rules, err := d.Rules(k)
			if err != nil {
				return "", err
			}
			_, err = ranker.Rank(core.Request{User: d.User, Rules: rules, PlanRequest: core.PlanRequest{Target: dl.Atom("TvProgram")}})
			return "", err
		})
	}
	return out, nil
}

// Table renders A1 with one column per ranker.
func (r *A1Result) Table() *benchutil.Table {
	t := &benchutil.Table{Header: append([]string{"rules"}, r.Rankers...)}
	maxLen := 0
	for _, s := range r.Series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	for i := 0; i < maxLen; i++ {
		cells := []string{fmt.Sprintf("%d", i+1)}
		for _, name := range r.Rankers {
			s := r.Series[name]
			if i < len(s) {
				cells = append(cells, s[i].Label())
			} else {
				cells = append(cells, "skipped (prior DNF)")
			}
		}
		t.Add(cells...)
	}
	return t
}

// ---------------------------------------------------------------------------
// A2 — ablation: λ-weighting of query-dependent vs context score (§6).

// A2Point is ranking quality at one λ.
type A2Point struct {
	Lambda float64
	Tau    float64 // Kendall rank correlation with the ground-truth order
}

// A2Result is the λ sweep.
type A2Result struct {
	Points []A2Point
	BestAt float64
}

// RunA2 builds a small corpus where the user's true interest depends on
// both the query and the context: the ground-truth ordering combines the
// noise-free context score with the query score. We then rank using a
// noisy sensed context and sweep λ; quality should peak strictly between
// the pure-query and pure-context extremes, which is the paper's §6
// motivation for studying the weighting.
func RunA2(seed int64) (*A2Result, error) {
	spec := workload.SmallSpec()
	spec.Programs = 30
	spec.Seed = seed
	d, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	rules, err := d.Rules(3)
	if err != nil {
		return nil, err
	}
	ranker := core.NewFactorizedRanker(d.Loader)
	target := dl.Atom("TvProgram")

	// Ground truth: certain context.
	if err := d.ApplyBenchContext(3, true); err != nil {
		return nil, err
	}
	truthCtx, err := ranker.Rank(core.Request{User: d.User, Rules: rules, PlanRequest: core.PlanRequest{Target: target}})
	if err != nil {
		return nil, err
	}
	ctxTrue := make(map[string]float64, len(truthCtx))
	for _, r := range truthCtx {
		ctxTrue[r.ID] = r.Score
	}

	// Query-dependent part: the user queries for two genres; the index
	// holds the certain program features.
	ix := ir.NewIndex()
	res, err := d.Loader.DB().Query("SELECT src, dst FROM r_hasGenre")
	if err != nil {
		return nil, err
	}
	feats := make(map[string]map[string]int)
	for _, row := range res.Rows {
		if feats[row[0].S] == nil {
			feats[row[0].S] = make(map[string]int)
		}
		feats[row[0].S][row[1].S]++
	}
	for id, f := range feats {
		if err := ix.Add(ir.Document{ID: id, Features: f}); err != nil {
			return nil, err
		}
	}
	model := ir.Model{Index: ix, Lambda: 0.2}
	query := []string{d.Genres[0], d.Genres[1]}

	qd := make(map[string]float64)
	var ids []string
	for id := range ctxTrue {
		s, err := model.Score(id, query)
		if err != nil {
			return nil, err
		}
		qd[id] = s
		ids = append(ids, id)
	}
	sort.Strings(ids)

	// The true interest blends both signals equally.
	truth := make(map[string]float64, len(ids))
	for _, id := range ids {
		truth[id], _ = core.SmoothedScore(qd[id], ctxTrue[id], 0.5)
	}

	// Observed: noisy context (the worst case for the context half).
	rng := rand.New(rand.NewSource(seed + 1))
	ctxNoisy := situation.New(d.User)
	for i := 0; i < 3; i++ {
		p := 0.55 + 0.35*rng.Float64()
		ctxNoisy.Add(workload.BenchContextConcept(i), p)
	}
	if err := ctxNoisy.Apply(d.Loader); err != nil {
		return nil, err
	}
	observed, err := ranker.Rank(core.Request{User: d.User, Rules: rules, PlanRequest: core.PlanRequest{Target: target}})
	if err != nil {
		return nil, err
	}
	ctxObs := make(map[string]float64, len(observed))
	for _, r := range observed {
		ctxObs[r.ID] = r.Score
	}

	out := &A2Result{}
	bestTau := math.Inf(-1)
	for _, lambda := range []float64{0, 0.25, 0.5, 0.75, 1} {
		combined := make(map[string]float64, len(ids))
		for _, id := range ids {
			combined[id], _ = core.SmoothedScore(qd[id], ctxObs[id], lambda)
		}
		tau := kendallTau(ids, truth, combined)
		out.Points = append(out.Points, A2Point{Lambda: lambda, Tau: tau})
		if tau > bestTau {
			bestTau = tau
			out.BestAt = lambda
		}
	}
	return out, nil
}

// kendallTau computes the Kendall rank correlation of two score maps over
// the given ids.
func kendallTau(ids []string, a, b map[string]float64) float64 {
	concordant, discordant := 0, 0
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			da := a[ids[i]] - a[ids[j]]
			db := b[ids[i]] - b[ids[j]]
			switch {
			case da*db > 0:
				concordant++
			case da*db < 0:
				discordant++
			}
		}
	}
	total := concordant + discordant
	if total == 0 {
		return 0
	}
	return float64(concordant-discordant) / float64(total)
}

// Table renders A2.
func (r *A2Result) Table() *benchutil.Table {
	t := &benchutil.Table{Header: []string{"lambda", "kendall tau vs truth"}}
	for _, p := range r.Points {
		t.Add(fmt.Sprintf("%.2f", p.Lambda), fmt.Sprintf("%+.3f", p.Tau))
	}
	return t
}

// ---------------------------------------------------------------------------
// A4 — ablation: Monte Carlo ranking accuracy vs samples.

// A4Point measures the sampled ranker at one sample budget.
type A4Point struct {
	Samples  int
	MaxErr   float64       // worst |sampled − exact| over all candidates
	Tau      float64       // Kendall tau of sampled vs exact ranking
	Duration time.Duration // wall clock of the sampled Rank call
}

// A4Result is the sweep over sample budgets.
type A4Result struct {
	Points []A4Point
	Rules  int
}

// RunA4 compares the Monte Carlo ranker against the exact factorized
// ranker on the scalability workload: the error should shrink as
// O(1/√samples) while the runtime grows linearly — the anytime trade-off
// the §6 performance discussion motivates.
func RunA4(spec workload.Spec, k int, budgets []int, seed int64) (*A4Result, error) {
	d, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	if err := d.ApplyBenchContext(k, false); err != nil {
		return nil, err
	}
	rules, err := d.Rules(k)
	if err != nil {
		return nil, err
	}
	req := core.Request{User: d.User, Rules: rules, PlanRequest: core.PlanRequest{Target: dl.Atom("TvProgram")}}
	exact, err := core.NewFactorizedRanker(d.Loader).Rank(req)
	if err != nil {
		return nil, err
	}
	exactScores := make(map[string]float64, len(exact))
	var ids []string
	for _, r := range exact {
		exactScores[r.ID] = r.Score
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)

	out := &A4Result{Rules: k}
	for _, n := range budgets {
		ranker := core.NewSampledRanker(d.Loader, n, seed)
		start := time.Now()
		approx, err := ranker.Rank(req)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		approxScores := make(map[string]float64, len(approx))
		worst := 0.0
		for _, r := range approx {
			approxScores[r.ID] = r.Score
			if d := math.Abs(r.Score - exactScores[r.ID]); d > worst {
				worst = d
			}
		}
		out.Points = append(out.Points, A4Point{
			Samples:  n,
			MaxErr:   worst,
			Tau:      kendallTau(ids, exactScores, approxScores),
			Duration: elapsed,
		})
	}
	return out, nil
}

// Table renders A4.
func (r *A4Result) Table() *benchutil.Table {
	t := &benchutil.Table{Header: []string{"samples", "max |err|", "tau vs exact", "time"}}
	for _, p := range r.Points {
		t.Add(fmt.Sprintf("%d", p.Samples),
			fmt.Sprintf("%.4f", p.MaxErr),
			fmt.Sprintf("%+.3f", p.Tau),
			p.Duration.Round(time.Millisecond).String())
	}
	return t
}

// ---------------------------------------------------------------------------
// A3 — ablation: σ-miner convergence.

// A3Point is the miner's error at one history length.
type A3Point struct {
	Episodes int
	MeanErr  float64
}

// A3Result is the convergence sweep.
type A3Result struct {
	Points []A3Point
}

// RunA3 measures |mined σ − true σ| averaged over the ground-truth pairs as
// the history grows.
func RunA3(lengths []int, seed int64) (*A3Result, error) {
	truth := []history.GroundTruth{
		{Context: "morning", DocFeature: "traffic", Sigma: 0.8},
		{Context: "morning", DocFeature: "weather", Sigma: 0.6},
		{Context: "evening", DocFeature: "film", Sigma: 0.7},
	}
	docs := []history.Doc{
		{ID: "t", Features: map[string]bool{"traffic": true}},
		{ID: "w", Features: map[string]bool{"weather": true}},
		{ID: "f", Features: map[string]bool{"film": true}},
		{ID: "o", Features: map[string]bool{"other": true}},
	}
	out := &A3Result{}
	for _, n := range lengths {
		gen := &history.Generator{
			Truth:    truth,
			Contexts: []string{"morning", "evening"},
			Docs:     docs,
			Rng:      rand.New(rand.NewSource(seed)),
		}
		log := history.NewLog()
		if err := gen.Generate(log, n); err != nil {
			return nil, err
		}
		sum, cnt := 0.0, 0
		for _, tr := range truth {
			est, ok := log.MineSigma(tr.Context, tr.DocFeature)
			if !ok {
				continue
			}
			sum += math.Abs(est.Sigma - tr.Sigma)
			cnt++
		}
		if cnt == 0 {
			continue
		}
		out.Points = append(out.Points, A3Point{Episodes: n, MeanErr: sum / float64(cnt)})
	}
	return out, nil
}

// Table renders A3.
func (r *A3Result) Table() *benchutil.Table {
	t := &benchutil.Table{Header: []string{"episodes", "mean |σ̂ − σ|"}}
	for _, p := range r.Points {
		t.Add(fmt.Sprintf("%d", p.Episodes), fmt.Sprintf("%.4f", p.MeanErr))
	}
	return t
}
